"""Packet trains: exact packets, and runs identical to per-packet.

A train must be indistinguishable from sending its packets one by one.
The unit tests pin every materialised packet to the per-packet
construction (``make_udp_packet``, a hand-built raw fragment, the
port-unreachable error a host sends for one packet) and check that every
receiver that would see the packets gets them one by one.  The
differential grids run SadDNS and FragDNS cells twice — once on the
train path, once forced packet by packet through a pass-through
interceptor (any interceptor sends trains down the per-packet fallback)
— and compare everything the cells leave behind.
"""

from __future__ import annotations

import dataclasses
import gc
import struct
from dataclasses import replace

import pytest

from repro.attacks.saddns import SadDnsConfig
from repro.core.rng import DeterministicRNG
from repro.defenses.ablation import defended_scenario
from repro.defenses.base import DefenseStack
from repro.faults.spec import FaultPlan, ImpairmentSpec
from repro.netsim import FragmentTrain, IcmpErrorTrain, UdpTrain
from repro.netsim.addresses import ip_to_int
from repro.netsim.checksum import ones_complement_sum
from repro.netsim.fragmentation import fragment_packet
from repro.netsim.host import Host, HostConfig
from repro.netsim.network import Network
from repro.netsim.packet import (
    ICMP_DEST_UNREACHABLE,
    ICMP_PORT_UNREACHABLE,
    PROTO_UDP,
    IcmpMessage,
    Ipv4Packet,
)
from repro.netsim.wire import encode_ipv4, make_icmp_packet, make_udp_packet

SRC = "123.0.0.53"
DST = "30.0.0.1"
PAYLOAD = bytes(range(7, 60))


def _folded_sum(sport: int, dport: int, payload: bytes) -> int:
    """One's-complement sum of pseudo-header + UDP segment (csum 0)."""
    length = 8 + len(payload)
    return ones_complement_sum(
        struct.pack("!HHHH", sport, dport, length, 0) + payload,
        (ip_to_int(SRC) >> 16) + (ip_to_int(SRC) & 0xFFFF)
        + (ip_to_int(DST) >> 16) + (ip_to_int(DST) & 0xFFFF)
        + 17 + length)


def _assert_packets_exact(train: UdpTrain, dports, payloads) -> None:
    for i in range(len(train)):
        expected = make_udp_packet(SRC, DST, train.sport, dports[i],
                                   payloads[i], ident=train.idents[i])
        got = train.packet(i)
        assert got == expected
        assert got.udp == expected.udp
        assert train.payload(i) == payloads[i]
        assert train.dport_at(i) == dports[i]


def _with_txid(txid: int) -> bytes:
    return bytes((txid >> 8, txid & 0xFF)) + PAYLOAD[2:]


class TestUdpTrainPackets:
    def test_txid_train_packets_match_make_udp_packet(self):
        txids = range(0x1200, 0x1200 + 600)
        rng = DeterministicRNG("train")
        train = UdpTrain(SRC, DST, 53, PAYLOAD,
                         [rng.pick_txid() for _ in txids],
                         dport=20001, txids=txids)
        _assert_packets_exact(train, [20001] * 600,
                              [_with_txid(t) for t in txids])

    def test_txid_train_checksum_folding_to_zero(self):
        # The TXID whose sum folds to 0xFFFF computes checksum 0, which
        # UDP transmits as 0xFFFF (RFC 768).
        zero_txid = 0xFFFF - _folded_sum(53, 20001, _with_txid(0))
        txids = range(max(zero_txid - 2, 0), min(zero_txid + 3, 0x10000))
        train = UdpTrain(SRC, DST, 53, PAYLOAD, [9] * len(txids),
                         dport=20001, txids=txids)
        index = train.index_of(zero_txid)
        assert train.packet(index).payload[6:8] == b"\xff\xff"
        _assert_packets_exact(train, [20001] * len(txids),
                              [_with_txid(t) for t in txids])

    def test_port_train_packets_match_make_udp_packet(self):
        payload = b"\x00\x00probe"
        zero_port = 0xFFFF - _folded_sum(53, 0, payload)
        dports = [2, 3, 40000, 65535, zero_port, 1024]
        train = UdpTrain(SRC, DST, 53, payload, [1, 2, 3, 4, 5, 6],
                         dports=dports)
        assert train.packet(4).payload[6:8] == b"\xff\xff"
        _assert_packets_exact(train, dports, [payload] * len(dports))

    def test_index_of(self):
        train = UdpTrain(SRC, DST, 53, PAYLOAD, [0] * 4096, dport=1,
                         txids=range(4096, 8192))
        assert train.index_of(4096) == 0
        assert train.index_of(5000) == 904
        assert train.index_of(5000, start=904) == 904
        assert train.index_of(5000, start=905) is None
        assert train.index_of(4095) is None
        assert train.index_of(8192) is None

    @pytest.mark.parametrize("kwargs", [
        {},                                            # no varying field
        {"dport": 1},                                  # no varying field
        {"dport": 1, "dports": [1, 2]},                # both port forms
        {"dports": [1, 2], "txids": range(2)},         # two varying fields
        {"dports": [1]},                               # length mismatch
        {"dport": 1, "txids": range(3)},               # TXID count
        {"dport": 1, "txids": range(0xFFFF, 0x10001)},  # TXID > 16 bit
        {"dport": 0x10000, "txids": range(2)},         # port > 16 bit
    ])
    def test_rejects_malformed_trains(self, kwargs):
        with pytest.raises(ValueError):
            UdpTrain(SRC, DST, 53, PAYLOAD, [0, 0], **kwargs)

    def test_rejects_out_of_range_idents_and_empty_trains(self):
        with pytest.raises(ValueError):
            UdpTrain(SRC, DST, 53, PAYLOAD, [0, 0x10000], dports=[1, 2])
        with pytest.raises(ValueError):
            UdpTrain(SRC, DST, 53, PAYLOAD, [], dports=[])


class TestTrainDelivery:
    def _pair(self):
        net = Network()
        sender = net.attach(Host("attacker", "6.6.6.6", HostConfig(
            egress_spoofing_allowed=True)))
        receiver = net.attach(Host("victim", DST))
        net.attach(Host("ns", SRC))
        return net, sender, receiver

    def test_one_event_per_train_and_bulk_accounting(self):
        net, sender, receiver = self._pair()
        train = UdpTrain(SRC, DST, 53, PAYLOAD, [0] * 200, dport=20001,
                         txids=range(200))
        sender.raw_send_train(train)
        net.run(1.0)
        # 200 packets to a closed port: one delivery event, 50 ICMP
        # errors (the burst) back to the spoofed source as one more
        # event, 150 refused.
        assert net.scheduler.executed == 1 + 1
        assert net.stats.transmitted == 200 + 50
        assert net.host_for(SRC).stats.received == 50
        assert net.stats.per_destination[DST] == 200
        assert sender.stats.sent == 200
        assert receiver.stats.received == 200
        assert receiver.stats.udp_to_closed_port == 200
        assert receiver.stats.icmp_errors_sent == 50
        assert receiver.stats.icmp_errors_suppressed == 150
        assert receiver._icmp_bucket.denied == 150

    def test_open_socket_without_train_handler_gets_each_packet(self):
        net, sender, receiver = self._pair()
        seen = []
        receiver.open_udp(20001, lambda dgram, src, dst: seen.append(
            dgram.payload[:2]))
        sender.raw_send_train(UdpTrain(SRC, DST, 53, PAYLOAD, [0] * 5,
                                       dport=20001, txids=range(5)))
        net.run(1.0)
        assert seen == [bytes((0, t)) for t in range(5)]
        assert receiver.stats.udp_delivered == 5

    def test_egress_filtering_applies_to_trains(self):
        net = Network()
        filtered = net.attach(Host("filtered", "6.6.6.7"))
        net.attach(Host("victim", DST))
        with pytest.raises(PermissionError):
            filtered.raw_send_train(UdpTrain(SRC, DST, 53, PAYLOAD, [0],
                                             dports=[1]))


def _port_unreachable(host_ip: str, offending: Ipv4Packet,
                      ident: int) -> Ipv4Packet:
    """The error a host at ``host_ip`` sends for ``offending`` alone."""
    return make_icmp_packet(
        src=host_ip, dst=offending.src,
        message=IcmpMessage(icmp_type=ICMP_DEST_UNREACHABLE,
                            code=ICMP_PORT_UNREACHABLE,
                            embedded=encode_ipv4(offending)[:28]),
        ident=ident)


class TestErrorAndFragmentTrainPackets:
    @pytest.mark.parametrize("kind", ["txid", "port"])
    def test_error_packets_match_per_packet_errors(self, kind):
        if kind == "txid":
            train = UdpTrain(SRC, DST, 53, PAYLOAD,
                             [(7 * i) & 0xFFFF for i in range(300)],
                             dport=20001, txids=range(100, 400))
        else:
            payload = b"\x00\x00probe"
            # Includes the port whose UDP checksum goes out as 0xFFFF.
            dports = [2, 3, 40000, 65535,
                      0xFFFF - _folded_sum(53, 0, payload), 1024]
            train = UdpTrain(SRC, DST, 53, payload, [1, 2, 3, 4, 5, 6],
                             dports=dports)
        indices = [0, 1, 3, len(train) - 1]
        errors = IcmpErrorTrain(DST, train, indices, [9, 10, 0xFFFF, 0])
        assert (errors.src, errors.dst, errors.sport) == (DST, SRC, 53)
        for k, i in enumerate(indices):
            expected = _port_unreachable(DST, train.packet(i),
                                         errors.idents[k])
            got = errors.packet(k)
            assert got == expected
            assert got.icmp == expected.icmp
            assert got.total_length == 56

    def test_fragment_packets_match_hand_built_fragments(self):
        train = FragmentTrain(SRC, DST, PAYLOAD, 6, [5, 0, 0xFFFF])
        for mf in (False, True):
            train.mf = mf
            for i, ident in enumerate(train.idents):
                assert train.packet(i) == Ipv4Packet(
                    src=SRC, dst=DST, proto=PROTO_UDP, payload=PAYLOAD,
                    ident=ident, mf=mf, frag_offset=6)

    @pytest.mark.parametrize("offset, idents", [
        (0, [1]),            # a first fragment
        (0x2000, [1]),       # offset past 13 bits
        (6, []),             # no packet
        (6, [0x10000]),      # ident past 16 bits
    ])
    def test_fragment_train_rejects(self, offset, idents):
        with pytest.raises(ValueError):
            FragmentTrain(SRC, DST, PAYLOAD, offset, idents)

    def test_error_train_keeps_only_its_own_packets(self):
        flood = UdpTrain(SRC, DST, 53, PAYLOAD, [3] * 0x10000, dport=1,
                         txids=range(0x10000))
        errors = IcmpErrorTrain(DST, flood, range(1000, 1050),
                                list(range(50)))
        held = gc.get_referents(errors)
        for obj in (flood, flood.idents, flood.txids, flood.template):
            assert all(ref is not obj for ref in held)
        for ref in held:
            if isinstance(ref, (list, tuple, range)):
                assert len(ref) == 50


def _pass_through(packet, origin):
    return None


def _world(per_packet: bool, victim_config: HostConfig | None = None):
    net = Network()
    attacker = net.attach(Host("attacker", "6.6.6.6", HostConfig(
        egress_spoofing_allowed=True)))
    victim = net.attach(Host("victim", DST, victim_config))
    ns = net.attach(Host("ns", SRC))
    if per_packet:
        net.add_interceptor(_pass_through)
    return net, attacker, victim, ns


def _count_receives(host: Host) -> list:
    """Record every per-packet :meth:`Host.receive` call on ``host``."""
    calls = []
    receive = host.receive

    def counting(packet):
        calls.append(packet)
        receive(packet)

    host.receive = counting
    return calls


def _flood_closed_port(ns_setup) -> tuple[list, dict, list]:
    """200 spoofed packets to a closed port earn 50 errors back at the
    nameserver; returns what ``ns_setup``'s observer saw on the train
    path, the per-packet path's observations, and the nameserver's
    per-packet ``receive`` calls on the train path."""
    seen = {}
    calls = None
    for per_packet in (False, True):
        net, attacker, _victim, ns = _world(per_packet)
        observed = ns_setup(ns)
        if not per_packet:
            calls = _count_receives(ns)
        attacker.raw_send_train(UdpTrain(
            SRC, DST, 53, PAYLOAD, list(range(200)), dport=20001,
            txids=range(200)))
        net.run(1.0)
        seen[per_packet] = (observed, dataclasses.asdict(ns.stats),
                            dataclasses.asdict(net.stats))
    assert seen[False] == seen[True]
    return seen[False][0], seen[False][1], calls


class TestReceiverFallbacks:
    """A receiver that would see a train's packets gets them one by one;
    every outcome equals the per-packet path's."""

    def test_unobserved_error_train_settles_in_one_step(self):
        def setup(ns):
            ns.open_udp(53)          # no error handler on the socket
            return []

        _, stats, calls = _flood_closed_port(setup)
        assert calls == []
        assert stats["received"] == 50

    def test_icmp_listener_gets_each_error(self):
        def setup(ns):
            heard = []
            ns.icmp_listener = lambda message, src: heard.append(
                (message.embedded, src))
            return heard

        heard, _, calls = _flood_closed_port(setup)
        assert len(calls) == len(heard) == 50

    def test_socket_error_handler_gets_each_error(self):
        def setup(ns):
            handled = []
            ns.open_udp(53).error_handler = \
                lambda message, src: handled.append(message.embedded)
            return handled

        handled, _, calls = _flood_closed_port(setup)
        assert len(calls) == len(handled) == 50

    def test_packet_tap_sees_each_error(self):
        def setup(ns):
            tapped = []
            ns.packet_tap = tapped.append
            return tapped

        tapped, _, calls = _flood_closed_port(setup)
        assert tapped == calls and len(calls) == 50

    def test_train_for_another_address_goes_per_packet(self):
        offending = UdpTrain(SRC, DST, 53, PAYLOAD, [1, 2], dport=9,
                             txids=range(2))
        for train in (IcmpErrorTrain(DST, offending, [0, 1], [5, 6]),
                      FragmentTrain(SRC, DST, PAYLOAD, 6, [1, 2])):
            bystander = Host("bystander", "7.7.7.7")
            calls = _count_receives(bystander)
            bystander.receive_train(train)
            assert calls == [train.packet(i) for i in range(len(train))]
            assert bystander.stats.received == len(train)
            assert len(bystander.reassembly) == 0

    @pytest.mark.parametrize("accept", [True, False])
    @pytest.mark.parametrize("tap", [False, True])
    def test_fragment_train_matches_per_packet(self, accept, tap):
        outcome = {}
        for per_packet in (False, True):
            net, attacker, victim, _ns = _world(
                per_packet, HostConfig(accept_fragments=accept))
            tapped = []
            if tap:
                victim.packet_tap = tapped.append
            calls = _count_receives(victim)
            attacker.raw_send_train(FragmentTrain(
                SRC, DST, PAYLOAD, 6, list(range(100))))
            net.run(1.0)
            cache = victim.reassembly
            outcome[per_packet] = (
                dataclasses.asdict(victim.stats), list(cache._partials),
                cache.evictions, tapped)
            if not per_packet:
                # Only a tap makes the train fall back.
                assert len(calls) == (100 if tap else 0)
        assert outcome[False] == outcome[True]
        stats, keys, evictions, _ = outcome[False]
        assert stats["received"] == 100
        assert len(keys) == (64 if accept else 0)
        assert evictions == (36 if accept else 0)


class TestPlantedKeyCompletes:
    def test_first_fragment_already_held_reassembles_and_delivers(self):
        datagram = make_udp_packet(SRC, DST, 53, 20001, bytes(range(60)),
                                   ident=4321)
        first, second = fragment_packet(datagram, 68)
        outcome = {}
        for per_packet in (False, True):
            net, attacker, victim, _ns = _world(per_packet)
            got = []
            victim.open_udp(20001, lambda dgram, src, dst: got.append(
                (dgram.payload, src)))
            victim.receive(first)
            attacker.raw_send_train(FragmentTrain(
                SRC, DST, second.payload, second.frag_offset,
                [17, 4321, 18]))
            net.run(1.0)
            outcome[per_packet] = (got, dataclasses.asdict(victim.stats),
                                   list(victim.reassembly._partials))
        assert outcome[False] == outcome[True]
        got, stats, keys = outcome[False]
        assert got == [(bytes(range(60)), SRC)]
        assert stats["reassembled"] == 1 and stats["udp_delivered"] == 1
        assert keys == [(SRC, DST, PROTO_UDP, 17),
                        (SRC, DST, PROTO_UDP, 18)]


# -- differential: train path vs forced per-packet path ----------------------

STACKS = ("none", "dnssec", "0x20-encoding", "no-icmp-errors",
          "randomized-icmp-limit")
# Impair the attacker's own link (impairments match the sender's real
# address) plus the nameserver's answers.
FAULTED = FaultPlan(impairments=(
    ImpairmentSpec(src="6.6.6.6", dst="30.0.0.1", loss=0.01,
                   jitter=0.002),
    ImpairmentSpec(src="123.0.0.53", dst="30.0.0.1", extra_latency=0.004),
), label="lossy-attacker")


# A 50-port window: the first probe batch covers the query port, so
# every iteration isolates it and floods all 2^16 TXIDs.
FLOOD_WINDOW = HostConfig(ephemeral_low=20000, ephemeral_high=20049)


def _cell_state(stack: str, seed: int, plan, per_packet: bool,
                resolver_host: HostConfig | None) -> dict:
    scenario = replace(
        defended_scenario("SadDNS", DefenseStack.parse(stack)),
        attack_config=SadDnsConfig(max_iterations=1), faults=plan)
    if resolver_host is not None:
        scenario = replace(scenario, resolver_host_config=resolver_host)
    built = scenario.build(seed=f"train-diff-{seed}")
    if per_packet:
        built.network.add_interceptor(_pass_through)
    run = built.execute()
    resolver = built.resolver
    bucket = resolver.host._icmp_bucket
    return {
        "result": run.result,
        "network": dataclasses.asdict(built.network.stats),
        "resolver_host": dataclasses.asdict(resolver.host.stats),
        "attacker_host": dataclasses.asdict(built.attacker.host.stats),
        # The probe rounds' ICMP errors land at the spoofed nameserver.
        "nameserver_host": dataclasses.asdict(
            built.attack.nameserver.host.stats),
        "resolver": dataclasses.asdict(resolver.stats),
        "bucket": None if bucket is None
        else (bucket._tokens, bucket.allowed, bucket.denied),
        "rng": built.attacker.rng.getstate(),
        "cache": {key: (entry.records, entry.poisoned)
                  for key, entry in resolver.cache._entries.items()},
        "now": built.network.now,
        "events": built.network.scheduler.executed,
    }


def _assert_paths_agree(stack, seed, plan, resolver_host) -> tuple:
    trained = _cell_state(stack, seed, plan, False, resolver_host)
    reference = _cell_state(stack, seed, plan, True, resolver_host)
    events = (trained.pop("events"), reference.pop("events"))
    assert trained == reference
    return trained, events


@pytest.mark.parametrize("plan", [None, FAULTED], ids=["clean", "faulted"])
@pytest.mark.parametrize("stack", STACKS)
@pytest.mark.parametrize("seed", range(3))
def test_train_path_matches_per_packet_path(seed, stack, plan):
    # A fault plan sends both runs down the per-packet path, where a
    # flood costs about a second, so faulted cells keep the ablation's
    # 4,096-port window instead of flooding on every iteration; one
    # flood under faults is pinned below.
    resolver_host = FLOOD_WINDOW if plan is None else None
    state, (trained, reference) = _assert_paths_agree(
        stack, seed, plan, resolver_host)
    if plan is None and stack in ("none", "dnssec", "0x20-encoding"):
        assert state["result"].packets_sent > 4096   # at least one chunk
        # A flood is a handful of events instead of one per packet.
        assert reference > 10 * trained


def test_flood_under_faults_matches_per_packet_path():
    state, _ = _assert_paths_agree("dnssec", 0, FAULTED, FLOOD_WINDOW)
    assert state["result"].packets_sent > 0x10000
    assert state["network"]["faults_dropped"] > 0


# -- differential: FragDNS fragment plants ------------------------------------

FRAG_STACKS = ("none", "dnssec", "0x20-encoding", "no-icmp-errors",
               "randomized-icmp-limit", "rpki-rov")


def _frag_cell_state(stack: str, policy: str, seed: int,
                     per_packet: bool) -> dict:
    scenario = replace(
        defended_scenario("FragDNS", DefenseStack.parse(stack)),
        ns_host_config=HostConfig(ipid_policy=policy, min_accepted_mtu=68))
    built = scenario.build(seed=f"frag-diff-{seed}")
    if per_packet:
        built.network.add_interceptor(_pass_through)
    run = built.execute()
    resolver = built.resolver
    reassembly = resolver.host.reassembly
    return {
        "result": run.result,
        "network": dataclasses.asdict(built.network.stats),
        "resolver_host": dataclasses.asdict(resolver.host.stats),
        "nameserver_host": dataclasses.asdict(
            built.attack.nameserver.host.stats),
        "attacker_host": dataclasses.asdict(built.attacker.host.stats),
        "reassembly": (reassembly.evictions, reassembly.timeouts,
                       reassembly.reassembled, list(reassembly._partials)),
        "cache": {key: (entry.records, entry.poisoned)
                  for key, entry in resolver.cache._entries.items()},
        "rng": built.attacker.rng.getstate(),
        "now": built.network.now,
        "events": built.network.scheduler.executed,
    }


@pytest.mark.parametrize("policy", ["global", "per-destination", "random"])
@pytest.mark.parametrize("stack", FRAG_STACKS)
@pytest.mark.parametrize("seed", range(2))
def test_fragment_plants_match_per_packet_path(seed, stack, policy):
    trained = _frag_cell_state(stack, policy, seed, False)
    reference = _frag_cell_state(stack, policy, seed, True)
    events = (trained.pop("events"), reference.pop("events"))
    assert trained == reference
    result = trained["result"]
    assert result.packets_sent > 64
    # Each attempt's 64 planted fragments are one event instead of 64.
    assert events[1] - events[0] == 63 * result.iterations
    if stack == "dnssec" and policy != "global":
        # A blind attempt is little more than its plant and its trigger
        # (a global counter adds a sampling query per attempt).
        assert events[1] > 5 * events[0]
