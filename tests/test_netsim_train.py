"""UDP packet trains: exact packets, and runs identical to per-packet.

A train must be indistinguishable from sending its packets one by one.
The unit tests pin every materialised packet to ``make_udp_packet``;
the differential grid runs SadDNS cells twice — once on the train path,
once forced packet by packet through a pass-through interceptor (any
interceptor sends trains down the per-packet fallback) — and compares
everything the cells leave behind.
"""

from __future__ import annotations

import dataclasses
import struct
from dataclasses import replace

import pytest

from repro.attacks.saddns import SadDnsConfig
from repro.core.rng import DeterministicRNG
from repro.defenses.ablation import defended_scenario
from repro.defenses.base import DefenseStack
from repro.faults.spec import FaultPlan, ImpairmentSpec
from repro.netsim import UdpTrain
from repro.netsim.addresses import ip_to_int
from repro.netsim.checksum import ones_complement_sum
from repro.netsim.host import Host, HostConfig
from repro.netsim.network import Network
from repro.netsim.wire import make_udp_packet

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
        # errors (the burst) back to the spoofed source, 150 refused.
        assert net.scheduler.executed == 1 + 50
        assert net.stats.transmitted == 200 + 50
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


def _pass_through(packet, origin):
    return None


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
