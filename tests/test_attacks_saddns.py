"""Tests for the SadDNS side-channel methodology."""

import pytest

from repro.attacks import (
    OffPathAttacker,
    SadDnsAttack,
    SadDnsConfig,
    SpoofedClientTrigger,
)
from repro.dns.nameserver import NameserverConfig
from repro.dns.records import TYPE_A
from repro.netsim.host import HostConfig
from repro.testbed import (
    ATTACKER_IP,
    RESOLVER_IP,
    SERVICE_IP,
    TARGET_DOMAIN,
    standard_testbed,
)
from tests.conftest import make_trigger


def build_attack(world, attacker, **config_kwargs):
    return SadDnsAttack(
        attacker, world["testbed"].network, world["resolver"],
        world["target"].server, TARGET_DOMAIN,
        config=SadDnsConfig(**config_kwargs),
    )


@pytest.fixture
def prepared(saddns_world):
    attacker = OffPathAttacker(saddns_world["attacker"])
    trigger = make_trigger(saddns_world, attacker)
    return saddns_world, attacker, trigger


class TestSideChannel:
    def test_probe_detects_open_port_in_batch(self, prepared):
        world, attacker, trigger = prepared
        attack = build_attack(world, attacker)
        attack.mute_nameserver()
        trigger.fire(TARGET_DOMAIN, "A")
        world["testbed"].run(0.08)
        resolver = world["resolver"]
        port = next(iter(resolver.host.open_ports() - {53}))
        batch = [port] + list(range(20000, 20049))
        assert attack.probe_ports(batch)

    def test_probe_negative_when_all_closed(self, prepared):
        world, attacker, trigger = prepared
        attack = build_attack(world, attacker)
        attack.mute_nameserver()
        trigger.fire(TARGET_DOMAIN, "A")
        world["testbed"].run(0.08)
        world["testbed"].run(0.06)  # refill the ICMP bucket
        assert not attack.probe_ports(list(range(20000, 20050)))

    def test_isolation_narrows_to_exact_port(self, prepared):
        world, attacker, trigger = prepared
        attack = build_attack(world, attacker)
        attack.mute_nameserver()
        trigger.fire(TARGET_DOMAIN, "A")
        world["testbed"].run(0.08)
        port = next(iter(world["resolver"].host.open_ports() - {53}))
        batch = [port] + list(range(20000, 20049))
        assert attack.isolate_port(batch) == port

    def test_muting_silences_nameserver(self, prepared):
        world, attacker, trigger = prepared
        attack = build_attack(world, attacker)
        attack.mute_nameserver()
        nameserver = world["target"].server
        assert nameserver.is_muted(world["testbed"].now)
        # Muting persists across the configured window.
        world["testbed"].run(1.0)
        assert nameserver.is_muted(world["testbed"].now)

    def test_flood_poisons_discovered_port(self, prepared):
        world, attacker, trigger = prepared
        attack = build_attack(world, attacker)
        attack.mute_nameserver()
        trigger.fire(TARGET_DOMAIN, "A")
        world["testbed"].run(0.08)
        port = next(iter(world["resolver"].host.open_ports() - {53}))
        assert attack.flood_txids(port, TARGET_DOMAIN)
        entry = world["resolver"].cache.entry(TARGET_DOMAIN, TYPE_A)
        assert entry is not None and entry.poisoned


class TestEndToEnd:
    def test_attack_succeeds_on_narrow_port_space(self, prepared):
        world, attacker, trigger = prepared
        attack = build_attack(world, attacker, max_iterations=80)
        result = attack.execute(trigger)
        assert result.success
        assert result.iterations <= 80
        assert result.queries_triggered == result.iterations
        assert result.packets_sent > 1000  # muting floods dominate

    def test_randomized_icmp_limit_defeats_attack(self):
        world = standard_testbed(
            seed="saddns-fix",
            ns_config=NameserverConfig(rrl_enabled=True),
            resolver_host_config=HostConfig(
                ephemeral_low=30000, ephemeral_high=30999,
                icmp_limit_randomized=True),
        )
        attacker = OffPathAttacker(world["attacker"])
        attack = build_attack(world, attacker, max_iterations=30)
        result = attack.execute(make_trigger(world, attacker))
        assert not result.success

    def test_no_icmp_errors_defeats_attack(self):
        world = standard_testbed(
            seed="saddns-noicmp",
            ns_config=NameserverConfig(rrl_enabled=True),
            resolver_host_config=HostConfig(
                ephemeral_low=30000, ephemeral_high=30999,
                respond_port_unreachable=False),
        )
        attacker = OffPathAttacker(world["attacker"])
        attack = build_attack(world, attacker, max_iterations=30)
        result = attack.execute(make_trigger(world, attacker))
        assert not result.success

    def test_0x20_defeats_txid_flood(self):
        from repro.dns.resolver import ResolverConfig

        world = standard_testbed(
            seed="saddns-0x20",
            ns_config=NameserverConfig(rrl_enabled=True),
            resolver_config=ResolverConfig(
                allowed_clients=["30.0.0.0/24"], use_0x20=True),
            resolver_host_config=HostConfig(
                ephemeral_low=30000, ephemeral_high=30999),
        )
        attacker = OffPathAttacker(world["attacker"])
        attack = build_attack(world, attacker, max_iterations=25)
        result = attack.execute(make_trigger(world, attacker))
        assert not result.success
        assert world["resolver"].stats.rejected_responses > 0


class TestConfigValidation:
    @pytest.mark.parametrize("chunk", [-4096, 0, 0x10001])
    def test_flood_chunk_outside_txid_space_rejected(self, chunk):
        with pytest.raises(ValueError, match="txid_flood_chunk"):
            SadDnsConfig(txid_flood_chunk=chunk)

    @pytest.mark.parametrize("size", [0, -50])
    def test_empty_probe_batch_rejected(self, size):
        with pytest.raises(ValueError, match="batch_size"):
            SadDnsConfig(batch_size=size)

    @pytest.mark.parametrize("chunk", [1, 4096, 0x10000])
    def test_flood_chunk_bounds_accepted(self, chunk):
        assert SadDnsConfig(txid_flood_chunk=chunk).txid_flood_chunk \
            == chunk
