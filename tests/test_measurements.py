"""Tests for populations, scanners and the measurement helpers."""

from repro.atlas.pipeline import scan_dataset
from repro.atlas.shards import find_dataset
from repro.atlas.synth import iter_entities, iter_record_type_domains
from repro.core.rng import DeterministicRNG
from repro.measurements.misc import (
    assign_cached_apps,
    assign_forwarders,
    measure_forwarder_coverage,
    measure_record_type_rates,
    probe_shared_caches,
)
from repro.measurements.population import (
    IcmpBehaviour,
    _per_item_rate,
    sample_size,
)
from repro.measurements.report import (
    VennCounts,
    cdf_series,
    render_table,
    scale_count,
)
from repro.measurements.scanner import scan_saddns
from repro.measurements.simulate_hijack import (
    nameserver_concentration,
    simulate_sameprefix_hijacks,
)

SEED = 77


def population(key: str, size: int) -> list:
    """The first ``size`` entities of one dataset's atlas stream."""
    return list(iter_entities(find_dataset(key), seed=SEED, lo=0, hi=size))


def scan(key: str, size: int):
    return scan_dataset(find_dataset(key), seed=SEED, entities=size,
                        shards=1, executor="serial")


class TestPopulationGeneration:
    def test_sample_size_scaling(self):
        assert sample_size(1_000_000, 0.01) == 10_000
        assert sample_size(10, 0.01) == 10
        assert sample_size(3000, 0.01) >= 30

    def test_deterministic_populations(self):
        a = population("open", 50)
        b = population("open", 50)
        assert [r.resolvers[0].address for r in a] == \
            [r.resolvers[0].address for r in b]

    def test_per_item_rate_inverts_any_of_n(self):
        rate = _per_item_rate(0.5, 2)
        assert abs((1 - (1 - rate) ** 2) - 0.5) < 1e-9
        assert _per_item_rate(0.3, 1) == 0.3

    def test_calibration_recovered_by_scan(self):
        """The scanner must re-measure the calibrated rates."""
        spec = find_dataset("open")
        summary = scan("open", 4000).summary
        assert abs(summary.pct("hijack") - spec.expected_hijack) < 5
        assert abs(summary.pct("saddns") - spec.expected_saddns) < 4
        assert abs(summary.pct("frag") - spec.expected_frag) < 5

    def test_domain_calibration_recovered(self):
        spec = find_dataset("alexa")
        summary = scan("alexa", 4000).summary
        assert abs(summary.pct("hijack") - spec.expected_hijack) < 6
        assert abs(summary.pct("frag_any") - spec.expected_frag_any) < 4


class TestIcmpBehaviourScan:
    def test_vulnerable_host_returns_exact_burst(self):
        behaviour = IcmpBehaviour(rate_limited=True, randomized=False,
                                  rng=DeterministicRNG(1))
        assert behaviour.errors_for_burst(51) == 50

    def test_randomized_host_differs(self):
        behaviour = IcmpBehaviour(rate_limited=True, randomized=True,
                                  rng=DeterministicRNG(1))
        assert behaviour.errors_for_burst(51) < 50

    def test_unlimited_host_answers_all(self):
        behaviour = IcmpBehaviour(rate_limited=False, randomized=False,
                                  rng=DeterministicRNG(1))
        assert behaviour.errors_for_burst(51) == 51

    def test_scan_skips_unreachable(self):
        dead = [
            r for f in population("open", 300)
            for r in f.resolvers if not r.reachable
        ]
        assert dead  # the open dataset models stale Censys entries
        assert all(not scan_saddns(r) for r in dead)


class TestMiscMeasurements:
    def test_shared_cache_probe(self):
        open_population = population("open", 2000)
        assign_cached_apps(open_population, seed=3, share_rate=0.69)
        measured = probe_shared_caches(open_population)
        assert abs(measured - 0.69) < 0.05

    def test_forwarder_coverage(self):
        open_population = population("open", 1500)
        clients = population("ad-net", 800)
        assign_forwarders(open_population, clients, seed=4, coverage=0.79)
        measured = measure_forwarder_coverage(open_population, clients)
        assert abs(measured - 0.79) < 0.05

    def test_record_type_rates_ordering(self):
        domains = list(iter_record_type_domains(SEED, 0, 3000))
        rates = measure_record_type_rates(domains)
        assert rates.any_rate > rates.bloated_rate
        assert rates.bloated_rate > rates.mx_rate >= 0
        assert rates.a_rate < 0.02

    def test_concentration_statistic(self):
        assert nameserver_concentration({1: 90, 2: 5, 3: 3, 4: 1, 5: 1}) \
            >= 0.9
        assert nameserver_concentration({}) == 0.0


class TestHijackSimulation:
    def test_sameprefix_success_rate_near_80(self):
        result = simulate_sameprefix_hijacks(trials=120, seed=9)
        assert 0.6 <= result.success_rate <= 0.95
        assert 0 < result.mean_capture_rate < 1


class TestReportHelpers:
    def test_render_table_aligns(self):
        text = render_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len({line.index("|") for line in lines
                    if "|" in line}) == 1

    def test_cdf_series_monotone(self):
        series = cdf_series([1, 2, 2, 3, 10], points=[1, 2, 5, 10])
        values = [y for _x, y in series]
        assert values == sorted(values)
        assert values[-1] == 1.0

    def test_histogram_fractions_sum_to_one(self):
        mix = scan("open", 300).aggregate.histogram_fractions("prefix_length")
        assert abs(sum(mix.values()) - 1.0) < 1e-9
        assert list(mix) == sorted(mix)

    def test_venn_regions(self):
        venn = VennCounts(only_a=1, only_b=0, only_c=1, ab=1, ac=0, bc=0,
                          abc=1)
        assert venn.total == 4
        assert venn.set_total("HijackDNS") == 3
        assert venn.set_total("SadDNS") == 2
        assert venn.set_total("FragDNS") == 2

    def test_scale_count(self):
        assert scale_count(5, 100, 1000) == 50
        assert scale_count(5, 0, 1000) == 0

    def test_scan_histograms(self):
        histograms = scan("open", 300).aggregate.histograms
        sizes = histograms["edns_size"]
        assert sizes and all(size >= 512 for size in sizes)
        lengths = histograms["prefix_length"]
        assert lengths and all(11 <= length <= 24 for length in lengths)
