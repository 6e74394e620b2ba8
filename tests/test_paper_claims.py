"""The paper's Section 5 survey claims, checked over several seeds.

Each test reruns one experiment at a 1% sample over seeds 0-4 and
holds it to the numbers in its ``paper_reference``: the orderings,
factors and set relations the paper reports, and every sampled fraction
within ``allowance + 3·sqrt(p(1-p)/n)`` of the paper's value ``p``, with
``n`` the sample behind the number.  A fixed band would be too loose for
the 15k-entity samples and too tight for the 58 sampled ad-net front
ends; the binomial term scales with the sample, and the allowance covers
only the known gap between the calibration and the paper's figure.
"""

from __future__ import annotations

import math

import pytest

from repro.atlas.aggregate import DOMAIN_FLAGS, RESOLVER_FLAGS
from repro.experiments import (
    figure3,
    figure4,
    figure5,
    section4,
    section5,
    table3,
    table4,
)
from repro.measurements.population import (
    DOMAIN_DATASETS,
    RESOLVER_DATASETS,
    sample_size,
)

SEEDS = range(5)
SCALE = 0.01
#: Calibration-to-paper gap allowed on top of the sampling error.
ALLOWANCE = 0.02

RESOLVERS = {spec.key: spec for spec in RESOLVER_DATASETS}
DOMAINS = {spec.key: spec for spec in DOMAIN_DATASETS}

seeds = pytest.mark.parametrize("seed", SEEDS)


def assert_near(measured: float, expected: float, n: int,
                allowance: float = ALLOWANCE, what: str = "") -> None:
    """``measured`` lies within sampling error of the paper's ``expected``."""
    tolerance = allowance + 3 * math.sqrt(expected * (1 - expected) / n)
    assert abs(measured - expected) <= tolerance, \
        (what, measured, expected, n, round(tolerance, 4))


def sampled(spec) -> int:
    """Sub-entities (resolvers or nameservers) a sampled scan draws."""
    per_entity = getattr(spec, "resolvers_per_frontend", None) \
        or spec.ns_per_domain
    return per_entity * sample_size(spec.full_size, SCALE)


@seeds
def test_figure3_prefix_lengths(seed):
    result = figure3.run(seed=seed, scale=SCALE)
    slash24 = result.data["slash24"]
    # The Alexa nameservers have the largest /24 mass (least sub-prefix
    # hijackable), matching the paper's 53% vs 70-74%.
    alexa = slash24["Nameservers: Alexa"]
    assert alexa > slash24["Resolvers: Open resolver"]
    assert alexa > slash24["Resolvers: Adnet"]
    samples = {label: sampled(RESOLVERS.get(key) or DOMAINS[key])
               for label, key in figure3.POPULATIONS}
    for label, expected in result.paper_reference["slash24_mass"].items():
        assert_near(slash24[label], expected, samples[label], what=label)
    for mix in result.data["series"].values():
        assert abs(sum(mix.values()) - 1.0) < 1e-6
        assert all(11 <= length <= 24 for length in mix)


@seeds
def test_figure4_edns_vs_fragment_sizes(seed):
    result = figure4.run(seed=seed, scale=SCALE)
    edns = dict(result.data["edns_cdf"])
    frag = dict(result.data["frag_cdf"])
    paper = result.paper_reference
    # Resolvers split into a 512-byte group and a >=4000-byte group with
    # a thin middle: the partition into fragmentation-immune and exposed.
    n = result.data["edns_sizes"]
    assert_near(edns[548], paper["edns"]["<=512"], n, what="<=512")
    assert_near(edns[2048] - edns[548], paper["edns"]["1232-2048"], n,
                what="1232-2048")
    assert_near(1.0 - edns[3072], paper["edns"][">=4000"], n, what=">=4000")
    # Most fragmenting nameservers go down to 548 bytes; a small
    # fraction reaches the 292-byte floor.
    n = result.data["frag_sizes"]
    assert_near(frag[292], paper["min_frag"]["<=292"], n, what="<=292")
    assert_near(frag[548], paper["min_frag"]["<=548"], n, what="<=548")


@seeds
def test_figure5_venn_diagrams(seed):
    result = figure5.run(seed=seed, scale=SCALE)
    resolvers = result.data["resolver_venn"]
    domains = result.data["domain_venn"]
    # HijackDNS has by far the largest set in both diagrams.
    assert resolvers.set_total("HijackDNS") \
        > resolvers.set_total("FragDNS") > resolvers.set_total("SadDNS")
    assert domains.set_total("HijackDNS") \
        > domains.set_total("SadDNS") > domains.set_total("FragDNS")
    # SadDNS and FragDNS overlap little compared to their overlaps with
    # HijackDNS (independence, as the paper observes).
    assert resolvers.bc < resolvers.ac
    assert domains.bc < domains.ab
    # The scaled resolver union is in the paper's millions regime
    # (~1.66M back-end addresses).
    assert resolvers.total > 500_000


@seeds
def test_section4_cross_application_caches(seed):
    result = section4.run(seed=seed, scale=SCALE)
    paper = result.paper_reference
    # The cache probe reads reachable open resolvers; the forwarder
    # study follows at least 300 ad-net clients.
    open_spec = RESOLVERS["open"]
    reachable = int(sampled(open_spec) * (1 - open_spec.rate_unreachable))
    clients = max(300, sampled(RESOLVERS["ad-net"]))
    assert_near(result.data["shared"], paper["shared_caches"], reachable,
                what="shared caches")
    assert_near(result.data["coverage"], paper["forwarder_coverage"],
                clients, what="forwarder coverage")


#: Alexa domains in the §5.2.2 record-type study.
RECORD_TYPE_DOMAINS = 4000


@seeds
def test_section5_measurements(seed):
    result = section5.run(seed=seed, trials=120)
    paper = result.paper_reference
    same = result.data["same"]
    sub = result.data["sub"]
    rates = result.data["rates"]
    # Same-prefix hijacks succeed in roughly 80% of evaluations; the
    # sub-prefix variant is the stronger one.
    assert_near(same.success_rate, paper["same_prefix_success"],
                same.trials, allowance=0.04, what="same-prefix")
    assert sub.success_rate >= same.success_rate
    # Record types: ANY >> bloated > A, with ANY near the paper's 19.5%
    # (the calibration lands one to two points under it) and A and MX
    # well under 1%.
    assert rates.any_rate > rates.bloated_rate > rates.a_rate
    n = RECORD_TYPE_DOMAINS
    assert_near(rates.any_rate, paper["any_rate"], n, allowance=0.03,
                what="ANY")
    assert_near(rates.a_rate, paper["a_rate"], n, allowance=0.005, what="A")
    assert_near(rates.mx_rate, paper["mx_rate"], n, allowance=0.005,
                what="MX")
    assert rates.bloated_rate > paper["bloated_rate_floor"]
    # Nameserver hosting is heavily concentrated.
    assert result.data["concentration"] > 0.5


@seeds
def test_table3_vulnerable_resolvers(seed):
    result = table3.run(seed=seed, scale=SCALE)
    summaries = result.data["summaries"]
    open_, adnet = summaries["open"], summaries["ad-net"]
    # Hijackability dominates, SadDNS is the rarest (patched) method,
    # ad-net resolvers are far more fragmentation-prone than open
    # resolvers (91% vs 31%), and CA resolvers reject fragments.
    assert open_.pct("hijack") > open_.pct("saddns")
    assert open_.pct("hijack") > open_.pct("frag")
    assert open_.pct("saddns") < 25
    assert adnet.pct("frag") > 2 * open_.pct("frag")
    assert summaries["cas"].pct("frag") == 0
    for key, expected in result.paper_reference.items():
        summary = summaries[key]
        for flag, pct in zip(RESOLVER_FLAGS, expected):
            assert_near(summary.pct(flag) / 100, pct / 100, summary.size,
                        what=f"{key} {flag}")


@seeds
def test_table4_vulnerable_domains(seed):
    result = table4.run(seed=seed, scale=SCALE)
    summaries = result.data["summaries"]
    alexa, rpki = summaries["alexa"], summaries["rpki-domains"]
    # Eduroam domains are exceptionally hijackable (~96%), RPKI
    # repository domains exceptionally resilient (~14%).
    assert summaries["eduroam-domains"].pct("hijack") \
        > alexa.pct("hijack") > rpki.pct("hijack")
    # Global-IPID fragmentation is a subset of any-IPID fragmentation.
    for summary in summaries.values():
        assert summary.pct("frag_global") <= summary.pct("frag_any")
    # DNSSEC is rare except among RPKI operators (67%).
    assert rpki.pct("dnssec") > 30
    assert alexa.pct("dnssec") < 10
    # frag_global is left to the subset check above: its paper rates
    # are 1-5% on samples of ~40 domains, where the normal bound is too
    # narrow to mean anything.
    for key, expected in result.paper_reference.items():
        summary = summaries[key]
        for flag, pct in zip(DOMAIN_FLAGS, expected):
            if flag != "frag_global":
                assert_near(summary.pct(flag) / 100, pct / 100,
                            summary.size, what=f"{key} {flag}")
