"""Finite truncations of the paper's examples as test inputs.

PtSet<=n is the full subcategory of pointed sets on {0, ..., a-1}, basepoint
0, for 1 <= a <= n, with every basepoint-preserving map.  The builder
tabulates the maps and their composites and passes the table through
validate_category, so it needs no table search.  Unlike every category with
at most 6 morphisms, PtSet<=4 has kernel pairs with distinct legs, so the
kernel-pair and coequalizer oracles get real inputs here."""
from __future__ import annotations

import hashlib
import itertools
from collections import Counter

import pytest

from starkit import (FAIL, STRICT, WEAK, MultiPointedCategory, ParallelPair,
                     RawCategory, coequalizers, enumerate_reflexive_graphs,
                     kernel_pairs, pointed_ideal, satisfies_star_pi0, star_of,
                     validate_category)
from tests.test_differential import (oracle_coequalizers, oracle_pullback,
                                     oracle_reflexive_graphs)


def pointed_set_table(n: int) -> RawCategory:
    """The table of PtSet<=n, objects P1, ..., Pn for the sets of 1, ..., n
    elements, a map named p<a><b>_<values> for the values of {0, ..., a-1}
    in Pb."""
    maps = {}
    names = {}
    for a, b in itertools.product(range(1, n + 1), repeat=2):
        for tail in itertools.product(range(b), repeat=a - 1):
            values = (0, *tail)
            if a == b and values == tuple(range(a)):
                names[a, b, values] = f"1_P{a}"
            else:
                name = f"p{a}{b}_{''.join(map(str, values))}"
                maps[name] = (a, b, values)
                names[a, b, values] = name
    rows = [(g, f, names[fa, gb, tuple(gv[i] for i in fv)])
            for f, (fa, fb, fv) in maps.items()
            for g, (ga, gb, gv) in maps.items() if ga == fb]
    return RawCategory(f"PtSet{n}", [f"P{a}" for a in range(1, n + 1)],
                       [(m, f"P{a}", f"P{b}") for m, (a, b, _) in maps.items()], rows)


def pointed_sets(n: int):
    """PtSet<=n, its table validated."""
    return validate_category(pointed_set_table(n))


@pytest.fixture(scope="module")
def ptset4():
    return pointed_sets(4)


@pytest.fixture(scope="module")
def ptset5():
    return pointed_sets(5)


def test_pointed_sets_have_every_basepoint_preserving_map(ptset4):
    # b^(a-1) maps from a to b elements, summed over 1 <= a, b <= 4
    assert len(ptset4.morphisms) == 144
    assert [len(ptset4.hom("P3", y)) for y in ptset4.objects] == [1, 4, 9, 16]


def test_kernel_pairs_of_pointed_sets_match_the_oracle(ptset4):
    # Domains of 4 elements are left out: there the oracle, which compares
    # every pair of cones, takes over a minute.
    compared = 0
    for f in ptset4.morphism_names:
        if ptset4.dom(f) == "P4":
            continue
        for mode in (WEAK, STRICT):
            expected = [ParallelPair(*legs) for _, legs in oracle_pullback(ptset4, f, f, mode)]
            assert kernel_pairs(ptset4, f, mode) == expected, (f, mode)
            compared += 1
    assert compared == 2 * 44


def test_coequalizers_of_pointed_set_kernel_pairs_match_the_oracle(ptset4):
    distinct = {WEAK: 0, STRICT: 0}
    compared = 0
    for f in ptset4.morphism_names:
        for mode in (WEAK, STRICT):
            for p in kernel_pairs(ptset4, f, mode):
                distinct[mode] += p.f1 != p.f2
                if mode == WEAK:
                    assert coequalizers(ptset4, p) == oracle_coequalizers(ptset4, p), (f, p)
                    compared += 1
    assert distinct == {WEAK: 24, STRICT: 24}
    assert compared == 254


def test_reflexive_graphs_of_pointed_sets_match_the_triple_loop(ptset4):
    graphs = enumerate_reflexive_graphs(ptset4)
    assert graphs == oracle_reflexive_graphs(ptset4)
    assert len(graphs) == 123


def test_star_pi0_on_the_reflexive_graphs_of_pointed_sets(ptset4):
    """Pointed sets do not form a normal category, and star-pi0 at the
    pointed ideal fails on 41 of the 76 reflexive graphs of PtSet<=4 with
    d != c.  The first failure is d = p32_011, c = p32_001 from {0, 1, 2}
    to {0, 1}, with section e = p23_02.  The fibre of d over the basepoint
    is {0}, so its kernel is the zero map k = p13_0 from the one-point set
    (its weak kernels are the zero maps into {0, 1, 2}).  The star
    (d∘k, c∘k) is then (0, 0), which every morphism coequalizes, 1_P2
    among them, although d != c."""
    M = MultiPointedCategory(ptset4, pointed_ideal(ptset4))
    verdicts = Counter()
    failures = []
    for g in enumerate_reflexive_graphs(ptset4):
        if g.d != g.c:
            report = satisfies_star_pi0(M, ParallelPair(g.d, g.c))
            verdicts[report.verdict] += 1
            if report.verdict == FAIL:
                failures.append((g.d, g.c, g.e, report.witnesses))
    assert verdicts == {"PASS": 35, "FAIL": 41}
    assert failures[0] == ("p32_011", "p32_001", "p23_02", [
        "pair=(p32_011, p32_001)", "kernel=p13_0", "violating morphism g=1_P2"])
    stars = star_of(M, ParallelPair("p32_011", "p32_001"), WEAK)
    assert stars[0].star == ParallelPair("p12_0", "p12_0")
    assert [w.k for w in stars] == ["p13_0", "p23_00", "p33_000", "p43_0000"]
    assert all(w.star.f1 == w.star.f2 for w in stars)


@pytest.mark.slow
def test_reflexive_graphs_of_pointed_sets_of_five(ptset5):
    """PtSet<=5 has 1,279 morphisms and 1,760 reflexive graphs, pinned in
    order by the SHA-256 of their (d, c, e) triples.  Its validation, which
    walks the composable triples of every pair whose rows differ, is most
    of the time this module takes."""
    assert len(ptset5.morphism_names) == 1279
    graphs = tuple((g.d, g.c, g.e) for g in enumerate_reflexive_graphs(ptset5))
    assert (len(graphs), hashlib.sha256(repr(graphs).encode()).hexdigest()) == (
        1760, "817c5efec025a144467e672fbe06b31fabb13fa1ccc1dc7e1eb1e1acec91f22a")


@pytest.mark.slow
def test_star_pi0_on_the_reflexive_graphs_of_pointed_sets_of_five(ptset5):
    # 1,452 of the graphs have d != c; pointed sets do not form a normal
    # category, and star-pi0 at the pointed ideal fails on 957 of them
    M = MultiPointedCategory(ptset5, pointed_ideal(ptset5))
    verdicts = Counter(satisfies_star_pi0(M, ParallelPair(g.d, g.c)).verdict
                       for g in enumerate_reflexive_graphs(ptset5) if g.d != g.c)
    assert verdicts == {"PASS": 495, "FAIL": 957}
