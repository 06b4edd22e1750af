"""Finite truncations of the paper's examples as test inputs.

PtSet<=n is the full subcategory of pointed sets on {0, ..., a-1}, basepoint
0, for 1 <= a <= n, with every basepoint-preserving map.  The builder
tabulates the maps and their composites and passes the table through
validate_category, so it needs no table search.  Unlike every category with
at most 6 morphisms, PtSet<=4 has kernel pairs with distinct legs, so the
kernel-pair and coequalizer oracles get real inputs here.  The groups
C1-C6, V4 and S3 with every homomorphism, built from Cayley tables, are a
truncation of the normal category of groups."""
from __future__ import annotations

import hashlib
import itertools
from collections import Counter

import pytest

from starkit import (FAIL, STRICT, WEAK, MultiPointedCategory, ParallelPair,
                     RawCategory, coequalizers, enumerate_reflexive_graphs,
                     kernel_pairs, pointed_ideal, satisfies_star_pi0, star_of,
                     validate_category)
from starkit.corpus import CorpusFile, category_block, serialize
from tests.conftest import FIXTURES
from tests.test_differential import (oracle_coequalizers, oracle_pullback,
                                     oracle_reflexive_graphs)


class Rows:
    """Composition rows made afresh on every pass, so a large table is never
    held as a list; validate_category reads them once, and an oracle can
    read them again."""

    def __init__(self, make):
        self.make = make

    def __iter__(self):
        return self.make()


def pointed_set_table(n: int) -> RawCategory:
    """The table of PtSet<=n, objects P1, ..., Pn for the sets of 1, ..., n
    elements, a map named p<a><b>_<values> for the values of {0, ..., a-1}
    in Pb.  Its rows are made on demand: PtSet<=5 has 845,916."""
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
    out = {a: [(g, gb, gv) for g, (ga, gb, gv) in maps.items() if ga == a]
           for a in range(1, n + 1)}

    def rows():
        for f, (fa, fb, fv) in maps.items():
            for g, gb, gv in out[fb]:
                yield g, f, names[fa, gb, tuple(gv[i] for i in fv)]

    return RawCategory(f"PtSet{n}", [f"P{a}" for a in range(1, n + 1)],
                       [(m, f"P{a}", f"P{b}") for m, (a, b, _) in maps.items()], Rows(rows))


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


PTSET3_HEADER = ["# Pointed sets with at most three elements and every basepoint-preserving",
                 "# map: pointed_set_table(3) of tests/test_truncations.py, validated and",
                 "# serialized; test_ptset3_fixture_is_the_serialized_table rebuilds it."]


def ptset3_text() -> str:
    return serialize(CorpusFile(PTSET3_HEADER, [category_block(pointed_sets(3))]))


def test_ptset3_fixture_is_the_serialized_table():
    # fixtures/ptset3.fincat, 23 morphisms, gives the limit oracles of
    # test_differential cones with legs
    assert (FIXTURES / "ptset3.fincat").read_text(encoding="utf-8") == ptset3_text()


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


def _cyclic(n: int) -> tuple[list[list[int]], list[int]]:
    return [[(a + b) % n for b in range(n)] for a in range(n)], [1] if n > 1 else []


def _klein() -> tuple[list[list[int]], list[int]]:
    return [[a ^ b for b in range(4)] for a in range(4)], [1, 2]


def _symmetric3() -> tuple[list[list[int]], list[int]]:
    perms = list(itertools.permutations(range(3)))  # the identity first
    table = [[perms.index(tuple(p[q[i]] for i in range(3))) for q in perms] for p in perms]
    return table, [perms.index((1, 0, 2)), perms.index((1, 2, 0))]


# Cayley tables (element 0 the unit) with generators; closed under
# subgroups and quotients
GROUPS = {**{f"C{n}": _cyclic(n) for n in range(1, 7)}, "V4": _klein(), "S3": _symmetric3()}


def _homomorphisms(G, H):
    """Every homomorphism G -> H, as its tuple of values: each choice of
    images of G's generators, extended along right multiplication by the
    generators and kept if the extension is multiplicative."""
    (gt, gens), (ht, _) = G, H
    n = len(gt)
    for images in itertools.product(range(len(ht)), repeat=len(gens)):
        f = [0] + [None] * (n - 1)
        reached = [0]
        for x in reached:  # grows as the generators reach new elements
            for s, t in zip(gens, images):
                if f[gt[x][s]] is None:
                    f[gt[x][s]] = ht[f[x]][t]
                    reached.append(gt[x][s])
        if all(f[gt[a][b]] == ht[f[a]][f[b]] for a in range(n) for b in range(n)):
            yield tuple(f)


def group_table() -> RawCategory:
    """The category of the groups in GROUPS and every homomorphism between
    them, a map named <G>to<H>_<values>; the identity of G is 1_G."""
    identity = {G: tuple(range(len(table))) for G, (table, _) in GROUPS.items()}
    maps = {}
    for G, H in itertools.product(GROUPS, repeat=2):
        for values in _homomorphisms(GROUPS[G], GROUPS[H]):
            if G != H or values != identity[G]:
                maps[f"{G}to{H}_{''.join(map(str, values))}"] = (G, H, values)
    names = {(G, H, values): m for m, (G, H, values) in maps.items()}
    names.update(((G, G, values), f"1_{G}") for G, values in identity.items())
    rows = [(g, f, names[fG, gH, tuple(gv[x] for x in fv)])
            for f, (fG, fH, fv) in maps.items()
            for g, (gG, gH, gv) in maps.items() if gG == fH]
    return RawCategory("Groups", list(GROUPS), [(m, G, H) for m, (G, H, _) in maps.items()], rows)


def test_finite_groups_have_every_homomorphism():
    C = validate_category(group_table())
    # counted independently, over every map of underlying sets
    assert len(C.morphism_names) == 159
    assert enumerate_reflexive_graphs(C) == oracle_reflexive_graphs(C)


def test_star_pi0_on_the_reflexive_graphs_of_finite_groups():
    """Groups form a normal category, so every reflexive graph satisfies
    star-pi0 at the ideal of trivial homomorphisms, and all six with d != c
    pass.  Those six are the ordered pairs of distinct surjections
    V4 -> C2 with their common section.  A section e makes d and c
    surjective and equal on e(H), and G = e(H)·ker d.  So d != c needs
    ker c != ker d, two normal subgroups of the same order.  In C1-C6 and
    S3 each normal subgroup is the only normal one of its order, while V4
    has three of order 2, and two of them leave one non-identity element
    outside both for e(1)."""
    C = validate_category(group_table())
    M = MultiPointedCategory(C, pointed_ideal(C))
    graphs = [(g.d, g.c, g.e) for g in enumerate_reflexive_graphs(C) if g.d != g.c]
    assert graphs == [
        ("V4toC2_0011", "V4toC2_0101", "C2toV4_03"), ("V4toC2_0011", "V4toC2_0110", "C2toV4_02"),
        ("V4toC2_0101", "V4toC2_0011", "C2toV4_03"), ("V4toC2_0101", "V4toC2_0110", "C2toV4_01"),
        ("V4toC2_0110", "V4toC2_0011", "C2toV4_02"), ("V4toC2_0110", "V4toC2_0101", "C2toV4_01")]
    verdicts = Counter(satisfies_star_pi0(M, ParallelPair(d, c)).verdict for d, c, _ in graphs)
    assert verdicts == {"PASS": 6}
