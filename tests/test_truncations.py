"""Finite truncations of the paper's examples as test inputs.

PtSet<=n is the full subcategory of pointed sets on {0, ..., a-1}, basepoint
0, for 1 <= a <= n, with every basepoint-preserving map.  The builder
tabulates the maps and their composites and passes the table through
validate_category, so it needs no table search.  Unlike every category with
at most 6 morphisms, PtSet<=4 has kernel pairs with distinct legs, so the
kernel-pair and coequalizer oracles get real inputs here."""
from __future__ import annotations

import itertools

import pytest

from starkit import (STRICT, WEAK, ParallelPair, RawCategory, coequalizers,
                     kernel_pairs, validate_category)
from tests.test_differential import oracle_coequalizers, oracle_pullback


def pointed_sets(n: int):
    """PtSet<=n, objects P1, ..., Pn for the sets of 1, ..., n elements, a
    map named p<a><b>_<values> for the values of {0, ..., a-1} in Pb."""
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
    return validate_category(RawCategory(
        f"PtSet{n}", [f"P{a}" for a in range(1, n + 1)],
        [(m, f"P{a}", f"P{b}") for m, (a, b, _) in maps.items()], rows))


@pytest.fixture(scope="module")
def ptset4():
    return pointed_sets(4)


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
