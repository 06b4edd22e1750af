from __future__ import annotations

import itertools

import pytest

from starkit import (Diagram, ParallelPair, STRICT, WEAK, coequalizer,
                     equalizer_cones, has_weak_finite_limits,
                     image_factorization, is_coequalizer, is_regular_category,
                     is_regular_epi, kernel_pair_cones, kernel_pairs,
                     limit_cones, morphism_flags, product_cones,
                     pullback_cones, regular_epis, terminal_cones)
from starkit.corpus import enumerate_categories


def test_strict_terminal_of_chain3(chain3):
    assert [c.apex for c in terminal_cones(chain3, STRICT)] == ["c2"]


def test_kernel_pair_of_identity_in_one(one):
    assert kernel_pairs(one, "1_X", STRICT) == [ParallelPair("1_X", "1_X")]


def test_u_has_no_weak_kernel_pair(ptset2):
    # the four competitor pairs (1,1), (1,u), (u,1), (u,u) admit no common
    # factorizing apex
    assert kernel_pairs(ptset2, "u", WEAK) == []


def test_weak_finite_limits(one, chain3, ptset2):
    assert has_weak_finite_limits(one)
    assert has_weak_finite_limits(chain3)
    assert not has_weak_finite_limits(ptset2)


def test_limit_cones_on_subset_diagram(chain3):
    cones = limit_cones(chain3, Diagram(("c0", "c2"), ("f02",)), STRICT)
    assert [c.apex for c in cones] == ["c0"]


def test_limit_cones_rejects_a_repeated_object(chain3):
    # a diagram is a set of objects; products of x with itself go through
    # product_cones
    with pytest.raises(ValueError, match="repeats the object c0"):
        limit_cones(chain3, Diagram(("c0", "c0")), STRICT)
    with pytest.raises(ValueError, match="c9 is not an object"):
        limit_cones(chain3, Diagram(("c0", "c9")), STRICT)


def test_coequalizer_of_equal_pair_is_identity(chain3, ptset2):
    for C in (chain3, ptset2):
        for f in C.morphism_names:
            assert coequalizer(C, ParallelPair(f, f)) == C.identity[C.cod(f)]


def test_coequalizer_in_one(one):
    assert coequalizer(one, ParallelPair("1_X", "1_X")) == "1_X"


def test_coequalizer_of_identity_and_null(ptset2):
    # computed by exhaustive search over the 5-morphism table
    assert coequalizer(ptset2, ParallelPair("1_S", "u")) == "s"


def test_regular_epis(chain3, ptset2):
    # in a thin category the only regular epis are the isomorphisms
    assert not is_regular_epi(chain3, "f01")
    assert sorted(regular_epis(chain3)) == ["1_c0", "1_c1", "1_c2"]
    assert sorted(regular_epis(ptset2)) == ["1_S", "1_T", "s"]


def test_split_epi_is_regular_epi():
    for C in enumerate_categories(4):
        epis = regular_epis(C)
        for f in C.morphism_names:
            if morphism_flags(C, f).split_epi:
                assert f in epis


def test_image_factorization_of_u(ptset2):
    assert image_factorization(ptset2, "u") == ("s", "t")


def test_image_factorization_trivial_cases(chain3, ptset2):
    # a mono factors as (identity, itself); a regular epi as (itself, identity)
    e, m = image_factorization(chain3, "f01")
    assert chain3.compose(m, e) == "f01"
    assert e == "1_c0" and m == "f01"
    assert image_factorization(ptset2, "s") == ("s", "1_T")


def test_strict_cones_are_weak_cones(chain3, ptset2):
    for C in (chain3, ptset2):
        for x in C.objects:
            for y in C.objects:
                assert set(product_cones(C, x, y, STRICT)) <= \
                    set(product_cones(C, x, y, WEAK))
        for p in C.parallel_pairs():
            assert set(equalizer_cones(C, p, STRICT)) <= \
                set(equalizer_cones(C, p, WEAK))
        for f in C.morphism_names:
            assert set(kernel_pair_cones(C, f, STRICT)) <= \
                set(kernel_pair_cones(C, f, WEAK))


def test_strict_limit_apexes_pairwise_isomorphic():
    for C in enumerate_categories(4):
        for x in C.objects:
            for y in C.objects:
                apexes = [c.apex for c in product_cones(C, x, y, STRICT)]
                for a, b in itertools.combinations(apexes, 2):
                    assert any(morphism_flags(C, i).iso for i in C.hom(a, b))
        for f in C.morphism_names:
            apexes = [c.apex for c in kernel_pair_cones(C, f, STRICT)]
            for a, b in itertools.combinations(apexes, 2):
                assert any(morphism_flags(C, i).iso for i in C.hom(a, b))


def test_coequalizers_unique_up_to_codomain_iso():
    for C in enumerate_categories(4):
        for p in C.parallel_pairs():
            q = coequalizer(C, p)
            if q is None:
                continue
            for g in C.morphisms_from(C.dom(q)):
                if g != q and is_coequalizer(C, g, p):
                    assert any(morphism_flags(C, i).iso
                               for i in C.hom(C.cod(q), C.cod(g)))


def test_regularity_verdicts(one, chain3, ptset2):
    assert is_regular_category(one).passed
    assert is_regular_category(chain3).passed
    rep = is_regular_category(ptset2)
    assert rep.verdict == "FAIL"
    assert rep.witnesses == ["no product S x S"]


def test_pullback_in_regular_chain3(chain3):
    cones = pullback_cones(chain3, "f02", "f12", STRICT)
    assert [c.apex for c in cones] == ["c0"]
    assert cones[0].legs == ("1_c0", "f01")
