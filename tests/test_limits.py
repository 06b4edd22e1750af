from __future__ import annotations

import itertools

import pytest

from starkit import (ParallelPair, STRICT, WEAK, coequalizer, coequalizers,
                     has_weak_finite_limits, is_regular_category, kernel_pairs,
                     product_cones, pullback_cones, regular_epis, terminal_cones)
from starkit.corpus import enumerate_categories, parse
from tests.helpers import equalizer_cones, image_factorization, morphism_flags


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
    # the limit of c0 -f02-> c2 is c0, the pullback of f02 along 1_c2
    cones = pullback_cones(chain3, "f02", "1_c2", STRICT)
    assert [c.apex for c in cones] == ["c0"]


def test_limit_cones_reject_unknown_names(chain3):
    with pytest.raises(ValueError, match="c9 is not an object of Chain3"):
        product_cones(chain3, "c0", "c9", STRICT)
    with pytest.raises(ValueError, match="f9 is not a morphism of Chain3"):
        pullback_cones(chain3, "f01", "f9", STRICT)
    with pytest.raises(ValueError, match="f9 is not a morphism of Chain3"):
        kernel_pairs(chain3, "f9", WEAK)
    with pytest.raises(ValueError, match=r"\(f01, f02\) is not a cospan"):
        pullback_cones(chain3, "f01", "f02", STRICT)


def test_a_memoised_search_raises_without_the_cache_miss_as_context(chain3):
    # the computation runs after the memo's `except KeyError`, not inside it
    with pytest.raises(ValueError, match="f9 is not a morphism") as info:
        kernel_pairs(chain3, "f9", WEAK)
    assert info.value.__context__ is None


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
    assert "f01" not in regular_epis(chain3)
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
            assert set(pullback_cones(C, f, f, STRICT)) <= \
                set(pullback_cones(C, f, f, WEAK))


def test_strict_limit_apexes_pairwise_isomorphic():
    for C in enumerate_categories(4):
        for x in C.objects:
            for y in C.objects:
                apexes = [c.apex for c in product_cones(C, x, y, STRICT)]
                for a, b in itertools.combinations(apexes, 2):
                    assert any(morphism_flags(C, i).iso for i in C.hom(a, b))
        for f in C.morphism_names:
            apexes = [c.apex for c in pullback_cones(C, f, f, STRICT)]
            for a, b in itertools.combinations(apexes, 2):
                assert any(morphism_flags(C, i).iso for i in C.hom(a, b))


def test_coequalizers_unique_up_to_codomain_iso():
    for C in enumerate_categories(4):
        for p in C.parallel_pairs():
            q = coequalizer(C, p)
            if q is None:
                continue
            for g in C.morphisms_from(C.dom(q)):
                if g != q and g in coequalizers(C, p):
                    assert any(morphism_flags(C, i).iso
                               for i in C.hom(C.cod(q), C.cod(g)))


def test_regularity_verdicts(one, chain3, ptset2):
    assert is_regular_category(one).passed
    assert is_regular_category(chain3).passed
    rep = is_regular_category(ptset2)
    assert rep.verdict == "FAIL"
    assert rep.witnesses == ["no product S x S"]


# Thin tables, decided from the down-sets of their objects without a cone
# search: two objects and no arrows; a top t over two incomparable objects;
# two isomorphic objects x and y under a top t.
DISCRETE = """
category Two
objects a b
end
"""

VEE = """
category Vee
objects a b t
mor p : a -> t
mor q : b -> t
end
"""

ISO_TOP = """
category IsoTop
objects x y t
mor u : x -> y
mor v : y -> x
mor p : x -> t
mor q : y -> t
comp v u = 1_x
comp u v = 1_y
comp q u = p
comp p v = q
end
"""


@pytest.mark.parametrize("text, name, witnesses", [
    (DISCRETE, "Two", ["no terminal object"]),
    (VEE, "Vee", ["no product a x b"]),
    (ISO_TOP, "IsoTop", []),
])
def test_regularity_witnesses_of_thin_tables(text, name, witnesses):
    C = parse(text).category(name)
    assert C.thin
    rep = is_regular_category(C)
    assert (rep.passed, rep.witnesses) == (not witnesses, witnesses)


def test_pullback_in_regular_chain3(chain3):
    cones = pullback_cones(chain3, "f02", "f12", STRICT)
    assert [c.apex for c in cones] == ["c0"]
    assert cones[0].legs == ("1_c0", "f01")
