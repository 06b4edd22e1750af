from __future__ import annotations

import pytest

from starkit import (Ideal, MultiPointedCategory, ParallelPair,
                     STRICT, WEAK, StarWitness, check_corollary_d, check_theorem_a,
                     coequalizer, coequalizers, is_normal_category, is_star_regular,
                     kernel_pairs, pointed_ideal, satisfies_star_pi0,
                     star_of)
from starkit.corpus import enumerate_categories
from starkit.ideals import enumerate_ideals
from tests.helpers import NoKernelPair, kernel_star, morphism_flags


def total_mpc(C) -> MultiPointedCategory:
    return MultiPointedCategory(C, Ideal(C, frozenset(C.morphism_names)))


def zero_mpc(C) -> MultiPointedCategory:
    return MultiPointedCategory(C, pointed_ideal(C))


def test_star_total_context_contains_pair_itself(chain3):
    M = total_mpc(chain3)
    for p in chain3.parallel_pairs():
        stars = star_of(M, p, STRICT)
        assert any(w.k == chain3.identity[chain3.dom(p.f1)] and w.star == p
                   for w in stars)


def test_star_of_identity_pair_in_ptset2(ptset2):
    M = zero_mpc(ptset2)
    stars = star_of(M, ParallelPair("1_S", "1_S"), STRICT)
    assert [(w.k, w.star) for w in stars] == [("t", ParallelPair("t", "t"))]


def test_star_empty_without_weak_kernel(ptset2):
    M = MultiPointedCategory(ptset2, Ideal(ptset2, frozenset()))
    assert star_of(M, ParallelPair("1_S", "u"), WEAK) == []
    rep = satisfies_star_pi0(M, ParallelPair("1_S", "u"))
    assert rep.verdict == "INAPPLICABLE"


def test_star_pi0_failure_witness(ptset2):
    # evaluated by hand over g in {1_S, u, s}: g = 1_S separates the pair
    # from its star
    M = zero_mpc(ptset2)
    rep = satisfies_star_pi0(M, ParallelPair("1_S", "u"))
    assert rep.verdict == "FAIL"
    assert "violating morphism g=1_S" in rep.witnesses


@pytest.mark.parametrize("p, given, k, star", [
    # a kernel that f01 cannot follow: was a bare IndexError
    (("f01", "f01"), ("f01", "f01"), "1_c2", ("1_c2", "f12")),
    # a star with unequal legs, and the star of another pair: both were PASS
    (("f12", "f12"), ("f12", "f12"), "1_c1", ("f02", "f12")),
    (("f12", "f12"), ("f01", "f01"), "1_c0", ("f01", "f01")),
])
def test_a_witness_that_is_not_a_weak_star_is_refused(chain3, p, given, k, star):
    M = total_mpc(chain3)
    witness = StarWitness(ParallelPair(*given), k, ParallelPair(*star))
    assert witness not in star_of(M, ParallelPair(*p), WEAK)
    with pytest.raises(ValueError, match=rf"is not a weak star of \({p[0]}, {p[1]}\) in Chain3$"):
        satisfies_star_pi0(M, ParallelPair(*p), witness)


def test_star_pi0_total_context_always_passes(chain3, ptset2):
    # in the total context every morphism has the identity as a kernel, so
    # the condition is evaluable and trivially true for every pair
    for C in (chain3, ptset2):
        M = total_mpc(C)
        for p in C.parallel_pairs():
            assert satisfies_star_pi0(M, p).passed


def test_star_pi0_trivial_for_equal_pairs(ptset2):
    M = zero_mpc(ptset2)
    for f in ptset2.morphism_names:
        rep = satisfies_star_pi0(M, ParallelPair(f, f))
        assert rep.verdict in ("PASS", "INAPPLICABLE")
        assert rep.verdict == "PASS" or not star_of(M, ParallelPair(f, f), WEAK)


def test_choice_independence_across_weak_stars():
    for C in enumerate_categories(4):
        for N in enumerate_ideals(C):
            M = MultiPointedCategory(C, N)
            for p in C.parallel_pairs():
                verdicts = {satisfies_star_pi0(M, p, w).verdict
                            for w in star_of(M, p, WEAK)}
                assert len(verdicts) <= 1


def test_strict_stars_are_weak_stars():
    for C in enumerate_categories(4):
        for N in enumerate_ideals(C):
            M = MultiPointedCategory(C, N)
            for p in C.parallel_pairs():
                strict = {(w.k, w.star) for w in star_of(M, p, STRICT)}
                weak = {(w.k, w.star) for w in star_of(M, p, WEAK)}
                assert strict <= weak


def test_pi0_pairs_have_matching_coequalizers():
    # when both the pair and its star have coequalizers and the pair passes,
    # the two coequalizers have isomorphic codomains
    for C in enumerate_categories(4):
        for N in enumerate_ideals(C):
            M = MultiPointedCategory(C, N)
            for p in C.parallel_pairs():
                stars = star_of(M, p, WEAK)
                if not stars or not satisfies_star_pi0(M, p).passed:
                    continue
                q1 = coequalizer(C, p)
                q2 = coequalizer(C, stars[0].star)
                if q1 is None or q2 is None:
                    continue
                assert any(morphism_flags(C, i).iso
                           for i in C.hom(C.cod(q1), C.cod(q2)))


def test_theorem_a_verdicts(one, chain3, ptset2):
    assert check_theorem_a(zero_mpc(one)).passed
    assert check_theorem_a(total_mpc(chain3)).passed
    rep = check_theorem_a(zero_mpc(ptset2))
    assert rep.verdict == "INAPPLICABLE"
    assert "no weak kernel pair" in rep.witnesses[0]


def test_kernel_star(chain3, ptset2):
    M = total_mpc(chain3)
    w = kernel_star(M, "f01")
    assert w.pair == ParallelPair("1_c0", "1_c0")
    assert w.star == ParallelPair("1_c0", "1_c0")
    with pytest.raises(NoKernelPair):
        kernel_star(zero_mpc(ptset2), "u")


def test_kernel_star_symmetric_variant():
    # swapping the kernel-pair legs does not change the star-pi0 verdict
    for C in enumerate_categories(4):
        for N in enumerate_ideals(C):
            M = MultiPointedCategory(C, N)
            for f in C.morphism_names:
                for p in kernel_pairs(C, f, STRICT):
                    a = satisfies_star_pi0(M, p).verdict
                    b = satisfies_star_pi0(M, ParallelPair(p.f2, p.f1)).verdict
                    assert a == b


def test_star_regular_verdicts(one, chain3, ptset2):
    assert is_star_regular(zero_mpc(one)).passed
    assert is_star_regular(total_mpc(chain3)).passed
    rep = is_star_regular(zero_mpc(ptset2))
    assert rep.verdict == "FAIL"
    assert "not regular" in rep.witnesses[0]


def test_star_regular_coequalizer_clause(chain3):
    # in the total context the kernel star is the kernel pair, and every
    # regular epi coequalizes it
    M = total_mpc(chain3)
    for f in sorted(chain3.morphism_names):
        w = kernel_star(M, f)
        if f in ("1_c0", "1_c1", "1_c2"):
            assert f in coequalizers(chain3, w.star)


def test_normality_verdicts(one, chain3, ptset2):
    assert is_normal_category(one).passed
    assert is_normal_category(chain3).verdict == "INAPPLICABLE"
    assert is_normal_category(ptset2).verdict == "FAIL"


def test_corollary_d(one, chain3):
    assert check_corollary_d(zero_mpc(one)).passed
    assert check_corollary_d(total_mpc(chain3)).passed


def test_corollary_d_inapplicable(ptset2):
    rep = check_corollary_d(zero_mpc(ptset2))
    assert rep.verdict == "INAPPLICABLE"
