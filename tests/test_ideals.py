from __future__ import annotations

import itertools
import subprocess
import sys

import pytest

from starkit import (BoundExceeded, CoverWitness, Ideal, MultiPointedCategory,
                     PASS, PreconditionFailed, STRICT, WEAK, check_corollary_b,
                     check_corollary_d, check_theorem_a, enumerate_ideals,
                     extend_ideal, full_subcategory, has_all_kernels,
                     ideal_closure, is_ideal, is_projective_cover,
                     is_star_regular, kernels, morphism_flags, pointed_ideal,
                     regular_completion, regular_epis, restrict_ideal,
                     validate_category, verify_galois_and_iso, verify_lemma_a)
from starkit.corpus import enumerate_categories, parse
from starkit.ideals import _ideal_masks, _kernel_gates
from tests.conftest import FIXTURES, subprocess_env
from tests.helpers import nc_kernel_via_cover
from tests.test_differential import is_saturating
from tests.test_limits import ISO_TOP


def cover_all(C) -> CoverWitness:
    return CoverWitness(C, full_subcategory(C, C.objects))


def cover_on(C, objs) -> CoverWitness:
    return CoverWitness(C, full_subcategory(C, objs))


def test_ideal_caches_hold_ints_after_the_statement_checks(chain3, ptset2, one, arrow):
    """The per-category caches of the ideal lattice, the pointed ideal and
    the kernel gates hold masks and morphism numbers, never name sets."""
    fresh = [validate_category(C.to_raw()) for C in (chain3, ptset2, one, arrow)]
    for C in fresh:
        for N in enumerate_ideals(C):
            M = MultiPointedCategory(C, N)
            check_theorem_a(M)
            check_corollary_d(M)
            if has_all_kernels(M, STRICT):
                is_star_regular(M)
        verify_galois_and_iso(cover_all(C))
        check_corollary_b(C)
        pointed_ideal(C)
        cache = C._cache
        assert all(type(m) is int for m in cache["all_ideals"])
        assert cache["pointed_ideal"] is None or type(cache["pointed_ideal"]) is int
        gates = cache["kernel_gates"]
        assert len(gates) == len(cache["all_ideals"])
        assert all(type(m) is int and all(f is None or type(f) is int for f in fs)
                   for m, fs in gates.items())
    assert [type(C._cache["pointed_ideal"]) for C in fresh] == [type(None), int, int, type(None)]


def test_ideal_closure_basics(chain3):
    assert ideal_closure(chain3, []).carrier == frozenset()
    total = ideal_closure(chain3, chain3.morphism_names)
    assert total.carrier == frozenset(chain3.morphism_names)
    assert ideal_closure(chain3, ["f02"]).carrier == frozenset({"f02"})


def test_ideal_closure_is_a_closure_operator(chain3, ptset2):
    for C in (chain3, ptset2):
        singles = [ideal_closure(C, [g]).carrier for g in C.morphism_names]
        for gens in itertools.combinations(C.morphism_names, 2):
            closed = ideal_closure(C, gens).carrier
            assert set(gens) <= closed                      # extensive
            assert ideal_closure(C, closed).carrier == closed  # idempotent
            for single, g in zip(singles, C.morphism_names):
                if g in gens:
                    assert single <= closed                 # monotone


def test_kernels_total_context(chain3):
    total = Ideal(chain3, frozenset(chain3.morphism_names))
    M = MultiPointedCategory(chain3, total)
    for f in chain3.morphism_names:
        assert chain3.identity[chain3.dom(f)] in kernels(M, f, STRICT)


def test_kernels_ptset2(ptset2, ptset2_corpus):
    M = MultiPointedCategory(ptset2, ptset2_corpus.ideal("zero"))
    assert kernels(M, "1_S", STRICT) == ["t"]
    assert kernels(M, "1_S", WEAK) == ["t", "u"]
    assert kernels(M, "u", STRICT) == ["1_S"]


def test_strict_kernels_are_monic_and_unique_up_to_iso():
    for C in enumerate_categories(4):
        for N in enumerate_ideals(C):
            M = MultiPointedCategory(C, N)
            for f in C.morphism_names:
                strict = kernels(M, f, STRICT)
                weak = kernels(M, f, WEAK)
                assert set(strict) <= set(weak)
                for k in strict:
                    assert morphism_flags(C, k).mono
                for k1, k2 in itertools.combinations(strict, 2):
                    assert any(morphism_flags(C, i).iso and C.compose(k2, i) == k1
                               for i in C.hom(C.dom(k1), C.dom(k2)))


def test_pointed_ideals(one, chain3, ptset2):
    assert pointed_ideal(one).members() == ("1_X",)
    assert pointed_ideal(ptset2).members() == ("1_T", "s", "t", "u")
    assert pointed_ideal(chain3) is None  # hom(c2, c0) is empty


RESTRICT_NON_IDEAL = """
import sys
from pathlib import Path
from starkit import (CoverWitness, Ideal, IdealClosureViolation,
                     MultiPointedCategory, full_subcategory, is_ideal, parse,
                     restrict_ideal)
C = parse(Path(sys.argv[1]).read_text()).category("Chain3")
W = CoverWitness(C, full_subcategory(C, C.objects))
print(__debug__)
try:
    restrict_ideal(W, Ideal(C, frozenset({"f01"})))
except IdealClosureViolation:
    print("raised")
for carrier in ({"f01"}, {"f02", "nope"}):
    try:
        MultiPointedCategory(C, Ideal(C, frozenset(carrier)))
    except ValueError:
        print("refused")
print(is_ideal(C, {"f02"}), is_ideal(C, {"f02", "nope"}))
"""


def test_restrict_ideal_checks_closure_under_optimize():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", RESTRICT_NON_IDEAL, str(FIXTURES / "chain3.fincat")],
        capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\nraised\nrefused\nrefused\nTrue False\n"


def test_restrict_ideal(ptset2, ptset2_corpus):
    W = cover_on(ptset2, ["S"])
    zero = ptset2_corpus.ideal("zero")
    assert restrict_ideal(W, zero).members() == ("u",)
    total = Ideal(ptset2, frozenset(ptset2.morphism_names))
    assert restrict_ideal(W, total).carrier == frozenset({"1_S", "u"})
    assert restrict_ideal(cover_all(ptset2), zero).carrier == zero.carrier


def test_extend_ideal_examples(ptset2, chain3):
    W = cover_on(ptset2, ["S"])
    sub = W.cover.category
    assert extend_ideal(W, Ideal(sub, frozenset())).carrier == frozenset()
    # extending the null endomorphism recovers the pointed ideal upstairs
    assert extend_ideal(W, Ideal(sub, frozenset({"u"}))).members() == \
        ("1_T", "s", "t", "u")
    # thin parent, cover everything: regular epis are isos, so extension is
    # the ideal itself
    W3 = cover_all(chain3)
    for N in enumerate_ideals(W3.cover.category):
        assert extend_ideal(W3, N).carrier == N.carrier


def test_extend_total_cover_ideal_reaches_every_covered_morphism(ptset2):
    # with the total ideal on the cover, the extension is exactly the
    # morphisms covered by regular epis on both ends; for the {S} cover of
    # PtSet2 that is everything
    W = cover_on(ptset2, ["S"])
    sub = W.cover.category
    total_sub = Ideal(sub, frozenset(sub.morphism_names))
    assert extend_ideal(W, total_sub).carrier == frozenset(ptset2.morphism_names)


def test_union_and_intersection_of_ideals(chain3, ptset2):
    for C in (chain3, ptset2):
        ideals = enumerate_ideals(C)
        for a, b in itertools.combinations(ideals, 2):
            assert is_ideal(C, a.carrier | b.carrier)
            assert is_ideal(C, a.carrier & b.carrier)


def test_enumerate_ideals_counts(one, arrow, chain3, ptset2):
    assert [i.members() for i in enumerate_ideals(one)] == [(), ("1_X",)]
    # enumerated by hand over the eight subsets of {1_A, f, 1_B}
    assert [set(i.carrier) for i in enumerate_ideals(arrow)] == [
        set(), {"f"}, {"1_A", "f"}, {"1_B", "f"}, {"1_A", "1_B", "f"}]
    # enumerated by hand from the six principal closures
    assert len(enumerate_ideals(chain3)) == 14
    assert len(enumerate_ideals(ptset2)) == 3


def test_enumerate_ideals_bound(chain3):
    with pytest.raises(BoundExceeded):
        enumerate_ideals(chain3, bound=3)


def test_env_cap_leaves_ideal_enumeration_unsampled(arrow, monkeypatch):
    # STARKIT_MAX_MORPHISMS caps category enumeration only; the completion of
    # Arrow has 7 morphisms, within the ideal bound, so every ideal is listed
    monkeypatch.setenv("STARKIT_MAX_MORPHISMS", "6")
    report = verify_galois_and_iso(regular_completion(arrow).cover)
    assert report.verdict == PASS
    assert report.witnesses[0] == "ideals: parent=5 cover=5"


def test_restrict_preserves_union_and_intersection(ptset2):
    W = cover_on(ptset2, ["S"])
    ideals = enumerate_ideals(ptset2)
    for a, b in itertools.combinations(ideals, 2):
        ra, rb = restrict_ideal(W, a).carrier, restrict_ideal(W, b).carrier
        assert restrict_ideal(W, Ideal(ptset2, a.carrier | b.carrier)).carrier == ra | rb
        assert restrict_ideal(W, Ideal(ptset2, a.carrier & b.carrier)).carrier == ra & rb


def test_saturating_total_context_is_regular_epi(chain3, ptset2):
    # for the total ideal, being saturating and being a regular epi coincide
    # in a regular category; PtSet2 is not regular so only Chain3 is checked
    total = Ideal(chain3, frozenset(chain3.morphism_names))
    M = MultiPointedCategory(chain3, total)
    epis = regular_epis(chain3)
    for f in chain3.morphism_names:
        assert is_saturating(M, f) == (f in epis)


def test_saturating_pointed_and_empty(ptset2):
    zero = pointed_ideal(ptset2)
    M = MultiPointedCategory(ptset2, zero)
    assert all(is_saturating(M, f) for f in ptset2.morphism_names)
    M0 = MultiPointedCategory(ptset2, Ideal(ptset2, frozenset()))
    assert all(is_saturating(M0, f) for f in ptset2.morphism_names)


def test_projective_cover_verdicts(chain3, ptset2):
    assert is_projective_cover(cover_all(chain3)).passed
    assert is_projective_cover(cover_on(ptset2, ["S"])).passed
    rep = is_projective_cover(cover_on(chain3, ["c1"]))
    assert rep.verdict == "FAIL"
    assert "no regular epi" in rep.witnesses[0]


def test_a_thin_cover_must_meet_every_isomorphism_class():
    # x and y are isomorphic under the top t: {y, t} meets both classes,
    # {x, y} misses t's
    C = parse(ISO_TOP).category("IsoTop")
    assert C.thin
    assert is_projective_cover(cover_on(C, ["y", "t"])).passed
    rep = is_projective_cover(cover_on(C, ["x", "y"]))
    assert (rep.verdict, rep.witnesses) == ("FAIL", ["object t admits no regular epi from the cover"])


def test_equal_kernel_gates_are_one_object(chain3):
    # Chain3's 14 ideals have two distinct gate values
    C = validate_category(chain3.to_raw())
    gates = [_kernel_gates(C, mask) for mask in _ideal_masks(C)]
    assert len(gates) == 14
    assert len({id(g) for g in gates}) == len(set(gates)) == 2


def test_nc_kernel_against_direct_search(ptset2):
    W = cover_on(ptset2, ["S"])
    sub = W.cover.category
    NP = Ideal(sub, frozenset({"u"}))
    m = nc_kernel_via_cover(W, NP, "1_S")
    assert m == "t"
    direct = kernels(MultiPointedCategory(ptset2, extend_ideal(W, NP)), "1_S", STRICT)
    assert m in direct


def test_nc_kernel_in_one(one):
    W = cover_all(one)
    NP = Ideal(W.cover.category, frozenset({"1_X"}))
    assert nc_kernel_via_cover(W, NP, "1_X") == "1_X"


def test_nc_kernel_precondition_failures(ptset2):
    W = cover_on(ptset2, ["S"])
    empty = Ideal(W.cover.category, frozenset())
    with pytest.raises(PreconditionFailed):
        nc_kernel_via_cover(W, empty, "1_S")
    not_cover = cover_on(ptset2, ["T"])
    assert not is_projective_cover(not_cover).passed
    with pytest.raises(PreconditionFailed):
        nc_kernel_via_cover(not_cover, Ideal(not_cover.cover.category, frozenset()), "1_S")


def test_lemma_a_on_degenerate_cover(chain3):
    W = cover_all(chain3)
    sub = W.cover.category
    for NP in enumerate_ideals(sub):
        for NC in enumerate_ideals(chain3):
            assert verify_lemma_a(W, NP, NC).passed


def test_lemma_a_reports_vacuous_part_c(chain3):
    # the empty ideal on the parent admits no kernels, so part (c) is
    # reported as vacuous rather than evaluated
    W = cover_all(chain3)
    rep = verify_lemma_a(W, Ideal(W.cover.category, frozenset()),
                         Ideal(chain3, frozenset()))
    assert rep.passed
    assert any("(c) vacuous" in w for w in rep.witnesses)


def test_lemma_a_requires_projective_cover(chain3):
    W = cover_on(chain3, ["c1"])
    NP = Ideal(W.cover.category, frozenset())
    NC = Ideal(chain3, frozenset())
    with pytest.raises(PreconditionFailed):
        verify_lemma_a(W, NP, NC)


def test_lemma_a_inapplicable_on_non_regular_parent(ptset2_corpus):
    W = ptset2_corpus.cover("P")
    rep = verify_lemma_a(W, ptset2_corpus.ideal("zeroP"),
                         ptset2_corpus.ideal("zero"))
    assert rep.verdict == "INAPPLICABLE"


def test_galois_on_chain3(chain3):
    rep = verify_galois_and_iso(cover_all(chain3))
    assert rep.passed
    assert any("I_s=14" in w for w in rep.witnesses)


def test_galois_on_one(one):
    assert verify_galois_and_iso(cover_all(one)).passed


def test_galois_inapplicable_when_not_regular(ptset2):
    assert verify_galois_and_iso(cover_on(ptset2, ["S"])).verdict == "INAPPLICABLE"
