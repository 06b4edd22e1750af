"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line when its criterion holds (run with -s to
see them); any violation fails the corresponding assert with the concrete
counterexample in the message.  All sweeps are exhaustive at their stated
bounds and all comparisons are exact; there are no tolerances to tune.
"""
from __future__ import annotations

import itertools
import time

import pytest

from starkit import (CoverWitness, Exhausted, Ideal, MultiPointedCategory,
                     PreconditionFailed, STRICT, WEAK, ValidationFailed,
                     check_corollary_b, check_corollary_c, check_theorem_a,
                     enumerate_ideals, extend_ideal, full_subcategory,
                     coequalizers, has_weak_finite_limits,
                     is_projective_cover, is_regular_category,
                     is_regular_completion, is_star_regular,
                     kernels, pointed_ideal, regular_completion,
                     regular_epis, restrict_ideal, satisfies_star_pi0,
                     star_of, verify_galois_and_iso, verify_lemma_a)
from starkit.corpus import enumerate_categories, parse, search_counterexample, serialize
from starkit.cli import run
from tests.conftest import FIXTURES, FIXTURE_FILES
from tests.helpers import (kernel_star, morphism_flags, nc_kernel_via_cover,
                           reflexive_graphs_star_pi0)

SWEEP_BOUND = 4


def sweep_categories():
    return enumerate_categories(SWEEP_BOUND)


def all_covers(C):
    for r in range(1, len(C.objects) + 1):
        for objs in itertools.combinations(C.objects, r):
            yield CoverWitness(C, full_subcategory(C, objs))


def passing_covers(C):
    for W in all_covers(C):
        if is_projective_cover(W).passed:
            yield W


def test_criterion_1_theorem_harness():
    t0 = time.time()
    applicable = inapplicable = 0
    for C in sweep_categories():
        for N in enumerate_ideals(C):
            rep = check_theorem_a(MultiPointedCategory(C, N))
            assert rep.verdict != "FAIL", (C.name, N.members(), rep.witnesses)
            if rep.verdict == "PASS":
                applicable += 1
            else:
                inapplicable += 1
    elapsed = time.time() - t0
    assert applicable > 0
    assert elapsed < 60.0, f"theorem sweep took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 theorem-harness: PASS "
          f"(agreement on {applicable} applicable instances, "
          f"{inapplicable} inapplicable, {elapsed:.1f}s)")


def test_criterion_2_corollary_agreement():
    compared = 0
    for C in sweep_categories():
        for N in enumerate_ideals(C):
            M = MultiPointedCategory(C, N)
            if not is_regular_category(C).passed:
                continue
            if not all(kernels(M, f, STRICT) for f in C.morphism_names):
                continue
            # clause (iii), evaluated directly
            clause = True
            for f in sorted(regular_epis(C)):
                w = kernel_star(M, f)
                if f not in coequalizers(C, w.star):
                    clause = False
                    break
            graphs, _ = reflexive_graphs_star_pi0(M)
            assert clause == graphs, (C.name, N.members())
            # and the packaged check must never report the ERROR verdict
            assert is_star_regular(M).verdict != "ERROR"
            compared += 1
    assert compared > 0
    print(f"\nACCEPTANCE 2 corollary-agreement: PASS ({compared} instances, "
          "zero disagreements)")


def test_criterion_3_lemma_sweep():
    passed = vacuous = 0
    for C in sweep_categories():
        for W in passing_covers(C):
            sub = W.cover.category
            for NP in enumerate_ideals(sub):
                for NC in enumerate_ideals(C):
                    rep = verify_lemma_a(W, NP, NC)
                    assert rep.verdict != "FAIL", \
                        (C.name, W.cover.objects, NP.members(), NC.members(),
                         rep.witnesses)
                    if rep.verdict == "PASS":
                        passed += 1
                    else:
                        vacuous += 1
    assert (passed, vacuous) == (41, 1964)
    print(f"\nACCEPTANCE 3 lemma-sweep: PASS ({passed} passing pairs, "
          f"{vacuous} with vacuous hypotheses, zero failures)")


def test_criterion_4_galois_isomorphism():
    passed = inapplicable = 0
    for C in sweep_categories():
        for W in all_covers(C):
            rep = verify_galois_and_iso(W)
            assert rep.verdict in ("PASS", "INAPPLICABLE"), \
                (C.name, W.cover.objects, rep.witnesses)
            if rep.passed:
                passed += 1
            else:
                inapplicable += 1
    assert (passed, inapplicable) == (5, 143)
    print(f"\nACCEPTANCE 4 galois-isomorphism: PASS ({passed} cover pairs "
          f"verified, {inapplicable} outside the hypotheses)")


def test_criterion_5_completion_soundness():
    built = 0
    for C in sweep_categories():
        if not has_weak_finite_limits(C):
            continue
        try:
            compl = regular_completion(C)
        except ValidationFailed as e:  # pragma: no cover - must not happen
            pytest.fail(f"ValidationFailed on {C.name}: {e}")
        assert is_regular_category(compl.total).passed, C.name
        assert is_regular_completion(compl.total, compl.cover.cover).passed, C.name
        built += 1
    assert built > 0
    print(f"\nACCEPTANCE 5 completion-soundness: PASS ({built} completions "
          "constructed and validated, zero ValidationFailed)")


def test_criterion_6_main_theorem_end_to_end():
    n_c = n_b = 0
    for C in sweep_categories():
        if not has_weak_finite_limits(C):
            continue
        for N in enumerate_ideals(C):
            M = MultiPointedCategory(C, N)
            if not all(kernels(M, f, WEAK) for f in C.morphism_names):
                continue
            rep = check_corollary_c(C, N)
            assert rep.passed, (C.name, N.members(), rep.witnesses)
            n_c += 1
        if pointed_ideal(C) is not None:
            rep = check_corollary_b(C)
            assert rep.passed, (C.name, rep.witnesses)
            n_b += 1
    assert n_c > 0 and n_b > 0
    print(f"\nACCEPTANCE 6 main-theorem: PASS (corollary-c on {n_c} pairs, "
          f"corollary-b with both ideal transfers on {n_b} pointed bases)")


def test_criterion_7_choice_independence():
    multi = 0
    for C in sweep_categories():
        for N in enumerate_ideals(C):
            M = MultiPointedCategory(C, N)
            for p in C.parallel_pairs():
                witnesses = star_of(M, p, WEAK)
                if len(witnesses) < 2:
                    continue
                verdicts = {satisfies_star_pi0(M, p, w).verdict for w in witnesses}
                assert len(verdicts) == 1, (C.name, N.members(), p)
                multi += 1
    assert multi > 0
    print(f"\nACCEPTANCE 7 choice-independence: PASS ({multi} pairs with "
          "multiple weak stars, identical verdicts)")


def test_criterion_8_oracle_cross_check():
    def iso_over_codomain(C, m1, m2):
        return C.cod(m1) == C.cod(m2) and any(
            morphism_flags(C, i).iso and C.compose(m2, i) == m1
            for i in C.hom(C.dom(m1), C.dom(m2)))

    applicable = skipped = 0
    for C in sweep_categories():
        for W in passing_covers(C):
            sub = W.cover.category
            for NP in enumerate_ideals(sub):
                for f in C.morphism_names:
                    try:
                        m = nc_kernel_via_cover(W, NP, f)
                    except PreconditionFailed:
                        skipped += 1
                        continue
                    applicable += 1
                    direct = kernels(MultiPointedCategory(C, extend_ideal(W, NP)),
                                     f, STRICT)
                    assert direct, (C.name, W.cover.objects, NP.members(), f)
                    assert any(iso_over_codomain(C, m, k) for k in direct), \
                        (C.name, W.cover.objects, NP.members(), f, m, direct)
    assert applicable > 0
    print(f"\nACCEPTANCE 8 oracle-cross-check: PASS ({applicable} applicable "
          f"instances agree, {skipped} inapplicable)")


@pytest.mark.slow
def test_criterion_9_negative_direction_witness():
    # budget above the size of the whole space at the cap, so an Exhausted
    # outcome means the full search space was swept
    budget = 4000
    try:
        witness = search_counterexample("pi0-cover-not-star-regular", 6, budget=budget)
    except Exhausted as e:
        message = str(e)
        assert "examined=3257 (search space exhausted)" in message
        assert "max_morphisms=6" in message
        print(f"\nACCEPTANCE 9 negative-direction: PASS (explicit report: {message})")
        return
    # a found witness must actually exhibit the separation
    from starkit.corpus import CoverBlock, IdealBlock
    C = witness.category(witness.category_names()[0])
    ideal_block = next(b for b in witness.blocks if isinstance(b, IdealBlock))
    cover_blk = next(b for b in witness.blocks if isinstance(b, CoverBlock))
    N = Ideal(C, frozenset(ideal_block.members))
    W = CoverWitness(C, full_subcategory(C, cover_blk.objects))
    assert is_projective_cover(W).passed
    assert not is_star_regular(MultiPointedCategory(C, N)).passed
    MP = MultiPointedCategory(W.cover.category, restrict_ideal(W, N))
    ok, _ = reflexive_graphs_star_pi0(MP)
    assert ok
    print("\nACCEPTANCE 9 negative-direction: PASS (witness found and re-verified)")


def test_criterion_10_format_and_exit_codes(capsys, tmp_path):
    for name in FIXTURE_FILES:
        text = (FIXTURES / name).read_text(encoding="utf-8")
        assert serialize(parse(text)) == text, name

    matrix = [
        (["check", "normal", "--file", str(FIXTURES / "one.fincat"),
          "--category", "One"], 0),                                   # PASS
        (["check", "theorem-a", "--file", str(FIXTURES / "ptset2.fincat"),
          "--category", "PtSet2", "--ideal", "zero"], 0),             # INAPPLICABLE
        (["check", "star-pi0", "--file", str(FIXTURES / "ptset2.fincat"),
          "--category", "PtSet2", "--ideal", "zero"], 1),             # FAIL
        (["validate", str(FIXTURES / "broken.fincat")], 2),           # ERROR
        (["check", "star-pi0", "--file", str(FIXTURES / "one.fincat"),
          "--category", "Missing"], 2),                               # usage
    ]
    for argv, expected in matrix:
        assert run(argv) == expected, argv
    capsys.readouterr()
    print(f"\nACCEPTANCE 10 format-and-exit-codes: PASS "
          f"({len(FIXTURE_FILES)} fixture round trips, "
          f"{len(matrix)} exit-code rows)")
