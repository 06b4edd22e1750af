"""Deeper end-to-end cases: proper covers, completion-level transfers, and
sweeps one notch above the acceptance bound."""
from __future__ import annotations

import gzip
import itertools
import json
from collections import Counter
from pathlib import Path

import pytest

from starkit import (CoverWitness, Ideal, MultiPointedCategory,
                     PreconditionFailed, STRICT, check_corollary_d,
                     check_theorem_a, check_theorem_c, enumerate_ideals,
                     extend_ideal, full_subcategory, has_all_kernels,
                     has_weak_finite_limits, is_projective_cover,
                     is_regular_category, is_star_regular, kernels,
                     pointed_ideal, regular_completion,
                     restrict_ideal, verify_galois_and_iso, verify_lemma_a)
from starkit.corpus import enumerate_categories, parse
from tests.helpers import (boolean, morphism_flags, nc_kernel_via_cover, sample_ideals,
                           transport_ideal)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

ISO_PAIR_TEXT = ("category Pair\nobjects A B\nmor x : A -> B\nmor y : B -> A\n"
                 "comp x y = 1_B\ncomp y x = 1_A\nend\n")


def iso_pair():
    return parse(ISO_PAIR_TEXT).category("Pair")


def test_proper_cover_of_iso_pair():
    C = iso_pair()
    W = CoverWitness(C, full_subcategory(C, ["A"]))
    assert is_projective_cover(W).passed
    assert verify_galois_and_iso(W).passed
    for NP in enumerate_ideals(W.cover.category):
        for NC in enumerate_ideals(C):
            assert verify_lemma_a(W, NP, NC).passed


def test_empty_cover_fails_covering_clause(chain3):
    W = CoverWitness(chain3, full_subcategory(chain3, []))
    rep = is_projective_cover(W)
    assert rep.verdict == "FAIL"
    assert "admits no regular epi" in rep.witnesses[0]


def test_completion_cover_is_proper_and_transfers(chain3):
    compl = regular_completion(chain3)
    W = compl.cover
    assert len(W.cover.objects) < len(compl.total.objects)
    assert is_projective_cover(W).passed
    # the embedding reflects every base ideal: restrict(extend(N)) = N
    for N in enumerate_ideals(chain3):
        transported = transport_ideal(compl, N)
        ext = extend_ideal(W, transported)
        assert restrict_ideal(W, ext).carrier == transported.carrier


def test_sampled_galois_on_completion():
    # Chain3's completion has Chain3's 14 ideals, listed in full; the
    # completion of Boolean 2^3 (343 morphisms) has its base's 15,936, past
    # the ideal cap, so galois counts a sample on both sides
    compl = regular_completion(boolean(3))
    rep = verify_galois_and_iso(compl.cover)
    assert rep.passed
    assert rep.witnesses[0] == "sampled ideals: parent=64 cover=64"
    assert len(compl.total.morphism_names) == 343


def test_nc_kernel_on_completion_cover(chain3):
    compl = regular_completion(chain3)
    total, W = compl.total, compl.cover
    transported = transport_ideal(compl, Ideal(chain3, frozenset({"f02"})))
    ext = extend_ideal(W, transported)
    agree = skipped = 0
    for f in total.morphism_names:
        try:
            m = nc_kernel_via_cover(W, transported, f)
        except PreconditionFailed:
            skipped += 1
            continue
        direct = kernels(MultiPointedCategory(total, ext), f, STRICT)
        assert direct, f
        assert any(morphism_flags(total, i).iso and total.compose(k, i) == m
                   for k in direct for i in total.hom(total.dom(m), total.dom(k)))
        agree += 1
    assert agree > 0


def test_lemma_sweep_on_completion_cover(chain3):
    compl = regular_completion(chain3)
    W = compl.cover
    sub = W.cover.category
    for NP in sample_ideals(sub, cap=8):
        for NC in sample_ideals(compl.total, cap=8):
            assert verify_lemma_a(W, NP, NC).passed


def test_theorem_sweep_at_five_morphisms():
    fails = 0
    for C in enumerate_categories(5):
        for N in enumerate_ideals(C):
            M = MultiPointedCategory(C, N)
            if check_theorem_a(M).verdict == "FAIL":
                fails += 1
            if is_star_regular(M).verdict == "ERROR":
                fails += 1
            if check_corollary_d(M).verdict == "FAIL":
                fails += 1
    assert fails == 0


@pytest.mark.slow
def test_kernel_statement_totals_over_the_pinned_six_morphism_corpus():
    # the theorem-a, corollary-d and star-regular totals the benchmark pins
    # for its sweep, replayed from its two files alone
    expected = json.loads((PERFBENCH / "expected.json").read_text("utf-8"))["sweep"]
    corpus = parse(gzip.decompress((PERFBENCH / expected["corpus"]).read_bytes())
                   .decode("utf-8"))
    totals: Counter = Counter()
    for name in corpus.category_names():
        C = corpus.category(name)
        for N in enumerate_ideals(C):
            M = MultiPointedCategory(C, N)
            totals[f"theorem-a={check_theorem_a(M).verdict}"] += 1
            totals[f"corollary-d={check_corollary_d(M).verdict}"] += 1
            if has_all_kernels(M, STRICT):
                totals[f"star-regular={is_star_regular(M).verdict}"] += 1
    checks = ("theorem-a=", "corollary-d=", "star-regular=")
    assert dict(totals) == {key: n for key, n in expected["totals"].items()
                            if key.startswith(checks)}


def test_theorem_c_on_completions_with_extendable_ideals(chain3):
    compl = regular_completion(chain3)
    total, W = compl.total, compl.cover
    verdicts = set()
    for N in enumerate_ideals(chain3):
        extended = extend_ideal(W, transport_ideal(compl, N))
        rep = check_theorem_c(total, W.cover, extended)
        assert rep.verdict in ("PASS", "INAPPLICABLE"), rep.witnesses
        verdicts.add(rep.verdict)
    assert "PASS" in verdicts


def test_completions_at_five_morphisms():
    built = 0
    for C in enumerate_categories(5):
        if not has_weak_finite_limits(C):
            continue
        compl = regular_completion(C)
        assert is_regular_category(compl.total).passed
        built += 1
    assert built >= 3


def test_pointed_transfer_under_proper_cover():
    # pointedness passes between a projective cover and its parent, and the
    # pointed ideals restrict and extend onto one another
    for C in enumerate_categories(4):
        if not is_regular_category(C).passed:
            continue
        for r in range(1, len(C.objects) + 1):
            for objs in itertools.combinations(C.objects, r):
                W = CoverWitness(C, full_subcategory(C, objs))
                if not is_projective_cover(W).passed:
                    continue
                sub = W.cover.category
                N = pointed_ideal(sub)
                M = pointed_ideal(C)
                assert (N is None) == (M is None)
                if N is None:
                    continue
                assert extend_ideal(W, N).carrier == M.carrier
                assert restrict_ideal(W, M).carrier == N.carrier
