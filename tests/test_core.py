from __future__ import annotations

import gc
import itertools
import weakref

import pytest

from starkit import (InvalidCategory, MultiPointedCategory, ParallelPair,
                     ReflexiveGraph, check_corollary_b, check_corollary_c,
                     check_corollary_d, check_theorem_a, check_theorem_c,
                     enumerate_ideals, enumerate_reflexive_graphs,
                     full_subcategory, has_weak_finite_limits,
                     is_normal_category, is_star_regular,
                     regular_completion, validate_category)
from starkit.core import RawCategory
from starkit.corpus import enumerate_categories
from tests.conftest import load
from tests.helpers import are_isomorphic, is_jointly_monic, morphism_flags


def test_one_is_valid(one):
    assert one.objects == ("X",)
    assert one.morphism_names == ("1_X",)


def test_chain3_is_valid(chain3):
    assert len(chain3.morphisms) == 6
    assert chain3.compose("f12", "f01") == "f02"
    assert chain3.compose("f01", "1_c0") == "f01"


def test_validate_is_idempotent(chain3, ptset2):
    for cat in (chain3, ptset2):
        again = validate_category(cat.to_raw())
        assert again.objects == cat.objects
        assert again.morphism_names == cat.morphism_names
        assert again.to_raw() == cat.to_raw()


def test_bad_typing_row_rejected():
    raw = RawCategory(
        "Chain3", ["c0", "c1", "c2"],
        [("f01", "c0", "c1"), ("f02", "c0", "c2"), ("f12", "c1", "c2")],
        [("f12", "f01", "f01")])
    with pytest.raises(InvalidCategory) as err:
        validate_category(raw)
    assert any(v.kind == "BadTyping" for v in err.value.violations)


def test_missing_composite_reported():
    raw = RawCategory(
        "Broken", ["c0", "c1", "c2"],
        [("f01", "c0", "c1"), ("f02", "c0", "c2"), ("f12", "c1", "c2")], [])
    with pytest.raises(InvalidCategory) as err:
        validate_category(raw)
    assert any(v.kind == "MissingComposite" for v in err.value.violations)


def test_unknown_and_duplicate_names():
    with pytest.raises(InvalidCategory) as err:
        validate_category(RawCategory("Bad", ["A"], [("f", "A", "C")], []))
    assert any(v.kind == "UnknownName" for v in err.value.violations)
    with pytest.raises(InvalidCategory) as err:
        validate_category(RawCategory("Bad", ["A", "A"], [], []))
    assert any(v.kind == "DuplicateName" for v in err.value.violations)


def test_identity_rows_rejected_as_redundant():
    raw = RawCategory("Bad", ["A"], [("f", "A", "A")],
                      [("f", "f", "f"), ("f", "1_A", "f")])
    with pytest.raises(InvalidCategory) as err:
        validate_category(raw)
    assert any(v.kind == "RedundantIdentity" for v in err.value.violations)


def test_non_associative_table_rejected():
    # (f f) g = g while f (f g) = f
    raw = RawCategory("Bad", ["A"], [("f", "A", "A"), ("g", "A", "A")],
                      [("f", "f", "1_A"), ("f", "g", "1_A"), ("g", "f", "f"),
                       ("g", "g", "f")])
    with pytest.raises(InvalidCategory) as err:
        validate_category(raw)
    assert any(v.kind == "NonAssociative" for v in err.value.violations)


def test_identity_flags(one):
    flags = morphism_flags(one, "1_X")
    assert flags.mono and flags.epi and flags.split_mono and flags.split_epi and flags.iso


def test_chain3_f01_flags(chain3):
    # exhaustive search over the 6-morphism table
    flags = morphism_flags(chain3, "f01")
    assert flags.mono and flags.epi
    assert not flags.split_epi and not flags.split_mono and not flags.iso


def test_ptset2_u_flags(ptset2):
    # u is merged with the identity by post-composition: u∘1_S = u∘u
    flags = morphism_flags(ptset2, "u")
    assert not flags.mono and not flags.epi


def test_iso_implies_all_flags():
    for C in enumerate_categories(4):
        for f in C.morphism_names:
            flags = morphism_flags(C, f)
            if flags.iso:
                assert flags.mono and flags.epi and flags.split_mono and flags.split_epi


def test_jointly_monic(one, ptset2):
    assert is_jointly_monic(one, ParallelPair("1_X", "1_X"))
    assert not is_jointly_monic(ptset2, ParallelPair("u", "u"))


def test_mono_leg_implies_jointly_monic(chain3, ptset2):
    for C in (chain3, ptset2):
        for p in C.parallel_pairs():
            if morphism_flags(C, p.f1).mono:
                assert is_jointly_monic(C, p)


def test_reflexive_graphs_one(one):
    assert enumerate_reflexive_graphs(one) == (ReflexiveGraph("1_X", "1_X", "1_X"),)


def test_reflexive_graphs_chain3(chain3):
    # only identity graphs: the only split epis in a chain are identities
    assert enumerate_reflexive_graphs(chain3) == tuple(
        ReflexiveGraph(i, i, i) for i in ("1_c0", "1_c1", "1_c2"))


def test_reflexive_graphs_ptset2(ptset2):
    # enumerated by hand over the 5-morphism table: s∘t = 1_T gives the
    # one non-identity graph
    assert enumerate_reflexive_graphs(ptset2) == (
        ReflexiveGraph("1_S", "1_S", "1_S"),
        ReflexiveGraph("1_T", "1_T", "1_T"),
        ReflexiveGraph("s", "s", "t"))


def test_full_subcategory_on_all_objects_isomorphic(chain3, ptset2):
    for C in (chain3, ptset2):
        sub = full_subcategory(C, C.objects).category
        assert are_isomorphic(sub, C)


def test_full_subcategory_restriction(ptset2):
    sub = full_subcategory(ptset2, ["S"]).category
    assert sub.objects == ("S",)
    assert sub.morphism_names == ("1_S", "u")
    assert sub.compose("u", "u") == "u"


def _checked_category(name: str) -> weakref.ref:
    """Run every statement check, and the regular completion where there is
    one, on a fresh copy of a fixture category and return a weak reference
    to it."""
    C = load(f"{name.lower()}.fincat").category(name)
    if has_weak_finite_limits(C):
        assert regular_completion(C).base is C
    is_normal_category(C)
    check_corollary_b(C)
    for N in enumerate_ideals(C):
        M = MultiPointedCategory(C, N)
        check_theorem_a(M)
        check_corollary_d(M)
        is_star_regular(M)
        check_corollary_c(C, N)
        for r in range(1, len(C.objects) + 1):
            for objs in itertools.combinations(C.objects, r):
                check_theorem_c(C, full_subcategory(C, objs), N)
    return weakref.ref(C)


def test_statement_checks_leave_no_cycle_through_the_category():
    # a category's caches must not refer back to it, or every checked
    # category waits for the cycle collector
    gc.collect()
    gc.disable()
    try:
        refs = [_checked_category(name) for name in ("One", "PtSet2", "Arrow", "Chain3")]
        assert [ref() for ref in refs] == [None] * 4
    finally:
        gc.enable()
