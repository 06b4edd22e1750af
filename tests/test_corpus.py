from __future__ import annotations

import pytest

from starkit import (BoundExceeded, CorpusSyntaxError, Exhausted,
                     RawCategory, validate_category)
from starkit.corpus import (CategoryBlock, CorpusResolutionError, IdealBlock,
                            category_block,
                            CorpusFile, enumerate_categories, parse,
                            search_counterexample, serialize)
from tests.conftest import FIXTURES, FIXTURE_FILES
from tests.helpers import are_equivalent, are_isomorphic, canonical_key

from collections import Counter


@pytest.mark.parametrize("name", FIXTURE_FILES)
def test_round_trip_identity_on_fixtures(name):
    text = (FIXTURES / name).read_text(encoding="utf-8")
    assert serialize(parse(text)) == text


def test_serialize_parse_is_canonicalization():
    messy = "category M\nobjects b a\nmor g : b -> a\nmor f : a -> b\ncomp g f = 1_a\ncomp f g = 1_b\nend\n"
    once = serialize(parse(messy))
    assert serialize(parse(once)) == once
    assert "objects a b" in once


def test_parse_comp_row_text(chain3_corpus):
    C = chain3_corpus.category("Chain3")
    assert C.compose("f12", "f01") == "f02"


def test_equal_names_in_a_parsed_corpus_are_one_object():
    text = ("category A\nobjects X0 X1\nmor f0 : X0 -> X1\nmor f1 : X1 -> X0\n"
            "comp f0 f1 = 1_X1\ncomp f1 f0 = 1_X0\nend\n"
            "category B\nobjects X0 X1\nmor f0 : X0 -> X1\nmor f1 : X1 -> X1\n"
            "comp f1 f0 = f0\ncomp f1 f1 = f1\nend\n")
    raws = [b.raw for b in parse(text).blocks]
    first: dict[str, str] = {}
    names = [name for raw in raws for rows in ([raw.objects], raw.morphisms, raw.compositions)
             for row in rows for name in row]
    assert len(names) == 2 * (2 + 2 * 3 + 2 * 3)
    assert all(first.setdefault(name, name) is name for name in names)
    assert raws[0].morphisms[0] is raws[1].morphisms[0]  # one row tuple per distinct line


def test_parse_unknown_name_is_deferred_to_validation():
    cf = parse("category Bad\nobjects A\nmor f : A -> C\nend\n")
    with pytest.raises(Exception) as err:
        cf.category("Bad")
    assert "UnknownName" in str(err.value)


def test_parse_syntax_errors_carry_line():
    with pytest.raises(CorpusSyntaxError) as err:
        parse("category A\nobjects X\nwhat\nend\n")
    assert err.value.line == 3
    with pytest.raises(CorpusSyntaxError):
        parse("ideal N on Missing = { }\n")
    with pytest.raises(CorpusSyntaxError):
        parse("category A\nobjects X\n")  # not closed
    # cover members are object names, which never start with 1_
    with pytest.raises(CorpusSyntaxError) as err:
        parse("category A\nobjects X\nend\ncover P on A = { 1_X }\n")
    assert str(err.value) == "line 4, col 1: bad name '1_X'"


@pytest.mark.parametrize("row, message", [
    ("comp 1x f = f", "bad name '1x'"),
    ("comp f 1_ = f", "bad name '1_'"),
    ("comp f f = a=b", "bad name 'a=b'"),
    ("comp f 1x = -", "bad name '1x'"),
    ("comp f f== f", "bad name 'f='"),
    ("comp f f f", "expected: comp <g> <f> = <h>"),
    ("comp f = f", "expected: comp <g> <f> = <h>"),
    ("mor 1_g : X -> X", "bad name '1_g'"),
    ("mor g : X_ -> -", "bad name '-'"),
    ("mor g : X -> 1X", "bad name '1X'"),
    ("mor g X -> X", "expected: mor <name> : <dom> -> <cod>"),
    ("mor g : X => X", "expected: mor <name> : <dom> -> <cod>"),
    ("objects Y", "objects after morphisms"),
])
def test_parse_pins_the_first_bad_name_or_the_expected_form(row, message):
    with pytest.raises(CorpusSyntaxError) as err:
        parse(f"# header\ncategory A\nobjects X\nmor f : X -> X\n{row}\nend\n")
    assert str(err.value) == f"line 5, col 1: {message}"


@pytest.mark.parametrize("text, line", [
    ("category A\nobjects X\nend\ncategory A\nobjects Y\nend\n", 4),
    ("category A\nobjects X\nend\ncover P on A = { X }\ncover P on A = { X }\n", 5),
    ("category A\nobjects X\nend\ncover A on A = { X }\n", 4),
    ("category A\nobjects X\nend\ncover P on A = { X }\ncategory P\nobjects Y\nend\n", 5),
    ("category A\nobjects X\nend\nideal N on A = { }\nideal N on A = { 1_X }\n", 5),
    ("category A\nobjects X\nmor f : X -> X\ncomp f f = f\nend\nideal N on A = { f, f }\n", 6),
    ("category A\nobjects X\nend\ncover P on A = { X, X }\n", 4),
])
def test_parse_rejects_duplicate_names(text, line):
    with pytest.raises(CorpusSyntaxError) as err:
        parse(text)
    assert err.value.line == line
    assert "already used" in str(err.value)


def test_ideal_may_share_a_category_name():
    cf = parse("category A\nobjects X\nend\nideal A on A = { 1_X }\n")
    assert cf.ideal("A").members() == ("1_X",)


def test_ideal_resolution_errors(ptset2_corpus):
    with pytest.raises(CorpusResolutionError):
        ptset2_corpus.ideal("nope")
    bad = parse("category A\nobjects X\nend\n\nideal N on A = { f }\n")
    with pytest.raises(CorpusResolutionError):
        bad.ideal("N")
    open_set = parse("category A\nobjects X\nmor f : X -> X\ncomp f f = f\nend\n"
                     "\nideal N on A = { 1_X }\n")
    with pytest.raises(CorpusResolutionError):
        open_set.ideal("N")


def test_ideal_on_cover_resolves_to_subcategory(ptset2_corpus):
    ideal = ptset2_corpus.ideal("zeroP")
    assert ideal.cat is ptset2_corpus.cover("P").cover.category
    assert ideal.members() == ("u",)


def test_enumeration_counts(enumerated6):
    # per-size counts: 1; 3 (two monoids and the discrete pair); 11 (seven
    # 3-element monoids, arrow, two endo-plus-bystander, discrete), derived
    # by hand; then 55, 329, 2858.  The one-object column counts monoids up
    # to isomorphism, OEIS A058129.
    assert sum(1 for _ in enumerate_categories(1)) == 1
    assert sum(1 for _ in enumerate_categories(2)) == 4
    assert sum(1 for _ in enumerate_categories(3)) == 15
    assert sum(1 for _ in enumerate_categories(4)) == 70
    sizes = Counter(len(C.morphisms) for C in enumerated6)
    monoids = Counter(len(C.morphisms) for C in enumerated6 if len(C.objects) == 1)
    assert [sizes[n] for n in range(1, 7)] == [1, 3, 11, 55, 329, 2858]
    assert [monoids[n] for n in range(1, 7)] == [1, 2, 7, 35, 228, 2237]


def test_one_object_slice_against_independent_oracle():
    # independent table enumeration, no shared code: monoids on {0,1,2} with
    # 0 as the identity, deduplicated by the swap of the other two elements
    import itertools
    seen = set()
    for cells in itertools.product(range(3), repeat=4):
        t = {}
        for i in range(3):
            t[(0, i)] = i
            t[(i, 0)] = i
        t[(1, 1)], t[(1, 2)], t[(2, 1)], t[(2, 2)] = cells
        if not all(t[(t[(a, b)], c)] == t[(a, t[(b, c)])]
                   for a in range(3) for b in range(3) for c in range(3)):
            continue
        keys = []
        for perm in ([0, 1, 2], [0, 2, 1]):
            inv = [perm.index(i) for i in range(3)]
            keys.append(tuple(perm[t[(inv[a], inv[b])]]
                              for a in range(3) for b in range(3)))
        seen.add(min(keys))
    package = [C for C in enumerate_categories(3)
               if len(C.objects) == 1 and len(C.morphisms) == 3]
    assert len(seen) == len(package) == 7


def test_isomorphism_invariant_under_relabelling():
    import random as rnd
    rng = rnd.Random(11)
    for C in enumerate_categories(3):
        raw = C.to_raw()
        objs = list(raw.objects)
        rng.shuffle(objs)
        obj_map = {old: f"o{i}" for i, old in enumerate(objs)}
        mors = list(raw.morphisms)
        rng.shuffle(mors)
        mor_map = {name: f"m{i}" for i, (name, _, _) in enumerate(mors)}
        for x in raw.objects:
            mor_map[f"1_{x}"] = f"1_{obj_map[x]}"
        shuffled = validate_category(RawCategory(
            "Shuffled",
            [obj_map[x] for x in objs],
            [(mor_map[n], obj_map[d], obj_map[c]) for n, d, c in mors],
            [(mor_map[g], mor_map[f], mor_map[h])
             for g, f, h in raw.compositions]))
        assert are_isomorphic(C, shuffled)


def test_enumeration_is_deterministic_and_valid():
    first = [(C.name, canonical_key(C)) for C in enumerate_categories(3)]
    second = [(C.name, canonical_key(C)) for C in enumerate_categories(3)]
    assert first == second
    for C in enumerate_categories(3):
        validate_category(C.to_raw())


def test_enumeration_yields_pairwise_non_isomorphic():
    cats = list(enumerate_categories(3))
    keys = [canonical_key(C) for C in cats]
    assert len(keys) == len(set(keys))


def test_enumeration_bound():
    with pytest.raises(BoundExceeded):
        list(enumerate_categories(7))


def test_env_cap_override(monkeypatch):
    monkeypatch.setenv("STARKIT_MAX_MORPHISMS", "2")
    with pytest.raises(BoundExceeded, match="^requested 3 morphisms; enumeration cap is 2, "
                       "set by STARKIT_MAX_MORPHISMS$"):
        list(enumerate_categories(3))
    assert sum(1 for _ in enumerate_categories(2)) == 4


def test_isomorphism_ignores_names(one):
    other = parse("category Uno\nobjects Y\nend\n").category("Uno")
    assert are_isomorphic(one, other)
    assert are_equivalent(one, other)


def test_non_isomorphic_categories(one, arrow):
    assert not are_isomorphic(one, arrow)
    assert not are_equivalent(one, arrow)


def test_equivalence_contracts_isomorphic_objects(one):
    iso_pair = parse(
        "category Pair\nobjects A B\nmor x : A -> B\nmor y : B -> A\n"
        "comp x y = 1_B\ncomp y x = 1_A\nend\n").category("Pair")
    assert are_equivalent(iso_pair, one)
    assert not are_isomorphic(iso_pair, one)


def test_search_pointed_finds_one():
    w = search_counterexample("pointed", 1)
    names = [b.raw.name for b in w.blocks if isinstance(b, CategoryBlock)]
    assert len(names) == 1
    C = w.category(names[0])
    assert len(C.morphisms) == 1
    assert any("# witness" in line for line in w.header)


def test_search_regular_thin():
    w = search_counterexample("regular-thin", 2)
    C = w.category(w.category_names()[0])
    assert all(len(C.hom(x, y)) <= 1 for x in C.objects for y in C.objects)


def test_search_exhausts_loudly():
    with pytest.raises(Exhausted) as err:
        search_counterexample("pointed-regular-not-normal", 1)
    assert "examined=1" in str(err.value)
    assert "max_morphisms=1" in str(err.value)


def test_search_budget_is_reported():
    with pytest.raises(Exhausted) as err:
        search_counterexample("pointed-regular-not-normal", 4, budget=10)
    assert "examined=10" in str(err.value)
    assert "budget reached" in str(err.value)


def test_search_unknown_property():
    with pytest.raises(ValueError):
        search_counterexample("no-such-thing", 2)


def test_search_is_deterministic():
    a = search_counterexample("regular", 3)
    b = search_counterexample("regular", 3)
    assert serialize(a) == serialize(b)


def test_witness_files_parse_and_validate():
    w = search_counterexample("pointed", 2)
    again = parse(serialize(w))
    for name in again.category_names():
        again.category(name)
    for block in again.blocks:
        if isinstance(block, IdealBlock):
            again.ideal(block.name)


def test_category_block_round_trip(chain3):
    cf = CorpusFile([], [category_block(chain3)])
    C = parse(serialize(cf)).category("Chain3")
    assert are_isomorphic(C, chain3)
