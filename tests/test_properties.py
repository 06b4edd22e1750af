"""Properties of random valid categories with 6 to 8 morphisms, past the
exhaustive sweeps of at most 5, each drawn from its own seed by
``oracle_random_category`` of ``test_differential``:
the corpus format round-trips, the canonical form ignores names and order,
the pullback, equalizer and coequalizer searches, ideal kernels, regular
epis, the pointed ideal and regular completions agree with the oracles of
``test_differential``, validation rejects exactly the single-cell changes
that break associativity and agrees with its oracle on random edits,
``ideal_closure`` gives the least ideal, and the finiteness theorems (F)
and (K) pinned there hold.  Generated ``comp`` and ``mor`` lines parse to
the groups, or fail with the error, that the line forms and name checks
give."""
from __future__ import annotations

import itertools
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from starkit import (STRICT, WEAK, InvalidCategory, MultiPointedCategory,  # noqa: E402
                     enumerate_ideals, ideal_closure, is_ideal,
                     kernels, pullback_cones)
from starkit.core import RawCategory, identity_name, validate_category  # noqa: E402
from starkit.corpus import (_COMP, _MOR, _NAME, _REF, CorpusFile,  # noqa: E402
                            CorpusSyntaxError, category_block, parse, serialize)
from tests.helpers import canonical_key, equalizer_cones  # noqa: E402
from tests.test_differential import (_all_mono, _has_weak_kernel_pairs,  # noqa: E402
                                     _has_weak_products, _inline_kernels,
                                     _single_row_changes, _thin,
                                     compare_coequalizers_and_pointed_ideal,
                                     compare_validation,
                                     oracle_equalizer, oracle_pullback,
                                     oracle_random_category)

SWEPT, MAX_MORPHISMS = 5, 8

seeds = st.integers(min_value=0, max_value=2**32 - 1)
examples = settings(derandomize=True, database=None, max_examples=30, deadline=None)


def _draw(seed: int):
    C = oracle_random_category(random.Random(seed), SWEPT, MAX_MORPHISMS, name="R")
    assume(C is not None)  # about 54% of draws are valid categories
    return C


def _table(raw: RawCategory):
    return sorted(raw.objects), sorted(raw.morphisms), sorted(raw.compositions)


@examples
@given(seeds)
def test_serialize_parse_round_trip(seed):
    C = _draw(seed)
    text = serialize(CorpusFile([], [category_block(C)]))
    again = parse(text)
    assert serialize(again) == text
    assert _table(again.category(C.name).to_raw()) == _table(C.to_raw())


@examples
@given(seeds, st.randoms())
def test_canonical_key_ignores_names_and_order(seed, rng):
    C = _draw(seed)
    raw = C.to_raw()
    objects = {x: f"Y{i}" for i, x in enumerate(rng.sample(list(C.objects), len(C.objects)))}
    declared = rng.sample(list(raw.morphisms), len(raw.morphisms))
    names = {m: f"g{i}" for i, (m, _, _) in enumerate(declared)}
    names.update((C.identity[x], identity_name(y)) for x, y in objects.items())
    renamed = RawCategory(
        "S", rng.sample(list(objects.values()), len(objects)),
        [(names[m], objects[x], objects[y]) for m, x, y in declared],
        [(names[g], names[f], names[h]) for g, f, h in
         rng.sample(list(raw.compositions), len(raw.compositions))])
    assert canonical_key(validate_category(renamed)) == canonical_key(C)


@examples
@given(seeds)
def test_limit_searches_match_the_oracle(seed):
    C = _draw(seed)
    for mode in (WEAK, STRICT):
        for f in C.morphism_names:
            for g in C.morphisms_to(C.cod(f)):
                assert [(c.apex, c.legs) for c in pullback_cones(C, f, g, mode)] == \
                    oracle_pullback(C, f, g, mode)
        for p in C.parallel_pairs():
            assert [(c.apex, c.legs) for c in equalizer_cones(C, p, mode)] == \
                oracle_equalizer(C, p, mode)


@examples
@given(seeds)
def test_kernels_match_their_inline_definition(seed):
    C = _draw(seed)
    for N in enumerate_ideals(C):
        M = MultiPointedCategory(C, N)
        for f in C.morphism_names:
            for mode in (WEAK, STRICT):
                assert kernels(M, f, mode) == _inline_kernels(M, f, mode)


# Few draws are regular: 30 draws give none, 200 give covers of regular ones
# (7 covers); none of these 200 is pointed.
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(seeds)
def test_coequalizers_and_the_pointed_ideal_match_the_searches_they_replace(seed):
    compare_coequalizers_and_pointed_ideal(_draw(seed))


def _associative(raw: RawCategory) -> bool:
    """Brute force over every composable triple of the table with its
    identity rows added."""
    ends = {identity_name(x): (x, x) for x in raw.objects}
    ends.update((m, (x, y)) for m, x, y in raw.morphisms)
    comp = {(g, f): h for g, f, h in raw.compositions}
    for m, (x, y) in ends.items():
        comp[(m, identity_name(x))] = comp[(identity_name(y), m)] = m
    return all(comp[(comp[(a, b)], c)] == comp[(a, comp[(b, c)])]
               for (a, b), (b2, c) in itertools.product(comp, comp) if b == b2)


# Most drawn hom-sets have one member, so a draw offers few cell changes and
# most of those stay associative: 30 draws give 4 that break it, 200 give 22.
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(seeds)
def test_validation_rejects_exactly_the_non_associative_cell_changes(seed):
    for changed in _single_row_changes(_draw(seed).to_raw()):
        if _associative(changed):
            validate_category(changed)
        else:
            with pytest.raises(InvalidCategory) as err:
                validate_category(changed)
            assert {v.kind for v in err.value.violations} == {"NonAssociative"}
        compare_validation(changed)


@examples
@given(seeds, st.randoms())
def test_validation_matches_the_oracle_on_random_edits(seed, rng):
    # one or two edits: a composite replaced by any name, a row dropped, a
    # row of any three names added, or a row's operands swapped
    raw = _draw(seed).to_raw()
    names = [*(identity_name(x) for x in raw.objects), *(m for m, _, _ in raw.morphisms), "z"]
    rows = list(raw.compositions)
    for _ in range(rng.randint(1, 2)):
        edit, i = rng.randrange(4), rng.randrange(len(rows) or 1)
        if edit == 0 and rows:
            rows[i] = (*rows[i][:2], rng.choice(names))
        elif edit == 1 and rows:
            del rows[i]
        elif edit == 2 or not rows:
            rows.insert(i, tuple(rng.choice(names) for _ in range(3)))
        else:
            rows[i] = (rows[i][1], rows[i][0], rows[i][2])
    compare_validation(RawCategory(raw.name, raw.objects, raw.morphisms, rows))


@examples
@given(seeds, st.randoms())
def test_ideal_closure_is_the_least_ideal(seed, rng):
    C = _draw(seed)
    names = list(C.morphism_names)
    gens = frozenset(rng.sample(names, rng.randint(0, 3)))
    closure = ideal_closure(C, gens).carrier
    assert gens <= closure and is_ideal(C, closure)
    rest = [m for m in names if m not in gens]
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            if is_ideal(C, gens.union(extra)):
                assert closure <= gens.union(extra)


# Few draws have all weak binary products: 30 draws give 1, 200 give 5.
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(seeds)
def test_weak_products_force_a_preorder(seed):
    C = _draw(seed)
    assert not _has_weak_products(C) or _thin(C)


@examples
@given(seeds)
def test_weak_kernel_pairs_force_monos(seed):
    C = _draw(seed)
    assert not _has_weak_kernel_pairs(C) or _all_mono(C)


# Names, near-names and the row punctuation, joined by mixed whitespace.
_WORDS = st.one_of(st.sampled_from(["f", "g1", "X_2", "1_X", "Ab"]),
                   st.sampled_from(["1x", "1_", "a=b", "-", "f:", "->", "=", ":", "=h", "é"]))
_SEPARATORS = ["", " ", "\t", "  ", " \t "]
_FORMS = {"comp": (_COMP, _REF, "comp <g> <f> = <h>", ["", "", "="]),
          "mor": (_MOR, _NAME, "mor <name> : <dom> -> <cod>", ["", ":", "->"])}


@st.composite
def _rows(draw):
    keyword = draw(st.sampled_from(sorted(_FORMS)))
    if draw(st.booleans()):  # three words around the keyword's punctuation
        pieces = [p for mark in _FORMS[keyword][3] for p in (mark, draw(_WORDS))]
    else:
        pieces = draw(st.lists(_WORDS, max_size=6))
    return keyword + " " + "".join(draw(st.sampled_from(_SEPARATORS)) + p for p in pieces)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(_rows())
def test_row_patterns_agree_with_the_form_and_name_checks(line):
    keyword = line.split()[0]
    form, name, usage, _ = _FORMS[keyword]
    m = form.match(line.strip())
    bad = [n for n in m.groups() if not name.fullmatch(n)] if m else []
    if not m:
        expected = f"line 3, col 1: expected: {usage}"
    elif bad:
        expected = f"line 3, col 1: bad name {bad[0]!r}"
    else:
        expected = m.groups()
    try:
        raw = parse(f"category A\nobjects X\n{line}\nend\n").blocks[0].raw
        got = (raw.compositions if keyword == "comp" else raw.morphisms)[0]
    except CorpusSyntaxError as e:
        got = str(e)
    assert got == expected
