"""Properties of random valid categories with 6 to 8 morphisms, past the
exhaustive sweeps of at most 5, drawn by the seeded generator that the
counterexample search uses past the enumeration cap:
the corpus format round-trips, the canonical form ignores names and order,
the pullback and equalizer searches and ideal kernels agree with the oracles
of ``test_differential``, validation rejects exactly the single-cell changes
that break associativity, and ``ideal_closure`` gives the least ideal."""
from __future__ import annotations

import itertools
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from starkit import (STRICT, WEAK, InvalidCategory, MultiPointedCategory,  # noqa: E402
                     enumerate_ideals, equalizer_cones, ideal_closure, is_ideal,
                     kernels, pullback_cones)
from starkit.core import RawCategory, identity_name, validate_category  # noqa: E402
from starkit.corpus import (CorpusFile, _random_category, canonical_key,  # noqa: E402
                            category_block, parse, serialize)
from tests.test_differential import (_inline_kernels, oracle_equalizer,  # noqa: E402
                                     oracle_pullback)

SWEPT, MAX_MORPHISMS = 5, 8

seeds = st.integers(min_value=0, max_value=2**32 - 1)
examples = settings(derandomize=True, database=None, max_examples=30, deadline=None)


def _draw(seed: int):
    C = _random_category(random.Random(seed), SWEPT, MAX_MORPHISMS, name="R")
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
    C = _draw(seed)
    raw = C.to_raw()
    for i, (g, f, h) in enumerate(raw.compositions):
        for h2 in C.hom(C.dom(f), C.cod(g)):
            if h2 == h:
                continue
            changed = RawCategory(raw.name, raw.objects, raw.morphisms,
                                  [*raw.compositions[:i], (g, f, h2), *raw.compositions[i + 1:]])
            if _associative(changed):
                validate_category(changed)
            else:
                with pytest.raises(InvalidCategory) as err:
                    validate_category(changed)
                assert {v.kind for v in err.value.violations} == {"NonAssociative"}


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
