"""Properties of random valid categories with 6 to 8 morphisms, past the
exhaustive sweeps of at most 5, drawn by the seeded generator that the
counterexample search uses past the enumeration cap:
the corpus format round-trips, the canonical form ignores names and order,
and the pullback and equalizer searches agree with the node-and-edge oracle
of ``test_differential``."""
from __future__ import annotations

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from starkit import STRICT, WEAK, equalizer_cones, pullback_cones  # noqa: E402
from starkit.core import RawCategory, identity_name, validate_category  # noqa: E402
from starkit.corpus import (CorpusFile, _random_category, canonical_key,  # noqa: E402
                            category_block, parse, serialize)
from tests.test_differential import oracle_equalizer, oracle_pullback  # noqa: E402

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
