"""The lex-leader table filler against the filler it replaced, and the
enumeration it drives pinned to its table count, to independent figures and
to the benchmark's corpus file.

``oracle_fill_tables`` is the unit-propagating backtracker without lex-leader
pruning: it yields every associative table, except that at the first cell it
keeps one candidate per orbit of interchangeable morphisms (a transposition
that fixes the cell's operands maps each dropped table to a smaller one).
Filtered by ``_canonical_key``, the brute-force minimum over every object
and morphism relabelling, to the tables that are their own canonical form,
it must give exactly the tables ``_fill_tables`` yields, in the same order.
It is run on every shape of at most ``ORACLE_SIZE`` morphisms, and on the
many-object shapes of ``ORACLE_SIZE + 1``, whose relabellings mix object
permutations with morphism permutations."""
from __future__ import annotations

import gzip
import itertools
from collections import Counter
from typing import Iterator

import pytest

from starkit.core import enumerate_reflexive_graphs, validate_category
from starkit.corpus import (CorpusFile, _fill_tables,
                            _table_category, category_block, serialize)
from tests.conftest import FIXTURES
from tests.helpers import _canonical_key, composites

ORACLE_SIZE = 5


def oracle_fill_tables(k: int, types: tuple) -> Iterator[dict]:
    """All associative composition tables for k identities plus non-identity
    morphisms with the given (dom, cod) types, the first cell pruned by the
    interchangeability of equal-typed morphisms."""
    m = len(types)
    if m == 0:
        yield {}
        return
    dom = list(range(k)) + [t[0] for t in types]
    cod = list(range(k)) + [t[1] for t in types]
    nonids = list(range(k, k + m))
    pairs = [(g, f) for g in nonids for f in nonids if cod[f] == dom[g]]
    pidx = {p: i for i, p in enumerate(pairs)}
    total = len(pairs)
    candidates = []
    for g, f in pairs:
        cands = [h for h in range(k + m) if dom[h] == dom[f] and cod[h] == cod[g]]
        if not cands:
            return
        candidates.append(cands)

    if not pairs:
        yield {}
        return

    g0, f0 = pairs[0]
    seen_type: set[tuple[int, int]] = set()
    pruned = []
    for h in candidates[0]:
        if h < k or h in (g0, f0):
            pruned.append(h)
        elif (dom[h], cod[h]) not in seen_type:
            seen_type.add((dom[h], cod[h]))
            pruned.append(h)
    candidates[0] = pruned

    triples = [(a, b, c) for a in nonids for b in nonids if cod[b] == dom[a]
               for c in nonids if cod[c] == dom[b]]
    touching: list[list[tuple[int, int, int]]] = [[] for _ in range(total)]
    for t in triples:
        a, b, c = t
        affected = {pidx[(a, b)], pidx[(b, c)]}
        for i, (g, f) in enumerate(pairs):
            if f == c or g == a:
                affected.add(i)
        for i in affected:
            touching[i].append(t)

    table: list[int | None] = [None] * total

    def propagate(start: int, trail: list[int]) -> bool:
        queue = [start]
        while queue:
            qi = queue.pop()
            for a, b, c in touching[qi]:
                ab = b if a < k else a if b < k else table[pidx[(a, b)]]
                bc = c if b < k else b if c < k else table[pidx[(b, c)]]
                if ab is None or bc is None:
                    continue
                li = None if ab < k else pidx[(ab, c)]
                ri = None if bc < k else pidx[(a, bc)]
                left = c if li is None else table[li]
                right = a if ri is None else table[ri]
                if left is not None and right is not None:
                    if left != right:
                        return False
                elif left is not None:
                    table[ri] = left
                    trail.append(ri)
                    queue.append(ri)
                elif right is not None:
                    table[li] = right
                    trail.append(li)
                    queue.append(li)
        return True

    def extend(pos: int) -> Iterator[dict]:
        while pos < total and table[pos] is not None:
            pos += 1
        if pos == total:
            yield {pairs[i]: table[i] for i in range(total)}
            return
        for h in candidates[pos]:
            trail = [pos]
            table[pos] = h
            if propagate(pos, trail):
                yield from extend(pos + 1)
            for i in trail:
                table[i] = None

    yield from extend(0)


def is_canonical(k: int, types: tuple, table: dict) -> bool:
    """The table, read as its pair vector, is its own canonical key."""
    return _canonical_key(k, types, table) == (k, types, tuple(table[p] for p in sorted(table)))


def _shapes(max_morphisms: int):
    """Every (k, types) the enumerator fills, with k + len(types) at most
    max_morphisms, in enumeration order."""
    for n in range(1, max_morphisms + 1):
        for k in range(1, n + 1):
            type_space = list(itertools.product(range(k), repeat=2))
            for types in itertools.combinations_with_replacement(type_space, n - k):
                yield k, types


def _many_object_shapes(n: int):
    """The shapes of exactly n morphisms on at least two objects."""
    return [(k, types) for k, types in _shapes(n) if k > 1 and k + len(types) == n]


def _oracle_tables(shapes) -> tuple[int, int]:
    """Check ``_fill_tables`` against the oracle on every shape; the number
    of shapes and of tables."""
    count = tables = 0
    for k, types in shapes:
        canonical = [t for t in oracle_fill_tables(k, types) if is_canonical(k, types, t)]
        assert list(_fill_tables(k, types)) == canonical, (k, types)
        count += 1
        tables += len(canonical)
    return count, tables


def test_fill_tables_yields_exactly_the_oracle_lex_leaders_in_order():
    # one table per isomorphism class: 1 + 3 + 11 + 55 + 329
    assert _oracle_tables(_shapes(ORACLE_SIZE)) == (113, 399)
    # 2,858 categories with 6 morphisms (OEIS A125696) minus 2,237 monoids
    # of order 6 (OEIS A058129)
    assert _oracle_tables(_many_object_shapes(ORACLE_SIZE + 1)) == (362, 2858 - 2237)


def test_tables_filled_up_to_six_morphisms():
    # one table per isomorphism class, 3,257; pruning by morphism
    # permutations alone yields 4,541, and no pruning 165,293
    assert sum(1 for k, types in _shapes(6) for _ in _fill_tables(k, types)) == 3257


@pytest.fixture(scope="module")
def many_object_tables7() -> list[tuple]:
    """(k, types, table) for every many-object category of 7 morphisms."""
    return [(k, types, table) for k, types in _many_object_shapes(7)
            for table in _fill_tables(k, types)]


def test_many_object_tables_of_seven_morphisms(many_object_tables7):
    # 36,440 categories with 7 morphisms (OEIS A125696) minus 31,559 monoids
    # of order 7 (OEIS A058129), which the next test counts
    objects = Counter(k for k, _, _ in many_object_tables7)
    assert [objects[k] for k in range(2, 8)] == [4013, 716, 127, 21, 3, 1]
    assert objects.total() == 36440 - 31559


@pytest.mark.slow
def test_monoids_of_order_seven():
    # OEIS A058129; with the many-object tables, all 36,440 categories of 7
    assert sum(1 for _ in _fill_tables(1, ((0, 0),) * 6)) == 31559


def test_reflexive_graphs_with_distinct_legs_first_appear_at_seven_morphisms(
        enumerated6, many_object_tables7):
    """A reflexive graph (d, c, e) with d != c needs two objects.  In a
    finite monoid d∘e = 1 makes x -> e∘x injective, hence onto, so e∘y = 1
    for some y, and y = d∘e∘y = d; then c = c∘e∘d = d.  So the monoid
    column has none at any size.  Of the many-object categories of
    7 morphisms exactly one has such graphs, and it has two; none of at
    most 6 morphisms has any."""
    assert not any(r.d != r.c for C in enumerated6 for r in enumerate_reflexive_graphs(C))
    found = []
    for i, (k, types, table) in enumerate(many_object_tables7):
        C = _table_category(f"C{i}", k, types, table)
        graphs = [r for r in enumerate_reflexive_graphs(C) if r.d != r.c]
        if graphs:
            found.append(len(graphs))
    assert found == [2]


def test_enumerated_categories_equal_their_validated_tables(enumerated6):
    # enumeration builds each category without validate_category
    for C in enumerated6:
        D = validate_category(C.to_raw())
        assert (C.name, C.objects, C.morphisms) == (D.name, D.objects, D.morphisms)
        assert composites(C) == composites(D), C.name


def test_enumeration_matches_the_pinned_corpus_byte_for_byte(enumerated6):
    # the header perfbench/pin.py writes above the same blocks
    header = ["# every category with at most 6 morphisms, one per isomorphism class"]
    text = serialize(CorpusFile(header, [category_block(C) for C in enumerated6]))
    pinned = FIXTURES.parent / "perfbench" / "corpus6.fincat.gz"
    assert text == gzip.decompress(pinned.read_bytes()).decode("utf-8")
