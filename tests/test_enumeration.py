"""The lex-leader table filler against the filler it replaced, and the
enumeration it drives pinned to its table count, to independent figures and
to the benchmark's corpus file.

``oracle_fill_tables`` is the unit-propagating backtracker without lex-leader
pruning: it yields every associative table, except that at the first cell it
keeps one candidate per orbit of interchangeable morphisms (a transposition
that fixes the cell's operands maps each dropped table to a smaller one).
Filtered by ``_canonical_key``, the brute-force minimum over every object
and morphism relabelling, to the tables that are their own canonical form,
it must give exactly the tables ``_fill_tables`` yields, in the same order."""
from __future__ import annotations

import gzip
import itertools
from collections import Counter
from typing import Iterator

from starkit.core import validate_category
from starkit.corpus import (CorpusFile, _canonical_key, _fill_tables,
                            category_block, serialize)
from tests.conftest import FIXTURES

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


def test_fill_tables_yields_exactly_the_oracle_lex_leaders_in_order():
    shapes = tables = 0
    for k, types in _shapes(ORACLE_SIZE):
        canonical = [t for t in oracle_fill_tables(k, types) if is_canonical(k, types, t)]
        assert list(_fill_tables(k, types)) == canonical, (k, types)
        shapes += 1
        tables += len(canonical)
    # one table per isomorphism class: 1 + 3 + 11 + 55 + 329
    assert (shapes, tables) == (113, 399)


def test_tables_filled_up_to_six_morphisms():
    # one table per isomorphism class, 3,257; pruning by morphism
    # permutations alone yields 4,541, and no pruning 165,293
    assert sum(1 for k, types in _shapes(6) for _ in _fill_tables(k, types)) == 3257


def test_many_object_tables_of_seven_morphisms():
    # 36,440 categories with 7 morphisms (OEIS A125696) minus 31,559 monoids
    # of order 7 (OEIS A058129); the one-object column is left out for time
    objects = Counter(k for k, types in _shapes(7) if k > 1 and k + len(types) == 7
                      for _ in _fill_tables(k, types))
    assert [objects[k] for k in range(2, 8)] == [4013, 716, 127, 21, 3, 1]
    assert objects.total() == 36440 - 31559


def test_enumerated_categories_equal_their_validated_tables(enumerated6):
    # enumeration builds each category without validate_category
    for C in enumerated6:
        D = validate_category(C.to_raw())
        assert (C.name, C.objects, C.morphisms) == (D.name, D.objects, D.morphisms)
        assert C._comp == D._comp, C.name


def test_enumeration_matches_the_pinned_corpus_byte_for_byte(enumerated6):
    # the header perfbench/pin.py writes above the same blocks
    header = ["# every category with at most 6 morphisms, one per isomorphism class"]
    text = serialize(CorpusFile(header, [category_block(C) for C in enumerated6]))
    pinned = FIXTURES.parent / "perfbench" / "corpus6.fincat.gz"
    assert text == gzip.decompress(pinned.read_bytes()).decode("utf-8")
