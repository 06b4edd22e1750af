"""Text corpus format, small-category enumeration, and counterexample search.

Grammar (line oriented, UTF-8, ``#`` comments, names ``[A-Za-z][A-Za-z0-9_]*``):

    category <name>
    objects <n1> <n2> ...
    mor <name> : <dom> -> <cod>
    comp <g> <f> = <h>          # g after f equals h; identities never appear
    end                         # as operands and are referenced as 1_<obj>
    ideal <name> on <target> = { <m1>, <m2>, ... }
    cover <name> on <cat> = { <obj1>, ... }

An ideal's target may be a category or a previously defined cover, in which
case the ideal lives on the cover's full subcategory.  Names are unique:
categories and covers share one namespace (both are ideal targets), ideals
have their own.  The serializer emits
canonical order: objects, morphisms, composition rows, members, each sorted
lexicographically; parse then serialize is the identity on canonical files.
"""
from __future__ import annotations

import itertools
import os
import random
import re
import sys
from typing import Iterator, NamedTuple

from .core import (FinCategory, FullSubcategory, RawCategory, Record, identity_name,
                   validate_category)
from .errors import BoundExceeded, CorpusSyntaxError, Exhausted, StarkitError
from .ideals import CoverWitness, Ideal, is_ideal, pointed_ideal
from .limits import is_regular_category
from .report import FAIL
from .stars import is_normal_category

DEFAULT_ENUM_CAP = 6
DEFAULT_SEARCH_BUDGET = 1000
ENV_MAX_MORPHISMS = "STARKIT_MAX_MORPHISMS"

_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_REF = re.compile(r"(?:1_)?" + _NAME.pattern)
_CATEGORY = re.compile(r"category\s+(\S+)\s*\Z")
_OBJECTS = re.compile(r"objects\s+(.*)\Z")
_MOR = re.compile(r"mor\s+(\S+)\s*:\s*(\S+)\s*->\s*(\S+)\s*\Z")
_COMP = re.compile(r"comp\s+(\S+)\s+(\S+)\s*=\s*(\S+)\s*\Z")
# per row keyword: its form, the pattern of its names and its usage line
_ROWS = {"comp": (_COMP, _REF, "comp <g> <f> = <h>"),
         "mor": (_MOR, _NAME, "mor <name> : <dom> -> <cod>")}
_IDEAL = re.compile(r"ideal\s+(\S+)\s+on\s+(\S+)\s*=\s*\{(.*)\}\s*\Z")
_COVER = re.compile(r"cover\s+(\S+)\s+on\s+(\S+)\s*=\s*\{(.*)\}\s*\Z")


def _env_bound() -> int:
    """The category-enumeration cap: STARKIT_MAX_MORPHISMS, else DEFAULT_ENUM_CAP."""
    value = os.environ.get(ENV_MAX_MORPHISMS)
    if not value:
        return DEFAULT_ENUM_CAP
    try:
        bound = int(value)
    except ValueError:
        raise ValueError(f"{ENV_MAX_MORPHISMS} must be an integer, got {value!r}") from None
    if bound < 0:
        raise ValueError(f"{ENV_MAX_MORPHISMS} must not be negative, got {bound}")
    return bound


class CorpusResolutionError(StarkitError):
    """A corpus block references a name that does not resolve."""


class CategoryBlock(NamedTuple):
    raw: RawCategory

    @property
    def name(self) -> str:
        return self.raw.name


class IdealBlock(NamedTuple):
    name: str
    on: str
    members: list[str]


class CoverBlock(NamedTuple):
    name: str
    on: str
    objects: list[str]


# Categories and covers share one namespace, since both carry ideals.
_NAMESPACE = {CategoryBlock: "target", CoverBlock: "target", IdealBlock: "ideal"}


class CorpusFile(Record):
    __slots__ = ("header", "blocks", "_index", "_cats", "_covers")
    _fields = ("header", "blocks")
    __hash__ = None

    def __init__(self, header: list[str] | None = None, blocks=()):
        self.header = [] if header is None else header
        self.blocks, self._index, self._cats, self._covers = [], {}, {}, {}
        for b in blocks:
            self._add(b)

    def _key(self) -> tuple:
        # blocks equal the plain tuples of their fields, so compare classes too
        return self.header, [(type(b), b) for b in self.blocks]

    def _add(self, block) -> None:
        """Append a block; the first block of a name is the one lookups find."""
        self.blocks.append(block)
        self._index.setdefault((_NAMESPACE[type(block)], block.name), block)

    def _named(self, cls, name: str):
        b = self._index.get((_NAMESPACE[cls], name))
        return b if type(b) is cls else None

    def category_names(self) -> list[str]:
        return [b.name for b in self.blocks if isinstance(b, CategoryBlock)]

    def category(self, name: str) -> FinCategory:
        if name not in self._cats:
            b = self._named(CategoryBlock, name)
            if b is None:
                raise CorpusResolutionError(f"no category named {name}")
            self._cats[name] = validate_category(b.raw)
        return self._cats[name]

    def cover(self, name: str) -> CoverWitness:
        if name not in self._covers:
            b = self._named(CoverBlock, name)
            if b is None:
                raise CorpusResolutionError(f"no cover named {name}")
            cat = self.category(b.on)
            missing = [x for x in b.objects if x not in cat.objects]
            if missing:
                raise CorpusResolutionError(
                    f"cover {name} names unknown objects: {', '.join(missing)}")
            self._covers[name] = CoverWitness(cat, FullSubcategory(cat, b.objects))
        return self._covers[name]

    def ideal(self, name: str) -> Ideal:
        b = self._named(IdealBlock, name)
        if b is None:
            raise CorpusResolutionError(f"no ideal named {name}")
        if self._named(CategoryBlock, b.on) is not None:
            target = self.category(b.on)
        elif self._named(CoverBlock, b.on) is not None:
            target = self.cover(b.on).cover.category
        else:
            raise CorpusResolutionError(f"ideal {name} is on unknown target {b.on}")
        missing = [m for m in b.members if not target.has_morphism(m)]
        if missing:
            raise CorpusResolutionError(
                f"ideal {name} names unknown morphisms: {', '.join(missing)}")
        carrier = frozenset(b.members)
        if not is_ideal(target, carrier):
            raise CorpusResolutionError(
                f"ideal {name} is not composition-closed on {target.name}")
        return Ideal(target, carrier)


def _split_members(text: str, line_no: int, name: re.Pattern) -> list[str]:
    """The members of an ideal (morphisms, _REF) or a cover (objects, _NAME)."""
    body = text.strip()
    if not body:
        return []
    members = [part.strip() for part in body.split(",")]
    for i, m in enumerate(members):
        if not name.fullmatch(m):
            raise CorpusSyntaxError(f"bad name {m!r}", line_no)
        if m in members[:i]:
            raise CorpusSyntaxError(f"member {m!r} is already used", line_no)
    return members


def parse(text: str) -> CorpusFile:
    """Read a corpus.  Each name is held once, however often it occurs:
    object and row names are interned.  A mor or comp line is matched the
    first time it occurs, and every later copy reuses its row tuple, so a
    corpus of many small categories with the usual names (f0, X0, ...)
    keeps one tuple per distinct line."""
    header: list[str] = []
    corpus = CorpusFile(header)

    def unused(cls, name: str, line_no: int) -> str:
        if (_NAMESPACE[cls], name) in corpus._index:
            raise CorpusSyntaxError(f"name {name!r} is already used", line_no)
        return name

    current: RawCategory | None = None
    in_header = True
    rows: dict[str, tuple[str, str, str]] = {}  # a mor or comp line -> its row

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if line.startswith("#"):
            if in_header:
                header.append(raw_line.rstrip())
            continue
        if not line:
            continue
        in_header = False
        word = line.split(None, 1)[0]

        if current is not None:
            if word in _ROWS:
                row = rows.get(line)
                if row is None:
                    form, name, usage = _ROWS[word]
                    m = form.match(line)
                    if not m:
                        raise CorpusSyntaxError(f"expected: {usage}", line_no)
                    for n in m.groups():
                        if not name.fullmatch(n):
                            raise CorpusSyntaxError(f"bad name {n!r}", line_no)
                    row = rows[line] = tuple(map(sys.intern, m.groups()))
                (current.compositions if word == "comp" else current.morphisms).append(row)
            elif word == "objects":
                if current.morphisms or current.compositions:
                    raise CorpusSyntaxError("objects after morphisms", line_no)
                m = _OBJECTS.match(line)
                names = m.group(1).split() if m else []
                if not names:
                    raise CorpusSyntaxError("objects line needs at least one name", line_no)
                for n in names:
                    if not _NAME.fullmatch(n):
                        raise CorpusSyntaxError(f"bad object name {n!r}", line_no)
                current.objects.extend(map(sys.intern, names))
            elif word == "end":
                corpus._add(CategoryBlock(current))
                current = None
            else:
                raise CorpusSyntaxError(f"unexpected {word!r} inside category block", line_no)
            continue

        if word == "category":
            m = _CATEGORY.match(line)
            if not m or not _NAME.fullmatch(m.group(1)):
                raise CorpusSyntaxError("expected: category <name>", line_no)
            name = unused(CategoryBlock, m.group(1), line_no)
            current = RawCategory(name, [], [], [])
        elif word == "ideal":
            m = _IDEAL.match(line)
            if not m or not _NAME.fullmatch(m.group(1)):
                raise CorpusSyntaxError(
                    "expected: ideal <name> on <target> = { ... }", line_no)
            target = m.group(2)
            if corpus._named(CategoryBlock, target) is None and \
                    corpus._named(CoverBlock, target) is None:
                raise CorpusSyntaxError(f"unknown target {target!r}", line_no)
            name = unused(IdealBlock, m.group(1), line_no)
            corpus._add(IdealBlock(name, target, _split_members(m.group(3), line_no, _REF)))
        elif word == "cover":
            m = _COVER.match(line)
            if not m or not _NAME.fullmatch(m.group(1)):
                raise CorpusSyntaxError("expected: cover <name> on <cat> = { ... }", line_no)
            if corpus._named(CategoryBlock, m.group(2)) is None:
                raise CorpusSyntaxError(f"unknown category {m.group(2)!r}", line_no)
            name = unused(CoverBlock, m.group(1), line_no)
            corpus._add(CoverBlock(name, m.group(2), _split_members(m.group(3), line_no, _NAME)))
        else:
            raise CorpusSyntaxError(f"unexpected {word!r}", line_no)

    if current is not None:
        raise CorpusSyntaxError(f"category {current.name} not closed with end",
                                len(text.splitlines()) or 1)
    return corpus


def _render_set(items) -> str:
    inner = ", ".join(sorted(items))
    return "{ " + inner + " }" if inner else "{ }"


def _render_block(block) -> str:
    if isinstance(block, CategoryBlock):
        raw = block.raw
        lines = [f"category {raw.name}"]
        if raw.objects:
            lines.append("objects " + " ".join(sorted(raw.objects)))
        for name, dom, cod in sorted(raw.morphisms):
            lines.append(f"mor {name} : {dom} -> {cod}")
        for g, f, h in sorted(raw.compositions):
            lines.append(f"comp {g} {f} = {h}")
        lines.append("end")
        return "\n".join(lines)
    if isinstance(block, IdealBlock):
        return f"ideal {block.name} on {block.on} = {_render_set(block.members)}"
    if isinstance(block, CoverBlock):
        return f"cover {block.name} on {block.on} = {_render_set(block.objects)}"
    raise TypeError(f"not a corpus block: {block!r}")


def serialize(corpus: CorpusFile) -> str:
    chunks = []
    if corpus.header:
        chunks.append("\n".join(corpus.header))
    chunks.extend(_render_block(b) for b in corpus.blocks)
    return "\n\n".join(chunks) + "\n"


def category_block(C: FinCategory) -> CategoryBlock:
    return CategoryBlock(C.to_raw())


def ideal_block(name: str, on: str, members) -> IdealBlock:
    return IdealBlock(name, on, sorted(members))


def cover_block(name: str, on: str, objects) -> CoverBlock:
    return CoverBlock(name, on, sorted(objects))


# -- enumeration of small categories -----------------------------------------

def _fill_tables(k: int, types: tuple) -> Iterator[dict]:
    """The canonical composition tables of one shape: every associative
    table for k identities plus non-identity morphisms with the given
    (dom, cod) types that is the least of its isomorphism class, as a dict
    from composable pair to composite, in lexicographic order of the pair
    vector.  Morphism index i < k is the identity of object i; index k + j
    is the j-th non-identity morphism.  A shape whose type vector is not the
    least of its class yields nothing.

    Backtracking with propagation.  The equation of a triple (a, b, c) of
    non-identities reads the cells (a, b), (b, c), (T[a,b], c) and
    (a, T[b,c]).  It is read when (a, b) or (b, c) is decided, and when
    (v, c) is decided while (a, b) holds v.  So it is read once its first
    three cells are decided, and then its last cell is compared with them
    or forced: a complete table is associative, and most contradictions
    surface before the table is complete.  Propagation decides only forced
    cells, so it loses no table, and what a shape yields does not depend on
    how much it forces.

    Lex-leader symmetry breaking (Distler, Jefferson, Kelsey and Kotthoff,
    "The semigroups of order 10", CP 2012) over the full relabelling group
    of the shape.  A relabelling sigma is an object permutation with
    ``sorted(sigma(types)) == types``, combined with a bijection from each
    run of equal-typed morphisms (``types`` is sorted) onto the run of its
    image type; identities map by the object permutation.  It acts by
    sigma(T)[g, f] = sigma(T[sigma^-1 g, sigma^-1 f]).  A node is pruned
    when, walking the pair positions in order, some sigma(T) first differs
    from T on a decided cell by being smaller; an undecided cell ends the
    walk.  This is exact:
    - the search yields tables in lexicographic order of the pair vector,
      since ``pos`` is the first undecided cell, propagation only fills
      later cells, and candidates are tried in ascending order;
    - a pruned node has a decided prefix on which sigma(T) < T, so no
      completion of it is least in its class; at a complete table the walk
      decides every cell, so a table that survives is least;
    - any isomorphism between two tables of the same type vector maps
      identities to identities and each morphism to one of the image type,
      so it is one of these relabellings, and each class with this type
      vector has exactly one least table.
    That table is ``_canonical_key(k, types, T)`` of tests/helpers.py,
    the brute-force oracle, read as a pair vector (the key minimises over
    the same relabellings once the type vector is least).

    The walks are resumed, not restarted.  A walk that stops at an
    undecided cell, T[g, f] or the preimage cell it is compared with, waits
    on that cell with its position, and the node that decides the cell walks
    it on from there.  This decides what a walk from cell 0 would, since a
    cell decided at a node keeps its value in the node's whole subtree: the
    cells a walk passed still tie; a relabelling whose walk met a larger
    decided cell meets it again at every descendant, so it is dropped for
    the subtree; and one that ties on every cell is an automorphism of a
    complete table, which prunes nothing."""
    symmetries = []
    for perm in itertools.permutations(range(k)):
        image = tuple(sorted((perm[a], perm[b]) for a, b in types))
        if image < types:
            return
        if image == types:
            symmetries.append(perm)
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

    # waiting[i]: the relabellings whose walk stopped at the undecided cell
    # i, each with the position it resumes from.  Each relabelling but the
    # identity comes with the position of its preimage pair
    # (sigma^-1 g, sigma^-1 f) for every pair position (g, f), and first
    # waits on cell 0.
    waiting: list[list[tuple]] = [[] for _ in range(total)]
    runs = {t: list(run) for t, run in itertools.groupby(nonids, lambda j: types[j - k])}
    sources = list(runs.values())
    identity = list(range(k + m))
    for perm in symmetries:
        targets = [runs[(perm[a], perm[b])] for a, b in runs]
        for parts in itertools.product(*(itertools.permutations(run) for run in targets)):
            sigma = list(perm) + [0] * m
            for run, part in zip(sources, parts):
                for j, image in zip(run, part):
                    sigma[j] = image
            if sigma != identity:
                inverse = sorted(identity, key=sigma.__getitem__)
                waiting[0].append(
                    (sigma, [pidx[(inverse[g], inverse[f])] for g, f in pairs], 0))

    # A triple's record: the positions of (a, b) and (b, c), the positions
    # left[v] of (v, c) and right[v] of (a, v), or -1 where v is an
    # identity, and a and c.  own[i] holds the records of the triples with
    # (a, b) or (b, c) at cell i, and by_ab[i][c] the record of the triple
    # with (a, b) at cell i.
    after = {f: [pidx.get((v, f), -1) for v in identity] for f in nonids}
    before = {g: [pidx.get((g, v), -1) for v in identity] for g in nonids}
    own: list[list[tuple]] = [[] for _ in range(total)]
    by_ab: list[list] = [[None] * (k + m) for _ in range(total)]
    for a in nonids:
        for b in nonids:
            if cod[b] != dom[a]:
                continue
            ab = pidx[(a, b)]
            for c in nonids:
                if cod[c] != dom[b]:
                    continue
                bc = pidx[(b, c)]
                record = (ab, bc, after[c], before[a], a, c)
                own[ab].append(record)
                own[bc].append(record)
                by_ab[ab][c] = record

    table: list[int | None] = [None] * total
    # holding[v]: the decided cells whose value is v, in the order decided
    holding: list[list[int]] = [[] for _ in identity]

    def propagate(start: int, trail: list[int]) -> bool:
        queue = [start]
        while queue:
            qi = queue.pop()
            g, f = pairs[qi]
            records = own[qi] + [by_ab[p][f] for p in holding[g]]
            for ab, bc, left, right, a, c in records:
                v, w = table[ab], table[bc]
                if v is None or w is None:
                    continue
                li, ri = left[v], right[w]
                lhs = c if li < 0 else table[li]
                rhs = a if ri < 0 else table[ri]
                if lhs is None:
                    if rhs is not None:
                        table[li] = rhs
                        holding[rhs].append(li)
                        trail.append(li)
                        queue.append(li)
                elif rhs is None:
                    table[ri] = lhs
                    holding[lhs].append(ri)
                    trail.append(ri)
                    queue.append(ri)
                elif lhs != rhs:
                    return False
        return True

    def resume(decided: list[int], moved: list[int]) -> bool:
        """Walk on every relabelling that waits on a newly decided cell, and
        put it to wait on the next undecided cell, noted in ``moved``; False
        as soon as one makes T smaller."""
        for x in decided:
            for sigma, source, start in waiting[x]:
                for i in range(start, total):
                    here, there = table[i], table[source[i]]
                    if here is None:
                        cell = i
                    elif there is None:
                        cell = source[i]
                    elif sigma[there] == here:
                        continue
                    elif sigma[there] < here:
                        return False
                    else:
                        break
                    waiting[cell].append((sigma, source, i))
                    moved.append(cell)
                    break
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
            holding[h].append(pos)
            if propagate(pos, trail):
                moved: list[int] = []
                if resume(trail, moved):
                    yield from extend(pos + 1)
                for cell in moved:
                    waiting[cell].pop()
            for i in trail:
                holding[table[i]].pop()
                table[i] = None

    yield from extend(0)


_TABLE_NAMES: dict = {}  # (k, n) -> (objects, index); see _table_category


def _table_category(name: str, k: int, types: tuple, table: dict) -> FinCategory:
    """The category of a composition table in ``_fill_tables`` form, built
    without ``validate_category``: objects ``X<i>``, identities ``1_X<i>``,
    non-identity morphisms ``f<j>``, numbered as in the table, and the rows
    that ``validate_category`` would fill from its cells.  The table must be
    associative; ``_fill_tables`` makes it so by construction.  The names
    depend only on the object and morphism counts, so categories with equal
    counts share one ``objects`` tuple and ``index`` dict (``_TABLE_NAMES``)."""
    n = k + len(types)
    names = _TABLE_NAMES.get((k, n))
    if names is None:
        objects = tuple(f"X{i}" for i in range(k))
        index = {identity_name(x): i for i, x in enumerate(objects)}
        index.update((f"f{j}", k + j) for j in range(n - k))
        names = _TABLE_NAMES[k, n] = objects, index
    C = FinCategory(name, *names, (*range(k), *(a for a, _ in types)),
                    (*range(k), *(b for _, b in types)))
    rows, pos = C._rows, C._pos
    for (g, f), h in table.items():
        rows[g][pos[f]] = pos[h]
    return C


def enumerate_categories(max_morphisms: int) -> Iterator[FinCategory]:
    """All categories with at most max_morphisms morphisms (identities
    included), one per isomorphism class, each built from the least table
    of its class.  Emission order is deterministic: by morphism count, then
    object count, then type vector (in ``combinations_with_replacement``
    order, which is lexicographic), then table.

    No canonical key and no re-validation is needed.  ``_fill_tables``
    yields nothing for a type vector that some object permutation sorts to
    a smaller one, so every class is met only at its least type vector,
    the first of its vectors this loop reaches; there it yields exactly the
    least table of each class (see ``_fill_tables``), which is associative
    by construction.  So each class is emitted once, by the table the
    oracle ``_canonical_key`` returns for it, at the position where the
    first table of the class appears in the loop."""
    limit = _env_bound()
    if max_morphisms > limit:
        raise BoundExceeded(
            f"requested {max_morphisms} morphisms; enumeration cap is {limit}")
    count = 0
    for n in range(1, max_morphisms + 1):
        for k in range(1, n + 1):
            type_space = list(itertools.product(range(k), repeat=2))
            for types in itertools.combinations_with_replacement(type_space, n - k):
                for table in _fill_tables(k, types):
                    count += 1
                    yield _table_category(f"C{count}", k, types, table)


def _random_category(rng: random.Random, lo: int, hi: int, name: str) -> FinCategory | None:
    """One attempt at a random valid category with morphism count in (lo, hi]:
    a random table, named as ``_table_category`` names an enumerated one,
    through the full check, since it is rarely associative."""
    n = rng.randint(lo + 1, hi)
    k = rng.randint(1, n)
    types = tuple(sorted((rng.randrange(k), rng.randrange(k)) for _ in range(n - k)))
    objects = [f"X{i}" for i in range(k)]
    declared = [(f"f{j}", objects[a], objects[b]) for j, (a, b) in enumerate(types)]
    names = [*map(identity_name, objects), *(m for m, _, _ in declared)]
    ends = [(x, x) for x in range(k)] + list(types)
    rows = []
    for g, gt in enumerate(types, k):
        for f, ft in enumerate(types, k):
            if ft[1] != gt[0]:
                continue
            cands = [h for h in range(n) if ends[h] == (ft[0], gt[1])]
            if not cands:
                return None
            rows.append((names[g], names[f], names[rng.choice(cands)]))
    try:
        return validate_category(RawCategory(name, objects, declared, rows))
    except StarkitError:
        return None


# -- counterexample search ----------------------------------------------------

def _prop_pointed(C: FinCategory):
    N = pointed_ideal(C)
    if N is None:
        return None
    return [category_block(C), ideal_block("pt", C.name, N.members())]


def _prop_regular(C: FinCategory):
    if not is_regular_category(C).passed:
        return None
    return [category_block(C)]


def _prop_pointed_regular_not_normal(C: FinCategory):
    if pointed_ideal(C) is None or not is_regular_category(C).passed:
        return None
    if is_normal_category(C).verdict != FAIL:
        return None
    return [category_block(C), ideal_block("pt", C.name, pointed_ideal(C).members())]


def _prop_pi0_cover_not_star_regular(C: FinCategory):
    """A projective cover whose reflexive graphs satisfy star-pi0 for the
    restricted ideal while the ambient pair is not star-regular.

    None exists: the search would ask about a regular C and an ideal that
    admits kernels, and is_star_regular passes on exactly those pairs, since
    a regular finite category is thin by (F) (see limits and stars).
    """
    return None


def _prop_restrict_extend_not_adjoint(C: FinCategory):
    """An ideal whose restriction-extension round trip along a projective
    cover is incomparable with the ideal itself, in both directions.

    None exists: the search would ask about a regular C, and on a regular C
    with a projective cover extend(restrict(N)) = N for every ideal N, since
    a regular finite category is thin by (F) and the cover is then an
    equivalence (see ideals.verify_lemma_a).
    """
    return None


PROPERTIES = {
    "pointed": _prop_pointed,
    "regular": _prop_regular,
    # every regular finite category is thin: limits, (F)
    "regular-thin": _prop_regular,
    "pointed-regular-not-normal": _prop_pointed_regular_not_normal,
    "pi0-cover-not-star-regular": _prop_pi0_cover_not_star_regular,
    "restrict-extend-not-adjoint": _prop_restrict_extend_not_adjoint,
}


def search_counterexample(prop: str, max_morphisms: int,
                          budget: int | None = None, seed: int = 0) -> CorpusFile:
    """First enumerated (then seeded-random, past the enumeration cap)
    category satisfying the named property, serialized with provenance.
    Raises Exhausted when the bound is reached without a witness."""
    if prop not in PROPERTIES:
        raise ValueError(f"unknown property {prop!r}; known: {sorted(PROPERTIES)}")
    predicate = PROPERTIES[prop]
    limit = budget if budget is not None else DEFAULT_SEARCH_BUDGET
    cap = _env_bound()
    examined = 0
    enumeration_complete = True

    def witness(blocks) -> CorpusFile:
        header = [f"# witness for property {prop}",
                  f"# examined={examined} max_morphisms={max_morphisms} seed={seed}"]
        return CorpusFile(header, list(blocks))

    for C in enumerate_categories(min(max_morphisms, cap)):
        if examined >= limit:
            enumeration_complete = False
            break
        examined += 1
        blocks = predicate(C)
        if blocks is not None:
            return witness(blocks)

    if enumeration_complete and max_morphisms > cap and examined < limit:
        rng = random.Random(seed)
        attempts = 0
        while examined < limit and attempts < limit * 200:
            attempts += 1
            C = _random_category(rng, cap, max_morphisms, name=f"R{examined + 1}")
            if C is None:
                continue
            examined += 1
            blocks = predicate(C)
            if blocks is not None:
                return witness(blocks)
        enumeration_complete = False

    detail = ("search space exhausted" if enumeration_complete else "budget reached")
    raise Exhausted(
        f"no witness for {prop}: examined={examined} ({detail}) "
        f"max_morphisms={max_morphisms} budget={limit} seed={seed}")
