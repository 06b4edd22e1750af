"""Finite categories given as explicit composition tables.

Morphisms are ints: the identities in object order (the identity of object
x is x), then the declared morphisms in input order.  The searches of this
package run on the ints; names, kept in one tuple, are for parsing,
serializing, the public methods and witness lines.  Identities are implicit
in the input format and are auto-named ``1_<object>``.

All exists/forall searches in this package iterate in input order and report
the first witness, so results are deterministic for a fixed input.
"""
from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import InvalidCategory


def identity_name(obj: str) -> str:
    return f"1_{obj}"


class Morphism(NamedTuple):
    name: str
    dom: str
    cod: str


class RawCategory(NamedTuple):
    """An unvalidated composition table.

    ``morphisms`` lists declared (non-identity) morphisms as (name, dom, cod);
    ``compositions`` yields rows (g, f, h) meaning g after f equals h, and
    validate_category reads it once, so a large table may make its rows on
    demand.  Rows for pairs involving an identity are rejected as redundant;
    the composite h may be an identity.  A NamedTuple: the fields are fixed
    once made, and the corpus parser fills the lists it passes in.
    """

    name: str
    objects: Sequence[str]
    morphisms: Sequence[tuple[str, str, str]]
    compositions: Iterable[tuple[str, str, str]]


class Violation(NamedTuple):
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


class ParallelPair(NamedTuple):
    """An ordered pair of morphisms with common domain and codomain."""

    f1: str
    f2: str


class ReflexiveGraph(NamedTuple):
    """A parallel pair (d, c) with a common section e: d∘e = c∘e = identity."""

    d: str
    c: str
    e: str


class Record:
    """A record that validates or caches, as a plain slotted class: ``==``,
    ``hash`` and the repr read the fields named in ``_fields``, and a
    mutable record sets ``__hash__ = None``."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FinCategory:
    """A validated finite category on integers, with names at the boundary.

    ``_index`` maps each name to its morphism, in int order.  ``_dom[i]`` and
    ``_cod[i]`` are object indices, and ``_into[x]``, ``_out[x]`` and
    ``_homs[x, y]`` list morphisms in int order, so ``_into[x]`` starts with
    the identity of x.  ``_pos[u]`` is the place of u in ``_into[_cod[u]]``,
    and ``_rows[g][_pos[u]]`` the place of g∘u in ``_into[_cod[g]]``; the
    builder fills the cells that are None when the category is made.  A set
    of morphisms is an int mask, bit i for morphism i (ideals carry one), and
    ``thin`` says that no hom-set has two members.

    Instances are immutable once built and hash by identity, which lets
    every expensive search cache its result per category.  Cached values
    never hold the category itself, so a category is freed without the
    cycle collector.  Do not build directly; go through validate_category,
    the corpus loaders or full subcategories.
    """

    def __init__(self, name: str, objects: Sequence[str], index: dict[str, int],
                 dom: list[int], cod: list[int]):
        self.name = name
        self.objects: tuple[str, ...] = tuple(objects)
        self.morphism_names: tuple[str, ...] = tuple(index)
        self.identity: dict[str, str] = dict(zip(self.objects, self.morphism_names))
        self._obj = {x: i for i, x in enumerate(self.objects)}
        self._index = index
        self._dom, self._cod = dom, cod
        self._into: list[list[int]] = [[] for _ in self.objects]
        self._out: list[list[int]] = [[] for _ in self.objects]
        self._homs: dict[tuple[int, int], list[int]] = {}
        self._pos: list[int] = []
        for i, (x, y) in enumerate(zip(dom, cod)):
            self._pos.append(len(self._into[y]))
            self._into[y].append(i)
            self._out[x].append(i)
            self._homs.setdefault((x, y), []).append(i)
        self.thin = len(self._homs) == len(dom)
        k, into, pos = len(self.objects), self._into, self._pos
        self._rows: list[list] = [list(range(len(into[i]))) if i < k else
                                  [pos[i]] + [None] * (len(into[dom[i]]) - 1)
                                  for i in range(len(dom))]
        self._cache: dict = {}
        self._hom_names = self._out_names = self._into_names = None

    def __repr__(self) -> str:
        return (f"FinCategory({self.name!r}, {len(self.objects)} objects, "
                f"{len(self.morphism_names)} morphisms)")

    def _compose(self, g: int, f: int) -> int:
        """g after f, on ints; the pair must be composable."""
        return self._into[self._cod[g]][self._rows[g][self._pos[f]]]

    def _names(self, ints) -> tuple[str, ...]:
        return tuple(map(self.morphism_names.__getitem__, ints))

    # -- lookups by name -----------------------------------------------------

    @property
    def morphisms(self) -> tuple[Morphism, ...]:
        objects = self.objects
        return tuple(Morphism(name, objects[x], objects[y])
                     for name, x, y in zip(self.morphism_names, self._dom, self._cod))

    def has_morphism(self, name: str) -> bool:
        return name in self._index

    def dom(self, name: str) -> str:
        return self.objects[self._dom[self._index[name]]]

    def cod(self, name: str) -> str:
        return self.objects[self._cod[self._index[name]]]

    def is_identity(self, name: str) -> bool:
        return self._index[name] < len(self.objects)

    def hom(self, x: str, y: str) -> tuple[str, ...]:
        if self._hom_names is None:
            self._name_views()
        return self._hom_names.get((x, y), ())

    def morphisms_from(self, x: str) -> tuple[str, ...]:
        if self._out_names is None:
            self._name_views()
        return self._out_names[x]

    def morphisms_to(self, x: str) -> tuple[str, ...]:
        if self._into_names is None:
            self._name_views()
        return self._into_names[x]

    def _name_views(self) -> None:
        """The hom-sets and the lists out of and into each object, by name,
        built on the first public lookup, so code on ints never pays for
        them.  Their attributes exist from __init__ on: one added later
        would slow every attribute read of the category."""
        objects, names = self.objects, self._names
        self._hom_names = {(objects[x], objects[y]): names(ms)
                           for (x, y), ms in self._homs.items()}
        self._out_names = dict(zip(objects, map(names, self._out)))
        self._into_names = dict(zip(objects, map(names, self._into)))

    def composable(self, g: str, f: str) -> bool:
        return self._cod[self._index[f]] == self._dom[self._index[g]]

    def compose(self, g: str, f: str) -> str:
        """g after f.  Raises KeyError on a non-composable pair."""
        index = self._index
        gi, fi = index[g], index[f]
        if self._cod[fi] != self._dom[gi]:
            raise KeyError((g, f))
        return self.morphism_names[self._into[self._cod[gi]][self._rows[gi][self._pos[fi]]]]

    def parallel_pairs(self) -> Iterator[ParallelPair]:
        """All ordered pairs of parallel morphisms, in input order."""
        names = self.morphism_names
        for f1, ends in enumerate(zip(self._dom, self._cod)):
            for f2 in self._homs[ends]:
                yield ParallelPair(names[f1], names[f2])

    def to_raw(self) -> RawCategory:
        """The canonical unvalidated form: declared morphisms and their rows."""
        names, objects, k = self.morphism_names, self.objects, len(self.objects)
        dom, cod, into = self._dom, self._cod, self._into
        declared = [(names[i], objects[dom[i]], objects[cod[i]]) for i in range(k, len(names))]
        rows = sorted((names[g], names[f], names[into[cod[g]][h]])
                      for g in range(k, len(names))
                      for f, h in zip(into[dom[g]][1:], self._rows[g][1:]))
        return RawCategory(self.name, list(objects), declared, rows)

    def _memo(self, key, fn):
        try:
            return self._cache[key]
        except KeyError:
            pass  # compute outside the handler: fn's errors carry no context
        value = self._cache[key] = fn()
        return value


def validate_category(raw: RawCategory) -> FinCategory:
    """Check a raw table and build the category, or raise InvalidCategory.

    Morphisms are numbered once, identities in object order and then the
    declared ones in input order, so each row resolves its names once, is
    typed on the integer dom/cod arrays and fills one cell of the
    category's rows.  Identity rows are generated, never declared, so the
    identity laws hold by construction.

    Associativity is checked per composable pair (a, b) of declared
    morphisms, on the rows L_x: u -> x∘u over the morphisms u into dom x.
    For c into dom b, L_{a∘b}(c) = (a∘b)∘c and L_a(L_b(c)) = a∘(b∘c), and
    c = 1_{dom b} gives a∘b on both sides, so L_{a∘b} = L_a∘L_b iff every
    triple (a, b, c) of declared morphisms associates.  A row holds
    positions among the morphisms into cod x, one cell per composable pair;
    a pair's triples are walked only when its rows differ.  A thin table
    (no hom-set with two members) skips the check: (a∘b)∘c and a∘(b∘c)
    both lie in hom(dom c, cod a), which has one member.
    """
    violations: list[Violation] = []
    objects = list(raw.objects)
    obj: dict[str, int] = {}
    for x in objects:
        if x in obj:
            violations.append(Violation("DuplicateName", f"object {x} declared twice"))
        obj.setdefault(x, len(obj))
    index = {identity_name(x): i for x, i in obj.items()}  # morphism name -> number
    k = len(obj)
    dom, cod = list(range(k)), list(range(k))
    for name, d, c in raw.morphisms:
        if name in index:
            violations.append(Violation("DuplicateName", f"morphism {name} declared twice"))
        elif d in obj and c in obj:
            index[name] = len(dom)
            dom.append(obj[d])
            cod.append(obj[c])
        else:
            violations.extend(Violation("UnknownName", f"{label} {end} of morphism {name}")
                              for end, label in ((d, "domain"), (c, "codomain")) if end not in obj)
    if violations:
        raise InvalidCategory(violations)

    C = FinCategory(raw.name, objects, index, dom, cod)
    names, n = C.morphism_names, len(index)
    into, pos, rows = C._into, C._pos, C._rows
    filled = 0
    for g, f, h in raw.compositions:
        gi, fi, hi = index.get(g), index.get(f), index.get(h)
        if gi is None or fi is None or hi is None:
            violations.extend(Violation("UnknownName", f"morphism {m} in row {g} {f} = {h}")
                              for m in (g, f, h) if m not in index)
        elif gi < k or fi < k:
            violations.append(Violation(
                "RedundantIdentity", f"row {g} {f} = {h} mentions an identity operand"))
        elif cod[fi] != dom[gi]:
            violations.append(Violation("BadTyping", f"pair ({g}, {f}) is not composable"))
        elif dom[hi] != dom[fi] or cod[hi] != cod[gi]:
            violations.append(Violation(
                "BadTyping", f"row {g} {f} = {h}: composite must go "
                f"{objects[dom[fi]]} -> {objects[cod[gi]]}"))
        elif rows[gi][pos[fi]] is not None:
            violations.append(Violation("DuplicateComposite", f"pair ({g}, {f}) given twice"))
        else:
            rows[gi][pos[fi]] = pos[hi]
            filled += 1
    # each filled cell is a composable pair of declared morphisms
    if filled < sum(len(into[dom[g]]) - 1 for g in range(k, n)):
        violations.extend(Violation("MissingComposite", f"no row for pair ({names[g]}, {names[f]})")
                          for g in range(k, n) for f in into[dom[g]][1:]
                          if rows[g][pos[f]] is None)
    if violations:
        raise InvalidCategory(violations)
    if C.thin:
        return C
    for a in range(k, n):
        ra, out = rows[a], into[cod[a]]
        for b in into[dom[a]][1:]:
            rb, rab = rows[b], rows[out[ra[pos[b]]]]
            if rab != list(map(ra.__getitem__, rb)):
                A, B = names[a], names[b]
                violations.extend(Violation(
                    "NonAssociative", f"({A} {B}) {names[c]} = {names[out[rab[pos[c]]]]} "
                    f"but {A} ({B} {names[c]}) = {names[out[ra[rb[pos[c]]]]]}")
                    for c in into[dom[b]][1:] if rab[pos[c]] != ra[rb[pos[c]]])
    if violations:
        raise InvalidCategory(violations)
    return C


class FullSubcategory:
    """The full subcategory of ``parent`` on a subset of its objects.

    The morphism set is derived: every parent morphism with both endpoints in
    the subset, in parent order, under the parent's names, so restriction
    and extension of ideals are plain set operations on names.  Its rows
    are the parent's, restricted to the kept morphisms.
    """

    def __init__(self, parent: FinCategory, objects: Sequence[str]):
        chosen = set(objects)
        unknown = chosen - set(parent.objects)
        if unknown:
            raise ValueError(f"objects not in {parent.name}: {sorted(unknown)}")
        self.parent = parent
        self.objects: tuple[str, ...] = tuple(x for x in parent.objects if x in chosen)
        self._category: FinCategory | None = None

    def __repr__(self) -> str:
        return f"FullSubcategory({self.parent.name!r}, {list(self.objects)})"

    @property
    def label(self) -> str:
        return f"{self.parent.name}[{','.join(self.objects)}]"

    @property
    def category(self) -> FinCategory:
        if self._category is None:
            P = self.parent
            obj = {P._obj[x]: i for i, x in enumerate(self.objects)}
            kept = [i for i, (x, y) in enumerate(zip(P._dom, P._cod)) if x in obj and y in obj]
            new = {i: j for j, i in enumerate(kept)}
            C = FinCategory(self.label, self.objects, {P.morphism_names[i]: new[i] for i in kept},
                            [obj[P._dom[i]] for i in kept], [obj[P._cod[i]] for i in kept])
            for j, g in enumerate(kept):  # the parent's row of g, on the kept morphisms
                out, row = P._into[P._cod[g]], P._rows[g]
                C._rows[j] = [C._pos[new[out[h]]]
                              for u, h in zip(P._into[P._dom[g]], row) if u in new]
            self._category = C
        return self._category


def full_subcategory(parent: FinCategory, objects: Sequence[str]) -> FullSubcategory:
    return FullSubcategory(parent, objects)


def require_parallel(C: FinCategory, p: ParallelPair) -> None:
    for f in (p.f1, p.f2):
        if not C.has_morphism(f):
            raise ValueError(f"{f} is not a morphism of {C.name}")
    if C.dom(p.f1) != C.dom(p.f2) or C.cod(p.f1) != C.cod(p.f2):
        raise ValueError(f"({p.f1}, {p.f2}) is not a parallel pair in {C.name}")


def is_mono(C: FinCategory, f: str) -> bool:
    """f is mono iff u -> f∘u is injective on the morphisms into dom f, i.e.
    iff its row has no repeated cell."""
    row = C._rows[C._index[f]]
    return len(set(row)) == len(row)


def is_epi(C: FinCategory, f: str) -> bool:
    """f is epi iff u -> u∘f is injective on the morphisms out of cod f, i.e.
    iff its cosieve has as many members as there are such u."""
    i = C._index[f]
    out = C._out[C._cod[i]]
    return len({C._compose(u, i) for u in out}) == len(out)


def enumerate_reflexive_graphs(C: FinCategory) -> tuple[ReflexiveGraph, ...]:
    """All triples (d, c, e) with d∘e = c∘e = identity, in input order.

    The sections e of each d, those with d∘e = 1, are listed once; each c
    parallel to d is then tried against those alone."""
    def compute():
        names, homs, compose, out = C.morphism_names, C._homs, C._compose, []
        for d, (g1, g0) in enumerate(zip(C._dom, C._cod)):
            sections = [e for e in homs.get((g0, g1), ()) if compose(d, e) == g0]
            for c in homs[g1, g0]:
                out.extend(ReflexiveGraph(names[d], names[c], names[e])
                           for e in sections if compose(c, e) == g0)
        return tuple(out)

    return C._memo("reflexive_graphs", compute)
