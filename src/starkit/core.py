"""Finite categories given as explicit composition tables.

A category is stored as an ordered list of objects, an ordered list of
morphisms (identities first, one per object, then the declared morphisms in
input order) and a total composition map over composable pairs.  Morphisms
are addressed by name; identities are implicit in the input format and are
auto-named ``1_<object>``.

All exists/forall searches in this package iterate in input order and report
the first witness, so results are deterministic for a fixed input.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import InvalidCategory


def identity_name(obj: str) -> str:
    return f"1_{obj}"


@dataclass(frozen=True)
class Morphism:
    name: str
    dom: str
    cod: str


@dataclass
class RawCategory:
    """An unvalidated composition table.

    ``morphisms`` lists declared (non-identity) morphisms as (name, dom, cod);
    ``compositions`` lists rows (g, f, h) meaning g after f equals h.  Rows
    for pairs involving an identity are rejected as redundant; the composite
    h may be an identity.
    """

    name: str
    objects: Sequence[str]
    morphisms: Sequence[tuple[str, str, str]]
    compositions: Sequence[tuple[str, str, str]]


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


@dataclass(frozen=True)
class ParallelPair:
    """An ordered pair of morphisms with common domain and codomain."""

    f1: str
    f2: str


@dataclass(frozen=True)
class ReflexiveGraph:
    """A parallel pair (d, c) with a common section e: d∘e = c∘e = identity."""

    d: str
    c: str
    e: str


@dataclass(frozen=True)
class MorphismFlags:
    mono: bool
    epi: bool
    split_mono: bool
    split_epi: bool
    iso: bool


class FinCategory:
    """A validated finite category.

    Instances are immutable after construction and hash by identity, which
    lets every expensive search cache its result per category.  Each
    morphism also has a bit, ``_bit[name]``, the i-th for the i-th name of
    ``morphism_names``, so a set of morphisms is an int mask (ideals carry
    one).  Cached values hold names, carriers and masks, never the category
    itself, so a category is freed without the cycle collector.  Do not
    build directly; go through validate_category or the corpus loaders.
    """

    def __init__(self, name: str, objects: Sequence[str],
                 morphisms: Sequence[Morphism],
                 comp: dict[tuple[str, str], str]):
        self.name = name
        self.objects: tuple[str, ...] = tuple(objects)
        self.morphisms: tuple[Morphism, ...] = tuple(morphisms)
        self.identity: dict[str, str] = {x: identity_name(x) for x in self.objects}
        self._by_name: dict[str, Morphism] = {m.name: m for m in self.morphisms}
        self._comp = dict(comp)
        self._hom: dict[tuple[str, str], tuple[str, ...]] = {}
        self._from: dict[str, tuple[str, ...]] = {x: () for x in self.objects}
        self._to: dict[str, tuple[str, ...]] = {x: () for x in self.objects}
        self._bit: dict[str, int] = {}
        bit = 1
        for m in self.morphisms:
            key = (m.dom, m.cod)
            self._hom[key] = self._hom.get(key, ()) + (m.name,)
            self._from[m.dom] = self._from[m.dom] + (m.name,)
            self._to[m.cod] = self._to[m.cod] + (m.name,)
            self._bit[m.name] = bit
            bit <<= 1
        self.morphism_names: tuple[str, ...] = tuple(m.name for m in self.morphisms)
        self._cache: dict = {}

    def __repr__(self) -> str:
        return (f"FinCategory({self.name!r}, {len(self.objects)} objects, "
                f"{len(self.morphisms)} morphisms)")

    # -- lookups ------------------------------------------------------------

    def morphism(self, name: str) -> Morphism:
        return self._by_name[name]

    def has_morphism(self, name: str) -> bool:
        return name in self._by_name

    def dom(self, name: str) -> str:
        return self._by_name[name].dom

    def cod(self, name: str) -> str:
        return self._by_name[name].cod

    def is_identity(self, name: str) -> bool:
        m = self._by_name[name]
        return m.dom == m.cod and name == self.identity[m.dom]

    def hom(self, x: str, y: str) -> tuple[str, ...]:
        return self._hom.get((x, y), ())

    def morphisms_from(self, x: str) -> tuple[str, ...]:
        return self._from[x]

    def morphisms_to(self, x: str) -> tuple[str, ...]:
        return self._to[x]

    def composable(self, g: str, f: str) -> bool:
        return self.cod(f) == self.dom(g)

    def compose(self, g: str, f: str) -> str:
        """g after f.  Raises KeyError on a non-composable pair."""
        return self._comp[(g, f)]

    def parallel_pairs(self) -> Iterator[ParallelPair]:
        """All ordered pairs of parallel morphisms, in input order."""
        for f1 in self.morphism_names:
            x, y = self.dom(f1), self.cod(f1)
            for f2 in self.hom(x, y):
                yield ParallelPair(f1, f2)

    def to_raw(self) -> RawCategory:
        """The canonical unvalidated form: declared morphisms and their rows."""
        declared = [(m.name, m.dom, m.cod) for m in self.morphisms
                    if not self.is_identity(m.name)]
        rows = [(g, f, h) for (g, f), h in sorted(self._comp.items())
                if not self.is_identity(g) and not self.is_identity(f)]
        return RawCategory(self.name, list(self.objects), declared, rows)

    def _memo(self, key, fn):
        try:
            return self._cache[key]
        except KeyError:
            value = fn()
            self._cache[key] = value
            return value


def validate_category(raw: RawCategory) -> FinCategory:
    """Check a raw table and build the category, or raise InvalidCategory.

    Morphisms are numbered once, identities in object order and then the
    declared ones in input order (the ``_bit`` order), so each row resolves
    its names once and is typed on integer dom/cod arrays.  Identity rows
    are generated, never declared, so the identity laws hold by construction.

    Associativity is checked per composable pair (a, b) of declared
    morphisms, on the rows L_x: u -> x∘u over the morphisms u into dom x.
    For c into dom b, L_{a∘b}(c) = (a∘b)∘c and L_a(L_b(c)) = a∘(b∘c), and
    c = 1_{dom b} gives a∘b on both sides, so L_{a∘b} = L_a∘L_b iff every
    triple (a, b, c) of declared morphisms associates.  A row holds
    positions among the morphisms into cod x, one cell per composable pair;
    a pair's triples are walked only when its rows differ.  A thin table
    (no hom-set with two members) has no rows: (a∘b)∘c and a∘(b∘c) both lie
    in hom(dom c, cod a), which has one member.
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

    names, n = list(index), len(index)
    into: list[list[int]] = [[] for _ in objects]  # identity first, then input order
    pos = []  # pos[i]: the place of morphism i in into[cod i]
    for i, c in enumerate(cod):
        pos.append(len(into[c]))
        into[c].append(i)
    # rows[i][pos[u]] = pos[i∘u], None on a thin table.  A declared row's
    # identity column, position 0, is set here, and the rows set the rest.
    rows = None if len(set(zip(dom, cod))) == n else [
        list(range(len(into[i]))) if i < k else [pos[i]] * len(into[dom[i]]) for i in range(n)]

    comp: dict[tuple[str, str], str] = {}
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
        elif (g, f) in comp:
            violations.append(Violation("DuplicateComposite", f"pair ({g}, {f}) given twice"))
        else:
            comp[g, f] = h
            if rows is not None:
                rows[gi][pos[fi]] = pos[hi]
    # each filled cell is a composable pair of declared morphisms
    if len(comp) < sum(len(into[dom[g]]) - 1 for g in range(k, n)):
        violations.extend(Violation("MissingComposite", f"no row for pair ({names[g]}, {names[f]})")
                          for g in range(k, n) for f in into[dom[g]][1:]
                          if (names[g], names[f]) not in comp)
    if violations:
        raise InvalidCategory(violations)

    for i, m in enumerate(names):  # total table: identity rows are forced
        comp[m, names[dom[i]]] = comp[names[cod[i]], m] = m
    morphisms = [Morphism(m, objects[dom[i]], objects[cod[i]]) for i, m in enumerate(names)]
    if rows is None:
        return FinCategory(raw.name, objects, morphisms, comp)
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
    return FinCategory(raw.name, objects, morphisms, comp)


class FullSubcategory:
    """The full subcategory of ``parent`` on a subset of its objects.

    The morphism set is derived: every parent morphism with both endpoints in
    the subset.  Names are shared with the parent, so restriction and
    extension of ideals are plain set operations on names.
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
            keep, parent = set(self.objects), self.parent
            morphisms = [m for m in parent.morphisms if m.dom in keep and m.cod in keep]
            comp = parent._comp  # FinCategory copies it
            if len(keep) < len(parent.objects):  # the composable pairs of kept morphisms
                names = {m.name for m in morphisms}
                comp = {(g, m.name): comp[g, m.name] for m in morphisms
                        for g in parent._from[m.cod] if g in names}
            self._category = FinCategory(self.label, self.objects, morphisms, comp)
        return self._category


def full_subcategory(parent: FinCategory, objects: Sequence[str]) -> FullSubcategory:
    return FullSubcategory(parent, objects)


def require_parallel(C: FinCategory, p: ParallelPair) -> None:
    for f in (p.f1, p.f2):
        if not C.has_morphism(f):
            raise ValueError(f"{f} is not a morphism of {C.name}")
    if C.dom(p.f1) != C.dom(p.f2) or C.cod(p.f1) != C.cod(p.f2):
        raise ValueError(f"({p.f1}, {p.f2}) is not a parallel pair in {C.name}")


def _sieve_sizes(C: FinCategory) -> dict[str, int]:
    """For each morphism k, the size of the sieve it generates: how many
    distinct composites k∘u the morphisms u into dom k give.  One dict per
    category, since the kernels of every ideal read it."""
    def compute():
        comp, to = C._comp, C._to
        return {k: len({comp[k, u] for u in to[C.dom(k)]}) for k in C.morphism_names}

    return C._memo("sieve_sizes", compute)


def _cosieve_sizes(C: FinCategory) -> dict[str, int]:
    """For each morphism q, how many distinct composites u∘q the morphisms u
    out of cod q give.  One dict per category, as for _sieve_sizes."""
    def compute():
        comp, fro = C._comp, C._from
        return {q: len({comp[u, q] for u in fro[C.cod(q)]}) for q in C.morphism_names}

    return C._memo("cosieve_sizes", compute)


def is_mono(C: FinCategory, f: str) -> bool:
    """f is mono iff u -> f∘u is injective on the morphisms into dom f, i.e.
    iff its sieve has as many members as there are such u."""
    return _sieve_sizes(C)[f] == len(C._to[C.dom(f)])


def is_epi(C: FinCategory, f: str) -> bool:
    """f is epi iff u -> u∘f is injective on the morphisms out of cod f, i.e.
    iff its cosieve has as many members as there are such u."""
    return _cosieve_sizes(C)[f] == len(C._from[C.cod(f)])


def morphism_flags(C: FinCategory, f: str) -> MorphismFlags:
    """Mono/epi/split/iso status of f, decided by exhaustive search (mono by
    is_mono, epi by is_epi)."""
    def compute():
        x, y = C.dom(f), C.cod(f)
        mono, epi = is_mono(C, f), is_epi(C, f)
        split_epi = any(C.compose(f, s) == C.identity[y] for s in C.hom(y, x))
        split_mono = any(C.compose(r, f) == C.identity[x] for r in C.hom(y, x))
        iso = any(C.compose(f, g) == C.identity[y] and C.compose(g, f) == C.identity[x]
                  for g in C.hom(y, x))
        return MorphismFlags(mono, epi, split_mono, split_epi, iso)

    return C._memo(("flags", f), compute)


def enumerate_reflexive_graphs(C: FinCategory) -> tuple[ReflexiveGraph, ...]:
    """All triples (d, c, e) with d∘e = c∘e = identity, in input order.

    The sections e of each d, those with d∘e = 1, are listed once; each c
    parallel to d is then tried against those alone."""
    def compute():
        out = []
        for d in C.morphism_names:
            g1, g0 = C.dom(d), C.cod(d)
            one = C.identity[g0]
            sections = [e for e in C.hom(g0, g1) if C.compose(d, e) == one]
            for c in C.hom(g1, g0):
                out.extend(ReflexiveGraph(d, c, e) for e in sections
                           if C.compose(c, e) == one)
        return tuple(out)

    return C._memo("reflexive_graphs", compute)
