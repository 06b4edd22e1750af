"""Ideals of morphisms, kernels, projective covers, and the cover-transfer
laws.

An ideal is a set of morphisms closed under pre- and post-composition with
arbitrary morphisms.  A category together with an ideal is a multi-pointed
category; the ideal plays the role of the null morphisms.  Lemma A and the
Galois connections between the ideals of a regular category and those of a
projective cover are decided in closed form after their gates: the parent
is thin, the cover an equivalence, and restriction and extension inverse
lattice isomorphisms (see verify_lemma_a).
"""
from __future__ import annotations

from itertools import chain, combinations

from .core import FinCategory, FullSubcategory, Record, _morphism
from .errors import BoundExceeded, IdealClosureViolation, PreconditionFailed
from .limits import STRICT, WEAK, _check_mode, is_regular_category, regular_epis
from .report import FAIL, INAPPLICABLE, PASS, Report

IDEAL_CAP = 1 << 12  # the most ideals of a table of at most 12 morphisms


class Ideal(Record):
    """A composition-closed class of morphisms of a fixed category.

    ``mask`` is the carrier over the category's morphism bits, or None if
    the carrier names something that is not a morphism of the category;
    ``==``, ``hash`` and the repr read ``cat`` and ``carrier`` only.  An
    ideal made from a mask builds its carrier on the first read.
    """

    __slots__ = ("cat", "_carrier", "mask")
    _fields = ("cat", "carrier")

    def __init__(self, cat: FinCategory, carrier: frozenset[str]):
        self.cat, self._carrier = cat, carrier
        self.mask: int | None = _mask(cat, carrier)

    @property
    def carrier(self) -> frozenset[str]:
        if self._carrier is None:
            self._carrier = frozenset(self.cat._names(_members(self.mask)))
        return self._carrier

    def __contains__(self, name: str) -> bool:
        return name in self.carrier

    def members(self) -> tuple[str, ...]:
        return tuple(sorted(self.carrier))

    def label(self) -> str:
        return "{" + ", ".join(self.members()) + "}"


def _ideal(C: FinCategory, mask: int) -> Ideal:
    """The Ideal of a mask of C, whose names are made only when read."""
    N = Ideal.__new__(Ideal)
    N.cat, N._carrier, N.mask = C, None, mask
    return N


class MultiPointedCategory(Record):
    __slots__ = _fields = ("cat", "ideal")

    def __init__(self, cat: FinCategory, ideal: Ideal):
        if ideal.cat is not cat:
            raise ValueError("ideal does not live on this category")
        _require_ideal(ideal)
        self.cat, self.ideal = cat, ideal


class CoverWitness(Record):
    """A full subcategory claimed to be a projective cover of its parent."""

    __slots__ = _fields = ("cat", "cover")

    def __init__(self, cat: FinCategory, cover: FullSubcategory):
        if cover.parent is not cat:
            raise ValueError("cover does not live on this category")
        self.cat, self.cover = cat, cover

    @property
    def key(self) -> tuple[str, ...]:
        return self.cover.objects


def _mask(C: FinCategory, names) -> int | None:
    """The mask of a set of names, or None if one is not a morphism of C."""
    index = C._index
    mask = 0
    for n in names:
        i = index.get(n)
        if i is None:
            return None
        mask |= 1 << i
    return mask


def _members(mask: int) -> list[int]:
    """The morphisms of a mask, in int order."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _principal_masks(C: FinCategory) -> list[int]:
    """For each morphism g, the mask of its principal ideal, the composites
    f∘g∘h.  f∘g∘h = f∘(g∘h), so it is the union over h of the masks of the
    f∘n with n = g∘h.  One dict per category, read by every ideal test,
    closure and enumeration."""
    def compute():
        compose, out, into = C._compose, C._out, C._into
        left = []
        for n, y in enumerate(C._cod):
            mask = 0
            for f in out[y]:
                mask |= 1 << compose(f, n)
            left.append(mask)
        principal = []
        for row, y in zip(C._rows, C._cod):
            mask = 0
            for h in set(row):
                mask |= left[into[y][h]]
            principal.append(mask)
        return principal

    return C._memo("principal_masks", compute)


def _closed(C: FinCategory, mask: int | None) -> bool:
    """Every member's principal ideal lies in the mask, i.e. f∘n∘h is in the
    ideal for every member n; that is closure, since f∘n = f∘n∘1."""
    if mask is None:
        return False
    return all(p | mask == mask for n, p in enumerate(_principal_masks(C)) if mask >> n & 1)


def is_ideal(C: FinCategory, carrier: frozenset[str] | set[str]) -> bool:
    return _closed(C, _mask(C, carrier))


def _require_ideal(N: Ideal) -> None:
    if not _closed(N.cat, N.mask):
        raise ValueError(f"{N.label()} is not an ideal of {N.cat.name}")


def ideal_closure(C: FinCategory, gens) -> Ideal:
    """Smallest ideal containing the generators: the union of their principal
    ideals, which is closed.  This is checked one composite at a time, f∘n
    and n∘h for every member n, without the principal masks, so a composite
    missing from one raises IdealClosureViolation."""
    return _ideal(C, _closure(C, [_morphism(C, g) for g in gens]))


def _closure(C: FinCategory, gens: list[int]) -> int:
    """The mask of the ideal_closure of the generators."""
    principal = _principal_masks(C)
    mask = 0
    for g in gens:
        mask |= principal[g]
    compose = C._compose
    for n in _members(mask):
        if not (all(mask >> compose(f, n) & 1 for f in C._out[C._cod[n]])
                and all(mask >> compose(n, h) & 1 for h in C._into[C._dom[n]])):
            raise IdealClosureViolation(
                f"closure misses a composite with {C.morphism_names[n]}")
    return mask


def _sieves(C: FinCategory) -> dict[int, bool]:
    """The mask of each sieve of C, with whether some morphism generating it
    is mono.  The sieve of k, the composites k∘u over the u into dom k, holds
    morphisms into cod k, so the masks of different objects are disjoint and
    one dict serves every object; one per category, since the kernel gates
    of every ideal read it."""
    def compute():
        table = {}
        for row, y in zip(C._rows, C._cod):
            cells, out = set(row), C._into[y]
            s = sum(1 << out[h] for h in cells)
            table[s] = table.get(s, False) or len(cells) == len(row)
        return table

    return C._memo("sieves", compute)


def _candidates(C: FinCategory, mask: int, f: int) -> int:
    """The mask of S, the k into dom f with f∘k in the ideal of the mask."""
    out, S = C._into[C._cod[f]], 0
    for k, h in zip(C._into[C._dom[f]], C._rows[f]):
        if mask >> out[h] & 1:
            S |= 1 << k
    return S


def kernels(M: MultiPointedCategory, f: str, mode: str) -> list[str]:
    """All (weak) kernels of f for the ideal: morphisms k into dom(f) with
    f∘k in the ideal, through which every such morphism factors (uniquely in
    strict mode).  Empty list means none exist.

    By the sieve criterion (see _kernel_gates) they are the k whose sieve
    is S, mono in strict mode.  Such a k is in S, and S holds the sieve of
    each of its members, so they are the k in S whose row has |S| distinct
    cells, and in strict mode |S| cells."""
    C = M.cat
    _check_mode(mode)
    i, rows = _morphism(C, f), C._rows
    S = _candidates(C, M.ideal.mask, i)
    size = S.bit_count()
    return [C.morphism_names[k] for k in C._into[C._dom[i]] if S >> k & 1
            and (mode == WEAK or len(rows[k]) == size) and len(set(rows[k])) == size]


_GATE_VALUES: dict = {}  # see _kernel_gates


def _kernel_gates(C: FinCategory, mask: int) -> tuple[int | None, int | None]:
    """The first morphism, in int order, without a kernel and the first
    without a weak kernel for the ideal N of the mask, None where there is
    none.

    Sieve criterion.  Let S be the set of k into dom f with f∘k in N.  It is
    closed under precomposition, since N is an ideal: f∘(k∘u) = (f∘k)∘u is
    in N.  So for k in S the sieve {k∘u : u into dom k} lies inside S, and
    k is a weak kernel, every member of S being some k∘u, iff its sieve is
    all of S.  A k whose sieve is S lies in S, as k = k∘1.  So f has a weak
    N-kernel iff S is the sieve of some k, and a strict one iff such a k is
    also mono: then each member of S is k∘u for exactly one u, and a
    strict kernel is mono, every k∘u lying in S.  So each morphism costs
    the mask of S and one lookup in _sieves.

    One pass serves both modes; it stops at the first morphism without a
    weak kernel, since every kernel is a weak one, so that morphism lacks a
    kernel too.  The gates of every ideal live in one dict per category,
    keyed by the mask.  Equal values are one tuple, since they repeat, (0, 0)
    most of all: _GATE_VALUES keeps each under itself for every category,
    and one of n morphisms adds at most (n + 1)² of them.
    """
    gates = C._memo("kernel_gates", dict)
    try:
        return gates[mask]
    except KeyError:
        pass
    sieves, no_kernel, no_weak_kernel = _sieves(C), None, None
    for f in range(len(C._rows)):
        mono = sieves.get(_candidates(C, mask, f))
        if not mono and no_kernel is None:
            no_kernel = f
        if mono is None:
            no_weak_kernel = f
            break
    value = no_kernel, no_weak_kernel
    gates[mask] = value = _GATE_VALUES.setdefault(value, value)
    return value


def _first_without_kernel(M: MultiPointedCategory, mode: str) -> str | None:
    """The first morphism, in input order, without a (weak) kernel for the
    ideal, or None if every morphism has one."""
    _check_mode(mode)
    no_kernel, no_weak_kernel = _kernel_gates(M.cat, M.ideal.mask)
    f = no_weak_kernel if mode == WEAK else no_kernel
    return None if f is None else M.cat.morphism_names[f]


def has_all_kernels(M: MultiPointedCategory, mode: str) -> bool:
    return _first_without_kernel(M, mode) is None


def pointed_ideal(C: FinCategory) -> Ideal | None:
    """The unique ideal with exactly one member per hom-set, if it exists.

    Let N be such an ideal, x the first object and n the member of N in
    End(x).  For every e in End(x), e∘n and n∘e lie in N ∩ End(x) = {n}, so
    n is the two-sided zero of the monoid End(x), and a monoid has at most
    one zero (z = z∘z' = z').  Every hom-set is non-empty, so each hom(y, z)
    holds some a∘n∘b, which lies in N: N is the closure of n.  Two pointed
    ideals N, N' are both the closure of n∘n', their common member in End(x),
    so N is unique.  Hence: the closure of the zero of End(x), if that
    closure meets every hom-set exactly once.
    """
    def compute():
        if not C.objects:
            return 0  # no hom-sets to meet
        ends, compose = C._homs[0, 0], C._compose
        zero = next((z for z in ends
                     if all(compose(e, z) == z == compose(z, e) for e in ends)), None)
        if zero is None:
            return None
        mask = _closure(C, [zero])
        members = _members(mask)
        homs = {(C._dom[n], C._cod[n]) for n in members}
        return mask if len(homs) == len(members) == len(C.objects) ** 2 else None

    mask = C._memo("pointed_ideal", compute)
    return None if mask is None else _ideal(C, mask)


def restrict_ideal(W: CoverWitness, N: Ideal) -> Ideal:
    """The ideal of the cover subcategory obtained by intersection.  N must
    be an ideal of the parent, else ValueError.  The intersection is then
    closed: the subcategory is full, so a composite f∘n∘h of its morphisms
    lies in it, and in N when n does."""
    if N.cat is not W.cat:
        raise ValueError("ideal must live on the parent category")
    _require_ideal(N)
    sub = W.cover.category
    return Ideal(sub, N.carrier & set(sub.morphism_names))


def _cover_epis(W: CoverWitness) -> list[list[int]]:
    """For each object, the regular epis onto it out of a cover object, in
    morphisms_to order."""
    C = W.cat

    def compute():
        epis, names = regular_epis(C), C.morphism_names
        cover = {C._obj[x] for x in W.cover.objects}
        return [[e for e in into if names[e] in epis and C._dom[e] in cover]
                for into in C._into]

    return C._memo(("cover_epis", W.key), compute)


def extend_ideal(W: CoverWitness, N: Ideal) -> Ideal:
    """The extension of an ideal of the cover along regular-epi squares.

    f: X -> Y belongs iff some square f∘e = e'∘n commutes with e, e' regular
    epis out of cover objects and n in N.  N must be an ideal of the cover,
    else ValueError.  The result of extending an ideal along a projective
    cover is again an ideal; a closure failure raises
    IdealClosureViolation and signals a bug, not a negative outcome.
    """
    C = W.cat
    sub = W.cover.category
    if N.cat is not sub:
        raise ValueError("ideal must live on the cover subcategory")
    _require_ideal(N)

    def compute():
        dom, cod, compose, index = C._dom, C._cod, C._compose, C._index
        epis_to = _cover_epis(W)
        members = [index[n] for n in N.carrier]
        mask = sum(1 << f for f in range(len(dom))
                   if any(compose(e2, n) == compose(f, e)
                          for e in epis_to[dom[f]]
                          for n in members if dom[n] == dom[e]
                          for e2 in epis_to[cod[f]] if dom[e2] == cod[n]))
        if not _closed(C, mask):
            raise IdealClosureViolation(
                f"extension of {N.label()} along {W.cover.label} is not closed")
        return mask

    return _ideal(C, C._memo(("extend", W.key, N.mask), compute))


def is_projective_cover(W: CoverWitness) -> Report:
    """(i) every cover object lifts along every regular epi; (ii) every
    object of the parent is covered by a regular epi from the cover.

    A thin C is not searched for (i): there a regular epi e: x -> y is an
    iso (regular_epis), so each g: p -> y lifts to e⁻¹∘g, and (ii) alone
    decides: every object is isomorphic to a cover object."""
    C = W.cat

    def compute():
        epis, homs, names = regular_epis(C), C._homs, C.morphism_names
        for p in map(C._obj.get, () if C.thin else W.cover.objects):
            for e, (x, y) in enumerate(zip(C._dom, C._cod)):
                if names[e] not in epis:
                    continue
                lifts = {C._compose(e, h) for h in homs.get((p, x), ())}
                for g in homs.get((p, y), ()):
                    if g not in lifts:
                        return Report(
                            "projective-cover", FAIL,
                            [f"cover object {C.objects[p]} has no lift of {names[g]} "
                             f"along regular epi {names[e]}"])
        for x, epis_to in zip(C.objects, _cover_epis(W)):
            if not epis_to:
                return Report("projective-cover", FAIL,
                              [f"object {x} admits no regular epi from the cover"])
        return Report("projective-cover", PASS, [])

    return C._memo(("projective_cover", W.key), compute)


def _atoms(C: FinCategory) -> list[int]:
    """The masks of the distinct principal ideals of C, in order of their
    first generator."""
    return list(dict.fromkeys(_principal_masks(C)))


def _name_weights(C: FinCategory) -> list[int]:
    """For each morphism, the bit n - 1 - r, r the rank of its name among
    the n sorted names.  A set's weight is the sum over its members."""
    bit = {x: 1 << r for r, x in enumerate(sorted(C.morphism_names, reverse=True))}
    return [bit[x] for x in C.morphism_names]


def _by_size(weighted: dict[int, int]) -> list[int]:
    """The masks of a {mask: weight} dict ordered by (size, sorted member
    names), without making a name.

    Let A != B have one size, and a be the first name, in sorted order, in
    one of them only; say in A.  Their sorted names agree before a, and B's
    next name comes after a, so A comes first.  Every member of B outside A
    ranks after a, so its bits sum to less than a's bit, and weight(A) >
    weight(B).  So the order is (popcount, -weight) ascending.
    """
    return sorted(weighted, key=lambda m: (weighted[m].bit_count(), -weighted[m]))


def enumerate_ideals(C: FinCategory) -> list[Ideal]:
    """All ideals of C, as unions of principal ideals, deduplicated and
    ordered by (size, members).  The unions grow one principal ideal at a
    time: the unions of the first i + 1 are those of the first i, with and
    without the next.  Past IDEAL_CAP unions it raises BoundExceeded."""
    return [_ideal(C, m) for m in _ideal_masks(C)]


def _ideal_masks(C: FinCategory) -> list[int]:
    """The masks of enumerate_ideals, in its order; one list per category.
    Each step at most doubles the unions, so a refused lattice costs at
    most 2 * IDEAL_CAP of them; the refusal is cached as None."""
    def compute():
        weights, masks = _name_weights(C), {0: 0}
        for atom in _atoms(C):
            w = sum(weights[i] for i in _members(atom))
            masks.update({m | atom: v | w for m, v in masks.items()})
            if len(masks) > IDEAL_CAP:
                return None
        return _by_size(masks)

    masks = C._memo("all_ideals", compute)
    if masks is None:
        raise BoundExceeded(f"{C.name} has more than {IDEAL_CAP} ideals, the enumeration cap")
    return masks


def require_projective_cover(W: CoverWitness) -> None:
    """Lemma A's precondition; raises PreconditionFailed when W fails it."""
    if not is_projective_cover(W).passed:
        raise PreconditionFailed(f"{W.cover.label} is not a projective cover of {W.cat.name}")


def verify_lemma_a(W: CoverWitness, N_P: Ideal, N_C: Ideal) -> Report:
    """The five transfer laws between an ideal on a projective cover and an
    ideal on its parent category:

    (a) restriction of the extension of N_P is N_P again;
    (b) the cover has weak N_P-kernels iff the parent has strict kernels for
        the extension of N_P;
    (c) if the parent has strict N_C-kernels, the cover has weak kernels for
        the restriction of N_C and the extension of that restriction is
        contained in N_C (vacuous otherwise, reported as such);
    (d) N_C is contained in the extension of its restriction iff every
        regular epi of the parent is N_C-saturating;
    (e) every regular epi of the parent saturates the extension of N_P.

    Decided in closed form after the gates.  A regular finite C is thin by
    (F) (see limits), so its regular epis are its isos (see regular_epis).
    The cover reaches every object x by a regular epi p -> x, an iso, so it
    meets every iso class and the full inclusion P ⊂ C is an equivalence.
    An ideal of a thin category is closed under isos: n': x' -> y' is
    j∘n∘i for any member n: x -> y with x ≅ x' and y ≅ y'.  The square
    f∘e = e'∘n of an extension commutes by thinness, so f: x -> y is in the
    extension of N_P iff N_P has a member between cover objects isomorphic
    to x and y.  Hence restriction and extension are inverse isomorphisms of
    the ideal lattices: (a) holds, and extend(restrict(N_C)) = N_C.  An iso
    f saturates every ideal N: a member n into cod f is covered by the
    regular epi 1 and the member f⁻¹∘n, since f∘(f⁻¹∘n) = n∘1.  So (e)
    holds and both sides of (d) are True.  In a thin category every
    factorization is unique, so weak and strict kernels agree, and the
    equivalence carries the kernels of an ideal to those of the ideal it
    corresponds to: both sides of (b) are the cover's weak-kernel gate for
    N_P, and (c) is (b) for N_P = restrict(N_C), which holds whenever its
    hypothesis does.  The exhaustive evaluator is the oracle of
    tests/test_differential.py.
    """
    C = W.cat
    sub = W.cover.category
    if N_P.cat is not sub:
        raise ValueError("N_P must live on the cover subcategory")
    if N_C.cat is not C:
        raise ValueError("N_C must live on the parent category")
    require_projective_cover(W)
    if not is_regular_category(C).passed:
        return Report("lemma-a", INAPPLICABLE,
                      [f"{C.name} is not regular; the transfer laws presuppose "
                       "a regular parent"])

    weak = has_all_kernels(MultiPointedCategory(sub, N_P), WEAK)
    if has_all_kernels(MultiPointedCategory(C, N_C), STRICT):
        part_c = "(c) holds"
    else:
        part_c = "(c) vacuous: parent lacks strict N_C-kernels"
    return Report("lemma-a", PASS, ["(a) holds", f"(b) holds: both sides {weak}", part_c,
                                    "(d) holds: both sides True", "(e) holds"])


def _sample_masks(C: FinCategory, cap: int = 64) -> list[int]:
    """The masks of a deterministic sample of at most cap ideals, for
    lattices too large for full enumeration: bottom and top, then the
    distinct principal ideals and pairwise unions of them, in that order,
    until the cap; ordered as enumerate_ideals orders them."""
    top = (1 << len(C.morphism_names)) - 1
    atoms = [a for a in _atoms(C) if a != top]
    masks = {0, top}
    for m in chain(atoms, (a | b for a, b in combinations(atoms, 2))):
        if len(masks) >= cap:
            break
        masks.add(m)
    weights = _name_weights(C)
    return _by_size({m: sum(weights[i] for i in _members(m)) for m in masks})


def verify_galois_and_iso(W: CoverWitness) -> Report:
    """Classify the ideal lattices on both sides of a projective cover and
    state the two Galois connections plus the lattice isomorphism between
    cover ideals with weak kernels and parent ideals that both admit kernels
    and saturate regular epis.

    Decided in closed form after the gates, by the argument of
    verify_lemma_a: on a regular C, restriction and extension are inverse
    isomorphisms of the ideal lattices, every regular epi (an iso)
    saturates every ideal, and an ideal of C admits kernels iff its
    restriction admits weak kernels.  So I_s is every ideal of C and I_s&I_k
    is I_k; both maps are monotone and land in the stated sublattices; each
    is left adjoint to the other, so both orientations of each connection
    hold; and both round trips are identities.  The witness lines count the
    lattices and the kernel sublattices.  A lattice of more than IDEAL_CAP
    ideals is not listed (_ideal_masks); then both are counted on a
    deterministic sample, noted as "sampled" in the report; the connections
    hold on any subsets, sampled or not.
    """
    C = W.cat
    if not is_regular_category(C).passed:
        return Report("galois", INAPPLICABLE, [f"{C.name} is not regular"])
    if not is_projective_cover(W).passed:
        return Report("galois", INAPPLICABLE,
                      [f"{W.cover.label} is not a projective cover"])
    sub = W.cover.category

    sampled = False
    try:
        ideals_C = _ideal_masks(C)
        ideals_P = _ideal_masks(sub)
    except BoundExceeded:
        sampled = True
        ideals_C = _sample_masks(C)
        ideals_P = _sample_masks(sub)

    I_k = sum(_kernel_gates(C, n)[0] is None for n in ideals_C)
    I_wk = sum(_kernel_gates(sub, m)[1] is None for m in ideals_P)
    return Report("galois", PASS, [
        ("sampled " if sampled else "") +
        f"ideals: parent={len(ideals_C)} cover={len(ideals_P)}",
        f"I_s={len(ideals_C)} I_k={I_k} I_s&I_k={I_k} I_wk={I_wk}",
        "connection I(P)~I_s(C): left adjoint = restriction|extension",
        "connection I_wk(P)~I_k(C): left adjoint = extension|restriction",
    ])
