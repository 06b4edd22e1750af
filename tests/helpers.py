"""Definitions that only the tests use, beside the package they check.

Constructions: the composites of a category, joint monicity, equivalence
of categories, an ideal carried onto a completion's cover, the kernel of an
extended ideal built through the cover, the kernel star of a morphism and
star-pi0 over every reflexive graph.

Reference implementations, moved out of ``src/starkit`` with their bodies
unchanged, since no command, statement check or benchmark workload reaches
them: the errors ``NoKernel`` and ``NoKernelPair``; ``morphism_flags`` with
its ``MorphismFlags`` record (mono, epi, split and iso by search);
``equalizer_cones`` with its shape, counted by the package's own
``_limit_cones``; ``image_factorization``; the brute-force canonical key
``_canonical_key`` with ``canonical_key`` and ``are_isomorphic``, which the
enumerator's lex-leader pruning must agree with; and ``sample_ideals``, the
ideals of ``starkit.ideals._sample_masks``.

The package decides its statements without any of these; the tests use them
to cross-check what it decides."""
from __future__ import annotations

import itertools
from typing import NamedTuple

from starkit import (INAPPLICABLE, STRICT, WEAK, Completion, Cone, CoverWitness, FinCategory,
                     Ideal, IdealClosureViolation, MultiPointedCategory, ParallelPair,
                     PreconditionFailed, StarkitError, StarWitness,
                     enumerate_reflexive_graphs, is_epi, is_ideal, is_mono,
                     is_projective_cover, kernel_pairs, kernels, pullback_cones,
                     regular_epis, satisfies_star_pi0)
from starkit.core import require_parallel
from starkit.ideals import _cover_epis, _ideal, _sample_masks
from starkit.limits import _limit_cones
from starkit.stars import _star


class NoKernelPair(StarkitError):
    """The requested morphism has no kernel pair."""


class NoKernel(StarkitError):
    """The requested morphism has no kernel for the given ideal."""


class MorphismFlags(NamedTuple):
    mono: bool
    epi: bool
    split_mono: bool
    split_epi: bool
    iso: bool


def morphism_flags(C: FinCategory, f: str) -> MorphismFlags:
    """Mono/epi/split/iso status of f, decided by exhaustive search (mono by
    is_mono, epi by is_epi)."""
    def compute():
        i, compose = C._index[f], C._compose
        x, y = C._dom[i], C._cod[i]  # the identities of x and y are x and y
        back = C._homs.get((y, x), ())
        mono, epi = is_mono(C, f), is_epi(C, f)
        split_epi = any(compose(i, s) == y for s in back)
        split_mono = any(compose(r, i) == x for r in back)
        iso = any(compose(i, g) == y and compose(g, i) == x for g in back)
        return MorphismFlags(mono, epi, split_mono, split_epi, iso)

    return C._memo(("flags", f), compute)


def _equalizer_shape(C: FinCategory, p: ParallelPair):
    """The k: w -> dom f1 with f1∘k = f2∘k, on which the rows of f1 and f2
    agree."""
    f1, f2 = C._index[p.f1], C._index[p.f2]
    homs, pos, r1, r2, x = C._homs, C._pos, C._rows[f1], C._rows[f2], C._dom[f1]

    def cones_at(w: int) -> list[tuple[int]]:
        return [(k,) for k in homs.get((w, x), ()) if r1[pos[k]] == r2[pos[k]]]
    return cones_at, lambda w: len(cones_at(w))


def equalizer_cones(C: FinCategory, p: ParallelPair, mode: str) -> list[Cone]:
    """Equalizer cones of (f1, f2); the one leg is the equalizing morphism."""
    require_parallel(C, p)

    def compute():
        return _limit_cones(C, mode, _equalizer_shape(C, p))
    return C._memo(("equalizer", p.f1, p.f2, mode), compute)


def image_factorization(C: FinCategory, f: str) -> tuple[str, str] | None:
    """One factorization f = m∘e with e a regular epi and m a mono, if any."""
    def compute():
        i = C._index[f]
        epis, homs, names = regular_epis(C), C._homs, C.morphism_names
        for mid in range(len(C.objects)):
            for e in homs.get((C._dom[i], mid), ()):
                if names[e] not in epis:
                    continue
                for m in homs.get((mid, C._cod[i]), ()):
                    if C._compose(m, e) == i and is_mono(C, names[m]):
                        return (names[e], names[m])
        return None

    return C._memo(("image", f), compute)


def _canonical_key(k: int, types: tuple, table: dict) -> tuple:
    """Lexicographically smallest (k, types, table) over object relabellings
    and type-preserving morphism relabellings, with prefix early-abort."""
    m = len(types)
    best_types: tuple | None = None
    best_entries: tuple | None = None
    for sigma in itertools.permutations(range(k)):
        new_types = [(sigma[a], sigma[b]) for a, b in types]
        order = sorted(range(m), key=lambda j: new_types[j])
        sorted_types = tuple(new_types[j] for j in order)
        if best_types is not None and sorted_types > best_types:
            continue
        if best_types is None or sorted_types < best_types:
            best_types, best_entries = sorted_types, None
        groups: list[list[int]] = []
        for j in order:
            if groups and new_types[groups[-1][0]] == new_types[j]:
                groups[-1].append(j)
            else:
                groups.append([j])
        # composable (g, f) positions are type-determined, so fixed per sigma
        pair_positions = [(gp, fp) for gp in range(m) for fp in range(m)
                          if sorted_types[fp][1] == sorted_types[gp][0]]
        for perm_parts in itertools.product(*[itertools.permutations(g) for g in groups]):
            old_order = [j for part in perm_parts for j in part]
            new_of_old = list(sigma) + [0] * m
            for pos, j in enumerate(old_order):
                new_of_old[k + j] = k + pos
            entries: list[int] = []
            worse = False
            for idx, (gp, fp) in enumerate(pair_positions):
                old = table[(k + old_order[gp], k + old_order[fp])]
                entry = new_of_old[old]
                if best_entries is not None:
                    ref = best_entries[idx]
                    if entry > ref:
                        worse = True
                        break
                    if entry < ref:
                        best_entries = None  # strictly better prefix
                entries.append(entry)
            if worse:
                continue
            if best_entries is None:
                best_entries = tuple(entries)
    if best_types is None or best_entries is None:
        raise StarkitError(f"no canonical form for a table on {k} objects")
    return (k, best_types, best_entries)


def canonical_key(C: FinCategory) -> tuple:
    """A complete isomorphism invariant: the minimal relabelled table.  The
    category's own numbering is the one ``_canonical_key`` reads: object i,
    its identity i, and the j-th declared morphism k + j."""
    def compute():
        k, dom, cod, into = len(C.objects), C._dom, C._cod, C._into
        table = {(g, f): into[cod[g]][h] for g in range(k, len(dom))
                 for f, h in zip(into[dom[g]][1:], C._rows[g][1:])}
        return _canonical_key(k, tuple(zip(dom[k:], cod[k:])), table)
    return C._memo("canonical_key", compute)


def are_isomorphic(C: FinCategory, D: FinCategory) -> bool:
    return canonical_key(C) == canonical_key(D)


def sample_ideals(C: FinCategory, cap: int = 64) -> list[Ideal]:
    """A deterministic sample of the ideal lattice for categories too large
    for full enumeration: bottom, top, every principal closure, and pairwise
    unions of principals up to the cap."""
    return [_ideal(C, m) for m in _sample_masks(C, cap)]


def composites(C) -> list[tuple[str, str, str]]:
    """(g, f, g∘f) for every composable pair, g in morphism order, then f
    among the morphisms into dom g."""
    return [(g, f, C.compose(g, f)) for g in C.morphism_names for f in C.morphisms_to(C.dom(g))]


def is_jointly_monic(C: FinCategory, p: ParallelPair) -> bool:
    require_parallel(C, p)
    x = C.dom(p.f1)
    for w in C.objects:
        for a in C.hom(w, x):
            for b in C.hom(w, x):
                if a == b:
                    continue
                if (C.compose(p.f1, a) == C.compose(p.f1, b)
                        and C.compose(p.f2, a) == C.compose(p.f2, b)):
                    return False
    return True


def are_equivalent(C: FinCategory, D: FinCategory) -> bool:
    """Exhaustive search for a full, faithful, essentially surjective map."""
    def isomorphic_objects(E: FinCategory, x: str, y: str) -> bool:
        return x == y or any(morphism_flags(E, f).iso for f in E.hom(x, y))

    def search(obj_map: dict[str, str]) -> bool:
        for x in C.objects:
            for y in C.objects:
                if len(C.hom(x, y)) != len(D.hom(obj_map[x], obj_map[y])):
                    return False
        if not all(any(isomorphic_objects(D, obj_map[x], z) for x in C.objects)
                   for z in D.objects):
            return False
        mor_map: dict[str, str] = {}

        def functorial() -> bool:
            for g in mor_map:
                for f in mor_map:
                    if C.composable(g, f):
                        gf = C.compose(g, f)
                        if gf in mor_map and D.compose(mor_map[g], mor_map[f]) != mor_map[gf]:
                            return False
            return True

        def assign(index: int) -> bool:
            if index == len(C.morphisms):
                return True
            m = C.morphisms[index]
            if C.is_identity(m.name):
                options = [D.identity[obj_map[m.dom]]]
            else:
                used = {mor_map[o.name] for o in C.morphisms[:index]
                        if o.dom == m.dom and o.cod == m.cod}
                options = [cand for cand in D.hom(obj_map[m.dom], obj_map[m.cod])
                           if cand not in used]
            for cand in options:
                mor_map[m.name] = cand
                if functorial() and assign(index + 1):
                    return True
                del mor_map[m.name]
            return False

        return assign(0)

    for assignment in itertools.product(D.objects, repeat=len(C.objects)):
        if search(dict(zip(C.objects, assignment))):
            return True
    return False


def transport_ideal(compl: Completion, N: Ideal) -> Ideal:
    """An ideal of the base, carried along the embedding onto the cover."""
    if N.cat is not compl.base:
        raise ValueError("ideal must live on the base category")
    sub = compl.cover.cover.category
    carrier = frozenset(compl.embed_morphisms[m] for m in N.carrier)
    if not is_ideal(sub, carrier):
        raise IdealClosureViolation(f"transport of {N.label()} to the cover is not closed")
    return Ideal(sub, carrier)


def nc_kernel_via_cover(W: CoverWitness, N: Ideal, f: str) -> str:
    """Kernel of f for the extended ideal, built through the cover:
    cover the codomain, pull back, cover the pullback, take a weak kernel in
    the cover, and return the mono part of the image factorization.

    Raises PreconditionFailed naming the first missing ingredient.  The
    result is cross-checked against the direct strict-kernel search for the
    extended ideal by the test suite, not here.
    """
    C = W.cat
    sub = W.cover.category
    if N.cat is not sub:
        raise ValueError("ideal must live on the cover subcategory")
    if not is_projective_cover(W).passed:
        raise PreconditionFailed(f"{W.cover.label} is not a projective cover")

    cover_epis_to = {x: C._names(epis) for x, epis in zip(C.objects, _cover_epis(W))}
    if not cover_epis_to[C.cod(f)]:
        raise PreconditionFailed(f"no cover epi onto {C.cod(f)}")
    r = cover_epis_to[C.cod(f)][0]
    cones = pullback_cones(C, f, r, STRICT)
    if not cones:
        raise PreconditionFailed(f"no pullback of {f} along {r}")
    cone = cones[0]
    p1, p2 = cone.legs
    if not cover_epis_to[cone.apex]:
        raise PreconditionFailed(f"no cover epi onto the pullback {cone.apex}")
    q = cover_epis_to[cone.apex][0]
    p2q = C.compose(p2, q)
    ks = kernels(MultiPointedCategory(sub, N), p2q, WEAK)
    if not ks:
        raise PreconditionFailed(f"no weak kernel of {p2q} in the cover")
    k = ks[0]
    p1qk = C.compose(C.compose(p1, q), k)
    factored = image_factorization(C, p1qk)
    if factored is None:
        raise PreconditionFailed(f"no image factorization of {p1qk}")
    return factored[1]


def _pair_passes(M: MultiPointedCategory, p: ParallelPair) -> bool:
    r = satisfies_star_pi0(M, p)
    if r.verdict == INAPPLICABLE:
        raise NoKernel(f"star-pi0 not evaluable for ({p.f1}, {p.f2})")
    return r.passed


def reflexive_graphs_star_pi0(M: MultiPointedCategory) -> tuple[bool, str]:
    """Whether every reflexive graph satisfies star-pi0, with the first
    failing graph as witness.  Raises NoKernel if some graph is not
    evaluable; callers gate on kernel existence first."""
    for g in enumerate_reflexive_graphs(M.cat):
        if not _pair_passes(M, ParallelPair(g.d, g.c)):
            return False, f"graph ({g.d}, {g.c}, {g.e}) fails star-pi0"
    return True, ""


def kernel_star(M: MultiPointedCategory, f: str) -> StarWitness:
    """The star of the kernel pair of f: take the first strict kernel pair
    and the first strict kernel of its first projection."""
    C = M.cat
    pairs = kernel_pairs(C, f, STRICT)
    if not pairs:
        raise NoKernelPair(f"{f} has no kernel pair in {C.name}")
    p = pairs[0]
    ks = kernels(M, p.f1, STRICT)
    if not ks:
        raise NoKernel(f"projection {p.f1} has no kernel for {M.ideal.label()}")
    return StarWitness(p, ks[0], _star(C, p, ks[0]))
