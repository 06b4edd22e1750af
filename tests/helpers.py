"""Constructions that only the tests use: the composites of a category,
joint monicity, equivalence of categories, an ideal carried onto a
completion's cover, and the kernel of an extended ideal built through the
cover.  The package decides its statements without them; the tests use them
to cross-check what it decides."""
from __future__ import annotations

import itertools

from starkit import (STRICT, WEAK, Completion, CoverWitness, FinCategory, Ideal,
                     IdealClosureViolation, MultiPointedCategory, ParallelPair,
                     PreconditionFailed, image_factorization, is_ideal,
                     is_projective_cover, kernels, morphism_flags, pullback_cones)
from starkit.core import require_parallel
from starkit.ideals import _cover_epis


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
