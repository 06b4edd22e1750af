"""Weak and strict finite limits, coequalizers, regular epis, regularity.

Everything here is decided by exhaustive search over the composition table.
A limit shape is a list of objects, one leg each, plus equations (a, i, b, j)
meaning a∘legs[i] == b∘legs[j]; unlabelled legs let a shape repeat an object
(kernel pairs, X x X).  A leg the others determine, such as a pullback's leg
to the shared codomain, is not searched.  A kernel pair is the pullback of a
morphism along itself.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import FinCategory, ParallelPair, morphism_flags, require_parallel
from .report import FAIL, PASS, Report

WEAK = "weak"
STRICT = "strict"


@dataclass(frozen=True)
class Diagram:
    """A diagram carved out of C: a set of its objects and morphisms.

    The shape is the selection itself, one leg per chosen object.  Limits of
    shapes that repeat an object are reached through the wrappers below.
    """

    objects: tuple[str, ...]
    morphisms: tuple[str, ...] = ()


@dataclass(frozen=True)
class Cone:
    apex: str
    legs: tuple[str, ...]  # one per object of the shape, in its order


def _check_mode(mode: str) -> None:
    if mode not in (WEAK, STRICT):
        raise ValueError(f"mode must be {WEAK!r} or {STRICT!r}, got {mode!r}")


def _all_cones(C: FinCategory, objects: list[str],
               equations: list[tuple[str, int, str, int]]) -> list[Cone]:
    cones: list[Cone] = []
    for apex in C.objects:
        stack = [()]
        for x in objects:
            stack = [legs + (m,) for legs in stack for m in C.hom(apex, x)]
        cones.extend(Cone(apex, legs) for legs in stack
                     if all(C.compose(a, legs[i]) == C.compose(b, legs[j])
                            for a, i, b, j in equations))
    return cones


def _cone_factorizations(C: FinCategory, src: Cone, dst: Cone) -> int:
    """How many morphisms u make every leg of src the leg of dst after u."""
    return len([u for u in C.hom(src.apex, dst.apex)
                if all(C.compose(m_dst, u) == m_src
                       for m_dst, m_src in zip(dst.legs, src.legs))])


def _universal(C: FinCategory, candidates: list, count, mode: str) -> list:
    """The candidates through which every candidate factors: at least once in
    weak mode, exactly once in strict mode, as count(C, src, dst) counts the
    factorizations of src through dst."""
    _check_mode(mode)
    # Plain loops: all() over a generator measured slower on the many small
    # candidate lists of the sweep workload.
    strict = mode == STRICT
    out = []
    for cand in candidates:
        for other in candidates:
            n = count(C, other, cand)
            if n == 0 or (strict and n != 1):
                break
        else:
            out.append(cand)
    return out


def _limit_cones(C: FinCategory, objects: list[str],
                 equations: list[tuple[str, int, str, int]], mode: str) -> list[Cone]:
    return _universal(C, _all_cones(C, objects, equations), _cone_factorizations, mode)


def limit_cones(C: FinCategory, diagram: Diagram, mode: str) -> list[Cone]:
    """All (weak) limit cones of the diagram; empty list means none exists.

    Weak mode keeps every cone through which all cones factor; strict mode
    additionally requires each factorization to be unique.
    """
    for x in diagram.objects:
        if x not in C.objects:
            raise ValueError(f"{x} is not an object of {C.name}")
    index = {x: i for i, x in enumerate(diagram.objects)}
    equations = []
    for m in diagram.morphisms:
        x, y = C.dom(m), C.cod(m)
        if x not in index or y not in index:
            raise ValueError(f"diagram morphism {m} has an endpoint outside the selection")
        equations.append((m, index[x], C.identity[y], index[y]))
    return _limit_cones(C, list(diagram.objects), equations, mode)


def terminal_cones(C: FinCategory, mode: str) -> list[Cone]:
    def compute():
        return _limit_cones(C, [], [], mode)
    return C._memo(("terminal", mode), compute)


def product_cones(C: FinCategory, x: str, y: str, mode: str) -> list[Cone]:
    """Binary product cones, legs to x and y."""
    def compute():
        return _limit_cones(C, [x, y], [], mode)
    return C._memo(("product", x, y, mode), compute)


def equalizer_cones(C: FinCategory, p: ParallelPair, mode: str) -> list[Cone]:
    """Equalizer cones of (f1, f2); the one leg is the equalizing morphism."""
    require_parallel(C, p)

    def compute():
        return _limit_cones(C, [C.dom(p.f1)], [(p.f1, 0, p.f2, 0)], mode)
    return C._memo(("equalizer", p.f1, p.f2, mode), compute)


def pullback_cones(C: FinCategory, f: str, g: str, mode: str) -> list[Cone]:
    """Pullback cones of the cospan f: X -> Z <- Y :g, legs to X and Y."""
    if C.cod(f) != C.cod(g):
        raise ValueError(f"({f}, {g}) is not a cospan")

    def compute():
        return _limit_cones(C, [C.dom(f), C.dom(g)], [(f, 0, g, 1)], mode)
    return C._memo(("pullback", f, g, mode), compute)


def kernel_pair_cones(C: FinCategory, f: str, mode: str) -> list[Cone]:
    """Kernel pair cones of f: the pullback cones of (f, f)."""
    return pullback_cones(C, f, f, mode)


def kernel_pairs(C: FinCategory, f: str, mode: str) -> list[ParallelPair]:
    return [ParallelPair(*cone.legs) for cone in kernel_pair_cones(C, f, mode)]


def _missing_finite_limit(C: FinCategory, mode: str) -> str | None:
    """The first missing terminal object, binary product or equalizer, as a
    witness line, or None when C has all three (weak or strict per mode)."""
    if not terminal_cones(C, mode):
        return "no terminal object"
    for i, x in enumerate(C.objects):
        for y in C.objects[i:]:
            if not product_cones(C, x, y, mode):
                return f"no product {x} x {y}"
    for p in C.parallel_pairs():
        # equalizers are symmetric in the pair
        if p.f1 <= p.f2 and not equalizer_cones(C, p, mode):
            return f"no equalizer of ({p.f1}, {p.f2})"
    return None


def has_weak_finite_limits(C: FinCategory) -> bool:
    """True iff C has a weak terminal, weak binary products and weak equalizers.

    These generate all weak finite limits: fold the node objects with weak
    binary products, then weakly equalize one edge condition at a time; each
    step only ever adds equations, so earlier ones survive.
    """
    return C._memo("has_weak_finite_limits",
                   lambda: _missing_finite_limit(C, WEAK) is None)


def coequalizes(C: FinCategory, g: str, p: ParallelPair) -> bool:
    return C.compose(g, p.f1) == C.compose(g, p.f2)


def is_coequalizer(C: FinCategory, q: str, p: ParallelPair) -> bool:
    """Direct universal-property check: q coequalizes p and every
    coequalizing morphism factors through q exactly once."""
    require_parallel(C, p)
    if C.dom(q) != C.cod(p.f1) or not coequalizes(C, q, p):
        return False
    for g in C.morphisms_from(C.cod(p.f1)):
        if not coequalizes(C, g, p):
            continue
        n = sum(1 for u in C.hom(C.cod(q), C.cod(g)) if C.compose(u, q) == g)
        if n != 1:
            return False
    return True


def coequalizer(C: FinCategory, p: ParallelPair) -> str | None:
    """The first morphism (in input order) that is a coequalizer of p."""
    require_parallel(C, p)

    def compute():
        for q in C.morphisms_from(C.cod(p.f1)):
            if is_coequalizer(C, q, p):
                return q
        return None

    return C._memo(("coequalizer", p.f1, p.f2), compute)


def regular_epis(C: FinCategory) -> frozenset[str]:
    """All morphisms that are a coequalizer of some parallel pair."""
    def compute():
        out = set()
        for f in C.morphism_names:
            flags = morphism_flags(C, f)
            if not flags.epi:
                continue  # a coequalizer is always an epimorphism
            x = C.dom(f)
            # a split epi q with section s is a coequalizer of (s q, 1)
            if flags.split_epi or any(
                    is_coequalizer(C, f, ParallelPair(u, v))
                    for w in C.objects for u in C.hom(w, x) for v in C.hom(w, x)):
                out.add(f)
        return frozenset(out)

    return C._memo("regular_epis", compute)


def is_regular_epi(C: FinCategory, f: str) -> bool:
    return f in regular_epis(C)


def image_factorization(C: FinCategory, f: str) -> tuple[str, str] | None:
    """One factorization f = m∘e with e a regular epi and m a mono, if any."""
    def compute():
        x, y = C.dom(f), C.cod(f)
        epis = regular_epis(C)
        for mid in C.objects:
            for e in C.hom(x, mid):
                if e not in epis:
                    continue
                for m in C.hom(mid, y):
                    if morphism_flags(C, m).mono and C.compose(m, e) == f:
                        return (e, m)
        return None

    return C._memo(("image", f), compute)


def is_regular_category(C: FinCategory) -> Report:
    """Finite limits, coequalizers of kernel pairs, pullback-stable regular epis."""
    def compute():
        missing = _missing_finite_limit(C, STRICT)
        if missing:
            return Report("regular-category", FAIL, [missing])

        for f in C.morphism_names:
            pairs = kernel_pairs(C, f, STRICT)
            if not pairs:
                return Report("regular-category", FAIL, [f"no kernel pair of {f}"])
            if coequalizer(C, pairs[0]) is None:
                return Report("regular-category", FAIL,
                              [f"kernel pair of {f} has no coequalizer"])

        epis = regular_epis(C)
        for f in C.morphism_names:
            if f not in epis:
                continue
            for g in C.morphism_names:
                if C.cod(g) != C.cod(f):
                    continue
                cones = pullback_cones(C, f, g, STRICT)
                if not cones:
                    return Report("regular-category", FAIL,
                                  [f"no pullback of {f} along {g}"])
                proj = cones[0].legs[1]
                if proj not in epis:
                    return Report("regular-category", FAIL, [
                        f"pullback of regular epi {f} along {g} has "
                        f"non-regular projection {proj}"])
        return Report("regular-category", PASS, [])

    return C._memo("is_regular_category", compute)
