"""Weak and strict finite limits, coequalizers, regular epis, regularity.

Everything here is decided by exhaustive search over the composition table,
and the universal properties of limits and coequalizers by the one filter
_universal: the limit cones are the cones through which every cone factors,
the coequalizers the coequalizing morphisms through which every coequalizing
morphism factors.  Ideal kernels are decided by counting instead (see
ideals.kernels).

A limit shape is a list of objects, one leg each, plus equations (a, i, b, j)
meaning a∘legs[i] == b∘legs[j]; unlabelled legs let a shape repeat an object
(kernel pairs, X x X).  A leg the others determine, such as a pullback's leg
to the shared codomain, is not searched.  A kernel pair is the pullback of a
morphism along itself.

(F) A finite category with weak binary products is thin (Freyd; Mac Lane,
CWM V.2, Prop. 3): if |hom(Z, y)| >= 2, the weak products y, y x y,
(y x y) x y, ... have at least 2, 4, 8, ... morphisms from Z, more than a
finite category holds.  So on a finite table weakly lex, finitely complete
and regular all mean a preorder with a top and binary meets, and the checks
of those properties below search for a terminal object and binary products
only.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import FinCategory, ParallelPair, is_mono, require_parallel
from .report import FAIL, PASS, Report

WEAK = "weak"
STRICT = "strict"


@dataclass(frozen=True)
class Diagram:
    """A diagram carved out of C: a set of its objects and morphisms.

    The shape is the selection itself, one leg per chosen object, so
    limit_cones rejects an object chosen twice.  Limits of shapes that repeat
    an object are reached through the wrappers below.
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


def _into_apex(C: FinCategory, cone: Cone) -> tuple[str, ...]:
    """The morphisms u that act on a cone: each gives the cone cone∘u."""
    return C.morphisms_to(cone.apex)


def _universal(C: FinCategory, candidates: list, count, acting, mode: str) -> list:
    """The candidates through which every candidate factors: at least once in
    weak mode, exactly once in strict mode, as count(C, src, dst) counts the
    factorizations of src through dst.

    acting(C, dst) gives the morphisms u acting on dst, each of which turns
    dst into a candidate again, and every factorization of a candidate
    through dst is one of them.  So the n candidates' factorization sets
    through dst partition acting(C, dst): a weakly universal dst has at least
    n acting morphisms, a strict one exactly n, and every other candidate is
    skipped before any count.

    "src factors through dst" is a preorder (identities, composition): weak
    limits are its tops, strict limits its terminal objects.  So
    (a) when some candidate does not factor through c, the candidates that
        passed c's scan before it lie below c and are not tops either;
    (b) once a top u is found, a later k is a top iff u factors through k;
    (c) once a strict limit u is found, a later k is one iff u factors
        through k and k factors through itself only by the identity: then
        the factorizations k -> u -> k and u -> k -> u are identities, k ≅ u.
    """
    _check_mode(mode)
    # Plain loops: all() over a generator measured slower on the many small
    # candidate lists of the sweep workload.
    strict = mode == STRICT
    size = len(candidates)
    out = []
    below = 0  # candidates before this index are ruled out by (a)
    for i, cand in enumerate(candidates):
        if i < below:
            continue
        reach = len(acting(C, cand))
        if reach < size or (strict and reach != size):
            continue
        if out:
            if count(C, out[0], cand) and (not strict or count(C, cand, cand) == 1):
                out.append(cand)
            continue
        for j, other in enumerate(candidates):
            n = count(C, other, cand)
            if n == 0:
                below = j
                break
            if strict and n != 1:
                break
        else:
            out.append(cand)
    return out


def _limit_cones(C: FinCategory, objects: list[str],
                 equations: list[tuple[str, int, str, int]], mode: str) -> list[Cone]:
    return _universal(C, _all_cones(C, objects, equations), _cone_factorizations,
                      _into_apex, mode)


def limit_cones(C: FinCategory, diagram: Diagram, mode: str) -> list[Cone]:
    """All (weak) limit cones of the diagram; empty list means none exists.

    Weak mode keeps every cone through which all cones factor; strict mode
    additionally requires each factorization to be unique.
    """
    index: dict[str, int] = {}
    for x in diagram.objects:
        if x not in C.objects:
            raise ValueError(f"{x} is not an object of {C.name}")
        if x in index:
            raise ValueError(f"diagram repeats the object {x}")
        index[x] = len(index)
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
    """Kernel pair cones of f: the pullback cones of (f, f).

    For a mono f: X -> Y they are built, not searched.  A cone over (f, f)
    is then some (a, a), and (b, b) factors through (a, a) as b = a∘u.  All
    cones factor through (a, a) iff (1_X, 1_X) does, i.e. iff a has a
    section s (a∘s = 1_X), since then b = a∘(s∘b).  Each factors exactly
    once iff, moreover, a is an iso: (a, a) factors through itself by 1 and
    by s∘a, as a∘(s∘a) = a, so s∘a = 1.  So the weak kernel pairs are
    (a, a) for the split epis a into X, the strict ones for the isos, in
    the search's order (apex, then hom-set).  A morphism that is not mono
    can have kernel pairs too, and they are searched.
    """
    if not is_mono(C, f):
        return pullback_cones(C, f, f, mode)
    _check_mode(mode)
    x = C.dom(f)

    def compute():
        one = C.identity[x]
        return [Cone(w, (a, a)) for w in C.objects for a in C.hom(w, x)
                if any(C.compose(a, s) == one
                       and (mode == WEAK or C.compose(s, a) == C.identity[w])
                       for s in C.hom(x, w))]
    return C._memo(("mono_kernel_pair", x, mode), compute)


def kernel_pairs(C: FinCategory, f: str, mode: str) -> list[ParallelPair]:
    return [ParallelPair(*cone.legs) for cone in kernel_pair_cones(C, f, mode)]


def _missing_finite_limit(C: FinCategory) -> str | None:
    """The first missing strict terminal object or binary product, as a
    witness line, or None when C has both, and with them all finite limits:
    such a C is thin by (F), so each parallel pair is (f, f), which the
    identity equalizes."""
    if not terminal_cones(C, STRICT):
        return "no terminal object"
    for i, x in enumerate(C.objects):
        for y in C.objects[i:]:
            if not product_cones(C, x, y, STRICT):
                return f"no product {x} x {y}"
    return None


def has_weak_finite_limits(C: FinCategory) -> bool:
    """True iff C has a weak terminal, weak binary products and weak equalizers,
    which generate all weak finite limits.

    That is regularity: such a C is thin by (F), and in a thin category every
    factorization is unique, so its weak limits are strict.  Strict limits
    are weak ones, so the converse holds too.
    """
    return is_regular_category(C).passed


def coequalizes(C: FinCategory, g: str, p: ParallelPair) -> bool:
    return C.compose(g, p.f1) == C.compose(g, p.f2)


def _coequalizer_factorizations(C: FinCategory, src: str, dst: str) -> int:
    """How many morphisms u make u∘dst = src."""
    return [C.compose(u, dst) for u in C.hom(C.cod(dst), C.cod(src))].count(src)


def _out_of_codomain(C: FinCategory, q: str) -> tuple[str, ...]:
    """The morphisms u that act on a coequalizing q: each gives u∘q."""
    return C.morphisms_from(C.cod(q))


def coequalizers(C: FinCategory, p: ParallelPair) -> list[str]:
    """All coequalizers of p, in input order: the morphisms q out of cod p
    with q∘f1 = q∘f2 through which every such morphism factors exactly once."""
    require_parallel(C, p)

    def compute():
        candidates = [q for q in C.morphisms_from(C.cod(p.f1)) if coequalizes(C, q, p)]
        return _universal(C, candidates, _coequalizer_factorizations,
                          _out_of_codomain, STRICT)

    return C._memo(("coequalizers", p.f1, p.f2), compute)


def is_coequalizer(C: FinCategory, q: str, p: ParallelPair) -> bool:
    return q in coequalizers(C, p)


def coequalizer(C: FinCategory, p: ParallelPair) -> str | None:
    """The first morphism (in input order) that is a coequalizer of p."""
    return next(iter(coequalizers(C, p)), None)


def regular_epis(C: FinCategory) -> frozenset[str]:
    """The union of coequalizers(C, p) over C.parallel_pairs()."""
    return C._memo("regular_epis", lambda: frozenset(
        q for p in C.parallel_pairs() for q in coequalizers(C, p)))


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
                    if is_mono(C, m) and C.compose(m, e) == f:
                        return (e, m)
        return None

    return C._memo(("image", f), compute)


def is_regular_category(C: FinCategory) -> Report:
    """Finite limits, coequalizers of kernel pairs, pullback-stable regular epis.

    Only the finite limits need a search.  Strict binary products are weak
    ones, so a C that has them is thin by (F).  In a thin C the kernel pair
    of f: X -> Y is (1_X, 1_X) up to iso, and 1_X coequalizes it.  A regular
    epi of a thin C coequalizes a pair (u, u), so it is an iso, and a
    pullback of an iso is an iso, hence a regular epi.  So every FAIL names a
    missing terminal object or binary product.
    """
    def compute():
        missing = _missing_finite_limit(C)
        if missing:
            return Report("regular-category", FAIL, [missing])
        return Report("regular-category", PASS, [])

    return C._memo("is_regular_category", compute)
