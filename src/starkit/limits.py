"""Weak and strict finite limits, coequalizers, regular epis, regularity.

Universal properties are decided by counting, by one argument for limits,
coequalizers and ideal kernels (ideals.kernels) alike.

Limits.  The cones S over a shape are closed under precomposition: a cone c
at apex w and a morphism u: v -> w give the cone c∘u at v.  So the sieve of
c, the cones c∘u over all u into w, lies inside S, and c is a weak limit,
every cone being some c∘u, iff its sieve has |S| members.  It is a strict
limit, each cone being c∘u for exactly one u, iff moreover u -> c∘u is
injective, i.e. iff exactly |S| morphisms go into w.  So cones are listed
only at apexes with at least |S| (weak) or exactly |S| (strict) morphisms
into them, and |S| is counted without listing cones where the shape allows
it.  The sieve of a cone with legs is the set of leg tuples, which has at
least as many members as the sieve of each leg and at most |S|: the sieve
size of a one-leg cone, or of a leg with |S| members, is read off
core._sieve_sizes, and only otherwise are the tuples built.  A cone with no
legs is its apex, so its sieve is the set of domains of the u.

Coequalizers.  Dually, the morphisms Q = {q : q∘f1 = q∘f2} out of cod f1
are closed under postcomposition, so q in Q is a coequalizer, each member
of Q being u∘q for exactly one u, iff u -> u∘q maps the morphisms out of
cod q one-to-one onto Q: iff q is epi (core.is_epi) and exactly |Q|
morphisms go out of cod q.

A limit shape is a list of objects, one leg each, plus equations (a, i, b, j)
meaning a∘legs[i] == b∘legs[j]; unlabelled legs let a shape repeat an object
(kernel pairs, X x X).  A leg the others determine, such as a pullback's leg
to the shared codomain, is not listed.  A kernel pair is the pullback of a
morphism along itself.

(F) A finite category with weak binary products is thin (Freyd; Mac Lane,
CWM V.2, Prop. 3): if |hom(Z, y)| >= 2, the weak products y, y x y,
(y x y) x y, ... have at least 2, 4, 8, ... morphisms from Z, more than a
finite category holds.  So on a finite table weakly lex, finitely complete
and regular all mean a preorder with a top and binary meets, and the checks
of those properties below look for a terminal object and binary products
only.  On a thin table they search no cones: the down-set of each object,
a mask of objects, decides both (_missing_finite_limit).
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import (FinCategory, ParallelPair, _sieve_sizes, is_epi, is_mono,
                   require_parallel)
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


def _cones_at(C: FinCategory, objects: list[str],
              equations: list[tuple[str, int, str, int]]):
    """The function listing the legs of each cone at an apex, in hom order, as
    ints; the two sides of an equation share a codomain, so rows compare them."""
    homs, rows, pos, index = C._homs, C._rows, C._pos, C._index
    xs = [C._obj[x] for x in objects]
    eqs = [(rows[index[a]], i, rows[index[b]], j) for a, i, b, j in equations]

    def cones_at(w: int) -> list[tuple[int, ...]]:
        stack = [()]
        for x in xs:
            stack = [legs + (m,) for legs in stack for m in homs.get((w, x), ())]
        return [legs for legs in stack
                if all(a[pos[legs[i]]] == b[pos[legs[j]]] for a, i, b, j in eqs)]
    return cones_at


def _limit_cones(C: FinCategory, mode: str, cones_at, count_at=None) -> list[Cone]:
    """The (weak) limit cones of a shape whose cones at an apex w cones_at(w)
    lists, in apex order, then hom order, by the counting rule of the module
    docstring.  count_at(w) counts the cones at w where the shape allows it
    without listing them; otherwise the cones of every apex are listed."""
    _check_mode(mode)
    apexes = range(len(C.objects))
    if count_at is None:
        listed = [cones_at(w) for w in apexes]
        cones_at, count_at = listed.__getitem__, lambda w: len(listed[w])
    size = sum(map(count_at, apexes))
    rows, dom, sieve = C._rows, C._dom, _sieve_sizes(C)
    strict = mode == STRICT
    out = []
    for w in apexes:
        into = C._into[w]
        if not size or len(into) < size or (strict and len(into) != size):
            continue
        for legs in cones_at(w):
            if not legs:  # the cone is its apex, so c∘u is dom u
                n = len({dom[u] for u in into})
            else:
                n = max(sieve[m] for m in legs)
                if n < size and len(legs) > 1:
                    n = len(set(zip(*[rows[m] for m in legs])))
            if n == size:
                out.append(Cone(C.objects[w], C._names(legs)))
    return out


def _product_count(C: FinCategory, x: str, y: str):
    """The number of cones at w over (x, y): |hom(w, x)|·|hom(w, y)|."""
    homs, x, y = C._homs, C._obj[x], C._obj[y]
    return lambda w: len(homs.get((w, x), ())) * len(homs.get((w, y), ()))


def _pullback_shape(C: FinCategory, f: str, g: str):
    """cones_at and count_at for the cospan f: X -> Z <- Y :g.  At w, the b
    in hom(w, Y) are grouped by g∘b, and each a in hom(w, X) is joined with
    the group of f∘a, in hom order."""
    f, g = C._index[f], C._index[g]
    homs, pos, rf, rg, x, y = C._homs, C._pos, C._rows[f], C._rows[g], C._dom[f], C._dom[g]

    def joined(w: int) -> list[list[int]]:
        fibre: dict[int, list[int]] = {}
        for b in homs.get((w, y), ()):
            fibre.setdefault(rg[pos[b]], []).append(b)
        return [fibre.get(rf[pos[a]], []) for a in homs.get((w, x), ())]
    return (lambda w: [(a, b) for a, bs in zip(homs.get((w, x), ()), joined(w)) for b in bs],
            lambda w: sum(map(len, joined(w))))


def limit_cones(C: FinCategory, diagram: Diagram, mode: str) -> list[Cone]:
    """All (weak) limit cones of the diagram; empty list means none exists.

    Weak mode keeps every cone through which all cones factor; strict mode
    additionally requires each factorization to be unique.  The cones are
    listed at every apex, to count them.
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
    return _limit_cones(C, mode, _cones_at(C, list(diagram.objects), equations))


def terminal_cones(C: FinCategory, mode: str) -> list[Cone]:
    """Terminal cones: one empty cone per apex, so |S| is the number of
    objects."""
    def compute():
        return _limit_cones(C, mode, lambda w: [()], lambda w: 1)
    return C._memo(("terminal", mode), compute)


def product_cones(C: FinCategory, x: str, y: str, mode: str) -> list[Cone]:
    """Binary product cones, legs to x and y."""
    def compute():
        return _limit_cones(C, mode, _cones_at(C, [x, y], []), _product_count(C, x, y))
    return C._memo(("product", x, y, mode), compute)


def equalizer_cones(C: FinCategory, p: ParallelPair, mode: str) -> list[Cone]:
    """Equalizer cones of (f1, f2); the one leg is the equalizing morphism."""
    require_parallel(C, p)

    def compute():
        return _limit_cones(C, mode, _cones_at(C, [C.dom(p.f1)], [(p.f1, 0, p.f2, 0)]))
    return C._memo(("equalizer", p.f1, p.f2, mode), compute)


def pullback_cones(C: FinCategory, f: str, g: str, mode: str) -> list[Cone]:
    """Pullback cones of the cospan f: X -> Z <- Y :g, legs to X and Y."""
    if C.cod(f) != C.cod(g):
        raise ValueError(f"({f}, {g}) is not a cospan")

    def compute():
        return _limit_cones(C, mode, *_pullback_shape(C, f, g))
    return C._memo(("pullback", f, g, mode), compute)


def kernel_pair_cones(C: FinCategory, f: str, mode: str) -> list[Cone]:
    """Kernel pair cones of f: the pullback cones of (f, f)."""
    return pullback_cones(C, f, f, mode)


def kernel_pairs(C: FinCategory, f: str, mode: str) -> list[ParallelPair]:
    return [ParallelPair(*cone.legs) for cone in kernel_pair_cones(C, f, mode)]


def _missing_finite_limit(C: FinCategory) -> str | None:
    """The first missing strict terminal object or binary product, as a
    witness line, or None when C has both, and with them all finite limits:
    such a C is thin by (F), so each parallel pair is (f, f), which the
    identity equalizes.

    A thin C is decided from the down-set masks of its objects, down[x]
    holding the w with hom(w, x) non-empty; every factorization there is
    unique.  A terminal object is a t with down[t] all objects, and a
    product of x and y a p with down[p] = down[x] & down[y]: p lies below
    x and y, and so does every w below both.  Other tables search cones."""
    if C.thin:
        down = [0] * len(C.objects)
        for w, x in C._homs:
            down[x] |= 1 << w
        meets = set(down)
        if (1 << len(down)) - 1 not in meets:
            return "no terminal object"
        for i, (x, below_x) in enumerate(zip(C.objects, down)):
            for y, below_y in zip(C.objects[i:], down[i:]):
                if below_x & below_y not in meets:
                    return f"no product {x} x {y}"
        return None
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


def coequalizers(C: FinCategory, p: ParallelPair) -> list[str]:
    """All coequalizers of p, in input order: the morphisms q out of cod p
    with q∘f1 = q∘f2 through which every such morphism factors exactly once.
    By the counting rule of the module docstring, the epis among them out of
    whose codomain go as many morphisms as there are such q."""
    require_parallel(C, p)

    def compute():
        f1, f2 = C._index[p.f1], C._index[p.f2]
        rows, pos, out, cod = C._rows, C._pos, C._out, C._cod
        candidates = [q for q in out[cod[f1]] if rows[q][pos[f1]] == rows[q][pos[f2]]]
        return [C.morphism_names[q] for q in candidates
                if len(out[cod[q]]) == len(candidates) and is_epi(C, C.morphism_names[q])]

    return C._memo(("coequalizers", p.f1, p.f2), compute)


def is_coequalizer(C: FinCategory, q: str, p: ParallelPair) -> bool:
    return q in coequalizers(C, p)


def coequalizer(C: FinCategory, p: ParallelPair) -> str | None:
    """The first morphism (in input order) that is a coequalizer of p."""
    return next(iter(coequalizers(C, p)), None)


def regular_epis(C: FinCategory) -> frozenset[str]:
    """The union of coequalizers(C, p) over C.parallel_pairs(); in a thin C,
    the isos, the q with hom(cod q, dom q) non-empty.  There every pair is
    some (u, u), every morphism epi and v -> v∘q injective, and a coequalizer
    q maps from(cod q) onto from(dom q): 1_{dom q} = v∘q, so q∘v = 1 by
    thinness.  Each iso coequalizes (1, 1)."""
    def compute():
        if C.thin:
            return frozenset(C._names(q for q, ends in enumerate(zip(C._cod, C._dom))
                                      if ends in C._homs))
        return frozenset(q for p in C.parallel_pairs() for q in coequalizers(C, p))

    return C._memo("regular_epis", compute)


def is_regular_epi(C: FinCategory, f: str) -> bool:
    return f in regular_epis(C)


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


def is_regular_category(C: FinCategory) -> Report:
    """Finite limits, coequalizers of kernel pairs, pullback-stable regular epis.

    Only the finite limits need a search, and on a thin C not even that:
    the down-sets of its objects decide the terminal object and products.
    Strict binary products are weak ones, so a C that has them is thin by
    (F).  In a thin C the kernel pair of f: X -> Y is (1_X, 1_X) up to iso,
    and 1_X coequalizes it.  A regular epi of a thin C coequalizes a pair
    (u, u), so it is an iso, and a pullback of an iso is an iso, hence a
    regular epi.  So every FAIL names a missing terminal object or binary
    product.
    """
    def compute():
        missing = _missing_finite_limit(C)
        if missing:
            return Report("regular-category", FAIL, [missing])
        return Report("regular-category", PASS, [])

    return C._memo("is_regular_category", compute)
