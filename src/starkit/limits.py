"""Weak and strict finite limits, coequalizers, regular epis, regularity.

Universal properties are decided by counting, by one argument for limits,
coequalizers and ideal kernels (ideals.kernels) alike.

Limits.  The cones S over a shape are closed under precomposition: a cone c
at apex w and a morphism u: v -> w give the cone c∘u at v.  So the sieve of
c, the cones c∘u over all u into w, lies inside S, and c is a weak limit,
every cone being some c∘u, iff its sieve has |S| members.  It is a strict
limit, each cone being c∘u for exactly one u, iff moreover u -> c∘u is
injective, i.e. iff exactly |S| morphisms go into w.  The sieve of a cone
with legs is its set of leg tuples (l∘u, ...), read off the legs' rows; a
cone with no legs is its apex, so its sieve is the set of domains of the u.

A shape is a pair of functions of an apex w: cones_at(w) lists the legs of
the cones at w in hom order, and count_at(w) counts them, without listing
them where the shape allows.  _limit_cones sums the counts to |S| and lists
cones only at apexes with at least |S| (weak) or exactly |S| (strict)
morphisms into them.  The shapes are the terminal object (one empty cone
per apex), the binary product and the pullback; a kernel pair is the
pullback of (f, f).  The equalizer shape (the k into dom f1 on which the
rows of f1 and f2 agree, the dual of coequalizers), which no check needs,
is a test oracle in tests/helpers.py.  No general diagram engine is
needed: every finite limit is an equalizer of two maps into a product
(Mac Lane, CWM V.2, Thm. 1), and regularity and star-regularity ask only
for these shapes.

Coequalizers.  Dually, the morphisms Q = {q : q∘f1 = q∘f2} out of cod f1
are closed under postcomposition, so q in Q is a coequalizer, each member
of Q being u∘q for exactly one u, iff u -> u∘q maps the morphisms out of
cod q one-to-one onto Q: iff q is epi (core.is_epi) and exactly |Q|
morphisms go out of cod q.

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

from typing import NamedTuple

from .core import FinCategory, ParallelPair, is_epi, require_parallel
from .report import FAIL, PASS, Report

WEAK = "weak"
STRICT = "strict"


class Cone(NamedTuple):
    apex: str
    legs: tuple[str, ...]  # one per leg of the shape, in its order


def _check_mode(mode: str) -> None:
    if mode not in (WEAK, STRICT):
        raise ValueError(f"mode must be {WEAK!r} or {STRICT!r}, got {mode!r}")


def _ints(C: FinCategory, table: dict[str, int], names, kind: str) -> list[int]:
    """The ints of names in C's table of objects or morphisms."""
    for n in names:
        if n not in table:
            raise ValueError(f"{n} is not {kind} of {C.name}")
    return [table[n] for n in names]


def _limit_cones(C: FinCategory, mode: str, shape) -> list[Cone]:
    """The (weak) limit cones of a shape (cones_at, count_at), in apex
    order, then hom order, by the counting rule of the module docstring."""
    _check_mode(mode)
    cones_at, count_at = shape
    apexes = range(len(C.objects))
    size = sum(map(count_at, apexes))
    rows, dom = C._rows, C._dom
    strict = mode == STRICT
    out = []
    for w in apexes:
        into = C._into[w]
        if not size or len(into) < size or (strict and len(into) != size):
            continue
        for legs in cones_at(w):
            if legs:
                n = len(set(zip(*[rows[m] for m in legs])))
            else:  # the cone is its apex, so c∘u is dom u
                n = len({dom[u] for u in into})
            if n == size:
                out.append(Cone(C.objects[w], C._names(legs)))
    return out


# the terminal shape: one empty cone per apex
_TERMINAL_SHAPE = (lambda w: [()]), (lambda w: 1)


def _product_shape(C: FinCategory, x: str, y: str):
    """The pairs of hom(w, x) x hom(w, y), |hom(w, x)|·|hom(w, y)| of them."""
    homs, (x, y) = C._homs, _ints(C, C._obj, (x, y), "an object")
    return (lambda w: [(a, b) for a in homs.get((w, x), ()) for b in homs.get((w, y), ())],
            lambda w: len(homs.get((w, x), ())) * len(homs.get((w, y), ())))


def _pullback_shape(C: FinCategory, f: str, g: str):
    """The cospan f: X -> Z <- Y :g.  At w, the b in hom(w, Y) are grouped
    by g∘b, and each a in hom(w, X) is joined with the group of f∘a, in hom
    order."""
    f, g = _ints(C, C._index, (f, g), "a morphism")
    if C._cod[f] != C._cod[g]:
        raise ValueError(f"({C.morphism_names[f]}, {C.morphism_names[g]}) is not a cospan")
    homs, pos, rf, rg, x, y = C._homs, C._pos, C._rows[f], C._rows[g], C._dom[f], C._dom[g]

    def joined(w: int) -> list[list[int]]:
        fibre: dict[int, list[int]] = {}
        for b in homs.get((w, y), ()):
            fibre.setdefault(rg[pos[b]], []).append(b)
        return [fibre.get(rf[pos[a]], []) for a in homs.get((w, x), ())]
    return (lambda w: [(a, b) for a, bs in zip(homs.get((w, x), ()), joined(w)) for b in bs],
            lambda w: sum(map(len, joined(w))))


def terminal_cones(C: FinCategory, mode: str) -> list[Cone]:
    """Terminal cones: one empty cone per apex, so |S| is the number of
    objects."""
    def compute():
        return _limit_cones(C, mode, _TERMINAL_SHAPE)
    return C._memo(("terminal", mode), compute)


def product_cones(C: FinCategory, x: str, y: str, mode: str) -> list[Cone]:
    """Binary product cones, legs to x and y."""
    def compute():
        return _limit_cones(C, mode, _product_shape(C, x, y))
    return C._memo(("product", x, y, mode), compute)


def pullback_cones(C: FinCategory, f: str, g: str, mode: str) -> list[Cone]:
    """Pullback cones of the cospan f: X -> Z <- Y :g, legs to X and Y."""
    def compute():
        return _limit_cones(C, mode, _pullback_shape(C, f, g))
    return C._memo(("pullback", f, g, mode), compute)


def kernel_pairs(C: FinCategory, f: str, mode: str) -> list[ParallelPair]:
    return [ParallelPair(*cone.legs) for cone in pullback_cones(C, f, f, mode)]


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
