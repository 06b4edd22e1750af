"""Each universal construction against the definition it replaces, over every
category with at most 5 morphisms (and one more for kernel pairs): kernel
pairs, pullbacks and equalizers, whose searches leave out the legs the other
legs determine, against an inline search of the node-and-edge definition that
searches every leg, and ideal kernels read off the shared universality filter
against their inline definition."""
from __future__ import annotations

import itertools

from starkit import (STRICT, WEAK, MultiPointedCategory, ParallelPair,
                     enumerate_ideals, equalizer_cones, kernel_pairs, kernels,
                     pullback_cones)
from starkit.corpus import enumerate_categories, parse

SMALL = 5

# Every kernel pair of a category with at most 6 morphisms has equal legs, so
# a swap of the legs would go unseen there.  In this category the kernel
# pairs of f: X -> Y are (p1, p2) and (p2, p1), with apex K and diagonal d.
# The four endomorphisms of K act on (p1, p2) as the identity, the swap s and
# the two constants d1 = d p1 and d2 = d p2.
KERNEL_PAIR_SQUARE = """
category KP
objects K X Y
mor s : K -> K
mor d1 : K -> K
mor d2 : K -> K
mor p1 : K -> X
mor p2 : K -> X
mor d : X -> K
mor f : X -> Y
mor g : K -> Y
comp s s = 1_K
comp s d1 = d1
comp s d2 = d2
comp s d = d
comp d1 s = d2
comp d1 d1 = d1
comp d1 d2 = d2
comp d1 d = d
comp d2 s = d1
comp d2 d1 = d1
comp d2 d2 = d2
comp d2 d = d
comp p1 s = p2
comp p1 d1 = p1
comp p1 d2 = p2
comp p1 d = 1_X
comp p2 s = p1
comp p2 d1 = p1
comp p2 d2 = p2
comp p2 d = 1_X
comp d p1 = d1
comp d p2 = d2
comp f p1 = g
comp f p2 = g
comp g s = g
comp g d1 = g
comp g d2 = g
comp g d = f
end
"""


def _inline_limit(C, nodes: list[str], edges: list[tuple[int, str, int]],
                  mode: str) -> list[tuple[str, tuple[str, ...]]]:
    """(apex, legs) of every limit cone: one leg per node, each searched on its
    own, with an edge (s, m, t) meaning m∘legs[s] == legs[t], and a cone kept
    when every cone factors through it on every leg (exactly once in strict
    mode)."""
    cones = [(apex, legs) for apex in C.objects
             for legs in itertools.product(*(C.hom(apex, x) for x in nodes))
             if all(C.compose(m, legs[s]) == legs[t] for s, m, t in edges)]

    def through(cand) -> bool:
        for apex, legs in cones:
            n = sum(1 for u in C.hom(apex, cand[0])
                    if all(C.compose(d, u) == leg for d, leg in zip(cand[1], legs)))
            if n < 1 or (mode == STRICT and n != 1):
                return False
        return True

    return [c for c in cones if through(c)]


def oracle_pullback(C, f: str, g: str, mode: str) -> list[tuple[str, tuple[str, ...]]]:
    """Pullback cones of f: X -> Z <- Y :g on the nodes X, Z, Y, legs to X and Y."""
    cones = _inline_limit(C, [C.dom(f), C.cod(f), C.dom(g)], [(0, f, 1), (2, g, 1)], mode)
    return [(apex, (l, r)) for apex, (l, _, r) in cones]


def oracle_equalizer(C, p: ParallelPair, mode: str) -> list[tuple[str, tuple[str, ...]]]:
    """Equalizer cones of (f1, f2) on the nodes dom and cod, leg to dom."""
    cones = _inline_limit(C, [C.dom(p.f1), C.cod(p.f1)], [(0, p.f1, 1), (0, p.f2, 1)], mode)
    return [(apex, (e,)) for apex, (e, _) in cones]


def _pairs(cones) -> list[tuple[str, tuple[str, ...]]]:
    return [(c.apex, c.legs) for c in cones]


def _categories():
    return [*enumerate_categories(SMALL), parse(KERNEL_PAIR_SQUARE).category("KP")]


def test_kernel_pairs_match_the_kernel_pair_diagram():
    compared = 0
    for C in _categories():
        for f in C.morphism_names:
            for mode in (WEAK, STRICT):
                expected = [ParallelPair(*legs) for _, legs in oracle_pullback(C, f, f, mode)]
                assert kernel_pairs(C, f, mode) == expected, (C.to_raw(), f, mode)
                compared += 1
    assert compared == 3810 + 2 * 11
    square = parse(KERNEL_PAIR_SQUARE).category("KP")
    assert kernel_pairs(square, "f", STRICT) == [ParallelPair("p1", "p2"),
                                                 ParallelPair("p2", "p1")]


def test_pullbacks_match_the_cospan_diagram():
    compared = 0
    for C in _categories():
        for f in C.morphism_names:
            for g in C.morphisms_to(C.cod(f)):
                for mode in (WEAK, STRICT):
                    assert _pairs(pullback_cones(C, f, g, mode)) == \
                        oracle_pullback(C, f, g, mode), (C.to_raw(), f, g, mode)
                    compared += 1
    assert compared == 15964


def test_equalizers_match_the_parallel_pair_diagram():
    compared = 0
    for C in _categories():
        for p in C.parallel_pairs():
            for mode in (WEAK, STRICT):
                assert _pairs(equalizer_cones(C, p, mode)) == oracle_equalizer(C, p, mode), \
                    (C.to_raw(), p, mode)
                compared += 1
    assert compared == 15544


def _inline_kernels(M: MultiPointedCategory, f: str, mode: str) -> list[str]:
    C = M.cat
    candidates = [k for k in C.morphisms_to(C.dom(f)) if C.compose(f, k) in M.ideal]

    def through(k: str) -> bool:
        for other in candidates:
            n = sum(1 for u in C.hom(C.dom(other), C.dom(k)) if C.compose(k, u) == other)
            if n < 1 or (mode == STRICT and n != 1):
                return False
        return True

    return [k for k in candidates if through(k)]


def test_kernels_match_their_inline_definition():
    compared = 0
    for C in enumerate_categories(SMALL):
        for N in enumerate_ideals(C):
            M = MultiPointedCategory(C, N)
            for f in C.morphism_names:
                for mode in (WEAK, STRICT):
                    assert kernels(M, f, mode) == _inline_kernels(M, f, mode), \
                        (C.to_raw(), N.members(), f, mode)
                    compared += 1
    assert compared == 23850
