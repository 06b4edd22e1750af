"""Each universal construction against the definition it replaces, over every
category with at most 5 morphisms (and one more for kernel pairs): kernel
pairs read off pullbacks against the dedicated kernel-pair diagram, and ideal
kernels read off the shared universality filter against their inline
definition."""
from __future__ import annotations

from starkit import (STRICT, WEAK, MultiPointedCategory, ParallelPair,
                     enumerate_ideals, kernel_pairs, kernels)
from starkit.corpus import enumerate_categories, parse
from starkit.limits import _limit_cones

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


def test_kernel_pairs_match_the_kernel_pair_diagram():
    square = parse(KERNEL_PAIR_SQUARE).category("KP")
    compared = 0
    for C in [*enumerate_categories(SMALL), square]:
        for f in C.morphism_names:
            x, y = C.dom(f), C.cod(f)
            for mode in (WEAK, STRICT):
                cones = _limit_cones(C, [("p1", x), ("m", y), ("p2", x)],
                                     [("p1", "m", f), ("p2", "m", f)], mode)
                expected = [ParallelPair(c.leg("p1"), c.leg("p2")) for c in cones]
                assert kernel_pairs(C, f, mode) == expected, (C.to_raw(), f, mode)
                compared += 1
    assert compared == 3810 + 2 * len(square.morphisms)
    assert kernel_pairs(square, "f", STRICT) == [ParallelPair("p1", "p2"),
                                                 ParallelPair("p2", "p1")]


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
