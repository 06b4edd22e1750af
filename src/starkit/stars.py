"""Stars of parallel pairs and the star-determines-components condition.

The star of a pair (f1, f2) is the pair (f1∘k, f2∘k) where k is a kernel of
f1 for the ambient ideal; a weak star uses a weak kernel.  The condition
checked throughout, written star-pi0, says that a test morphism g merges the
star's legs exactly when it merges the original pair's legs.
"""
from __future__ import annotations

from typing import NamedTuple

from .core import FinCategory, ParallelPair, _morphism, is_mono, require_parallel
from .ideals import (MultiPointedCategory, _first_without_kernel, kernels,
                     pointed_ideal)
from .limits import STRICT, WEAK, coequalizer, is_regular_category, kernel_pairs
from .report import FAIL, INAPPLICABLE, PASS, Report


class StarWitness(NamedTuple):
    pair: ParallelPair
    k: str
    star: ParallelPair


def _star(C: FinCategory, p: ParallelPair, k: str) -> ParallelPair:
    """The pair (f1∘k, f2∘k)."""
    return ParallelPair(C.compose(p.f1, k), C.compose(p.f2, k))


def star_of(M: MultiPointedCategory, p: ParallelPair, mode: str) -> list[StarWitness]:
    """One witness per (weak) kernel of f1; empty if f1 has no such kernel."""
    C = M.cat
    require_parallel(C, p)
    return [StarWitness(p, k, _star(C, p, k)) for k in kernels(M, p.f1, mode)]


def satisfies_star_pi0(M: MultiPointedCategory, p: ParallelPair,
                       witness: StarWitness | None = None) -> Report:
    """Does the star of p determine the merging behaviour of p itself?

    Evaluated on one weak star (the first found, or the given witness); any
    two weak stars give the same verdict, which the test suite asserts.  When
    f1 has no weak kernel the condition is not evaluable and the verdict is
    INAPPLICABLE, never a silent pass or fail.
    """
    C = M.cat
    require_parallel(C, p)
    if witness is None:
        stars = star_of(M, p, WEAK)
        if not stars:
            return Report("star-pi0", INAPPLICABLE, [f"no weak kernel of {p.f1}"])
        witness = stars[0]
    f1, f2, s1, s2 = (C._pos[_morphism(C, m)]
                      for m in (p.f1, p.f2, witness.star.f1, witness.star.f2))
    for g in C._out[C._cod[C._index[p.f1]]]:
        row = C._rows[g]
        if row[s1] == row[s2] and row[f1] != row[f2]:
            return Report("star-pi0", FAIL,
                          [f"pair=({p.f1}, {p.f2})", f"kernel={witness.k}",
                           f"violating morphism g={C.morphism_names[g]}"])
    return Report("star-pi0", PASS, [])


def check_theorem_a(M: MultiPointedCategory) -> Report:
    """Agreement of the reflexive-graph conditions.

    Under the hypotheses (weak kernels and weak kernel pairs for every
    morphism) the following have one common truth value: (a) every
    reflexive graph satisfies star-pi0, (b) every weak kernel pair does,
    (c) every reflexive relation does and (d) every strict kernel pair does.
    On a finite table all four are true once the hypotheses hold.

    (K) weak kernel pairs of every morphism make every morphism mono: were
    f∘a = f∘b with a != b in hom(Z, X), a weak kernel pair (W, p1, p2) of f
    would have a morphism from Z over each (c, c), (a, b) and (b, a), at
    least |hom(Z, X)| + 2, so p1 would merge two of them, and the same step
    on p1 gives hom-sets from Z without bound.  The kernel pair of a mono
    f: X -> Y is (1_X, 1_X): a cone (a, b) over (f, f) has a = b and factors
    through it by a alone.  So the second gate asks only the morphisms that
    are not mono, with the same first witness.

    After the gates every morphism has a weak kernel pair, hence is mono.
    So a reflexive graph (d, c, e) has d∘e∘d = d, so e∘d = 1, d is an iso
    and c = c∘e∘d = d; and a kernel pair (p1, p2) of f has f∘p1 = f∘p2, so
    p1 = p2.  A pair (x, x) satisfies star-pi0 once x
    has a weak kernel, which the first gate ensures.
    """
    f = _first_without_kernel(M, WEAK)
    if f is not None:
        return Report("theorem-a", INAPPLICABLE, [f"no weak kernel for {f}"])
    missing_pair, _ = _kernel_pair_gates(M.cat)
    if missing_pair is not None:
        return Report("theorem-a", INAPPLICABLE, [missing_pair])
    return Report("theorem-a", PASS, ["(a)=True", "(b)=True", "(c)=True", "(d)=True"])


def _kernel_pair_gates(C: FinCategory) -> tuple[str | None, str | None]:
    """The second gates of Theorem A and Corollary D, which do not depend on
    the ideal, as witness lines, None where they pass: the first morphism
    without a weak kernel pair, and the first that has none or whose first
    weak kernel pair has no coequalizer.  A mono has the weak kernel pair
    (1, 1), which 1 coequalizes, so only the other morphisms are asked.  One
    pass and one memo entry per category serve both."""
    def compute():
        no_coequalizer = None
        for f in C.morphism_names:
            if is_mono(C, f):
                continue
            wkps = kernel_pairs(C, f, WEAK)
            if not wkps:
                line = f"no weak kernel pair for {f}"
                return line, (line if no_coequalizer is None else no_coequalizer)
            if no_coequalizer is None and coequalizer(C, wkps[0]) is None:
                no_coequalizer = f"weak kernel pair of {f} has no coequalizer"
        return None, no_coequalizer

    return C._memo("kernel_pair_gates", compute)


def is_star_regular(M: MultiPointedCategory) -> Report:
    """A regular category whose ideal admits kernels, in which every regular
    epi is a coequalizer of its kernel star.

    The last clause holds on every finite table.  A regular C is thin by
    (F) (limits), so every parallel pair has equal legs and its regular
    epis are isos, and an iso coequalizes every pair (x, x), its kernel star
    among them.  Likewise every reflexive graph is (d, d, e) with d an iso,
    which satisfies star-pi0 with the kernel of d.
    """
    C = M.cat
    rc = is_regular_category(C)
    if not rc.passed:
        return Report("star-regular", FAIL,
                      [f"ambient category not regular: {rc.witnesses[0]}"])
    f = _first_without_kernel(M, STRICT)
    if f is not None:
        return Report("star-regular", FAIL, [f"no kernel of {f} for the ideal"])
    return Report("star-regular", PASS, [])


def is_normal_category(C: FinCategory) -> Report:
    """Star-regularity at the pointed ideal.  A category without a pointed
    ideal is reported INAPPLICABLE, not failed."""
    N = pointed_ideal(C)
    if N is None:
        return Report("normal", INAPPLICABLE, [f"{C.name} is not pointed"])
    inner = is_star_regular(MultiPointedCategory(C, N))
    return Report("normal", inner.verdict, inner.witnesses)


def check_corollary_d(M: MultiPointedCategory) -> Report:
    """In the presence of weak kernel pairs, weak kernels and coequalizers of
    weak kernel pairs: every regular epi is a coequalizer of a weak star of
    one of its weak kernel pairs exactly when every reflexive graph satisfies
    star-pi0.

    A mono has the weak kernel pair (1, 1), and each of its weak kernel
    pairs is some (p, p), which 1 coequalizes, so the gates ask only the
    morphisms that are not mono.  Once they pass, every
    morphism is mono by (K) (see check_theorem_a) and both sides are true:
    the graphs as in Theorem A, and a regular epi that is mono is an iso,
    which coequalizes the star (x∘k, x∘k) of its weak kernel pair (x, x).
    """
    f = _first_without_kernel(M, WEAK)
    if f is not None:
        return Report("corollary-d", INAPPLICABLE, [f"no weak kernel for {f}"])
    _, missing = _kernel_pair_gates(M.cat)
    if missing is not None:
        return Report("corollary-d", INAPPLICABLE, [missing])
    return Report("corollary-d", PASS, ["both sides True"])
