"""Stars of parallel pairs and the star-determines-components condition.

The star of a pair (f1, f2) is the pair (f1∘k, f2∘k) where k is a kernel of
f1 for the ambient ideal; a weak star uses a weak kernel.  The condition
checked throughout, written star-pi0, says that a test morphism g merges the
star's legs exactly when it merges the original pair's legs.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import (FinCategory, ParallelPair, enumerate_reflexive_graphs,
                   is_jointly_monic, require_parallel)
from .errors import NoKernel, NoKernelPair, StarkitError
from .ideals import MultiPointedCategory, kernels, pointed_ideal
from .limits import (STRICT, WEAK, coequalizer, coequalizes, is_coequalizer,
                     is_regular_category, kernel_pairs, regular_epis)
from .report import ERROR, FAIL, INAPPLICABLE, PASS, Report


@dataclass(frozen=True)
class StarWitness:
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
    for g in C.morphisms_from(C.cod(p.f1)):
        if coequalizes(C, g, witness.star) and not coequalizes(C, g, p):
            return Report("star-pi0", FAIL,
                          [f"pair=({p.f1}, {p.f2})", f"kernel={witness.k}",
                           f"violating morphism g={g}"])
    return Report("star-pi0", PASS, [])


def _pair_passes(M: MultiPointedCategory, p: ParallelPair) -> bool:
    r = satisfies_star_pi0(M, p)
    if r.verdict == INAPPLICABLE:
        raise NoKernel(f"star-pi0 not evaluable for ({p.f1}, {p.f2})")
    return r.passed


def _first_failing(M: MultiPointedCategory, labelled_pairs) -> str:
    """The label of the first (pair, label) whose pair fails star-pi0, or ""
    when every pair passes."""
    for p, label in labelled_pairs:
        if not _pair_passes(M, p):
            return label
    return ""


def reflexive_graphs_star_pi0(M: MultiPointedCategory) -> tuple[bool, str]:
    """Whether every reflexive graph satisfies star-pi0, with the first
    failing graph as witness.  Raises NoKernel if some graph is not
    evaluable; callers gate on kernel existence first."""
    witness = _first_failing(M, (
        (ParallelPair(g.d, g.c), f"graph ({g.d}, {g.c}, {g.e}) fails star-pi0")
        for g in enumerate_reflexive_graphs(M.cat)))
    return not witness, witness


def check_theorem_a(M: MultiPointedCategory) -> Report:
    """Agreement of the reflexive-graph conditions.

    Under the hypotheses (weak kernels and weak kernel pairs for every
    morphism) the following must have one common truth value: (a) every
    reflexive graph satisfies star-pi0, (b) every weak kernel pair does,
    (c) every reflexive relation does and (d) every strict kernel pair does.
    Disagreement is an implementation bug and is reported with the
    separating datum.

    Strict kernel pairs, which (c) and (d) presuppose, exist under these
    hypotheses.  (K) weak kernel pairs of every morphism make every morphism
    mono: were f∘a = f∘b with a != b in hom(Z, X), a weak kernel pair
    (W, p1, p2) of f would have a morphism from Z over each (c, c), (a, b)
    and (b, a), at least |hom(Z, X)| + 2, so p1 would merge two of them, and
    the same step on p1 gives hom-sets from Z without bound.  The kernel
    pair of a mono f: X -> Y is (1_X, 1_X): a cone (a, b) over (f, f) has
    a = b and factors through it by a alone.
    """
    C = M.cat
    for f in C.morphism_names:
        if not kernels(M, f, WEAK):
            return Report("theorem-a", INAPPLICABLE, [f"no weak kernel for {f}"])
    for f in C.morphism_names:
        if not kernel_pairs(C, f, WEAK):
            return Report("theorem-a", INAPPLICABLE, [f"no weak kernel pair for {f}"])

    graphs = enumerate_reflexive_graphs(C)
    failing = {
        "(a)": _first_failing(M, ((ParallelPair(g.d, g.c), f"graph ({g.d}, {g.c}, {g.e})")
                                  for g in graphs)),
        "(b)": _first_failing(M, ((p, f"weak kernel pair ({p.f1}, {p.f2}) of {f}")
                                  for f in C.morphism_names
                                  for p in kernel_pairs(C, f, WEAK))),
        "(c)": _first_failing(M, (
            (ParallelPair(g.d, g.c), f"reflexive relation ({g.d}, {g.c}, {g.e})")
            for g in graphs if is_jointly_monic(C, ParallelPair(g.d, g.c)))),
        "(d)": _first_failing(M, ((p, f"kernel pair ({p.f1}, {p.f2}) of {f}")
                                  for f in C.morphism_names
                                  for p in kernel_pairs(C, f, STRICT))),
    }

    if len({not w for w in failing.values()}) == 1:
        return Report("theorem-a", PASS, [f"{k}={not w}" for k, w in failing.items()])
    lines = [f"{k}={not w}" + (f" via {w}" if w else "") for k, w in failing.items()]
    return Report("theorem-a", FAIL, ["conditions disagree"] + lines)


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


def is_star_regular(M: MultiPointedCategory) -> Report:
    """A regular category whose ideal admits kernels, in which every regular
    epi is a coequalizer of its kernel star.

    The last clause is checked directly against the universal property and
    cross-checked against the all-reflexive-graphs star-pi0 criterion; a
    disagreement between the two is reported as ERROR, since it can only be
    an implementation bug.
    """
    C = M.cat
    rc = is_regular_category(C)
    if not rc.passed:
        return Report("star-regular", FAIL,
                      [f"ambient category not regular: {rc.witnesses[0]}"])
    for f in C.morphism_names:
        if not kernels(M, f, STRICT):
            return Report("star-regular", FAIL, [f"no kernel of {f} for the ideal"])

    failing: list[str] = []
    for f in sorted(regular_epis(C)):
        sw = kernel_star(M, f)
        if not coequalizes(C, f, sw.star):
            raise StarkitError(f"regular epi {f} does not coequalize its kernel star")
        if not is_coequalizer(C, f, sw.star):
            failing.append(f"regular epi {f} is not a coequalizer of its kernel star "
                           f"({sw.star.f1}, {sw.star.f2})")
            break
    clause_iii = not failing

    graphs_ok, _ = reflexive_graphs_star_pi0(M)

    if clause_iii != graphs_ok:
        return Report("star-regular", ERROR, [
            "cross-check disagreement: kernel-star clause is "
            f"{clause_iii} but reflexive-graph criterion is {graphs_ok}"])
    if failing:
        return Report("star-regular", FAIL, failing)
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
    star-pi0.  Both sides are evaluated independently and compared."""
    C = M.cat
    for f in C.morphism_names:
        if not kernels(M, f, WEAK):
            return Report("corollary-d", INAPPLICABLE, [f"no weak kernel for {f}"])
    for f in C.morphism_names:
        wkps = kernel_pairs(C, f, WEAK)
        if not wkps:
            return Report("corollary-d", INAPPLICABLE, [f"no weak kernel pair for {f}"])
        if coequalizer(C, wkps[0]) is None:
            return Report("corollary-d", INAPPLICABLE,
                          [f"weak kernel pair of {f} has no coequalizer"])

    lhs_wit = next((f"regular epi {f} coequalizes no weak kernel star"
                    for f in sorted(regular_epis(C))
                    if not any(is_coequalizer(C, f, _star(C, p, k))
                               for p in kernel_pairs(C, f, WEAK)
                               for k in kernels(M, p.f1, WEAK))), "")
    lhs = not lhs_wit
    rhs, rhs_wit = reflexive_graphs_star_pi0(M)

    if lhs == rhs:
        return Report("corollary-d", PASS, [f"both sides {lhs}"])
    return Report("corollary-d", FAIL, [
        "sides disagree", f"coequalizer side={lhs} {lhs_wit}".strip(),
        f"graph side={rhs} {rhs_wit}".strip()])
