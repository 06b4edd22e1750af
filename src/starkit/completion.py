"""Regular completion of a finite category with weak finite limits.

Objects of the completion are the morphisms of the base category; an arrow
from (f: X1 -> X0) to (g: Y1 -> Y0) is a class of morphisms h: X1 -> Y1
satisfying g∘h∘p1 = g∘h∘p2 for a weak kernel pair (p1, p2) of f, with h and
h' identified when g∘h = g∘h' (Carboni and Vitale, "Regular and exact
completions", JPAA 125, 1998).  A finite base with weak finite limits is thin
(limits, (F)), so every h satisfies the condition and forms a class of its
own: the completion is the preorder on the base's morphisms with f <= g iff
hom(X1, Y1) is non-empty.  The construction is validated after the fact
against the characterisation it must satisfy (regular ambient, embedded
projective cover, from which the monos into finite products of cover
objects follow); a failed check raises ValidationFailed and must never be
ignored.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import (FinCategory, FullSubcategory, RawCategory, identity_name,
                   validate_category)
from .errors import IdealClosureViolation, PreconditionFailed, ValidationFailed
from .ideals import (CoverWitness, Ideal, MultiPointedCategory, extend_ideal,
                     has_all_kernels, is_ideal, is_projective_cover,
                     pointed_ideal, restrict_ideal)
from .limits import STRICT, WEAK, has_weak_finite_limits, is_regular_category
from .report import ERROR, FAIL, INAPPLICABLE, PASS, Report
from .stars import is_normal_category, is_star_regular, reflexive_graphs_star_pi0


@dataclass
class Completion:
    base: FinCategory
    total: FinCategory
    embed_objects: dict[str, str]
    embed_morphisms: dict[str, str]
    cover: CoverWitness
    classes: dict[str, tuple[str, ...]]  # total morphism -> base representatives

    def transport_ideal(self, N: Ideal) -> Ideal:
        """An ideal of the base, carried along the embedding onto the cover."""
        if N.cat is not self.base:
            raise ValueError("ideal must live on the base category")
        sub = self.cover.cover.category
        carrier = frozenset(self.embed_morphisms[m] for m in N.carrier)
        if not is_ideal(sub, carrier):
            raise IdealClosureViolation(f"transport of {N.label()} to the cover is not closed")
        return Ideal(sub, carrier)


def _object_name(morphism: str) -> str:
    return f"A_{morphism}"


def regular_completion(P: FinCategory) -> Completion:
    """Construct and validate the regular completion of a weakly-lex P."""
    def compute():
        if not has_weak_finite_limits(P):
            raise PreconditionFailed(f"{P.name} lacks weak finite limits")

        # P is thin, so hom(X1, Y1) is empty or one arrow's whole class.
        names: dict[tuple[str, str], str] = {}
        members_of: dict[str, tuple[str, ...]] = {}
        declared: list[tuple[str, str, str]] = []
        for f in P.morphism_names:
            for g in P.morphism_names:
                members = P.hom(P.dom(f), P.dom(g))
                if not members:
                    continue
                if f == g:
                    name = identity_name(_object_name(f))
                else:
                    name = f"q{len(declared)}"
                    declared.append((name, _object_name(f), _object_name(g)))
                names[(f, g)] = name
                members_of[name] = members

        rows = [(names[(g, j)], names[(f, g)], names[(f, j)])
                for f in P.morphism_names for g in P.morphism_names
                if f != g and (f, g) in names
                for j in P.morphism_names if j != g and (g, j) in names]

        raw = RawCategory(f"{P.name}_reg",
                          [_object_name(f) for f in P.morphism_names],
                          declared, rows)
        total = validate_category(raw)

        embed_objects = {x: _object_name(P.identity[x]) for x in P.objects}
        embed_morphisms = {m: names[(P.identity[P.dom(m)], P.identity[P.cod(m)])]
                           for m in P.morphism_names}

        cover = CoverWitness(total, FullSubcategory(
            total, [embed_objects[x] for x in P.objects]))
        result = Completion(P, total, embed_objects, embed_morphisms, cover,
                            members_of)
        _validate_completion(result)
        return result

    return P._memo("regular_completion", compute)


def _validate_completion(compl: Completion) -> None:
    P, total = compl.base, compl.total
    if len(set(compl.embed_objects.values())) != len(P.objects):
        raise ValidationFailed("embedding identifies distinct objects")
    if len(set(compl.embed_morphisms.values())) != len(P.morphisms):
        raise ValidationFailed("embedding identifies distinct morphisms")
    for x in P.objects:
        if compl.embed_morphisms[P.identity[x]] != total.identity[compl.embed_objects[x]]:
            raise ValidationFailed(f"embedding does not preserve the identity of {x}")
    for g in P.morphism_names:
        for f in P.morphism_names:
            if not P.composable(g, f):
                continue
            lhs = compl.embed_morphisms[P.compose(g, f)]
            rhs = total.compose(compl.embed_morphisms[g], compl.embed_morphisms[f])
            if lhs != rhs:
                raise ValidationFailed(
                    f"embedding does not preserve the composite of {g} and {f}")
    rc = is_regular_completion(total, compl.cover.cover)
    if not rc.passed:
        raise ValidationFailed(f"completion fails its characterisation: {rc.witnesses[0]}")


def is_regular_completion(C: FinCategory, cover: FullSubcategory) -> Report:
    """Is C a regular completion of the given full subcategory: regular, with
    the subcategory a projective cover, and every object embedded by a mono
    into a finite product of cover objects?

    The last clause follows from the first two.  A regular C is thin by (F)
    (limits), so its regular epis are isos, and the cover gives each object x
    an iso p -> x from a cover object p.  Its inverse x -> p is a mono into
    the one-factor product p.
    """
    rc = is_regular_category(C)
    if not rc.passed:
        return Report("regular-completion", FAIL,
                      [f"not a regular category: {rc.witnesses[0]}"])
    pc = is_projective_cover(CoverWitness(C, cover))
    if not pc.passed:
        return Report("regular-completion", FAIL,
                      [f"not a projective cover: {pc.witnesses[0]}"])
    return Report("regular-completion", PASS, [])


def check_theorem_c(C: FinCategory, cover: FullSubcategory, N: Ideal) -> Report:
    """Star-regularity of the ambient pair forces the cover's reflexive
    graphs to satisfy star-pi0; the converse is asserted only when C is a
    regular completion of the cover.  A converse failure on a cover that is
    not a completion is a valid outcome, not an error."""
    if N.cat is not C:
        raise ValueError("ideal must live on the ambient category")
    if not is_regular_category(C).passed:
        return Report("theorem-c", INAPPLICABLE, [f"{C.name} is not regular"])
    M = MultiPointedCategory(C, N)
    if not has_all_kernels(M, STRICT):
        return Report("theorem-c", INAPPLICABLE, ["the ideal does not admit kernels"])
    W = CoverWitness(C, cover)
    if not is_projective_cover(W).passed:
        return Report("theorem-c", INAPPLICABLE,
                      [f"{cover.label} is not a projective cover"])

    left_report = is_star_regular(M)
    if left_report.verdict == ERROR:
        return Report("theorem-c", ERROR, left_report.witnesses)
    left = left_report.passed

    sub = cover.category
    MP = MultiPointedCategory(sub, restrict_ideal(W, N))
    right, right_wit = reflexive_graphs_star_pi0(MP)

    if left and not right:
        return Report("theorem-c", FAIL, [
            "ambient pair is star-regular but a cover graph fails star-pi0",
            right_wit])
    completion = is_regular_completion(C, cover).passed
    if completion and right and not left:
        return Report("theorem-c", FAIL, [
            "cover graphs satisfy star-pi0 on a regular completion "
            "but the ambient pair is not star-regular"] + left_report.witnesses)
    return Report("theorem-c", PASS, [f"ambient star-regular={left}",
                                      f"cover graphs star-pi0={right}",
                                      f"regular completion={completion}"])


def check_corollary_c(P: FinCategory, N: Ideal) -> Report:
    """Build the completion, extend the ideal along the embedded cover, and
    compare star-regularity up there with star-pi0 for reflexive graphs down
    in the base."""
    if N.cat is not P:
        raise ValueError("ideal must live on the base category")
    if not has_weak_finite_limits(P):
        return Report("corollary-c", INAPPLICABLE, [f"{P.name} lacks weak finite limits"])
    M = MultiPointedCategory(P, N)
    if not has_all_kernels(M, WEAK):
        return Report("corollary-c", INAPPLICABLE,
                      ["the ideal does not admit weak kernels"])

    compl = regular_completion(P)
    extended = extend_ideal(compl.cover, compl.transport_ideal(N))
    left_report = is_star_regular(MultiPointedCategory(compl.total, extended))
    if left_report.verdict == ERROR:
        return Report("corollary-c", ERROR, left_report.witnesses)
    left = left_report.passed
    right, right_wit = reflexive_graphs_star_pi0(M)

    if left == right:
        return Report("corollary-c", PASS, [f"both sides {left}"])
    lines = ["sides disagree", f"completion star-regular={left}",
             f"base graphs star-pi0={right}"]
    if right_wit:
        lines.append(right_wit)
    lines.extend(left_report.witnesses)
    return Report("corollary-c", FAIL, lines)


def check_corollary_b(P: FinCategory) -> Report:
    """Pointed case: the completion is normal exactly when the base's
    reflexive graphs satisfy star-pi0 at the pointed ideal, and the pointed
    ideal transfers both ways between base and completion."""
    N = pointed_ideal(P)
    if N is None:
        return Report("corollary-b", INAPPLICABLE, [f"{P.name} is not pointed"])
    if not has_weak_finite_limits(P):
        return Report("corollary-b", INAPPLICABLE, [f"{P.name} lacks weak finite limits"])

    compl = regular_completion(P)
    failures: list[str] = []

    normal_report = is_normal_category(compl.total)
    if normal_report.verdict == ERROR:
        return Report("corollary-b", ERROR, normal_report.witnesses)
    right, right_wit = reflexive_graphs_star_pi0(MultiPointedCategory(P, N))
    if normal_report.verdict == INAPPLICABLE:
        failures.append("completion is not pointed")
    elif normal_report.passed != right:
        failures.append(f"completion normal={normal_report.passed} but base graphs "
                        f"star-pi0={right}" + (f" ({right_wit})" if right_wit else ""))

    M_total = pointed_ideal(compl.total)
    if M_total is not None:
        transported = compl.transport_ideal(N)
        if extend_ideal(compl.cover, transported).carrier != M_total.carrier:
            failures.append("extension of the base pointed ideal is not the "
                            "completion's pointed ideal")
        if restrict_ideal(compl.cover, M_total).carrier != transported.carrier:
            failures.append("restriction of the completion's pointed ideal is not "
                            "the base pointed ideal")

    if failures:
        return Report("corollary-b", FAIL, failures)
    return Report("corollary-b", PASS, [f"normal={normal_report.passed}",
                                        f"graphs star-pi0={right}",
                                        "pointed ideal transfers both ways"])
