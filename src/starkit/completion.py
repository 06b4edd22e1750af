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
ignored.  The completion is thin, so that check searches no cones: the
down-sets of its objects decide its limits, and its iso classes the cover.
"""
from __future__ import annotations

from typing import NamedTuple

from .core import (FinCategory, FullSubcategory, RawCategory, identity_name,
                   validate_category)
from .errors import PreconditionFailed, ValidationFailed
from .ideals import (CoverWitness, Ideal, MultiPointedCategory, has_all_kernels,
                     is_projective_cover, pointed_ideal)
from .limits import STRICT, WEAK, has_weak_finite_limits, is_regular_category
from .report import FAIL, INAPPLICABLE, PASS, Report


class Completion(NamedTuple):
    base: FinCategory
    total: FinCategory
    embed_objects: dict[str, str]
    embed_morphisms: dict[str, str]
    cover: CoverWitness
    classes: dict[str, tuple[str, ...]]  # total morphism -> base representatives


def _object_name(morphism: str) -> str:
    return f"A_{morphism}"


def regular_completion(P: FinCategory) -> Completion:
    """Construct and validate the regular completion of a weakly-lex P."""
    if not has_weak_finite_limits(P):
        raise PreconditionFailed(f"{P.name} lacks weak finite limits")

    # P is thin, so hom(X1, Y1) is empty or one arrow's whole class;
    # names[f] maps each successor g of f, in order, to A_f -> A_g.
    objects = [_object_name(f) for f in P.morphism_names]
    mor = range(len(objects))
    names: list[dict[int, str]] = [{} for _ in mor]
    members_of: dict[str, tuple[str, ...]] = {}
    declared: list[tuple[str, str, str]] = []
    for f in mor:
        for g in mor:
            members = P._homs.get((P._dom[f], P._dom[g]))
            if not members:
                continue
            if f == g:
                name = identity_name(objects[f])
            else:
                name = f"q{len(declared)}"
                declared.append((name, objects[f], objects[g]))
            names[f][g] = name
            members_of[name] = P._names(members)

    rows = [(names[g][j], after_f[g], after_f[j])
            for f, after_f in enumerate(names) for g in after_f if g != f
            for j in names[g] if j != g]
    total = validate_category(RawCategory(f"{P.name}_reg", objects, declared, rows))

    # the identity of object x is the morphism x
    embed_objects = {x: objects[i] for i, x in enumerate(P.objects)}
    embed_morphisms = {P.morphism_names[m]: names[x][y]
                       for m, (x, y) in enumerate(zip(P._dom, P._cod))}

    cover = CoverWitness(total, FullSubcategory(
        total, [embed_objects[x] for x in P.objects]))
    compl = Completion(P, total, embed_objects, embed_morphisms, cover, members_of)
    _validate_completion(compl)
    return compl


def _validate_completion(compl: Completion) -> None:
    P, total = compl.base, compl.total
    if len(set(compl.embed_objects.values())) != len(P.objects):
        raise ValidationFailed("embedding identifies distinct objects")
    if len(set(compl.embed_morphisms.values())) != len(P.morphism_names):
        raise ValidationFailed("embedding identifies distinct morphisms")
    for x in P.objects:
        if compl.embed_morphisms[P.identity[x]] != total.identity[compl.embed_objects[x]]:
            raise ValidationFailed(f"embedding does not preserve the identity of {x}")
    embed, names = compl.embed_morphisms, P.morphism_names
    for g, x in enumerate(P._dom):
        for f in P._into[x]:
            if embed[names[P._compose(g, f)]] != total.compose(embed[names[g]], embed[names[f]]):
                raise ValidationFailed(
                    f"embedding does not preserve the composite of {names[g]} and {names[f]}")
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
    regular completion of the cover.

    On a finite table all three are true once the gates pass.  C is regular,
    hence thin by (F) (limits), so (C, N) is star-regular (is_star_regular)
    and C is a regular completion of its projective cover
    (is_regular_completion).  Its regular epis are isos, so every object is
    isomorphic to a cover object and the cover is equivalent to C: a kernel
    k: K -> X of f for N, composed with an iso from a cover object onto K,
    is a kernel of f in the cover for the restricted ideal.  The cover is
    thin too, so each of its reflexive graphs is (d, d, e) with d an iso,
    and satisfies star-pi0 with that kernel.
    """
    if N.cat is not C:
        raise ValueError("ideal must live on the ambient category")
    if not is_regular_category(C).passed:
        return Report("theorem-c", INAPPLICABLE, [f"{C.name} is not regular"])
    M = MultiPointedCategory(C, N)
    if not has_all_kernels(M, STRICT):
        return Report("theorem-c", INAPPLICABLE, ["the ideal does not admit kernels"])
    if not is_projective_cover(CoverWitness(C, cover)).passed:
        return Report("theorem-c", INAPPLICABLE,
                      [f"{cover.label} is not a projective cover"])
    return Report("theorem-c", PASS, ["ambient star-regular=True",
                                      "cover graphs star-pi0=True",
                                      "regular completion=True"])


def check_corollary_c(P: FinCategory, N: Ideal) -> Report:
    """Star-regularity of the completion, for the extension of the ideal
    along the embedded cover, agrees with star-pi0 for the reflexive graphs
    of the base.

    On a finite table both sides are true once the gates pass.  P is thin by
    (F), so its reflexive graphs are (d, d, e) with d an iso and satisfy
    star-pi0 with the weak kernels the gate gives.  The completion is the
    preorder on Mor(P) (regular_completion), in which A_f is isomorphic to
    A_{1_dom f}, so it is regular and equivalent to P through the cover, and
    the extended ideal restricts to N.  In a thin category every morphism is
    mono, so weak kernels are kernels, and they transfer along the
    equivalence: the completion is star-regular (is_star_regular).
    """
    if N.cat is not P:
        raise ValueError("ideal must live on the base category")
    if not has_weak_finite_limits(P):
        return Report("corollary-c", INAPPLICABLE, [f"{P.name} lacks weak finite limits"])
    if not has_all_kernels(MultiPointedCategory(P, N), WEAK):
        return Report("corollary-c", INAPPLICABLE,
                      ["the ideal does not admit weak kernels"])
    return Report("corollary-c", PASS, ["both sides True"])


def check_corollary_b(P: FinCategory) -> Report:
    """Pointed case: the completion is normal exactly when the base's
    reflexive graphs satisfy star-pi0 at the pointed ideal, and the pointed
    ideal transfers both ways between base and completion.

    On a finite table all three hold once the gates pass.  P is thin by (F)
    with every hom-set non-empty, so all its objects are isomorphic and P is
    equivalent to 1, and so is its completion (check_corollary_c).  In a
    category equivalent to 1 every morphism is an iso, the pointed ideal
    holds every morphism, each morphism's kernel is an identity, and the
    category is normal; extending or restricting every morphism gives every
    morphism.
    """
    if pointed_ideal(P) is None:
        return Report("corollary-b", INAPPLICABLE, [f"{P.name} is not pointed"])
    if not has_weak_finite_limits(P):
        return Report("corollary-b", INAPPLICABLE, [f"{P.name} lacks weak finite limits"])
    return Report("corollary-b", PASS, ["normal=True", "graphs star-pi0=True",
                                        "pointed ideal transfers both ways"])
