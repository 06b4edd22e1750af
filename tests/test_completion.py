from __future__ import annotations

import pytest

from starkit import (Ideal, PreconditionFailed, ValidationFailed, WEAK,
                     check_corollary_b, check_corollary_c, check_theorem_c,
                     full_subcategory, has_weak_finite_limits, is_projective_cover,
                     is_regular_category, is_regular_completion, kernel_pairs,
                     pointed_ideal, regular_completion, validate_category)
from starkit.completion import _preorder
from starkit.core import identity_name
from starkit.corpus import enumerate_categories
from tests.helpers import are_equivalent


def test_completion_of_one(one):
    compl = regular_completion(one)
    assert len(compl.total.objects) == 1
    assert len(compl.total.morphisms) == 1
    assert are_equivalent(compl.total, one)


def test_completion_of_arrow(arrow):
    # worked out by hand: three objects, one for each morphism of the base;
    # the object for f is isomorphic to the one for 1_A, giving 7 morphisms
    compl = regular_completion(arrow)
    assert len(compl.total.objects) == 3
    assert len(compl.total.morphisms) == 7
    assert are_equivalent(compl.total, arrow)
    assert compl.total.hom(compl.embed_objects["B"], compl.embed_objects["A"]) == ()


def test_completion_of_chain3(chain3):
    # worked out by hand: homs of the completion mirror homs between the
    # domains of the base arrows, 6 objects and 25 morphisms in all
    compl = regular_completion(chain3)
    assert len(compl.total.objects) == 6
    assert len(compl.total.morphisms) == 25
    assert are_equivalent(compl.total, chain3)


def test_completion_validates(chain3):
    compl = regular_completion(chain3)
    assert is_regular_category(compl.total).passed
    assert is_projective_cover(compl.cover).passed
    assert is_regular_completion(compl.total, compl.cover.cover).passed


def test_completion_requires_weak_finite_limits(ptset2):
    with pytest.raises(PreconditionFailed):
        regular_completion(ptset2)


def test_embedding_is_functorial_and_injective(chain3):
    compl = regular_completion(chain3)
    total, base = compl.total, compl.base
    assert len(set(compl.embed_morphisms.values())) == len(base.morphisms)
    for g in base.morphism_names:
        for f in base.morphism_names:
            if base.composable(g, f):
                assert compl.embed_morphisms[base.compose(g, f)] == \
                    total.compose(compl.embed_morphisms[g], compl.embed_morphisms[f])


def test_raw_arrow_condition_independent_of_weak_kernel_pair():
    # the defining condition for arrows of the completion gives the same
    # answer for every weak kernel pair of the source arrow
    for C in enumerate_categories(4):
        if not has_weak_finite_limits(C):
            continue
        for f in C.morphism_names:
            pairs = kernel_pairs(C, f, WEAK)
            for g in C.morphism_names:
                for h in C.hom(C.dom(f), C.dom(g)):
                    gh = C.compose(g, h)
                    answers = {C.compose(gh, p.f1) == C.compose(gh, p.f2)
                               for p in pairs}
                    assert len(answers) == 1


def test_hom_class_composition_is_representative_independent(chain3, arrow):
    # the hom equivalence is a congruence: composing any representatives of
    # two composable classes lands in the class of the composite
    for P in (chain3, arrow):
        compl = regular_completion(P)
        total = compl.total
        for c1 in total.morphism_names:
            for c2 in total.morphism_names:
                if not total.composable(c2, c1):
                    continue
                composite_members = set(compl.classes[total.compose(c2, c1)])
                for h1 in compl.classes[c1]:
                    for h2 in compl.classes[c2]:
                        assert P.compose(h2, h1) in composite_members


def _general_completion(P):
    """The Carboni-Vitale construction for any weakly lex P: an arrow from
    (f: X1 -> X0) to (g: Y1 -> Y0) is a class of h: X1 -> Y1 with
    g∘h∘p1 = g∘h∘p2 for the first weak kernel pair (p1, p2) of f, h and h'
    in one class when g∘h = g∘h'.  Returns the objects, declared morphisms,
    set of composition rows, embeddings and classes that regular_completion
    names in the same way."""
    def obj(f):
        return f"A_{f}"

    # classes[(f, g)]: (key g∘h, members) in order of first member
    classes = {}
    for f in P.morphism_names:
        p = kernel_pairs(P, f, WEAK)[0]
        for g in P.morphism_names:
            bucket = {}
            for h in P.hom(P.dom(f), P.dom(g)):
                gh = P.compose(g, h)
                if P.compose(gh, p.f1) == P.compose(gh, p.f2):
                    bucket.setdefault(gh, []).append(h)
            classes[(f, g)] = list(bucket.items())

    names, members_of, declared = {}, {}, []
    for (f, g), bucket in classes.items():
        for key, members in bucket:
            if f == g and P.identity[P.dom(f)] in members:
                name = identity_name(obj(f))
            else:
                name = f"q{len(declared)}"
                declared.append((name, obj(f), obj(g)))
            names[(f, g, key)] = name
            members_of[name] = tuple(members)

    rows = set()
    for (f, g), bucket in classes.items():
        for key1, members1 in bucket:
            c1 = names[(f, g, key1)]
            for j in P.morphism_names:
                for key2, members2 in classes[(g, j)]:
                    c2 = names[(g, j, key2)]
                    if c1.startswith("1_") or c2.startswith("1_"):
                        continue
                    composite = P.compose(j, P.compose(members2[0], members1[0]))
                    rows.add((c2, c1, names[(f, j, composite)]))

    embed_objects = {x: obj(P.identity[x]) for x in P.objects}
    embed_morphisms = {m: names[(P.identity[P.dom(m)], P.identity[P.cod(m)],
                                 P.compose(P.identity[P.cod(m)], m))]
                       for m in P.morphism_names}
    return ([obj(f) for f in P.morphism_names], declared, rows,
            embed_objects, embed_morphisms, members_of)


def _non_associative_triples(C) -> int:
    """The associativity loop that validate_category skips on thin tables:
    how many composable triples have two different bracketings."""
    return sum(1 for a in C.morphism_names for b in C.morphisms_to(C.dom(a))
               for c in C.morphisms_to(C.dom(b))
               if C.compose(C.compose(a, b), c) != C.compose(a, C.compose(b, c)))


def test_completion_matches_the_general_construction(arrow, chain3):
    # every weakly lex category with at most 5 morphisms, then Arrow
    # 3 -> 7 -> 43 and Chain3 6 -> 25 -> 493; each completion is thin, so
    # its table is built without validate_category, which must accept it
    # and fill the same cells
    bases = [C for C in enumerate_categories(5) if has_weak_finite_limits(C)]
    sizes = []
    for P in [*bases, arrow, regular_completion(arrow).total, chain3,
              regular_completion(chain3).total]:
        compl = regular_completion(P)
        raw = compl.total.to_raw()
        assert (list(raw.objects), list(raw.morphisms), set(raw.compositions),
                compl.embed_objects, compl.embed_morphisms, compl.classes) == \
            _general_completion(P), P.to_raw()
        C = compl.total
        again = validate_category(raw)
        assert (again.morphism_names, again._dom, again._cod, again._rows) == \
            (C.morphism_names, C._dom, C._cod, C._rows), P.to_raw()
        assert all(len(C.hom(x, y)) <= 1 for x in C.objects for y in C.objects)
        assert _non_associative_triples(C) == 0, P.to_raw()
        sizes.append((len(P.morphisms), len(C.morphisms)))
    assert sizes[len(bases):] == [(3, 7), (7, 43), (6, 25), (25, 493)]
    assert len(bases) == 3


@pytest.mark.parametrize("arrows, message", [
    ([(0, 1), (0, 1)], "^T repeats a morphism name or a hom-set member$"),
    ([(1, 1)], "^T repeats a morphism name or a hom-set member$"),
    ([(0, 1), (1, 2)], "^T has no morphism a -> c$"),
    ([(0, 1), (1, 2), (2, 0), (0, 2), (1, 0)], "^T has no morphism c -> b$"),
], ids=["parallel", "endomorphism", "not transitive", "cycle"])
def test_preorder_builder_refuses_what_is_not_a_preorder(arrows, message):
    with pytest.raises(ValidationFailed, match=message):
        _preorder("T", ["a", "b", "c"], arrows)


def test_preorder_builder_accepts_a_transitive_relation():
    C = _preorder("T", ["a", "b", "c"], [(0, 1), (1, 2), (0, 2)])
    assert C.morphism_names == ("1_a", "1_b", "1_c", "q0", "q1", "q2")
    assert C.compose("q1", "q0") == "q2" and C.compose("q2", "1_a") == "q2"
    assert validate_category(C.to_raw())._rows == C._rows


def test_is_regular_completion_negative(ptset2):
    rep = is_regular_completion(ptset2, full_subcategory(ptset2, ["T", "S"]))
    assert rep.verdict == "FAIL"
    assert "not a regular category" in rep.witnesses[0]


def test_is_regular_completion_identity_cover(chain3, one):
    for C in (chain3, one):
        assert is_regular_completion(C, full_subcategory(C, C.objects)).passed


def test_theorem_c_degenerate_cover(chain3):
    total = Ideal(chain3, frozenset(chain3.morphism_names))
    rep = check_theorem_c(chain3, full_subcategory(chain3, chain3.objects), total)
    assert rep.passed
    assert "ambient star-regular=True" in rep.witnesses


def test_theorem_c_inapplicable_without_kernels(chain3):
    empty = Ideal(chain3, frozenset())
    rep = check_theorem_c(chain3, full_subcategory(chain3, chain3.objects), empty)
    assert rep.verdict == "INAPPLICABLE"


def test_corollary_c(one, chain3):
    assert check_corollary_c(one, Ideal(one, frozenset({"1_X"}))).passed
    total = Ideal(chain3, frozenset(chain3.morphism_names))
    assert check_corollary_c(chain3, total).passed


def test_corollary_c_inapplicable(ptset2):
    total = Ideal(ptset2, frozenset(ptset2.morphism_names))
    assert check_corollary_c(ptset2, total).verdict == "INAPPLICABLE"


def test_corollary_b(one, chain3):
    assert check_corollary_b(one).passed
    assert check_corollary_b(chain3).verdict == "INAPPLICABLE"


def test_corollary_b_transfers_pointed_ideal():
    # every pointed weakly-lex category with at most 4 morphisms
    seen = 0
    for C in enumerate_categories(4):
        if pointed_ideal(C) is None or not has_weak_finite_limits(C):
            continue
        seen += 1
        compl = regular_completion(C)
        assert pointed_ideal(compl.total) is not None
        assert check_corollary_b(C).passed
    assert seen >= 2  # at least the one-object and iso-pair categories
