"""starkit: exhaustive property checks over finite categories.

Finite categories are explicit composition tables; on top of them the
package computes weak and strict limits, ideals of null morphisms with their
kernels and stars, projective covers with ideal restriction and extension,
and regular completions.  Each statement of the paper is checked by its
gates, decided on the table, and then a verdict that the finiteness
theorems fix (see limits), with concrete witnesses on failure.
"""
from .core import (FinCategory, FullSubcategory, Morphism, MorphismFlags,
                   ParallelPair, RawCategory, ReflexiveGraph, Violation,
                   enumerate_reflexive_graphs, full_subcategory,
                   identity_name, is_epi, is_mono,
                   morphism_flags, validate_category)
from .errors import (BoundExceeded, CorpusSyntaxError, Exhausted,
                     IdealClosureViolation, InvalidCategory, NoKernel,
                     NoKernelPair, PreconditionFailed, StarkitError,
                     ValidationFailed)
from .ideals import (CoverWitness, Ideal, MultiPointedCategory,
                     enumerate_ideals, extend_ideal, has_all_kernels,
                     ideal_closure, is_ideal, is_projective_cover,
                     kernels, pointed_ideal, restrict_ideal,
                     verify_galois_and_iso, verify_lemma_a)
from .limits import (STRICT, WEAK, Cone, coequalizer, coequalizers,
                     equalizer_cones, has_weak_finite_limits,
                     image_factorization, is_coequalizer, is_regular_category,
                     is_regular_epi, kernel_pair_cones, kernel_pairs,
                     product_cones, pullback_cones, regular_epis,
                     terminal_cones)
from .completion import (Completion, check_corollary_b, check_corollary_c,
                         check_theorem_c, is_regular_completion,
                         regular_completion)
from .corpus import (CorpusFile, are_isomorphic, canonical_key,
                     enumerate_categories, parse, search_counterexample,
                     serialize)
from .report import ERROR, FAIL, INAPPLICABLE, PASS, Report
from .stars import (StarWitness, check_corollary_d, check_theorem_a,
                    is_normal_category, is_star_regular, kernel_star,
                    reflexive_graphs_star_pi0, satisfies_star_pi0, star_of)

__all__ = [name for name in dir() if not name.startswith("_")]
