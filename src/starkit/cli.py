"""Command-line entry point.

Every check prints ``PROPERTY <name> <verdict>`` followed by indented witness
lines.  Exit codes: 0 when everything is PASS or INAPPLICABLE, 1 when any
check FAILs (witness printed), 2 on validation or usage errors.  Output is
deterministic for fixed inputs and seed.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .completion import (check_corollary_b, check_corollary_c, check_theorem_c,
                         regular_completion)
from .core import FinCategory
from .corpus import (CorpusFile, CoverBlock, IdealBlock, category_block,
                     cover_block, enumerate_categories, parse,
                     search_counterexample, serialize, PROPERTIES)
from .errors import Exhausted, InvalidCategory, StarkitError
from .ideals import (Ideal, MultiPointedCategory, extend_ideal,
                     require_projective_cover, restrict_ideal,
                     verify_galois_and_iso, verify_lemma_a)
from .report import ERROR, FAIL, INAPPLICABLE, PASS, Report
from .stars import (check_corollary_d, check_theorem_a, is_normal_category,
                    is_star_regular, satisfies_star_pi0)

CHECKS = ("star-pi0", "theorem-a", "corollary-d", "star-regular", "normal",
          "lemma-a", "galois", "theorem-c", "corollary-c", "corollary-b")


class UsageError(StarkitError):
    pass


def _count(text: str) -> int:
    """A non-negative integer option value."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


def _load(path: str) -> CorpusFile:
    p = Path(path)
    if not p.exists():
        raise UsageError(f"no such file: {path}")
    return parse(p.read_text(encoding="utf-8"))


def _total_ideal(C: FinCategory) -> Ideal:
    return Ideal(C, frozenset(C.morphism_names))


def _resolve_ideal(corpus: CorpusFile, name: str | None, C: FinCategory) -> Ideal:
    """The named ideal, which must live on C; the total ideal when unnamed."""
    if name is None:
        return _total_ideal(C)
    ideal = corpus.ideal(name)
    if ideal.cat is not C:
        raise UsageError(f"ideal {name} lives on {ideal.cat.name}, not {C.name}")
    return ideal


def _check(corpus: CorpusFile, args) -> Report:
    C = corpus.category(args.category)
    prop = args.property

    if prop == "normal":
        return is_normal_category(C)
    if prop == "corollary-b":
        return check_corollary_b(C)

    if prop in ("star-pi0", "theorem-a", "corollary-d", "star-regular", "corollary-c"):
        M = MultiPointedCategory(C, _resolve_ideal(corpus, args.ideal, C))
        if prop == "theorem-a":
            return check_theorem_a(M)
        if prop == "corollary-d":
            return check_corollary_d(M)
        if prop == "star-regular":
            return is_star_regular(M)
        if prop == "corollary-c":
            return check_corollary_c(C, M.ideal)
        evaluated = skipped = 0
        for p in C.parallel_pairs():
            r = satisfies_star_pi0(M, p)
            if r.verdict == INAPPLICABLE:
                skipped += 1
                continue
            evaluated += 1
            if r.verdict == FAIL:
                return Report("star-pi0", FAIL, r.witnesses)
        if evaluated == 0:
            return Report("star-pi0", INAPPLICABLE, ["no parallel pair has a weak kernel"])
        return Report("star-pi0", PASS, [f"pairs evaluated={evaluated} skipped={skipped}"])

    if args.cover is None:
        raise UsageError(f"check {prop} requires --cover")
    W = corpus.cover(args.cover)
    if W.cat is not C:
        raise UsageError(f"cover {args.cover} lives on {W.cat.name}, not {C.name}")

    if prop == "galois":
        return verify_galois_and_iso(W)
    if prop == "theorem-c":
        if args.ideal is None:
            raise UsageError("check theorem-c requires --ideal")
        return check_theorem_c(C, W.cover, _resolve_ideal(corpus, args.ideal, C))

    # lemma-a: derive whichever of the two ideals was not given.
    if args.ideal_p is None and args.ideal_c is None:
        raise UsageError("check lemma-a requires --ideal-p and/or --ideal-c")
    require_projective_cover(W)
    sub = W.cover.category
    N_P = N_C = None
    if args.ideal_p is not None:
        N_P = corpus.ideal(args.ideal_p)
        if N_P.cat is not sub:
            raise UsageError(f"ideal {args.ideal_p} does not live on cover {args.cover}")
    if args.ideal_c is not None:
        N_C = _resolve_ideal(corpus, args.ideal_c, C)
    if N_P is None:
        N_P = restrict_ideal(W, N_C)
    if N_C is None:
        N_C = extend_ideal(W, N_P)
    return verify_lemma_a(W, N_P, N_C)


def _cmd_validate(args) -> tuple[Report, str | None]:
    corpus = _load(args.file)
    details = []
    for name in corpus.category_names():
        C = corpus.category(name)
        details.append(f"category {name}: {len(C.objects)} objects, "
                       f"{len(C.morphism_names)} morphisms")
    for block in corpus.blocks:
        if isinstance(block, IdealBlock):
            corpus.ideal(block.name)
            details.append(f"ideal {block.name} on {block.on}: {len(block.members)} members")
        elif isinstance(block, CoverBlock):
            corpus.cover(block.name)
            details.append(f"cover {block.name} on {block.on}: {len(block.objects)} objects")
    return Report("validate", PASS, details), None


def _cmd_check(args) -> tuple[Report, str | None]:
    return _check(_load(args.file), args), None


def _cmd_complete(args) -> tuple[Report, str | None]:
    corpus = _load(args.file)
    P = corpus.category(args.category)
    compl = regular_completion(P)
    total = compl.total
    blocks = [category_block(total),
              cover_block(f"{P.name}_cover", total.name, compl.cover.cover.objects)]
    header = [f"# regular completion of {P.name}",
              "# objects stand for the morphisms of the base; the cover is the embedded image"]
    Path(args.out).write_text(serialize(CorpusFile(header, blocks)), encoding="utf-8")
    return Report("complete", PASS,
                  [f"objects={len(total.objects)} morphisms={len(total.morphism_names)}",
                   f"wrote {args.out}"]), None


def _cmd_search(args) -> tuple[Report, str | None]:
    try:
        witness = search_counterexample(args.property, args.max,
                                        budget=args.budget, seed=args.seed)
    except Exhausted as e:
        return Report(f"search:{args.property}", INAPPLICABLE, [str(e)]), None
    return (Report(f"search:{args.property}", PASS, witness.header),
            serialize(witness))


def _cmd_corpus(args) -> tuple[Report, str | None]:
    chunks = [serialize(CorpusFile([], [category_block(C)])).rstrip("\n")
              for C in enumerate_categories(args.enumerate)]
    text = "\n\n".join(chunks) + "\n" if chunks else ""
    return Report("corpus", PASS, [f"categories={len(chunks)}"]), text


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starkit",
        description="Exhaustive property checks over finite categories.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a corpus file")
    p.add_argument("file")

    p = sub.add_parser("check", help="run a named check against a corpus file")
    p.add_argument("property", choices=CHECKS)
    p.add_argument("--file", required=True)
    p.add_argument("--category", required=True)
    p.add_argument("--ideal")
    p.add_argument("--cover")
    p.add_argument("--ideal-p", dest="ideal_p")
    p.add_argument("--ideal-c", dest="ideal_c")

    p = sub.add_parser("complete", help="construct and validate a regular completion")
    p.add_argument("--file", required=True)
    p.add_argument("--category", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("search", help="search for a category with a named property")
    p.add_argument("--property", required=True, choices=sorted(PROPERTIES))
    p.add_argument("--max", type=_count, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=_count, default=None)

    p = sub.add_parser("corpus", help="enumerate small categories to stdout")
    p.add_argument("--enumerate", type=_count, required=True, metavar="K")
    return parser


_COMMANDS = {
    "validate": _cmd_validate,
    "check": _cmd_check,
    "complete": _cmd_complete,
    "search": _cmd_search,
    "corpus": _cmd_corpus,
}


def run(argv: list[str]) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        report, extra = _COMMANDS[args.command](args)
    except InvalidCategory as e:
        report, extra = Report(args.command, ERROR,
                               [str(v) for v in e.violations]), None
    except (StarkitError, ValueError, OSError) as e:
        report, extra = Report(args.command, ERROR, [str(e)]), None
    print(report.render())
    if extra:
        print()
        print(extra, end="" if extra.endswith("\n") else "\n")
    if report.verdict == ERROR:
        return 2
    if report.verdict == FAIL:
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))
