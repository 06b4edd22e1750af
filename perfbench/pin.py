"""Regenerate the pinned input and outcomes of the ``sweep`` workload.

    python3 perfbench/pin.py            # outcomes, from the pinned corpus
    python3 perfbench/pin.py --corpus   # first re-enumerate the corpus (minutes)

``--corpus`` writes every category with at most 6 morphisms, as emitted by
``starkit.corpus.enumerate_categories(6)``, to ``corpus6.fincat.gz``.  The
outcome step runs the sweep battery on each category of that file, in file
order and with its own names, and writes one signature per category to
``sweep_outcomes.txt.gz``.  Both steps print the figures ``expected.json``
pins (sha256, per-(morphisms/objects) counts, verdict totals); copy them
there by hand after checking them.  Re-pinning is a deliberate act: the
benchmark exists to notice when these figures change.
"""
from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import starkit  # noqa: E402
from starkit.corpus import (CorpusFile, category_block,  # noqa: E402
                            enumerate_categories, serialize)
from run import battery, signature  # noqa: E402

MAX_MORPHISMS = 6
CORPUS = HERE / f"corpus{MAX_MORPHISMS}.fincat.gz"
OUTCOMES = HERE / "sweep_outcomes.txt.gz"


def write_corpus() -> None:
    header = [f"# every category with at most {MAX_MORPHISMS} morphisms, "
              "one per isomorphism class"]
    blocks = [category_block(C) for C in enumerate_categories(MAX_MORPHISMS)]
    text = serialize(CorpusFile(header, blocks))
    CORPUS.write_bytes(gzip.compress(text.encode("utf-8"), 9, mtime=0))


def write_outcomes() -> None:
    text = gzip.decompress(CORPUS.read_bytes()).decode("utf-8")
    corpus = starkit.parse(text)
    totals: Counter = Counter()
    counts: Counter = Counter()
    lines = []
    for block in corpus.blocks:
        raw = block.raw
        counts[f"{len(raw.objects) + len(raw.morphisms)}/{len(raw.objects)}"] += 1
        tally = battery(starkit, starkit.validate_category(raw))
        totals.update(tally)
        lines.append(f"{raw.name} {signature(tally)}")
    OUTCOMES.write_bytes(gzip.compress(("\n".join(lines) + "\n").encode("utf-8"), 9, mtime=0))
    print(json.dumps({
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "counts": dict(sorted(counts.items())),
        "totals": {f"{c}={v}": n for (c, v), n in sorted(totals.items())},
    }, indent=2))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus", action="store_true",
                        help="re-enumerate the corpus before pinning outcomes")
    if parser.parse_args().corpus:
        write_corpus()
    write_outcomes()


if __name__ == "__main__":
    main()
