"""The command line's exit codes and stdout, pinned byte for byte.

``tests/golden/cli_stdout.json`` holds the exit code and stdout of every
invocation listed by ``invocations()``: ``validate`` on each fixture, every
``check`` property on every fixture category with each combination of the
ideal and cover options the file offers, ``complete`` on every category,
``search --max 4`` for every property and ``corpus --enumerate 4``.  Paths
are stored relative to the repository root; the ``--out`` path of
``complete`` is written as ``<out>`` in its stdout, and the file it wrote is
kept beside it.

Regenerate with ``PYTHONPATH=src python -m tests.test_cli_golden`` only when
a change to the output is intended.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

from starkit.cli import CHECKS, run
from starkit.corpus import PROPERTIES, CategoryBlock, CoverBlock, IdealBlock
from tests.conftest import FIXTURE_FILES, FIXTURES, load

ROOT = FIXTURES.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_stdout.json"
OUT = "<out>"


def _options(flag: str, names: list[str]) -> list[tuple[str, ...]]:
    return [()] + [(flag, n) for n in names]


def invocations() -> list[list[str]]:
    out: list[list[str]] = []
    for name in FIXTURE_FILES:
        path = f"fixtures/{name}"
        corpus = load(name)
        ideals = [b.name for b in corpus.blocks if isinstance(b, IdealBlock)]
        covers = [b.name for b in corpus.blocks if isinstance(b, CoverBlock)]
        out.append(["validate", path])
        for cat in [b.raw.name for b in corpus.blocks if isinstance(b, CategoryBlock)]:
            base = ["--file", path, "--category", cat]
            for prop in CHECKS:
                if prop == "lemma-a":
                    combos = itertools.product(_options("--cover", covers),
                                               _options("--ideal-p", ideals),
                                               _options("--ideal-c", ideals))
                else:
                    combos = itertools.product(_options("--ideal", ideals),
                                               _options("--cover", covers))
                for combo in combos:
                    out.append(["check", prop, *base, *itertools.chain(*combo)])
            out.append(["complete", *base, "--out", OUT])
    for prop in sorted(PROPERTIES):
        out.append(["search", "--property", prop, "--max", "4"])
    out.append(["corpus", "--enumerate", "4"])
    return out


def _run(argv: list[str], out_dir: str) -> dict:
    """Exit code, stdout and written file of one invocation, with paths made
    absolute for the run and the ``--out`` path normalised back in stdout."""
    out_path = os.path.join(out_dir, "completion.fincat")
    real = [str(ROOT / a) if a.startswith("fixtures/") else a for a in argv]
    real = [out_path if a == OUT else a for a in real]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(real)
    result = {"argv": argv, "exit": code,
              "stdout": buf.getvalue().replace(out_path, OUT)}
    if os.path.exists(out_path):
        result["written"] = Path(out_path).read_text(encoding="utf-8")
        os.remove(out_path)
    return result


def results() -> list[dict]:
    with tempfile.TemporaryDirectory() as out_dir:
        return [_run(argv, out_dir) for argv in invocations()]


def test_cli_stdout_matches_golden(monkeypatch):
    monkeypatch.delenv("STARKIT_MAX_MORPHISMS", raising=False)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = results()
    assert [g["argv"] for g in got] == [g["argv"] for g in golden]
    differing = [g["argv"] for g, want in zip(got, golden) if g != want]
    assert not differing, f"{len(differing)} invocations differ, first {differing[:3]}"


if __name__ == "__main__":
    os.environ.pop("STARKIT_MAX_MORPHISMS", None)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(results(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
