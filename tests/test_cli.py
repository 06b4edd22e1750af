from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from starkit.cli import run
from starkit.corpus import CorpusFile, category_block, cover_block, parse, serialize
from tests.conftest import FIXTURES, subprocess_env
from tests.helpers import boolean, chain
from tests.test_cli_golden import GOLDEN, ROOT

ONE = str(FIXTURES / "one.fincat")
CHAIN3 = str(FIXTURES / "chain3.fincat")
PTSET2 = str(FIXTURES / "ptset2.fincat")
BROKEN = str(FIXTURES / "broken.fincat")


def run_cli(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate_pass(capsys):
    code, out = run_cli(capsys, "validate", ONE)
    assert code == 0
    assert out.startswith("PROPERTY validate PASS")


def test_validate_broken_exits_2(capsys):
    code, out = run_cli(capsys, "validate", BROKEN)
    assert code == 2
    assert "PROPERTY validate ERROR" in out
    assert "MissingComposite" in out


# Invalid tables and the violation lines validate prints for them, in order.
BAD_FILES = {
    "non-associative": (
        "category N\nobjects X\nmor a : X -> X\nmor b : X -> X\n"
        "comp a a = a\ncomp a b = a\ncomp b a = b\ncomp b b = a\nend\n",
        ["NonAssociative: (b a) b = a but b (a b) = b",
         "NonAssociative: (b b) b = a but b (b b) = b"]),
    "badly-typed": (
        "category T\nobjects X Y\nmor f : X -> Y\nmor e : X -> X\n"
        "comp f f = f\ncomp e e = e\ncomp f e = e\nend\n",
        ["BadTyping: pair (f, f) is not composable",
         "BadTyping: row f e = e: composite must go X -> Y",
         "MissingComposite: no row for pair (f, e)"]),
}


def validate_bad_files(directory) -> dict[str, list]:
    """[exit code, stdout] of validate on each of BAD_FILES, written to directory."""
    out = {}
    for name, (text, _) in BAD_FILES.items():
        path = Path(directory) / f"{name}.fincat"
        path.write_text(text, encoding="utf-8")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = run(["validate", str(path)])
        out[name] = [code, stdout.getvalue()]
    return out


def expected_bad_files() -> dict[str, list]:
    return {name: [2, "PROPERTY validate ERROR\n" + "".join(f"  {v}\n" for v in lines)]
            for name, (_, lines) in BAD_FILES.items()}


def test_validate_prints_every_violation_in_order(tmp_path):
    assert validate_bad_files(tmp_path) == expected_bad_files()


def test_validate_duplicate_category_exits_2(capsys, tmp_path):
    path = tmp_path / "dup.fincat"
    path.write_text("category A\nobjects X\nend\n\ncategory A\nobjects Y\nend\n")
    code, out = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert "PROPERTY validate ERROR" in out
    assert "line 5" in out and "already used" in out


@pytest.mark.parametrize("argv, flag", [
    (("search", "--property", "regular", "--max", "4", "--budget", "-5"), "--budget"),
    (("search", "--property", "regular", "--max", "-1"), "--max"),
    (("corpus", "--enumerate", "-1"), "--enumerate"),
])
def test_negative_counts_exit_2(capsys, argv, flag):
    code = run(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"argument {flag}: must not be negative" in captured.err


@pytest.mark.parametrize("value, message", [
    ("abc", "STARKIT_MAX_MORPHISMS must be an integer, got 'abc'"),
    ("-1", "STARKIT_MAX_MORPHISMS must not be negative, got -1"),
], ids=["abc", "-1"])
def test_non_integer_env_bound_names_the_variable(capsys, monkeypatch, value, message):
    monkeypatch.setenv("STARKIT_MAX_MORPHISMS", value)
    code, out = run_cli(capsys, "corpus", "--enumerate", "2")
    assert code == 2
    assert message in out


def test_check_normal_pass(capsys):
    code, out = run_cli(capsys, "check", "normal", "--file", ONE, "--category", "One")
    assert code == 0
    assert "PROPERTY normal PASS" in out


def test_check_theorem_a_inapplicable_exit_zero(capsys):
    code, out = run_cli(capsys, "check", "theorem-a", "--file", PTSET2,
                        "--category", "PtSet2", "--ideal", "zero")
    assert code == 0
    assert "PROPERTY theorem-a INAPPLICABLE" in out
    assert "no weak kernel pair" in out


def test_check_star_pi0_fail_exits_1_with_witness(capsys):
    code, out = run_cli(capsys, "check", "star-pi0", "--file", PTSET2,
                        "--category", "PtSet2", "--ideal", "zero")
    assert code == 1
    assert "PROPERTY star-pi0 FAIL" in out
    assert "violating morphism g=1_S" in out


def test_check_star_pi0_defaults_to_total_ideal(capsys):
    code, out = run_cli(capsys, "check", "star-pi0", "--file", PTSET2,
                        "--category", "PtSet2")
    assert code == 0
    assert "PROPERTY star-pi0 PASS" in out


def test_check_star_regular_and_galois(capsys):
    code, out = run_cli(capsys, "check", "star-regular", "--file", CHAIN3,
                        "--category", "Chain3", "--ideal", "all")
    assert code == 0 and "star-regular PASS" in out
    code, out = run_cli(capsys, "check", "galois", "--file", CHAIN3,
                        "--category", "Chain3", "--cover", "everything")
    assert code == 0 and "galois PASS" in out


def test_check_lemma_a_with_derived_ideal(capsys):
    code, out = run_cli(capsys, "check", "lemma-a", "--file", CHAIN3,
                        "--category", "Chain3", "--cover", "everything",
                        "--ideal-c", "top")
    assert code == 0
    assert "PROPERTY lemma-a PASS" in out


def test_check_lemma_a_derives_parent_ideal_from_cover_ideal(capsys):
    code, out = run_cli(capsys, "check", "lemma-a", "--file", CHAIN3,
                        "--category", "Chain3", "--cover", "everything",
                        "--ideal-p", "topP")
    assert code == 0
    assert "PROPERTY lemma-a PASS" in out


def test_check_lemma_a_refuses_a_cover_that_is_not_projective(capsys, tmp_path):
    # the cover's ideal has no extension, and the precondition is reported
    # before any extension is tried
    path = tmp_path / "arrow.fincat"
    path.write_text((FIXTURES / "arrow.fincat").read_text(encoding="utf-8")
                    + "\ncover P on Arrow = { A }\n\nideal idA on P = { 1_A }\n",
                    encoding="utf-8")
    code, out = run_cli(capsys, "check", "lemma-a", "--file", str(path),
                        "--category", "Arrow", "--cover", "P", "--ideal-p", "idA")
    assert code == 2
    assert out == "PROPERTY check ERROR\n  Arrow[A] is not a projective cover of Arrow\n"


def test_check_star_pi0_inapplicable_on_empty_ideal(capsys):
    code, out = run_cli(capsys, "check", "star-pi0", "--file", ONE,
                        "--category", "One", "--ideal", "empty")
    assert code == 0
    assert "PROPERTY star-pi0 INAPPLICABLE" in out


def test_check_lemma_a_requires_an_ideal(capsys):
    code, out = run_cli(capsys, "check", "lemma-a", "--file", CHAIN3,
                        "--category", "Chain3", "--cover", "everything")
    assert code == 2
    assert "ERROR" in out


def test_check_theorem_c_and_corollaries(capsys):
    code, out = run_cli(capsys, "check", "theorem-c", "--file", CHAIN3,
                        "--category", "Chain3", "--cover", "everything",
                        "--ideal", "all")
    assert code == 0 and "theorem-c PASS" in out
    code, out = run_cli(capsys, "check", "corollary-c", "--file", CHAIN3,
                        "--category", "Chain3", "--ideal", "all")
    assert code == 0 and "corollary-c PASS" in out
    code, out = run_cli(capsys, "check", "corollary-b", "--file", ONE,
                        "--category", "One")
    assert code == 0 and "corollary-b PASS" in out
    code, out = run_cli(capsys, "check", "corollary-d", "--file", CHAIN3,
                        "--category", "Chain3", "--ideal", "all")
    assert code == 0 and "corollary-d PASS" in out


def test_unknown_category_exits_2(capsys):
    code, out = run_cli(capsys, "check", "star-pi0", "--file", ONE,
                        "--category", "NoSuch")
    assert code == 2
    assert "ERROR" in out


def test_cover_on_wrong_category_exits_2(capsys):
    code, out = run_cli(capsys, "check", "galois", "--file", PTSET2,
                        "--category", "PtSet2", "--cover", "missing")
    assert code == 2
    assert "ERROR" in out


def test_validate_rejects_unclosed_ideal(tmp_path, capsys):
    bad = tmp_path / "bad.fincat"
    bad.write_text("category A\nobjects X\nmor f : X -> X\ncomp f f = f\nend\n"
                   "\nideal N on A = { 1_X }\n")
    code, out = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert "not composition-closed" in out


def test_missing_file_exits_2(capsys):
    code, out = run_cli(capsys, "validate", "no/such/file.fincat")
    assert code == 2
    assert "no such file" in out


@pytest.mark.parametrize("argv", [
    ("complete", "--file", str(FIXTURES / "arrow.fincat"), "--category", "Arrow",
     "--out", str(FIXTURES / "no_such_dir" / "x.fincat")),
    ("validate", str(FIXTURES)),
], ids=["complete-out-in-missing-dir", "validate-a-directory"])
def test_os_error_exits_2_naming_the_path(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert out.startswith(f"PROPERTY {argv[0]} ERROR")
    assert argv[-1] in out


def test_usage_error_exits_2(capsys):
    assert run([]) == 2
    assert run(["check", "nonsense", "--file", ONE, "--category", "One"]) == 2
    capsys.readouterr()


def test_complete_writes_valid_corpus(tmp_path, capsys):
    out_path = tmp_path / "completion.fincat"
    code, out = run_cli(capsys, "complete", "--file", CHAIN3,
                        "--category", "Chain3", "--out", str(out_path))
    assert code == 0
    assert "objects=6 morphisms=25" in out
    written = parse(out_path.read_text())
    C = written.category("Chain3_reg")
    assert len(C.objects) == 6
    cover = written.cover("Chain3_cover")
    assert len(cover.cover.objects) == 3


def test_complete_without_weak_limits_exits_2(tmp_path, capsys):
    code, out = run_cli(capsys, "complete", "--file", PTSET2,
                        "--category", "PtSet2", "--out", str(tmp_path / "x"))
    assert code == 2
    assert "ERROR" in out


def test_search_found_prints_witness(capsys):
    code, out = run_cli(capsys, "search", "--property", "pointed", "--max", "1")
    assert code == 0
    assert "PROPERTY search:pointed PASS" in out
    corpus_text = out.split("\n\n", 1)[1]
    assert parse(corpus_text).category_names()


def test_search_exhausted_is_loud_and_exit_zero(capsys):
    code, out = run_cli(capsys, "search", "--property", "pointed-regular-not-normal",
                        "--max", "2", "--budget", "4")
    assert code == 0
    assert "PROPERTY search:pointed-regular-not-normal INAPPLICABLE" in out
    assert "examined=4" in out


def _watched_search(capsys, monkeypatch, *argv):
    """Run ``search`` with the enumerator the search reads at call time
    wrapped, as perfbench/run.py wraps it: (exit code, stdout, the
    categories pulled)."""
    import starkit.corpus
    enumerate_categories, pulled = starkit.corpus.enumerate_categories, []

    def watched(max_morphisms):
        for C in enumerate_categories(max_morphisms):
            pulled.append(C)
            yield C

    monkeypatch.setattr(starkit.corpus, "enumerate_categories", watched)
    return (*run_cli(capsys, "search", *argv), pulled)


def test_search_past_the_cap_exits_2_before_examining(capsys, monkeypatch):
    monkeypatch.delenv("STARKIT_MAX_MORPHISMS", raising=False)
    code, out, pulled = _watched_search(capsys, monkeypatch,
                                        "--property", "pointed", "--max", "7")
    assert (code, out, pulled) == (2, "PROPERTY search ERROR\n  requested 7 morphisms; "
                                   "enumeration cap is 6, set by STARKIT_MAX_MORPHISMS\n", [])


def test_search_has_no_seed_option(capsys):
    code = run(["search", "--property", "pointed", "--max", "1", "--seed", "1"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "unrecognized arguments: --seed 1" in captured.err


def test_search_past_six_morphisms_enumerates_when_the_cap_is_raised(capsys, monkeypatch):
    # 3,257 categories have at most 6 morphisms, so the last 43 examined have
    # 7; the 3,301st category is pulled, and only then is the budget reached
    monkeypatch.setenv("STARKIT_MAX_MORPHISMS", "7")
    code, out, pulled = _watched_search(capsys, monkeypatch, "--property",
                                        "pointed-regular-not-normal", "--max", "7",
                                        "--budget", "3300")
    assert (code, out) == (0, "PROPERTY search:pointed-regular-not-normal INAPPLICABLE\n"
                           "  no witness for pointed-regular-not-normal: examined=3300 "
                           "(budget reached) max_morphisms=7 budget=3300 seed=0\n")
    sizes = [len(C.morphism_names) for C in pulled[:3300]]
    assert (len(pulled), max(sizes[:3257]), set(sizes[3257:])) == (3301, 6, {7})


def test_corpus_enumerate(capsys):
    code, out = run_cli(capsys, "corpus", "--enumerate", "2")
    assert code == 0
    assert "categories=4" in out
    body = out.split("\n\n", 1)[1]
    cf = parse(body)
    assert len(cf.category_names()) == 4


def test_check_galois_samples_only_past_the_ideal_cap(capsys, tmp_path):
    # Chain7 has Catalan(8) = 1,430 ideals, within the cap of 4,096;
    # Chain8 has 4,862 and Boolean 2^3 15,936; Boolean 2^4 has 81 distinct
    # principal ideals, more than the sample's cap of 64 holds
    for C, first in ((chain(7), "ideals: parent=1430 cover=1430"),
                     (chain(8), "sampled ideals: parent=64 cover=64"),
                     (boolean(3), "sampled ideals: parent=64 cover=64"),
                     (boolean(4), "sampled ideals: parent=64 cover=64")):
        path = tmp_path / f"{C.name}.fincat"
        path.write_text(serialize(CorpusFile([], [category_block(C),
                                                  cover_block("all", C.name, C.objects)])))
        code, out = run_cli(capsys, "check", "galois", "--file", str(path),
                            "--category", C.name, "--cover", "all")
        assert (code, out.splitlines()[:2]) == (0, ["PROPERTY galois PASS", f"  {first}"])


def test_output_is_deterministic(capsys):
    first = run_cli(capsys, "check", "galois", "--file", CHAIN3,
                    "--category", "Chain3", "--cover", "everything")
    second = run_cli(capsys, "check", "galois", "--file", CHAIN3,
                     "--category", "Chain3", "--cover", "everything")
    assert first == second


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "starkit", "check", "normal",
         "--file", ONE, "--category", "One"],
        capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 0
    assert "PROPERTY normal PASS" in proc.stdout


GOLDEN_UNDER_OPTIMIZE = """
import json, sys, tempfile
from tests.test_cli import validate_bad_files
from tests.test_cli_golden import results
with tempfile.TemporaryDirectory() as directory:
    bad = validate_bad_files(directory)
json.dump({"debug": __debug__, "results": results(), "bad": bad}, sys.stdout)
"""


def test_golden_invocations_under_optimize():
    # Every invocation of the golden file, and validate on the invalid
    # tables, replayed where asserts are stripped.
    env = subprocess_env()
    env.pop("STARKIT_MAX_MORPHISMS", None)
    proc = subprocess.run([sys.executable, "-O", "-c", GOLDEN_UNDER_OPTIMIZE],
                          capture_output=True, text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert got["debug"] is False
    assert [g["argv"] for g in got["results"]] == [g["argv"] for g in golden]
    differing = [g["argv"] for g, want in zip(got["results"], golden) if g != want]
    assert not differing, f"{len(differing)} invocations differ, first {differing[:3]}"
    assert got["bad"] == expected_bad_files()
