"""The starkit benchmark: three fixed workloads, timed end to end and per layer.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Workloads (closed loop, one caller, one single-threaded process per run):

- ``search6``: ``starkit search --property pi0-cover-not-star-regular --max 6
  --budget 1500`` through ``cli.run``, stdout checked byte for byte.  The
  enumerator does nearly all the work: table filling and canonical keys,
  mostly for the monoids of order 6.  Acceptance criterion 9 runs the same
  search with budget 4000, which exhausts all 3,257 categories but takes
  85-110 s on a 2-vCPU Xeon VM, too long to repeat in every run; the first
  1,500 categories take about 8 s there.  In today's emission order they
  are every category of at most 5 morphisms and the first 1,101 of the
  2,237 one-object categories of 6, so about 10% of the tables generated
  are kept, not the 2% of the whole search, and the many-object categories
  of 6 morphisms are never reached.  It has no input, so the seed does not
  apply.
- ``sweep``: every statement check over the 3,257 categories with at most 6
  morphisms, read from the pinned ``corpus6.fincat.gz`` (never from the
  enumerator under test).  Many tiny tables with cold caches: ideals, limits
  and core lookups do the work.
- ``complete``: ``regular_completion`` applied twice to Arrow (3 -> 7 -> 43
  morphisms) and Chain3 (6 -> 25 -> 493).  A few large tables, where limit
  search over cones dominates.

The seed renames every object and morphism of the inputs, keeping their
relative order, and for ``sweep`` shuffles the order of the categories.
Every outcome is checked against the figures pinned in ``expected.json`` and
``sweep_outcomes.txt.gz``; an item whose outcome differs, or that raised,
counts as failed.

A run sets up (imports ``starkit`` afresh and loads its inputs) and runs the
timed phase, and repeats both until at least ``MIN_PHASES`` timed phases ran
and they add up to ``--seconds``; set-up runs at least ``SETUP_REPEATS``
times and for at least ``SETUP_SECONDS``.  Each phase works on freshly
built categories, so it starts with cold per-category caches, and does the
same items in the same order.  Every time
is read on ``refclock.RefClock`` in reference seconds, which discount the
host's changing speed: on a shared host a core's speed swings by up to 1.9x
from one second to the next, which wall-clock seconds would report as the
program's.  ``setup_s`` is the median set-up and ``wall_s`` the median
phase.  The median and 99th percentile of item times go to stderr only:
``complete`` has four items, too few for either, and on ``sweep`` and
``search6`` they spread by up to 20% between runs even in reference seconds.
The stderr summary also gives phase and set-up times in real seconds.

With ``--trace 0`` the last line of stdout is a JSON object carrying the
end-to-end metrics.  With ``--trace 1`` a run makes a traced set-up and
phase (see ``spans.py``) between two untraced ones, fails unless all three
give the same outputs, and reports the per-layer metrics of the traced
phase, ``trace.wall_s``, and ``trace.overhead_s``: the traced phase minus
the mean of the untraced ones.  A layer the workload never calls reads 0
calls and 0.0 s.  A summary goes to stderr.  The exit code is 2 when the
program or the pinned input is missing or does not match, without printing
a result.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import gzip
import hashlib
import importlib
import io
import itertools
import json
import os
import random
import resource
import statistics
import string
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
from refclock import RefClock  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_REPEATS = 5
SETUP_SECONDS = 1.0
MIN_PHASES = 2

SEARCH_MAX = 6
SEARCH_BUDGET = 1500
SEARCH_ARGV = ["search", "--property", "pi0-cover-not-star-regular",
               "--max", str(SEARCH_MAX), "--budget", str(SEARCH_BUDGET)]

# Sweep checks in the order their tallies appear in a category's signature.
SWEEP_CHECKS = ("regular", "normal", "theorem-a", "corollary-d",
                "star-regular", "galois", "lemma-a", "theorem-c",
                "completion", "corollary-c", "corollary-b")


class InputMismatch(Exception):
    """A pinned input or the program under test is missing or altered."""


def fresh_starkit():
    """Import ``starkit`` and its command line from scratch, so that each
    set-up pays for the import."""
    for name in [n for n in sys.modules if n == "starkit" or n.startswith("starkit.")]:
        del sys.modules[name]
    importlib.import_module("starkit.cli")
    return sys.modules["starkit"]


def relabel(sk, raw, rng: random.Random):
    """A copy of a raw category with a fresh random name for every object and
    morphism.  The new names sort in the same order as the old ones and the
    declaration order is kept, so every search visits the table in the same
    order and does the same work for every seed; only the names differ."""
    old = sorted(list(raw.objects) + [m[0] for m in raw.morphisms])
    fresh: set[str] = set()
    while len(fresh) < len(old):
        fresh.add(rng.choice(string.ascii_letters) + "".join(
            rng.choice(string.ascii_lowercase + string.digits) for _ in range(5)))
    name = dict(zip(old, sorted(fresh)))
    for x in raw.objects:
        name[f"1_{x}"] = f"1_{name[x]}"
    return sk.RawCategory(
        raw.name, [name[x] for x in raw.objects],
        [(name[m], name[d], name[c]) for m, d, c in raw.morphisms],
        [(name[g], name[f], name[h]) for g, f, h in raw.compositions])


# -- workloads ----------------------------------------------------------------
#
# A workload's ``load`` is its set-up, ``run`` its timed phase, which appends
# the time of each item, read on ``clock``, to ``items``, and ``check``
# compares what ``run`` returned with the pinned figures, untimed, returning
# (items attempted, items failed).


class Search6:
    """Criterion 9's counterexample search at 6 morphisms, cut at a budget.
    Items are the categories the search examines; an item's time runs from
    asking the enumerator for it until the search asks for the next one.

    With the budget cut, stdout alone no longer shows that the enumerator
    emitted the right categories, so the examined categories are checked
    too, in a way that does not depend on the order they come in: there
    must be as many as the budget, none with more morphisms than the bound,
    no two isomorphic (by a canonical form computed here, not by the
    program's), and every timed phase must examine the same ones."""

    name = "search6"

    def __init__(self, expected: dict, seed: int):
        self.expected = expected["search6"]
        self.first: list | None = None

    def load(self, sk):
        return sk.cli

    def run(self, cli, items: list[float], clock):
        corpus = sys.modules["starkit.corpus"]
        enumerate_categories = corpus.enumerate_categories
        examined = []

        def watched(*args, **kwargs):
            t = clock()
            for C in enumerate_categories(*args, **kwargs):
                yield C
                items.append(clock() - t)
                examined.append(C)
                t = clock()

        corpus.enumerate_categories = watched
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.run(list(SEARCH_ARGV))
        finally:
            corpus.enumerate_categories = enumerate_categories
        return code, out.getvalue(), examined

    def check(self, outputs):
        code, stdout, examined = outputs
        # Replaced in place, outside the timed phase, by their sorted
        # canonical forms, so that phases compare by value and in any order.
        examined[:] = sorted(canonical_form(*int_form(C)) for C in examined)
        ok = True
        if code != self.expected["exit"] or stdout != self.expected["stdout"]:
            print(f"search6: exit {code}, stdout {stdout!r}", file=sys.stderr)
            ok = False
        if len(examined) != SEARCH_BUDGET:
            print(f"search6: examined {len(examined)} categories, budget {SEARCH_BUDGET}",
                  file=sys.stderr)
            ok = False
        larger = sum(1 for k, types, _ in examined if k + len(types) > SEARCH_MAX)
        twins = len(examined) - len(set(examined))
        if larger or twins:
            print(f"search6: {larger} examined categories have more than {SEARCH_MAX} "
                  f"morphisms, {twins} repeat an earlier one up to isomorphism",
                  file=sys.stderr)
            ok = False
        if self.first is None:
            self.first = list(examined)
        elif examined != self.first:
            print("search6: a timed phase examined other categories than the first",
                  file=sys.stderr)
            ok = False
        return 1, 0 if ok else 1


def int_form(C) -> tuple:
    """(objects, non-identity types, composition table) of C with integer
    labels: object i, its identity i, the j-th non-identity morphism k + j."""
    k = len(C.objects)
    obj = {x: i for i, x in enumerate(C.objects)}
    nonids = [m for m in C.morphism_names if not C.is_identity(m)]
    index = {C.identity[x]: i for x, i in obj.items()}
    index.update((m, k + j) for j, m in enumerate(nonids))
    types = tuple((obj[C.dom(m)], obj[C.cod(m)]) for m in nonids)
    table = tuple(sorted((index[g], index[f], index[C.compose(g, f)])
                         for g in nonids for f in nonids if C.cod(f) == C.dom(g)))
    return k, types, table


def canonical_form(k: int, types: tuple, table: tuple) -> tuple:
    """The least relabelled table over all object permutations and
    type-preserving permutations of the non-identity morphisms, as
    (objects, types, table): equal exactly for isomorphic categories."""
    m = len(types)
    comp = {(g, f): h for g, f, h in table}
    best = None
    for sigma in itertools.permutations(range(k)):
        moved = [(sigma[a], sigma[b]) for a, b in types]
        order = sorted(range(m), key=moved.__getitem__)
        new_types = tuple(moved[j] for j in order)
        if best is not None and new_types > best[0]:
            continue
        groups = [list(g) for _, g in itertools.groupby(order, key=moved.__getitem__)]
        for parts in itertools.product(*(itertools.permutations(g) for g in groups)):
            seq = [j for part in parts for j in part]
            label = list(sigma) + [0] * m
            for pos, j in enumerate(seq):
                label[k + j] = k + pos
            cells = tuple(label[comp[(k + a, k + b)]] for a in seq for b in seq
                          if types[b][1] == types[a][0])
            if best is None or (new_types, cells) < best:
                best = (new_types, cells)
    return (k,) + (best or ((), ()))


class Sweep:
    """Every statement check over the pinned corpus of small categories.
    Items are categories; an item's time is its whole check battery."""

    name = "sweep"

    def __init__(self, expected: dict, seed: int):
        self.expected = expected["sweep"]
        self.seed = seed
        path = HERE / self.expected["corpus"]
        self.text = gzip.decompress(path.read_bytes()).decode("utf-8")
        digest = hashlib.sha256(self.text.encode("utf-8")).hexdigest()
        if digest != self.expected["sha256"]:
            raise InputMismatch(f"{path.name}: sha256 {digest}, "
                                f"pinned {self.expected['sha256']}")
        self.outcomes = {}
        outcomes = gzip.decompress((HERE / self.expected["outcomes"]).read_bytes())
        for line in outcomes.decode("utf-8").splitlines():
            name, _, signature = line.partition(" ")
            self.outcomes[name] = signature

    def load(self, sk):
        corpus = sk.parse(self.text)
        raws = [b.raw for b in corpus.blocks]
        counts = Counter(f"{len(r.objects) + len(r.morphisms)}/{len(r.objects)}"
                         for r in raws)
        if dict(counts) != self.expected["counts"]:
            raise InputMismatch(f"corpus counts {dict(counts)} differ from the pinned ones")
        rng = random.Random(self.seed)
        rng.shuffle(raws)
        return sk, [sk.validate_category(relabel(sk, raw, rng)) for raw in raws]

    def run(self, inputs, items: list[float], clock):
        sk, categories = inputs
        outcomes = []
        for C in categories:
            t0 = clock()
            try:
                outcomes.append((C.name, battery(sk, C)))
            except Exception as e:  # one category's failure must not hide the rest
                outcomes.append((C.name, e))
            items.append(clock() - t0)
        return outcomes

    def check(self, outcomes):
        failed = 0
        totals: Counter = Counter()
        for name, tally in outcomes:
            if isinstance(tally, Exception):
                print(f"sweep: {name} raised {type(tally).__name__}: {tally}",
                      file=sys.stderr)
                failed += 1
                continue
            totals.update(tally)
            if signature(tally) != self.outcomes.get(name):
                print(f"sweep: {name} gave {signature(tally)!r}, pinned "
                      f"{self.outcomes.get(name)!r}", file=sys.stderr)
                failed += 1
        totals = {f"{check}={verdict}": n for (check, verdict), n in totals.items()}
        if totals != self.expected["totals"]:
            print(f"sweep: totals {totals} differ from the pinned ones", file=sys.stderr)
            failed = max(failed, 1)
        return len(outcomes), failed


def battery(sk, C) -> Counter:
    """Verdict tallies of every sweep check on one category."""
    tally: Counter = Counter()

    def note(check: str, verdict: str) -> None:
        tally[(check, verdict)] += 1

    ideals = sk.enumerate_ideals(C)
    regular = sk.is_regular_category(C)
    note("regular", regular.verdict)
    note("normal", sk.is_normal_category(C).verdict)
    for N in ideals:
        M = sk.MultiPointedCategory(C, N)
        note("theorem-a", sk.check_theorem_a(M).verdict)
        note("corollary-d", sk.check_corollary_d(M).verdict)
        if sk.has_all_kernels(M, sk.STRICT):
            note("star-regular", sk.is_star_regular(M).verdict)
    covers = [sk.CoverWitness(C, sk.full_subcategory(C, objs))
              for r in range(1, len(C.objects) + 1)
              for objs in itertools.combinations(C.objects, r)]
    for W in covers:
        note("galois", sk.verify_galois_and_iso(W).verdict)
    if regular.passed:
        for W in covers:
            if not sk.is_projective_cover(W).passed:
                continue
            for NP in sk.enumerate_ideals(W.cover.category):
                for NC in ideals:
                    note("lemma-a", sk.verify_lemma_a(W, NP, NC).verdict)
            for N in ideals:
                note("theorem-c", sk.check_theorem_c(C, W.cover, N).verdict)
    if sk.has_weak_finite_limits(C):
        sk.regular_completion(C)
        note("completion", sk.PASS)
        for N in ideals:
            if sk.has_all_kernels(sk.MultiPointedCategory(C, N), sk.WEAK):
                note("corollary-c", sk.check_corollary_c(C, N).verdict)
        if sk.pointed_ideal(C) is not None:
            note("corollary-b", sk.check_corollary_b(C).verdict)
    return tally


def signature(tally: Counter) -> str:
    """One category's outcome as text, e.g. ``regular=FAIL:1 normal=...``."""
    parts = []
    for check in SWEEP_CHECKS:
        verdicts = sorted((v, n) for (c, v), n in tally.items() if c == check)
        if verdicts:
            parts.append(f"{check}=" + ",".join(f"{v}:{n}" for v, n in verdicts))
    return " ".join(parts)


class Complete:
    """Iterated regular completions of two fixture bases.  Items are the four
    completion steps.  ``regular_completion`` validates its result against
    the characterisation and raises otherwise; the check adds the pinned
    sizes of every step."""

    name = "complete"

    def __init__(self, expected: dict, seed: int):
        self.expected = expected["complete"]
        self.seed = seed
        self.text = (HERE / self.expected["inputs"]).read_text("utf-8")

    def load(self, sk):
        rng = random.Random(self.seed)
        corpus = sk.parse(self.text)
        return sk, [sk.validate_category(relabel(sk, b.raw, rng)) for b in corpus.blocks]

    def run(self, inputs, items: list[float], clock):
        sk, bases = inputs
        sizes = {}
        for base in bases:
            C, steps = base, []
            for _ in self.expected["steps"][base.name]:
                t0 = clock()
                try:
                    C = sk.regular_completion(C).total
                except Exception as e:  # report the step, then stop this base
                    steps.append(e)
                    break
                finally:
                    items.append(clock() - t0)
                steps.append([len(C.objects), len(C.morphisms)])
            sizes[base.name] = steps
        return sizes

    def check(self, sizes):
        attempted = failed = 0
        for name, pinned in self.expected["steps"].items():
            got = sizes.get(name, [])
            attempted += len(pinned)
            for step, want in enumerate(pinned):
                if step >= len(got) or got[step] != want:
                    print(f"complete: {name} step {step + 1} gave "
                          f"{got[step] if step < len(got) else 'nothing'}, pinned {want}",
                          file=sys.stderr)
                    failed += 1
        return attempted, failed


WORKLOADS = {w.name: w for w in (Search6, Sweep, Complete)}


# -- driver ---------------------------------------------------------------------

def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99), interpolated as statistics.quantiles does."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def phase(workload, clock, tracer: Tracer | None = None) -> dict:
    """One set-up and timed phase, traced if ``tracer`` is given.  Set-up
    and phase are also timed in real seconds, for the record."""
    items: list[float] = []
    t0, r0 = clock(), time.perf_counter()
    sk = fresh_starkit()
    if tracer is not None:
        tracer.install()
    try:
        inputs = workload.load(sk)
        setup, raw_setup = clock() - t0, time.perf_counter() - r0
        gc.collect()
        t1, r1 = clock(), time.perf_counter()
        outputs = workload.run(inputs, items, clock)
        wall, raw_wall = clock() - t1, time.perf_counter() - r1
    finally:
        if tracer is not None:
            tracer.uninstall()
    attempted, failed = workload.check(outputs)
    return {"setup": setup, "wall": wall, "raw_setup": raw_setup, "raw_wall": raw_wall,
            "items": items, "outputs": outputs, "attempted": attempted, "failed": failed}


def measure(workload, seconds: float, traced: bool) -> dict:
    """Set up and run timed phases until they add up to ``seconds`` and at
    least ``MIN_PHASES`` ran.  A traced run makes a traced phase between two
    untraced ones, and counts the traced items as failed unless all three
    gave the same outputs."""
    tracer = None
    with RefClock() as clock:
        if traced:
            tracer = Tracer(clock.now)
            phases = [phase(workload, clock.now), phase(workload, clock.now, tracer),
                      phase(workload, clock.now)]
            if not phases[0]["outputs"] == phases[1]["outputs"] == phases[2]["outputs"]:
                print(f"{workload.name}: traced outputs differ from untraced ones",
                      file=sys.stderr)
                phases[1]["failed"] = phases[1]["attempted"]
        else:
            phases = []
            while len(phases) < MIN_PHASES or sum(p["wall"] for p in phases) < seconds:
                phases.append(phase(workload, clock.now))
                del phases[-1]["outputs"]
        setups = [p["setup"] for p in phases]
        raw_setups = [p["raw_setup"] for p in phases]
        while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
            t0, r0 = clock.now(), time.perf_counter()
            inputs = workload.load(fresh_starkit())
            setups.append(clock.now() - t0)
            raw_setups.append(time.perf_counter() - r0)
            del inputs
    return {"setup": setups, "raw_setup": raw_setups, "walls": [p["wall"] for p in phases],
            "raw_walls": [p["raw_wall"] for p in phases],
            "items": [p["items"] for p in phases],
            "attempted": sum(p["attempted"] for p in phases),
            "failed": sum(p["failed"] for p in phases),
            "tracer": tracer, "probes": clock.probes, "probe_s": clock.probe_s}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "starkit" / "__init__.py").is_file():
        print(f"no starkit package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("STARKIT_MAX_MORPHISMS", None)  # use the library's default bounds

    try:
        expected = json.loads((HERE / "expected.json").read_text("utf-8"))
        workload = WORKLOADS[args.workload](expected, args.seed)
        result = measure(workload, args.seconds, bool(args.trace))
    except (InputMismatch, OSError, ImportError) as e:
        print(f"{args.workload}: cannot run: {e}", file=sys.stderr)
        return 2

    attempted, failed = result["attempted"], result["failed"]
    walls = result["walls"]
    if args.trace:
        tracer = result["tracer"]
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in tracer.metrics().items()}
        metrics["trace.wall_s"] = {"value": walls[1], "unit": "s"}
        metrics["trace.overhead_s"] = {"value": walls[1] - (walls[0] + walls[2]) / 2,
                                       "unit": "s"}
        if tracer.absent:
            print(f"absent from this commit: {', '.join(tracer.absent)}", file=sys.stderr)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(result["setup"]), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
    items = [[t * 1000.0 for t in times] for times in result["items"]]
    p50, p99 = (statistics.median(quantile(times, q) for times in items) for q in (50, 99))
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"phases={[round(w, 4) for w in walls]} "
          f"real={[round(w, 4) for w in result['raw_walls']]} "
          f"set-up={statistics.median(result['setup']):.4f} "
          f"real={statistics.median(result['raw_setup']):.4f} "
          f"(x{len(result['setup'])}) "
          f"items={len(items[0])} item_p50_ms={p50:.4f} item_p99_ms={p99:.4f} "
          f"probes={result['probes']} ({result['probe_s']:.2f} real s) "
          f"error_rate={failed / attempted:.6f}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
