"""Check that the reference clock reports a known extra cost at its size.

    python3 perfbench/calibrate.py --workload sweep --pairs 3 --seconds 1 --burn-ms 1.5
    python3 perfbench/calibrate.py --workload complete --pairs 3 --seconds 1 \
        --burn-ms 1500 --burns loop

Every time the benchmark reports is read on ``refclock.RefClock``, which
divides real time by a slowdown it estimates from a yardstick run inside the
measured process.  This script checks that estimate in two ways.

1. Cache state.  It times the yardstick right after another call of it and
   right after a walk through a 32 MB buffer, once as it is and once after
   the untimed warm-up round the clock runs before each probe.  The ratio
   shows how much a program that evicts the caches would slow the probe.
2. Known extra cost.  It makes ``--pairs`` pairs of runs of a workload, each
   run in a fresh process and as the benchmark makes it (``--seconds``,
   untraced), one plain and one with a burn after every item, inside the
   timed phase: a fixed pure-Python loop (``loop``), or the same loop
   reading the 32 MB buffer at each step, which evicts the caches
   (``walk``).  The burns belong to this script, never to the program.  A
   burned run first times its burn alone on a reference clock; its
   ``wall_s`` should then exceed the plain run's by the items of a phase
   times that cost.  It also times every burn where it runs, amid the
   program, in reference and in real seconds: if the clock read the same
   code alike alone and amid the program, the two in-situ/alone ratios
   agree.  It prints, per pair and burn, the rise in reference and in real
   seconds next to the expected rise, and both in-situ/alone ratios.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
from refclock import RefClock, reference  # noqa: E402

BUFFER = bytearray(range(256)) * (1 << 17)  # 32 MB, every page written
MASK = len(BUFFER) - 1


def loop(n: int) -> int:
    x = 1
    for _ in range(n):
        x = (x * 1103515245 + 12345) & MASK
    return x


def walk(n: int) -> int:
    buf, x, s = BUFFER, 1, 0
    for _ in range(n):
        x = (x * 1103515245 + 12345) & MASK
        s += buf[x]
    return s


BURNS = {"loop": loop, "walk": walk}


def evict() -> int:
    buf, s = BUFFER, 0
    for i in range(0, len(buf), 64):
        s += buf[i]
    return s


def cache_state(rounds: int = 150) -> None:
    def timed() -> float:
        t0 = time.perf_counter()
        reference()
        return time.perf_counter() - t0

    reference()
    for warm in (0, 1):
        after_probe, after_walk = [], []
        for _ in range(rounds):
            reference(warm)
            after_probe.append(timed())
            evict()
            reference(warm)
            after_walk.append(timed())
        a, b = statistics.median(after_probe), statistics.median(after_walk)
        print(f"yardstick, {warm} warm-up round(s): {a * 1e3:.4f} ms after a probe, "
              f"{b * 1e3:.4f} ms after a 32 MB walk, ratio {b / a:.4f}")


def burn_cost(burn, n: int) -> tuple[float, float]:
    """Median reference and real seconds of ``burn(n)`` run alone."""
    ref, real = [], []
    with RefClock() as clock:
        for _ in range(40):
            t0, r0 = clock.now(), time.perf_counter()
            burn(n)
            ref.append(clock.now() - t0)
            real.append(time.perf_counter() - r0)
    return statistics.median(ref), statistics.median(real)


class Burned:
    """A workload with ``burn`` run after every item, inside the timed phase.
    ``in_situ`` collects, per phase, the reference and real seconds the
    burns took there."""

    def __init__(self, workload, burn):
        self.workload, self.burn = workload, burn
        self.name, self.load, self.check = workload.name, workload.load, workload.check
        self.in_situ: list[list[float]] = []

    def run(self, inputs, items: list[float], clock):
        burn = self.burn
        spent = [0.0, 0.0]
        self.in_situ.append(spent)

        class Burning:
            def append(self, t: float) -> None:
                items.append(t)
                t0, r0 = clock(), time.perf_counter()
                burn()
                spent[0] += clock() - t0
                spent[1] += time.perf_counter() - r0

        return self.workload.run(inputs, Burning(), clock)


def child(args) -> None:
    sys.path.insert(0, str(run.SRC))
    expected = json.loads((HERE / "expected.json").read_text("utf-8"))
    workload = run.WORKLOADS[args.workload](expected, args.seed)
    cost, in_situ = (0.0, 0.0), (0.0, 0.0)
    if args.burn != "none":
        burn = BURNS[args.burn]
        probe = 20000
        n = max(1, round(probe * args.burn_ms / 1e3 / burn_cost(burn, probe)[0]))
        cost = burn_cost(burn, n)
        workload = Burned(workload, lambda: burn(n))
    result = run.measure(workload, args.seconds, False)
    if args.burn != "none":
        in_situ = tuple(statistics.median(p[i] for p in workload.in_situ) for i in (0, 1))
    print(json.dumps({
        "wall": statistics.median(result["walls"]),
        "raw_wall": statistics.median(result["raw_walls"]),
        "items": len(result["items"][0]), "cost": cost, "in_situ": in_situ,
        "failed": result["failed"]}))


def spawn(args, seed: int, burn: str) -> dict:
    command = [sys.executable, __file__, "--child", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--burn", burn,
               "--burn-ms", str(args.burn_ms)]
    done = subprocess.run(command, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=300)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    if result["failed"]:
        raise SystemExit(f"{args.workload} seed {seed} burn {burn}: failed items")
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--burn-ms", type=float, default=1.5,
                        help="cost of one burn, in reference milliseconds")
    parser.add_argument("--burns", nargs="*", default=sorted(BURNS), choices=sorted(BURNS))
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--seed", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--burn", default="none", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child(args)
        return

    cache_state()
    ratios: dict[str, list[tuple]] = {burn: [] for burn in args.burns}
    for seed in range(args.pairs):
        plain = spawn(args, seed, "none")
        for burn in args.burns:
            burned = spawn(args, seed, burn)
            ref_cost, raw_cost = burned["cost"]
            want, want_raw = burned["items"] * ref_cost, burned["items"] * raw_cost
            rise, rise_raw = burned["wall"] - plain["wall"], burned["raw_wall"] - plain["raw_wall"]
            situ, situ_raw = burned["in_situ"][0] / want, burned["in_situ"][1] / want_raw
            ratios[burn].append((rise / want, rise_raw / want_raw, situ, situ_raw))
            print(f"{args.workload} seed {seed} {burn}: {burned['items']} items x "
                  f"{ref_cost * 1e3:.4f} ms, wall_s {plain['wall']:.3f} -> "
                  f"{burned['wall']:.3f}, rise {rise:.3f} s for {want:.3f} s "
                  f"(x{rise / want:.3f}); real {plain['raw_wall']:.3f} -> "
                  f"{burned['raw_wall']:.3f}, rise {rise_raw:.3f} s for {want_raw:.3f} s "
                  f"(x{rise_raw / want_raw:.3f}); in situ / alone x{situ:.3f}, "
                  f"real x{situ_raw:.3f}")
    for burn, values in ratios.items():
        medians = [statistics.median(v[i] for v in values) for i in range(4)]
        print(f"{args.workload} {burn}, medians over {len(values)} pairs: rise / expected "
              f"x{medians[0]:.3f}, real x{medians[1]:.3f}; in situ / alone "
              f"x{medians[2]:.3f}, real x{medians[3]:.3f}")


if __name__ == "__main__":
    main()
