"""Per-layer spans and counters, installed from outside the program.

A ``Tracer`` replaces each public function of the six ``starkit`` layers
(``core``, ``corpus``, ``limits``, ``ideals``, ``stars``, ``completion``)
with a wrapper that opens a span on entry and closes it on exit.  The
wrapper is written onto every ``starkit.*`` module attribute that is the
original function, because the modules import each other by name.  A
layer's self time is the time inside its spans minus the time inside the
spans they open.  Per-cell accessors (``compose``, ``hom``, ``dom``,
``cod``) are methods and are never wrapped: their cost counts as self time
of the layer that calls them.

Spans are timed on the clock the tracer is given; the benchmark passes its
reference-second clock, which also leaves out the time of its own probes.
They are aggregated as they close, never stored one by one, so memory does
not grow with the number of calls.  A function missing at some commit is
listed in ``absent`` and its counters read 0.
"""
from __future__ import annotations

import functools
import inspect
import sys

LAYERS = {
    "core": ("validate_category", "morphism_flags", "is_jointly_monic",
             "enumerate_reflexive_graphs", "full_subcategory",
             "identity_name"),
    "corpus": ("parse", "serialize", "canonical_key", "are_isomorphic",
               "are_equivalent", "enumerate_categories",
               "search_counterexample"),
    "limits": ("limit_cones", "terminal_cones", "product_cones",
               "equalizer_cones", "pullback_cones", "kernel_pair_cones",
               "kernel_pairs", "has_weak_finite_limits", "coequalizer",
               "is_coequalizer", "regular_epis", "is_regular_epi",
               "image_factorization", "is_regular_category"),
    "ideals": ("is_ideal", "ideal_closure", "kernels", "has_all_kernels",
               "pointed_ideal", "restrict_ideal", "extend_ideal",
               "is_saturating", "regular_epis_saturating",
               "is_projective_cover", "nc_kernel_via_cover",
               "enumerate_ideals", "sample_ideals", "verify_lemma_a",
               "verify_galois_and_iso"),
    "stars": ("star_of", "satisfies_star_pi0", "reflexive_graphs_star_pi0",
              "check_theorem_a", "kernel_star", "is_star_regular",
              "is_normal_category", "check_corollary_d"),
    "completion": ("regular_completion", "is_regular_completion",
                   "check_theorem_c", "check_corollary_c",
                   "check_corollary_b"),
}

# Memo keys whose miss means a limit was searched for, not read back.
LIMIT_KEYS = ("terminal", "product", "equalizer", "pullback", "kernel_pair")

# The canonical-form routine the enumerator calls once per generated table.
CANONICAL_FORM = ("corpus", "_canonical_key")


def _starkit_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "starkit" or name.startswith("starkit."))]


class Tracer:
    """Spans and counters for one traced workload run, timed on ``clock``.

    ``install`` wraps the functions of the currently imported ``starkit``
    modules; ``uninstall`` puts the originals back.
    """

    def __init__(self, clock):
        self.clock = clock
        self.layer_calls = {layer: 0 for layer in LAYERS}
        self.layer_self = {layer: 0.0 for layer in LAYERS}
        self.fn_calls: dict[str, int] = {}
        self.fn_time: dict[str, float] = {}
        self.memo_hits = 0
        self.memo_misses = 0
        self.limit_searches = 0
        self.tables_generated = 0
        self.categories_emitted = 0
        self.ideals_enumerated = 0
        self.completion_morphisms = 0
        self.absent: list[str] = []
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _span(self, layer: str, name: str, fn):
        stack = self._stack
        clock = self.clock

        def close(t0: float, frame: list[float]) -> None:
            dt = clock() - t0
            stack.pop()
            self.layer_self[layer] += dt - frame[0]
            self.fn_time[name] += dt
            if stack:
                stack[-1][0] += dt

        if inspect.isgeneratorfunction(fn):
            # Each resumption of the generator is one span.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                self.layer_calls[layer] += 1
                self.fn_calls[name] += 1
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        frame = [0.0]
                        stack.append(frame)
                        t0 = clock()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            close(t0, frame)
                        if name == "enumerate_categories":
                            self.categories_emitted += 1
                        yield item
                finally:
                    inner.close()
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.layer_calls[layer] += 1
            self.fn_calls[name] += 1
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(t0, frame)
            if name == "enumerate_ideals":
                self.ideals_enumerated += len(result)
            elif name == "regular_completion":
                self.completion_morphisms += len(result.total.morphisms)
            return result
        return wrapper

    def _count_calls(self, fn):
        @functools.wraps(fn)
        def counter(*args, **kwargs):
            self.tables_generated += 1
            return fn(*args, **kwargs)
        return counter

    def _memo(self, fn):
        # Hit or miss is told by whether the compute callback runs, so the
        # count does not depend on how the cache is stored.
        @functools.wraps(fn)
        def memo(cat, key, compute):
            ran = False

            def counted():
                nonlocal ran
                ran = True
                return compute()

            value = fn(cat, key, counted)
            if ran:
                self.memo_misses += 1
                if isinstance(key, tuple) and key[0] in LIMIT_KEYS:
                    self.limit_searches += 1
            else:
                self.memo_hits += 1
            return value
        return memo

    # -- installation ---------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for module in _starkit_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        for layer, names in LAYERS.items():
            home = sys.modules.get(f"starkit.{layer}")
            for name in names:
                original = getattr(home, name, None)
                if not callable(original):
                    self.absent.append(f"{layer}.{name}")
                    continue
                self.fn_calls.setdefault(name, 0)
                self.fn_time.setdefault(name, 0.0)
                self._replace_everywhere(original, self._span(layer, name, original))

        layer, name = CANONICAL_FORM
        original = getattr(sys.modules.get(f"starkit.{layer}"), name, None)
        if callable(original):
            self._replace_everywhere(original, self._count_calls(original))
        else:
            self.absent.append(f"{layer}.{name}")

        core = sys.modules.get("starkit.core")
        cls = getattr(core, "FinCategory", None)
        original = getattr(cls, "_memo", None)
        if callable(original):
            self._restore.append((cls, "_memo", original))
            cls._memo = self._memo(original)
        else:
            self.absent.append("core.FinCategory._memo")

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.layer_calls[layer], "count")
            out[f"{layer}.self_s"] = (self.layer_self[layer], "s")
        calls = self.fn_calls.get
        seconds = self.fn_time.get
        memo_total = self.memo_hits + self.memo_misses
        out.update({
            "corpus.tables_generated": (self.tables_generated, "count"),
            "corpus.categories_emitted": (self.categories_emitted, "count"),
            "corpus.keep_ratio": (self.categories_emitted / self.tables_generated
                                  if self.tables_generated else 0.0, "ratio"),
            "core.validate_calls": (calls("validate_category", 0), "count"),
            "core.validate_s": (seconds("validate_category", 0.0), "s"),
            "core.memo_hits": (self.memo_hits, "count"),
            "core.memo_misses": (self.memo_misses, "count"),
            "core.memo_hit_ratio": (self.memo_hits / memo_total
                                    if memo_total else 0.0, "ratio"),
            "limits.pullback_calls": (calls("pullback_cones", 0), "count"),
            "limits.kernel_pair_calls": (calls("kernel_pair_cones", 0), "count"),
            "limits.limit_searches": (self.limit_searches, "count"),
            "ideals.kernel_calls": (calls("kernels", 0), "count"),
            "ideals.ideals_enumerated": (self.ideals_enumerated, "count"),
            "ideals.extend_calls": (calls("extend_ideal", 0), "count"),
            "stars.pairs_checked": (calls("satisfies_star_pi0", 0), "count"),
            "completion.total_morphisms": (self.completion_morphisms, "count"),
        })
        return out

