"""Layouts shared per shape, checked against the per-category loop.

A category's ``_dom``, ``_cod``, ``_into``, ``_out``, ``_homs``, ``_pos``
and ``thin`` come from ``starkit.core._LAYOUTS``, one entry per shape.  Each
category built here is compared with ``oracle_layout`` run on morphism ends
taken from its source where that is independent of the layout: the
enumerator's type vectors, a fixture's declared morphisms, or the parent's
names for a full subcategory.  The completions, which build their tables
inside ``regular_completion``, are compared on their own ends."""
from __future__ import annotations

import itertools
import json
import subprocess
import sys

import pytest

from starkit import enumerate_categories, full_subcategory, regular_completion
from starkit.core import _LAYOUTS
from starkit.corpus import CategoryBlock, _fill_tables
from tests.conftest import FIXTURES, load, subprocess_env
from tests.helpers import oracle_layout

SHARED = ("_dom", "_cod", "_into", "_out", "_homs", "_pos")


def _layout(C) -> tuple:
    """C's layout in the oracle's form: lists in place of tuples."""
    return (list(C._dom), list(C._cod), [list(e) for e in C._into],
            [list(e) for e in C._out], {e: list(ms) for e, ms in C._homs.items()},
            list(C._pos), C.thin)


def _enumerated(max_morphisms: int):
    """(source, category, k, dom, cod) for every enumerated category, the
    ends read off the type vector the enumerator filled."""
    types_of = ((k, types) for n in range(1, max_morphisms + 1) for k in range(1, n + 1)
                for types in itertools.combinations_with_replacement(
                    list(itertools.product(range(k), repeat=2)), n - k)
                for _ in _fill_tables(k, types))
    for C, (k, types) in zip(enumerate_categories(max_morphisms), types_of, strict=True):
        yield ("enumerated", C, k, [*range(k), *(a for a, _ in types)],
               [*range(k), *(b for _, b in types)])


def _fixtures():
    for path in sorted(FIXTURES.glob("*.fincat")):
        if path.name == "broken.fincat":
            continue
        corpus = load(path.name)
        for block in corpus.blocks:
            if isinstance(block, CategoryBlock):
                raw = block.raw
                obj = {x: i for i, x in enumerate(raw.objects)}
                k = len(obj)
                yield ("fixture", corpus.category(raw.name), k,
                       [*range(k), *(obj[d] for _, d, _ in raw.morphisms)],
                       [*range(k), *(obj[c] for _, _, c in raw.morphisms)])


def _ends(C) -> tuple[int, list[int], list[int]]:
    return (len(C.objects), [C._obj[m.dom] for m in C.morphisms],
            [C._obj[m.cod] for m in C.morphisms])


def _completions():
    for name, category in (("arrow.fincat", "Arrow"), ("chain3.fincat", "Chain3")):
        P = load(name).category(category)
        for _ in range(2):
            compl = regular_completion(P)
            P = compl.total
            yield ("completion", P, *_ends(P))
            yield ("subcategory", *_subcategory(compl.cover.cover))


def _subcategory(S) -> tuple:
    """(category, k, dom, cod) of a full subcategory, the ends read off the
    parent's morphisms by name."""
    P, obj = S.parent, {x: i for i, x in enumerate(S.objects)}
    kept = [m for m in P.morphisms if m.dom in obj and m.cod in obj]
    C = S.category
    if C.morphism_names != tuple(m.name for m in kept):
        raise AssertionError(f"{S.label} keeps other morphisms than its parent's")
    return C, len(obj), [obj[m.dom] for m in kept], [obj[m.cod] for m in kept]


def layout_report(max_morphisms: int = 6, sub_morphisms: int = 5) -> dict:
    """Every category of the sweep against the oracle, and what the shared
    table shares.  Returns counts and offending names instead of asserting,
    so that a run under ``python -O`` reports the same."""
    items = [*_enumerated(max_morphisms), *_fixtures(), *_completions()]
    parents = [C for source, C, *_ in items
               if source == "fixture" or (source == "enumerated"
                                          and len(C.morphism_names) <= sub_morphisms)]
    items += [("subcategory", *_subcategory(full_subcategory(C, objs)))
              for C in parents for r in range(1, len(C.objects) + 1)
              for objs in itertools.combinations(C.objects, r)]
    report = {"debug": __debug__, "differ": [], "writable": [], "unshared": [],
              "categories": {}, "shapes": 0, "mixed_shapes": 0, "shared_rows": 0}
    groups: dict[tuple, list] = {}
    for source, C, k, dom, cod in items:
        report["categories"][source] = report["categories"].get(source, 0) + 1
        if _layout(C) != oracle_layout(k, dom, cod):
            report["differ"].append(C.name)
        if not (all(type(getattr(C, a)) is tuple for a in ("_dom", "_cod", "_pos",
                                                            "_into", "_out"))
                and all(type(e) is tuple for e in (*C._into, *C._out, *C._homs.values()))):
            report["writable"].append(C.name)
        groups.setdefault((k, tuple(dom), tuple(cod)), []).append((source, C))
    for members in groups.values():
        first = members[0][1]
        if any(getattr(C, a) is not getattr(first, a) for _, C in members for a in SHARED):
            report["unshared"].append(first.name)
        report["mixed_shapes"] += len({source for source, _ in members}) > 1
    report["shapes"] = len(groups)
    # every category above is alive, so two equal ids are one shared list
    rows = [id(r) for _, C, *_ in items for r in (C._rows, *C._rows)]
    report["shared_rows"] = len(rows) - len(set(rows))
    return report


EXPECTED = {"differ": [], "writable": [], "unshared": [], "shared_rows": 0,
            "categories": {"enumerated": 3257, "fixture": 5, "completion": 4,
                           "subcategory": 848},
            "shapes": 101, "mixed_shapes": 44}


def _pinned(report: dict) -> dict:
    return {key: report[key] for key in EXPECTED}


def test_shared_layouts_match_the_per_category_loop():
    report = layout_report()
    assert report["debug"] is True
    assert _pinned(report) == EXPECTED


UNDER_OPTIMIZE = """
import json
from tests.test_layout import layout_report
print(json.dumps(layout_report()))
"""


def test_shared_layouts_match_under_optimize():
    proc = subprocess.run([sys.executable, "-O", "-c", UNDER_OPTIMIZE], capture_output=True,
                          text=True, env=subprocess_env(), cwd=FIXTURES.parent)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["debug"] is False
    assert _pinned(report) == EXPECTED


def test_a_shared_layout_refuses_writes(chain3):
    for write in (lambda: chain3._into[0].append(0), lambda: chain3._out[1].append(0),
                  lambda: chain3._homs[0, 1].append(0), lambda: chain3._pos.append(0),
                  lambda: chain3._dom.append(0)):
        with pytest.raises(AttributeError):
            write()
    with pytest.raises(TypeError):
        chain3._into[0][0] = 1


def test_the_shape_table_holds_ints_only(chain3, ptset2):
    """Each entry is the key's two tuples and what was derived from them,
    so the table keeps O(morphisms) ints per shape, never a row or a
    category."""
    def ints(value) -> bool:
        if isinstance(value, tuple):
            return all(map(ints, value))
        if isinstance(value, dict):
            return ints(tuple(value)) and ints(tuple(value.values()))
        return type(value) in (int, bool)

    assert (chain3._into, ptset2._into) == (
        _LAYOUTS[3, chain3._dom, chain3._cod][2], _LAYOUTS[2, ptset2._dom, ptset2._cod][2])
    for (k, dom, cod), layout in _LAYOUTS.items():
        assert type(k) is int and layout[0] is dom and layout[1] is cod and ints(layout)
