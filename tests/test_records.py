"""The package's records: eleven NamedTuples and five slotted classes that
validate or cache, and ``MorphismFlags``, a NamedTuple that moved to
tests/helpers.py with the test-only ``morphism_flags``.  Each keeps the
repr, ``==`` and ``hash`` it had as a dataclass, and importing the package
generates no methods."""
from __future__ import annotations

import importlib
import inspect
import pkgutil
import subprocess
import sys

import pytest

import starkit
from starkit.completion import Completion
from starkit.core import (FullSubcategory, Morphism, ParallelPair,
                          RawCategory, ReflexiveGraph, Violation, validate_category)
from starkit.corpus import CategoryBlock, CorpusFile, CoverBlock, IdealBlock
from starkit.ideals import CoverWitness, Ideal, MultiPointedCategory, _ideal
from starkit.limits import Cone
from starkit.report import FAIL, Report
from starkit.stars import StarWitness
from tests.conftest import subprocess_env
from tests.helpers import MorphismFlags

RAW = RawCategory("Arrow", ("A", "B"), (("f", "A", "B"),), ())
C = validate_category(RAW)
D = validate_category(RawCategory("Other", ["A"], [], []))
SUB = FullSubcategory(C, ["A"])
CAT = "FinCategory('Arrow', 2 objects, 3 morphisms)"
RAW_REPR = "RawCategory(name='Arrow', objects=('A', 'B'), morphisms=(('f', 'A', 'B'),), compositions=())"
PAIR = "ParallelPair(f1='f', f2='f')"
IDEAL = f"Ideal(cat={CAT}, carrier=frozenset({{'f'}}))"
COVER = f"CoverWitness(cat={CAT}, cover=FullSubcategory('Arrow', ['A']))"

# class -> (a maker of one fixed instance, its repr at the dataclass version,
# whether it hashes); the maker runs twice, giving equal but distinct records
RECORDS = {
    Morphism: (lambda: Morphism("f", "A", "B"),
               "Morphism(name='f', dom='A', cod='B')", True),
    RawCategory: (lambda: RawCategory("Arrow", ("A", "B"), (("f", "A", "B"),), ()),
                  RAW_REPR, True),
    Violation: (lambda: Violation("BadTyping", "pair (f, f) is not composable"),
                "Violation(kind='BadTyping', detail='pair (f, f) is not composable')", True),
    ParallelPair: (lambda: ParallelPair("f", "f"), PAIR, True),
    ReflexiveGraph: (lambda: ReflexiveGraph("1_A", "1_A", "1_A"),
                     "ReflexiveGraph(d='1_A', c='1_A', e='1_A')", True),
    MorphismFlags: (lambda: MorphismFlags(True, False, True, False, False),
                    "MorphismFlags(mono=True, epi=False, split_mono=True, "
                    "split_epi=False, iso=False)", True),
    Cone: (lambda: Cone("A", ("f",)), "Cone(apex='A', legs=('f',))", True),
    StarWitness: (lambda: StarWitness(ParallelPair("f", "f"), "1_A", ParallelPair("f", "f")),
                  f"StarWitness(pair={PAIR}, k='1_A', star={PAIR})", True),
    Completion: (lambda: Completion(C, C, {"A": "A"}, {"f": "f"}, CoverWitness(C, SUB),
                                    {"f": ("f",)}),
                 f"Completion(base={CAT}, total={CAT}, embed_objects={{'A': 'A'}}, "
                 f"embed_morphisms={{'f': 'f'}}, cover={COVER}, classes={{'f': ('f',)}})", False),
    CategoryBlock: (lambda: CategoryBlock(RAW), f"CategoryBlock(raw={RAW_REPR})", True),
    IdealBlock: (lambda: IdealBlock("pt", "Arrow", ["f"]),
                 "IdealBlock(name='pt', on='Arrow', members=['f'])", False),
    CoverBlock: (lambda: CoverBlock("P", "Arrow", ["A"]),
                 "CoverBlock(name='P', on='Arrow', objects=['A'])", False),
    Ideal: (lambda: Ideal(C, frozenset({"f"})), IDEAL, True),
    MultiPointedCategory: (lambda: MultiPointedCategory(C, Ideal(C, frozenset({"f"}))),
                           f"MultiPointedCategory(cat={CAT}, ideal={IDEAL})", True),
    CoverWitness: (lambda: CoverWitness(C, SUB), COVER, True),
    Report: (lambda: Report("pi0", FAIL, ["pair (f, f)"]),
             "Report(name='pi0', verdict='FAIL', witnesses=['pair (f, f)'])", False),
    CorpusFile: (lambda: CorpusFile(["# one arrow"], [CategoryBlock(RAW)]),
                 f"CorpusFile(header=['# one arrow'], blocks=[CategoryBlock(raw={RAW_REPR})])",
                 False),
}
SLOTTED = {Ideal, MultiPointedCategory, CoverWitness, Report, CorpusFile}


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)
def test_record_keeps_repr_equality_and_hash(cls):
    make, text, hashable = RECORDS[cls]
    a, b = make(), make()
    assert type(a) is cls and repr(a) == text
    assert a == b and a is not b and not a != b
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    if cls in SLOTTED:
        assert not hasattr(a, "__dict__")
        assert a != tuple(getattr(a, f) for f in cls._fields)
    else:
        assert isinstance(a, tuple) and a == tuple(a)


def test_records_keep_their_extra_members():
    assert str(Violation("BadTyping", "no")) == "BadTyping: no"
    assert CategoryBlock(RAW).name == "Arrow"
    assert CoverWitness(C, SUB).key == ("A",)
    assert Ideal(C, frozenset({"f"})).mask == 1 << C._index["f"]
    assert Ideal(C, frozenset({"g"})).mask is None
    assert repr(_ideal(C, 1 << C._index["f"])) == IDEAL  # names made on the first read


def test_validating_records_still_refuse_bad_fields():
    with pytest.raises(ValueError, match="FAIL report 'x' must carry a witness"):
        Report("x", FAIL)
    with pytest.raises(ValueError, match="unknown verdict 'MAYBE'"):
        Report("x", "MAYBE")
    with pytest.raises(ValueError, match="ideal does not live on this category"):
        MultiPointedCategory(C, Ideal(D, frozenset({"1_A"})))
    for ideal in (Ideal(C, frozenset({"1_A"})), _ideal(C, 1 << C._index["1_A"])):
        with pytest.raises(ValueError, match=r"\{1_A\} is not an ideal of Arrow"):
            MultiPointedCategory(C, ideal)
    with pytest.raises(ValueError, match="cover does not live on this category"):
        CoverWitness(C, FullSubcategory(D, ["A"]))


def test_corpus_equality_ignores_its_caches():
    blocks = [CategoryBlock(RAW), CoverBlock("P", "Arrow", ["A"])]
    used, fresh = CorpusFile([], blocks), CorpusFile([], blocks)
    used.category("Arrow"), used.cover("P")
    assert used._cats and used._covers and not fresh._cats and not fresh._covers
    assert used == fresh and repr(used) == repr(fresh)


def test_corpus_equality_tells_block_kinds_apart():
    # the blocks equal the plain tuples of their fields, so an IdealBlock
    # equals a CoverBlock, though one is an ideal and the other a cover
    ideal, cover = IdealBlock("X", "C", ("a",)), CoverBlock("X", "C", ("a",))
    assert ideal == cover
    assert CorpusFile(None, [ideal]) != CorpusFile(None, [cover])
    assert CorpusFile(None, [ideal]) == CorpusFile([], [IdealBlock("X", "C", ("a",))])


def test_no_class_of_the_package_is_a_dataclass():
    modules = [importlib.import_module(f"starkit.{m.name}")
               for m in pkgutil.iter_modules(starkit.__path__) if m.name != "__main__"]
    classes = [cls for module in modules for _, cls in inspect.getmembers(module, inspect.isclass)
               if cls.__module__.startswith("starkit")]
    assert set(RECORDS) - {MorphismFlags} <= set(classes)
    assert [cls for cls in classes if hasattr(cls, "__dataclass_fields__")] == []


IMPORT_FOOTPRINT = """
import sys
before = set(sys.modules)
import starkit.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_importing_the_command_line_loads_no_code_generator():
    # dataclasses builds each record's methods with exec at import, and
    # brings inspect with it; the NamedTuples and slotted classes need neither
    proc = subprocess.run([sys.executable, "-c", IMPORT_FOOTPRINT],
                          capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "starkit.cli" in loaded
    assert "dataclasses" not in loaded and "inspect" not in loaded
