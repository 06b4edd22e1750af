from __future__ import annotations

import os
from pathlib import Path

import pytest

from starkit.corpus import CorpusFile, enumerate_categories, parse

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SRC = FIXTURES.parent / "src"

FIXTURE_FILES = ["one.fincat", "chain3.fincat", "ptset2.fincat",
                 "arrow.fincat", "broken.fincat"]


def subprocess_env() -> dict[str, str]:
    """The environment with the package source first on PYTHONPATH, so that a
    child Python imports starkit without an installed copy."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), path]))}


def load(name: str) -> CorpusFile:
    return parse((FIXTURES / name).read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def one_corpus() -> CorpusFile:
    return load("one.fincat")


@pytest.fixture(scope="session")
def chain3_corpus() -> CorpusFile:
    return load("chain3.fincat")


@pytest.fixture(scope="session")
def ptset2_corpus() -> CorpusFile:
    return load("ptset2.fincat")


@pytest.fixture(scope="session")
def one(one_corpus):
    return one_corpus.category("One")


@pytest.fixture(scope="session")
def chain3(chain3_corpus):
    return chain3_corpus.category("Chain3")


@pytest.fixture(scope="session")
def ptset2(ptset2_corpus):
    return ptset2_corpus.category("PtSet2")


@pytest.fixture(scope="session")
def arrow():
    return load("arrow.fincat").category("Arrow")


@pytest.fixture(scope="session")
def enumerated6() -> list:
    """Every category with at most 6 morphisms, in emission order."""
    return list(enumerate_categories(6))
