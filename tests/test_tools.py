"""The fault injector `tools/mutants.py` stays in step with the sources."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("name, file, old, new", mutants.MUTANTS,
                         ids=[m[0] for m in mutants.MUTANTS])
def test_every_fragment_occurs_exactly_once(name, file, old, new):
    # A stale mutant would be skipped by the tool, not run.
    assert (ROOT / "src" / "tdlcw" / file).read_text().count(old) == 1
    assert new != old


def test_mutant_names_are_unique():
    names = [m[0] for m in mutants.MUTANTS]
    assert len(names) == len(set(names))
