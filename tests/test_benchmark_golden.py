"""The benchmark families' documents match perfbench/golden, as the CI step
that reruns perfbench/make_golden.py checks, but within the test suite."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
FAMILIES = sorted(p.stem for p in (PERFBENCH / "golden").glob("*.json"))


@pytest.fixture(scope="module")
def make_golden():
    saved = list(sys.path)  # the script puts perfbench/ and src/ on the path
    try:
        spec = importlib.util.spec_from_file_location("perfbench_make_golden",
                                                      PERFBENCH / "make_golden.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


def test_every_family_has_a_golden_file(make_golden):
    assert FAMILIES == sorted(make_golden.ins.FAMILIES)


@pytest.mark.parametrize("family", FAMILIES)
def test_family_documents_match_golden(make_golden, family, tmp_path):
    golden = json.loads((PERFBENCH / "golden" / f"{family}.json").read_text())
    inst = make_golden.ins.relabel(make_golden.ins.FAMILIES[family], None, str(tmp_path))
    assert make_golden.documents(inst) == golden["documents"]
