"""Golden timing identity: the cycle model is pinned field for field.

``tests/data/golden_timing.json`` records, for every case of the corpus
defined in ``tests/data/capture_timing_golden.py``, all
:class:`~repro.arch.stats.ExecutionStats` counters (cycles exact, as
``float.hex``), the timed-instruction count of the replay backends and
the functional core's state fingerprint.  Re-running a case must
reproduce its record exactly: a restructuring of the processor model
(handler binding, block execution, cache geometry) is only a
refactoring if not one cycle, counter or architectural bit moves.
"""

import importlib.util
import json
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"

_spec = importlib.util.spec_from_file_location(
    "capture_timing_golden", DATA / "capture_timing_golden.py")
capture = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(capture)

GOLDEN = json.loads((DATA / "golden_timing.json").read_text())


def test_corpus_matches_fixture():
    """The capture script's corpus and the committed fixture agree."""
    ids = [capture.case_id(case) for case in capture.cases()]
    assert len(ids) == len(set(ids))
    assert sorted(ids) == sorted(GOLDEN)
    for case in capture.cases():
        assert GOLDEN[capture.case_id(case)]["case"] == case


@pytest.mark.parametrize("case_id", sorted(GOLDEN))
def test_case_reproduces_golden_record(case_id):
    entry = GOLDEN[case_id]
    expected = {key: value for key, value in entry.items() if key != "case"}
    got = capture.measure(entry["case"])
    assert got["stats"] == expected["stats"]
    assert got == expected
