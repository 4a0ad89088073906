"""Golden cache keys: ``job_hash`` is pinned byte for byte.

``tests/data/golden_job_keys.json`` records the key of every job in the
corpus of ``tests/data/capture_job_keys.py``.  A cache written by an
earlier revision is only answered warm if every key is unchanged, so a
refactoring of the job representation, its canonical form or the cache
must reproduce each pinned key exactly (or bump ``CACHE_SCHEMA`` on
purpose and regenerate the fixture).
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.eval.engine import job_hash

DATA = Path(__file__).parent / "data"

_spec = importlib.util.spec_from_file_location(
    "capture_job_keys", DATA / "capture_job_keys.py")
capture = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(capture)

GOLDEN = json.loads((DATA / "golden_job_keys.json").read_text())


@pytest.fixture(autouse=True)
def _packaged_defaults(monkeypatch):
    # analytic keys fold in the active calibration table's digest
    monkeypatch.delenv("REPRO_CALIBRATION", raising=False)
    monkeypatch.delenv("REPRO_BACKEND", raising=False)


def test_corpus_matches_fixture():
    assert {name: entry["case"] for name, entry in GOLDEN.items()} == \
        capture.cases()
    keys = [entry["key"] for entry in GOLDEN.values()]
    assert len(set(keys)) == len(keys)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_job_hash_matches_golden_key(name):
    entry = GOLDEN[name]
    assert job_hash(capture.build_job(entry["case"])) == entry["key"]
