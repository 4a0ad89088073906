"""Self-tests of the benchmark harness (not part of the tier-1 suite).

Run from the root of a checkout::

    python3 -m pytest -q stackbench/selftest.py
"""

import math

import pytest

import loadgen
from harness import (
    Ledger,
    Tracer,
    layer_table,
    percentile,
    tail_percentile,
    use_repo_sources,
)

use_repo_sources()

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


# -- percentiles -------------------------------------------------------
@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (48, 79.1), (80, 87.5), (100, 90.0),
    (1000, 99.0), (100_000, 99.0)])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    p = tail_percentile(n)
    assert p == expected
    if p is not None:
        assert round(n * (1 - p / 100), 9) >= 10


def test_failures_rank_beyond_any_limit():
    samples = [0.001] * 95 + [math.inf] * 5
    assert percentile(samples, 50) == 0.001
    assert percentile(samples, 99) == math.inf


def test_ledger_counts_refusals_as_failures():
    ledger = Ledger()
    ledger.record("low", 10, failed=1, refused=2)
    ledger.record("high", 10)
    assert ledger.attempted == 20
    assert ledger.failed == 3
    assert ledger.phases["low"]["succeeded"] == 7
    assert ledger.failed_frac == 0.15


# -- spans -------------------------------------------------------------
def _span(span_id, parent, name, start, end, pid=1):
    return (span_id, parent, name, start, end, pid, 0, None, None)


def test_nested_self_time():
    spans = [_span(1, None, "phase.cold", 0.0, 10.0),
             _span(2, 1, "eval.engine.run", 1.0, 9.0),
             _span(3, 2, "eval.job_hash", 1.0, 2.0),
             _span(4, 2, "eval.job_hash", 2.0, 3.5),
             _span(5, 4, "inner", 2.5, 3.0),
             # same ids in another process are another span tree
             _span(2, None, "eval.pool.chunk", 0.0, 4.0, pid=2)]
    table = layer_table(spans)
    assert table["phase.cold"]["self_s"] == pytest.approx(2.0)
    assert table["eval.engine.run"]["self_s"] == pytest.approx(5.5)
    assert table["eval.job_hash"]["calls"] == 2
    assert table["eval.job_hash"]["s"] == pytest.approx(2.5)
    assert table["eval.job_hash"]["self_s"] == pytest.approx(2.0)
    assert table["eval.pool.chunk"]["self_s"] == pytest.approx(4.0)


def test_wrapped_calls_record_parents_and_other():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 41

    tracer = Tracer()
    tracer.wrap(Layer, "outer", "outer")
    tracer.wrap(Layer, "inner", "inner", meta=lambda args, r: {"n": r})
    with tracer.span("phase.x"):
        assert Layer().outer() == 42
    tracer.unwrap_all()
    assert Layer.outer.__name__ == "outer"
    by_name = {s[2]: s for s in tracer.spans}
    assert by_name["inner"][1] == by_name["outer"][0]
    assert by_name["outer"][1] == by_name["phase.x"][0]
    assert layer_table(tracer.spans)["inner"]["meta"]["n"] == 41
    wall, other = layers.main_timeline(tracer)
    assert 0.0 <= other <= wall


# -- open loop ---------------------------------------------------------
class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


class _Sender:
    def __init__(self, clock, service):
        self.clock, self.service = clock, service

    def session(self):
        return None

    def close(self, _session):
        pass

    def __call__(self, _session, i):
        self.clock.now += self.service
        return "refused" if i == 99 else "ok"


def test_open_loop_charges_the_wait_from_due_time():
    clock = _FakeClock()
    outcomes = loadgen.open_loop(_Sender(clock, 0.25), count=4, rate=10.0,
                                 senders=1, clock=clock, sleep=clock.sleep,
                                 start_delay=0.0)
    assert [o.due for o in outcomes] == pytest.approx([0, .1, .2, .3])
    assert [o.latency for o in outcomes] == pytest.approx(
        [.25, .4, .55, .7])
    assert [o.late for o in outcomes] == pytest.approx([0, .15, .3, .45])
    assert loadgen.backlog_grew(outcomes, 0.1)


def test_open_loop_on_time_when_service_keeps_up():
    clock = _FakeClock()
    outcomes = loadgen.open_loop(_Sender(clock, 0.05), count=100, rate=10.0,
                                 senders=1, clock=clock, sleep=clock.sleep,
                                 start_delay=0.0)
    assert all(o.late == pytest.approx(0) for o in outcomes)
    assert all(o.latency == pytest.approx(.05) for o in outcomes[:99])
    assert outcomes[99].latency == math.inf  # refused misses any limit
    assert not loadgen.backlog_grew(outcomes, 0.01)


def test_closed_loop_sends_back_to_back_until_time_is_up():
    clock = _FakeClock()
    outcomes, elapsed = loadgen.closed_loop(
        _Sender(clock, 0.25), count=100, seconds=1.0, senders=1,
        clock=clock)
    assert [o.sent for o in outcomes] == pytest.approx([0, .25, .5, .75])
    assert elapsed == pytest.approx(1.0)
    assert all(o.late == 0 for o in outcomes)


# -- served-result accounting ------------------------------------------
class _Job(tuple):
    kernel = property(lambda self: self[0])


class _Client:
    def __init__(self, result):
        self.result = result

    def submit(self, _jobs):
        return {"results": [self.result]}


@pytest.mark.parametrize("result, status", [
    ({"kernel": "k", "verified": True, "cycles": 5}, "ok"),
    ({"kernel": "k", "verified": True, "cycles": 6}, "wrong"),
    ({"kernel": "k", "verified": False, "cycles": 5}, "wrong"),
    ({"kernel": "other", "verified": True, "cycles": 5}, "wrong"),
    ({"error": "boom"}, "failed")])
def test_served_answers_are_classified(result, status):
    job = _Job(("k",))
    requests = workloads._Requests("http://unused", [job], {job: 5})
    assert requests(_Client(result), 0) == status


def test_a_wrong_served_answer_fails_the_run():
    out = workloads.Outcome()
    outcomes = [loadgen.Outcome(0, 0, 0, status)
                for status in ("ok", "wrong", "failed", "refused")]
    workloads._record_phase(out, "high", outcomes)
    assert out.ledger.failed == 3
    assert [passed for _, passed, _ in out.checks] == [False]


# -- smoke runs of every workload --------------------------------------
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_smoke(name, tmp_path):
    ctx = workloads.Context(seed=3, seconds=1.0, trace=False,
                            run_dir=tmp_path, smoke=True)
    outcome = workloads.WORKLOADS[name](ctx)
    failed = [check for check in outcome.checks if not check[1]]
    assert not failed
    assert outcome.ledger.attempted > 0 and outcome.ledger.failed == 0
    for metric, _unit in run.END_TO_END:
        assert outcome.metrics[metric] > 0, metric


@pytest.mark.parametrize("name", ["fig4-detailed", "serve-mix"])
def test_traced_smoke_names_most_of_the_wall_time(name, tmp_path):
    ctx = workloads.Context(seed=3, seconds=1.0, trace=True,
                            run_dir=tmp_path, smoke=True)
    outcome = workloads.WORKLOADS[name](ctx)
    assert all(check[1] for check in outcome.checks)
    assert outcome.metrics["eval.job_hash.calls"] > 0
    if name == "fig4-detailed":
        assert outcome.metrics["named_frac"] > 0.5
        assert outcome.metrics["arch.detailed.instr"] > 0
    else:
        assert outcome.metrics["serve.hit_rate"] > 0
