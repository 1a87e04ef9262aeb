"""Tests of the benchmark itself: tiny smoke runs, the correctness gate,
the time limit and the tracer. Run with `python -m pytest bench/tests`."""

import gc
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import corpus
import reference
import run
import workloads as w
from spans import Tracer
from speed import REFERENCE_SAMPLE_S, Speedometer

import teamlogic as tl

BENCH = Path(run.__file__).resolve().parent


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(w.PropWorkload, "population", 12)
    monkeypatch.setattr(w.ModalWorkload, "population", 12)
    monkeypatch.setattr(w.DqbfWorkload, "rungs", ((2, 2, 2), (3, 3, 1)))
    monkeypatch.setattr(w.DqbfWorkload, "probe_limit", 0.2)
    monkeypatch.setattr(run, "SETUP_PER_PASS", 1)


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_timed_run(tiny, capsys, workload):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1"]) == 0
    result = _last_json(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {"setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_run(tiny, capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    assert run.main(["--workload", "prop", "--seed", "3", "--seconds", "0.1", "--trace", "1"]) == 0
    result = _last_json(capsys)
    assert result["correct"] and result["failed"] == 0
    assert set(run.LAYER_METRICS) <= set(result["metrics"])
    assert "trace.overhead_share" in result["metrics"]
    # The probe op on the 3/3 rung cannot finish within 0.2 s.
    assert result["metrics"]["failed.dqbf.over_limit"]["value"] >= 1
    assert (tmp_path / "spans-modal-seed3.tsv").is_file()


def test_same_seed_same_inputs():
    a, b, c = w.PropWorkload(5), w.PropWorkload(5), w.PropWorkload(6)
    assert [op.text for op in a.ops] == [op.text for op in b.ops]
    assert [op.text for op in a.ops] != [op.text for op in c.ops]


class _WrongProp(w.PropWorkload):
    def execute(self, op):
        return not tl.pd_valid(tl.parse_prop(op.text))


class _AlwaysValidModal(w.ModalWorkload):
    def execute(self, op):
        return tl.Valid()


class _AlwaysFalseDqbf(w.DqbfWorkload):
    def execute(self, op):
        return None if op.kind == "eval" else False


def test_gate_counts_wrong_prop_decider(tiny):
    wl = _WrongProp(3)
    records = run.run_pass(wl, wl.ops, float("inf"))
    wl.gate(records)
    assert [r.status for r in records] == ["wrong"] * len(records)


def test_gate_counts_wrong_modal_decider(tiny):
    wl = _AlwaysValidModal(3)
    records = run.run_pass(wl, wl.ops, float("inf"))
    wl.gate(records)
    assert any(r.status == "wrong" for r in records)


def test_gate_counts_wrong_dqbf_decider(tiny):
    wl = _AlwaysFalseDqbf(3)
    truths = [wl.truth(op) for op in wl.ops]
    records = run.run_pass(wl, wl.ops, float("inf"))
    wl.gate(records)
    assert truths.count(True) >= 1
    for r, truth in zip(records, truths):
        assert r.status == ("wrong" if truth else "ok")


def test_gate_rejects_countermodel_that_satisfies():
    f = ("lit", "p", True)
    model = tl.KripkeStructure(["a"], [], {tl.PropSymbol("p"): {"a"}})
    assert not w.countermodel_refutes(f, model, {"a"})


class _Spin(w.PropWorkload):
    def execute(self, op):
        while True:
            pass


def test_op_past_limit_is_over_limit(tiny):
    wl = _Spin(3)
    wl.limit = 0.05
    record = wl.run_op(wl.ops[0])
    assert record.status == "over_limit"
    assert record.seconds >= 0.05


def test_probe_reduce_op_past_limit(tiny):
    wl = w.DqbfWorkload(3, with_probe=True)
    probe = next(op for op in wl.ops if wl.is_probe(op))
    record = wl.run_op(probe)
    assert record.status == "over_limit"


def test_self_time_counts_recursion_once(tiny):
    wl = w.ModalWorkload(3)
    tracer = Tracer()
    with tracer:
        with tracer.span("op.modal"):
            wl.execute(wl.ops[0])
    selfs, calls = tracer.self_times()
    root = tracer.end[0] - tracer.start[0]
    assert sum(selfs.values()) == pytest.approx(root, rel=1e-9)
    assert calls["op.modal"] == 1 and calls["parser.parse"] == 1


def test_speedometer_scales_each_op_by_nearby_samples():
    meter = Speedometer()
    # Samples at twice the reference time up to t=1, at the reference time after.
    meter.taken = [0.0, 0.5, 1.0, 2.0, 2.5]
    meter.samples = [2 * REFERENCE_SAMPLE_S] * 3 + [REFERENCE_SAMPLE_S] * 2
    slow, fast, alone, long = meter.at_reference([(0.3, 0.15), (2.1, 0.3), (1.3, 0.1), (1.2, 0.6)])
    assert slow == pytest.approx(0.075)
    assert fast == pytest.approx(0.3)
    # No sample within the window: the whole run's mean speed applies.
    assert alone == pytest.approx(0.1 / 1.6)
    # A long op reads the samples as far either side as it is long.
    assert long == pytest.approx(0.6 / 1.5)


def test_speedometer_samples_between_ops_at_most_once_per_interval():
    meter = Speedometer()
    meter.between_ops()
    meter.between_ops()
    assert len(meter.samples) == 1
    meter.taken[-1] -= meter.interval
    meter.between_ops()
    assert len(meter.samples) == 2


class _Loop(w.Workload):
    """Stand-in decider: a fixed pure-Python loop per op, `work` times over."""

    name = "loop"
    work = 1

    def __init__(self, n_ops=40):
        super().__init__()
        self.ops = [w.Op(f"loop[{i}]", "") for i in range(n_ops)]

    def execute(self, op):
        for _ in range(self.work):
            sum(i * i for i in range(20000))
        return True


class _SlowLoop(_Loop):
    work = 2


class _HeapLoop(_Loop):
    """Keeps a large heap alive and pays for collecting it in every op."""

    def __init__(self):
        super().__init__()
        self.heap = [{"k": i} for i in range(200_000)]

    def execute(self, op):
        gc.collect()
        return super().execute(op)


@pytest.mark.parametrize("stand_in", [_SlowLoop, _HeapLoop])
def test_scaling_keeps_a_slower_deciders_full_slowdown(stand_in):
    """A decider that is slower, or keeps a larger heap, shows the same
    slowdown after scaling as before: the speed samples do not slow down
    with it, so they do not cancel its cost."""
    base, slow = _Loop(), stand_in()
    meter = Speedometer()
    base_records, slow_records = [], []
    for _ in range(3):
        base_records += run.run_pass(base, base.ops, float("inf"), meter.between_ops)
        slow_records += run.run_pass(slow, slow.ops, float("inf"), meter.between_ops)

    def medians(records):
        raw = statistics.median(r.seconds for r in records)
        scaled = statistics.median(meter.at_reference([(r.start, r.seconds) for r in records]))
        return raw, scaled

    (base_raw, base_scaled), (slow_raw, slow_scaled) = medians(base_records), medians(slow_records)
    assert slow_raw / base_raw > 1.3
    assert slow_scaled / base_scaled == pytest.approx(slow_raw / base_raw, rel=0.25)


def test_reference_agrees_with_library_on_known_formulas():
    assert reference.prop_valid(("or", ("dep", (), "p"), ("dep", (), "p")))
    assert not reference.prop_valid(("dep", (), "p"))
    assert tl.pd_valid(tl.parse_prop(corpus.render(("or", ("dep", (), "p"), ("dep", (), "p")))))


def test_bare_directory_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "prop", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
