"""Benchmark of the teamlogic deciders and the `tlg` command line.

Run from the repository root:

    python3 bench/run.py --workload prop --seed 1 --seconds 20 --trace 0

`--trace 0` runs one workload untraced for about `--seconds` and prints
its end-to-end metrics. `--trace 1` runs every workload's ops once, each
op untraced and then traced, and prints per-layer metrics, each
measured on the workload it belongs to. Human-readable lines come first;
the last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The package is imported
from `src/` next to this directory; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("prop", "modal", "dqbf", "cli")
# `setup_s` probes taken before each pass of a timed run.
SETUP_PER_PASS = 2
MIN_PASSES = 2
# A run starts no op after this many seconds, so that even a badly
# regressed build exits within 180 s: the longest op limit is 30 s.
DEADLINE_S = 120.0

# Prints the CPU time of the importing thread, then the wall time.
IMPORT_PROBE = (
    "import time; t, c = time.perf_counter(), time.thread_time(); import teamlogic; "
    "print(time.thread_time() - c, time.perf_counter() - t)"
)


def _fresh_interpreter(code: str) -> tuple[str, float]:
    """Standard output and wall seconds of one fresh interpreter running `code`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60, check=True
    )
    return done.stdout, perf_counter() - start


def import_seconds() -> tuple[float, float]:
    """CPU seconds of the importing thread and wall seconds for a fresh
    interpreter to `import teamlogic`, both measured inside it."""
    out, _ = _fresh_interpreter(IMPORT_PROBE)
    cpu, wall = map(float, out.split())
    return cpu, wall


def setup_probe() -> tuple[float, float, float]:
    """One `import_seconds` probe, and the wall seconds of
    `speed.spawn_work` run right after it, to scale it by."""
    from speed import spawn_work

    cpu, wall = import_seconds()
    start = perf_counter()
    spawn_work()
    return cpu, wall, perf_counter() - start


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu,
    }


def percentile(times: list[float], p: int) -> float:
    if len(times) == 1:
        return times[0]
    return statistics.quantiles(times, n=100)[p - 1]


def make_workload(name: str, seed: int, with_probe: bool = False):
    import workloads as w

    if name == "prop":
        return w.PropWorkload(seed)
    if name == "modal":
        return w.ModalWorkload(seed)
    if name == "dqbf":
        return w.DqbfWorkload(seed, with_probe=with_probe)
    return w.CliWorkload(seed, str(SRC))


def run_pass(wl, ops, deadline: float, between=None) -> list:
    """Run `ops` in order; ops due after `deadline` are not started.
    `between`, if given, is called before each op, outside its timing."""
    records = []
    for op in ops:
        if perf_counter() >= deadline:
            break
        if between is not None:
            between()
        records.append(wl.run_op(op))
    return records


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def timed_run(name: str, seed: int, seconds: float) -> tuple[dict, list, dict]:
    """Repeat passes over the workload's ops until `seconds` have passed.

    Every pass runs the same ops in the same order, and the gate checks
    each pass after it ends. Before each pass the run probes the import
    time for `setup_s`; between ops, outside their timings, it samples
    the machine's speed with a `Speedometer`. Op timings are pooled over
    all executions and scaled to the reference speed by the samples
    around each.
    """
    from speed import REFERENCE_SPAWN_S, Speedometer, spawn_work

    wl = make_workload(name, seed)
    # Ops in child processes are mostly interpreter start and imports,
    # which compute samples do not track: those are scaled by a fresh
    # interpreter's start-up, sampled before every op.
    meter = Speedometer() if wl.in_process else Speedometer(spawn_work, REFERENCE_SPAWN_S, interval=0.0)
    setup: list = []
    records: list = []
    passes = 0
    started = perf_counter()
    while passes < MIN_PASSES or perf_counter() - started < seconds:
        setup += [setup_probe() for _ in range(SETUP_PER_PASS)]
        done = run_pass(wl, wl.ops, started + DEADLINE_S, meter.between_ops)
        passes += 1
        # Gate each pass outside its timing, then drop the results so
        # that later passes do not carry the earlier ones in memory.
        wl.gate(done)
        for r in done:
            r.result = None
        records += done
        if perf_counter() - started >= DEADLINE_S:
            break
    meter.sample()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if wl.in_process else wl.peak_rss_kb
    raw = [r.seconds for r in records]
    times = meter.at_reference([(r.start, r.seconds) for r in records])
    decided = sum(r.status == "ok" for r in records)
    per_op, raw_per_op = _per_op_medians(records, times), _per_op_medians(records, raw)
    metrics = {
        "setup_s": (statistics.median(wall * REFERENCE_SPAWN_S / spawn for _, wall, spawn in setup), "s"),
        "ops_per_s": (decided / sum(times), "1/s"),
        "op_p50_ms": (percentile(per_op, 50) * 1e3, "ms"),
        "op_p90_ms": (percentile(per_op, 90) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }
    extra = {
        "passes": passes,
        "distinct_ops": len(per_op),
        "executions": len(times),
        "scale": meter.scale(),
        "samples": len(meter.samples),
        "setup_probes": len(setup),
        "setup_wall_s": statistics.median(wall for _, wall, _ in setup),
        "setup_cpu_s": statistics.median(cpu for cpu, _, _ in setup),
        "raw_ops_per_s": decided / sum(raw),
        "raw_op_p50_ms": percentile(raw_per_op, 50) * 1e3,
        "raw_op_p90_ms": percentile(raw_per_op, 90) * 1e3,
        "op_p99_ms": percentile(times, 99) * 1e3 if len(times) >= 1000 else None,
    }
    return metrics, records, extra


def _per_op_medians(records: list, times: list[float]) -> list[float]:
    """Each distinct op's median time over the passes.

    Percentiles are taken over these: pooled executions would put a
    percentile at a rank that moves with the number of passes, between
    copies of one op.
    """
    by_op: dict = {}
    for r, t in zip(records, times):
        by_op.setdefault(id(r.op), []).append(t)
    return [statistics.median(ts) for ts in by_op.values()]


# ---------------------------------------------------------------------------
# traced run: per-layer metrics

# Each per-layer metric, the workload it is measured on, and the
# end-to-end metrics a change to that layer should move, on which
# workloads, and which it should leave alone.
_PARSE = ("prop", "op_p50_ms on prop; not dqbf")
_RENDER = ("modal", "ops_per_s, op_p90_ms on modal; nothing on prop, dqbf")
_TRANSLATE = ("modal", "ops_per_s on modal")
_KRIPKE = ("modal", "op_p90_ms, ops_per_s on modal")
_PROP_TEAM = ("prop", "op_p99_ms, ops_per_s on prop; failed_share, ops_per_s on dqbf (reduce ops)")
_DQBF = ("dqbf", "op_p90_ms, ops_per_s, failed_share on dqbf only")
_CLI = ("cli", "setup_s on every workload; op_p50_ms on cli")
LAYER_METRICS = {
    "parser.parse.calls": _PARSE,
    "parser.parse.self_s": _PARSE,
    "parser.nodes": _PARSE,
    "formula.to_nnf.self_s": _PARSE,
    "formula.render.calls": _RENDER,
    "formula.render.self_s": _RENDER,
    "translate.ml_valid.calls": _RENDER,
    "translate.ml_valid.self_s": _RENDER,
    "translate.emdl_valid.self_s": _TRANSLATE,
    "translate.emdl_to_mliv.self_s": _TRANSLATE,
    "translate.mliv_valid.self_s": _TRANSLATE,
    "translate.eliminate_idis.self_s": _TRANSLATE,
    "translate.ior": _TRANSLATE,
    "translate.selections_checked": _TRANSLATE,
    "translate.selections_per_decision": _TRANSLATE,
    "kripke.mt_eval.calls": _KRIPKE,
    "kripke.team_worlds": _KRIPKE,
    "kripke.mt_eval.self_s": _KRIPKE,
    "kripke.mt_eval.mliv_replay.self_s": _KRIPKE,
    "kripke.mt_eval.emdl_replay.self_s": _KRIPKE,
    "kripke.ml_point_eval.self_s": _KRIPKE,
    "kripke.disjoint_union.self_s": _KRIPKE,
    "prop_team.pd_valid.self_s": _PROP_TEAM,
    "prop_team.pt_eval.calls": _PROP_TEAM,
    "prop_team.pt_eval.self_s": _PROP_TEAM,
    "prop_team.max_team.self_s": _PROP_TEAM,
    "prop_team.rows": _PROP_TEAM,
    "dqbf.parse_dqbf.self_s": _DQBF,
    "dqbf.dqbf_eval.calls": _DQBF,
    "dqbf.dqbf_eval.self_s": _DQBF,
    "dqbf.table_bits": _DQBF,
    "dqbf.reduce_to_pd.self_s": _DQBF,
    "dqbf.reduce.pd_valid.self_s": _DQBF,
    "dqbf.decided_share.eval": _DQBF,
    "dqbf.decided_share.reduce": _DQBF,
    "cli.interp_s": _CLI,
    "cli.import_s": _CLI,
    "cli.run.self_s": _CLI,
}

FAILURE_KINDS = ("wrong", "error", "guard", "over_limit")


def _layer_metrics(home: str, tracer) -> dict:
    selfs, calls = tracer.self_times()
    by_parent, _ = tracer.self_times(by_parent=True)
    counts = tracer.counts
    out: dict = {}
    if home == "prop":
        out["parser.parse.calls"] = (calls["parser.parse"], "count")
        out["parser.parse.self_s"] = (selfs.get("parser.parse", 0.0), "s")
        out["parser.nodes"] = (counts["parser.nodes"], "count")
        out["formula.to_nnf.self_s"] = (selfs.get("formula.to_nnf", 0.0), "s")
        for key in ("pd_valid", "pt_eval", "max_team"):
            out[f"prop_team.{key}.self_s"] = (selfs.get(f"prop_team.{key}", 0.0), "s")
        out["prop_team.pt_eval.calls"] = (calls["prop_team.pt_eval"], "count")
        out["prop_team.rows"] = (counts["prop_team.rows"], "count")
    elif home == "modal":
        out["formula.render.calls"] = (calls["formula.render"], "count")
        out["formula.render.self_s"] = (selfs.get("formula.render", 0.0), "s")
        out["translate.ml_valid.calls"] = (calls["translate.ml_valid"], "count")
        for key in ("ml_valid", "emdl_valid", "emdl_to_mliv", "mliv_valid", "eliminate_idis"):
            out[f"translate.{key}.self_s"] = (selfs.get(f"translate.{key}", 0.0), "s")
        checked = counts["translate.selections_checked"]
        out["translate.ior"] = (counts["translate.ior"], "count")
        out["translate.selections_checked"] = (checked, "count")
        out["translate.selections_per_decision"] = (
            checked / max(1, calls["translate.emdl_valid"]),
            "count",
        )
        out["kripke.mt_eval.calls"] = (calls["kripke.mt_eval"], "count")
        out["kripke.team_worlds"] = (counts["kripke.team_worlds"], "count")
        out["kripke.mt_eval.self_s"] = (selfs.get("kripke.mt_eval", 0.0), "s")
        for caller, key in (("translate.mliv_valid", "mliv_replay"), ("translate.emdl_valid", "emdl_replay")):
            out[f"kripke.mt_eval.{key}.self_s"] = (by_parent.get(("kripke.mt_eval", caller), 0.0), "s")
        for key in ("ml_point_eval", "disjoint_union"):
            out[f"kripke.{key}.self_s"] = (selfs.get(f"kripke.{key}", 0.0), "s")
    elif home == "dqbf":
        for key in ("parse_dqbf", "dqbf_eval", "reduce_to_pd"):
            out[f"dqbf.{key}.self_s"] = (selfs.get(f"dqbf.{key}", 0.0), "s")
        out["dqbf.dqbf_eval.calls"] = (calls["dqbf.dqbf_eval"], "count")
        out["dqbf.table_bits"] = (counts["dqbf.table_bits"], "count")
        # Only reduce ops reach prop_team here: its self time is that of
        # `pd_valid` and the spans under it.
        out["dqbf.reduce.pd_valid.self_s"] = (
            sum(v for k, v in selfs.items() if k.startswith("prop_team.")),
            "s",
        )
    elif home == "cli":
        out["cli.run.self_s"] = (selfs.get("cli.run", 0.0), "s")
    return out


def traced_pass(wl, tracer, deadline: float, skip_untraced=lambda op: False) -> tuple[list, list]:
    """Run each op untraced and then traced, back to back, so that both
    runs of an op see the same machine speed."""
    untraced, traced = [], []
    for op in wl.ops:
        if perf_counter() >= deadline:
            break
        if not skip_untraced(op):
            untraced.append(wl.run_op(op))
        first = len(tracer.start)
        with tracer, tracer.span(f"op.{wl.name}"):
            traced.append(wl.run_op(op))
        tracer.settle(first)
    return untraced, traced


def traced_run(seed: int) -> tuple[dict, list, dict]:
    import workloads as w
    from spans import Tracer

    OUT.mkdir(exist_ok=True)
    metrics: dict = {}
    all_records: list = []
    probe_lines: list = []
    base = extra = 0.0
    deadline = perf_counter() + DEADLINE_S
    for home in WORKLOADS:
        tracer = Tracer()
        if home == "cli":
            wl = w.CliInProcessWorkload(seed, str(SRC))
            untraced, traced = traced_pass(wl, tracer, deadline)
            metrics["cli.interp_s"] = (statistics.median(_fresh_interpreter("pass")[1] for _ in range(5)), "s")
            metrics["cli.import_s"] = (statistics.median(import_seconds()[0] for _ in range(5)), "s")
        else:
            wl = make_workload(home, seed, with_probe=True)
            probe = wl.is_probe if home == "dqbf" else (lambda op: False)
            untraced, traced = traced_pass(wl, tracer, deadline, skip_untraced=probe)
        wl.gate(untraced)
        wl.gate(traced)
        measured = [r for r in traced if not (home == "dqbf" and wl.is_probe(r.op))]
        for u, t in zip(untraced, measured):
            if u.status == "ok" and t.status == "ok":
                base += u.seconds
                extra += t.seconds
        all_records += untraced + measured
        metrics.update(_layer_metrics(home, tracer))
        for kind in FAILURE_KINDS:
            metrics[f"failed.{home}.{kind}"] = (sum(r.status == kind for r in traced), "count")
        metrics[f"ops.{home}"] = (len(traced), "count")
        if home == "dqbf":
            for kind in ("eval", "reduce"):
                mine = [r for r in traced if r.op.kind == kind]
                metrics[f"dqbf.decided_share.{kind}"] = (
                    sum(r.status == "ok" for r in mine) / max(1, len(mine)),
                    "share",
                )
            probe_lines = [
                f"  over limit: {r.op.label} {r.op.kind} after {r.seconds:.2f} s"
                for r in traced
                if r.status == "over_limit"
            ]
        tracer.dump(OUT / f"spans-{home}-seed{seed}.tsv")
    metrics["trace.overhead_share"] = (extra / base - 1.0 if base else 0.0, "share")
    return metrics, all_records, {"probe_lines": probe_lines}


# ---------------------------------------------------------------------------


def _result_line(metrics: dict, records: list) -> str:
    wrong = sum(r.status == "wrong" for r in records)
    failed = sum(r.status != "ok" for r in records)
    return json.dumps(
        {
            "correct": wrong == 0,
            "attempted": len(records),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def _failure_lines(records: list) -> list[str]:
    lines = []
    for r in records:
        if r.status != "ok":
            lines.append(f"  {r.status}: {r.op.label} {r.op.kind} {r.detail}".rstrip())
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "teamlogic" / "__init__.py").is_file():
        print(f"error: no teamlogic sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import teamlogic

    if Path(teamlogic.__file__).resolve().parent != SRC / "teamlogic":
        print(f"error: imported teamlogic from {teamlogic.__file__}, not {SRC}", file=sys.stderr)
        return 2

    info = machine_info()
    print(f"machine: nproc={info['nproc']} python={info['python']} cpu={info['cpu']}")
    if args.trace:
        metrics, records, extra = traced_run(args.seed)
        print(f"traced run, seed {args.seed}; per-layer metrics:")
        for key, (value, unit) in metrics.items():
            home, moves = LAYER_METRICS.get(key, ("", ""))
            where = f"  [measured on {home}; should move {moves}]" if home else ""
            print(f"  {key} = {value:.6g} {unit}{where}")
        for line in extra["probe_lines"]:
            print(line)
    else:
        metrics, records, extra = timed_run(args.workload, args.seed, args.seconds)
        n, runs = extra["distinct_ops"], extra["executions"]
        failed = sum(r.status != "ok" for r in records)
        print(
            f"workload {args.workload}, seed {args.seed}: {n} distinct ops, "
            f"{extra['passes']} passes, {runs} executions; timings scaled by "
            f"{extra['scale']:.4f} to the reference speed ({extra['samples']} speed samples)"
        )
        notes = {
            "setup_s": (
                f"median of {extra['setup_probes']} fresh interpreters, {SETUP_PER_PASS} before each pass, each scaled by "
                f"a numpy import next to it; {extra['setup_cpu_s']:.6g} s CPU of the importing thread; "
                f"{extra['setup_wall_s']:.6g} s unscaled"
            ),
            "ops_per_s": f"n={runs} executions; {extra['raw_ops_per_s']:.6g} 1/s unscaled",
            "op_p50_ms": f"n={n} ops, each its median over the passes; {extra['raw_op_p50_ms']:.6g} ms unscaled",
            "op_p90_ms": f"n={n} ops, each its median over the passes; {extra['raw_op_p90_ms']:.6g} ms unscaled",
        }
        for key, (value, unit) in metrics.items():
            note = f" ({notes[key]})" if key in notes else ""
            print(f"  {key} = {value:.6g} {unit}{note}")
        p99 = extra["op_p99_ms"]
        if p99 is None:
            print(f"  op_p99_ms: not reported below 1000 executions (n={runs})")
        else:
            print(f"  op_p99_ms = {p99:.6g} ms (n={runs} executions)")
        print(f"  failed_share = {failed / runs:.6g} share ({failed} of {runs} executions)")
        for kind in FAILURE_KINDS:
            print(f"  failed.{kind} = {sum(r.status == kind for r in records)} count")
    for line in _failure_lines(records):
        print(line)
    print(_result_line(metrics, records))
    return 0


if __name__ == "__main__":
    sys.exit(main())
