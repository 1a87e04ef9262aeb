"""The four workloads: their inputs, one operation each, and the gates.

Each in-process workload draws a fixed population of inputs from
`POPULATION_SEED`; the run's seed then renames the symbols or variables
of every member and shuffles the order of the ops. The renamings keep
every sort order the library depends on, so runs differ in their texts
but not in the work they ask for. A fresh draw per seed would not do:
op cost is heavy-tailed, on `prop` about 1% of freshly drawn formulas
take most of the time, and two independent 1000-formula draws differed
by 40% in total time, which would swamp any change under test.

The library receives only generated text. Verdicts are checked after
the timed region by `gate`, against references that share no code with
the deciders (see `reference.py`).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

import corpus
import reference as ref
import teamlogic as tl
import teamlogic.cli

POPULATION_SEED = 14066259


class OverLimit(Exception):
    """An op ran past its workload's time limit."""


@dataclass
class Op:
    label: str
    text: str
    data: object = None
    kind: str = ""
    argv: list = field(default_factory=list)


@dataclass
class Record:
    op: Op
    seconds: float
    status: str
    result: object = None
    detail: str = ""
    # When the op started, by `perf_counter`.
    start: float = 0.0


def _alarm(signum, frame):
    raise OverLimit()


def call_limited(fn, limit: float):
    """Run `fn()` in this thread, raising OverLimit after `limit` seconds."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Workload:
    """One closed-loop caller over `ops`, one op at a time."""

    name = ""
    limit = 30.0
    in_process = True

    def __init__(self):
        self.ops: list[Op] = []

    def execute(self, op: Op):
        raise NotImplementedError

    def check(self, record: Record) -> bool:
        raise NotImplementedError

    def run_op(self, op: Op, limit: float | None = None) -> Record:
        limit = self.limit if limit is None else limit
        start = perf_counter()
        result, status, detail = None, "ok", ""
        try:
            if self.in_process:
                result = call_limited(lambda: self.execute(op), limit)
            else:
                result = self.execute(op)
        except OverLimit:
            status = "over_limit"
        except tl.GuardLimitError as exc:
            status, detail = "guard", str(exc)
        except Exception as exc:  # noqa: BLE001 - every other failure is an error op
            status, detail = "error", f"{type(exc).__name__}: {exc}"
        return Record(op, perf_counter() - start, status, result, detail, start)

    def gate(self, records: list[Record]) -> None:
        """Turn `ok` records whose result fails its check into `wrong`."""
        for r in records:
            if r.status != "ok":
                continue
            try:
                ok = self.check(r)
            except Exception as exc:  # noqa: BLE001 - a check that cannot run is a failed check
                ok, r.detail = False, f"check raised {type(exc).__name__}: {exc}"
            if not ok:
                r.status = "wrong"


# ---------------------------------------------------------------------------


class PropWorkload(Workload):
    """`parse_prop` + `pd_valid` on PD formulas over four symbols."""

    name = "prop"
    population = 400

    def __init__(self, seed: int):
        super().__init__()
        pop_rng = random.Random(POPULATION_SEED)
        members = [corpus.prop_formula(pop_rng) for _ in range(self.population)]
        rng = random.Random(seed)
        asts = [corpus.formula_variant(rng, f, corpus.PROP_SYMS) for f in members]
        rng.shuffle(asts)
        self.ops = [Op(f"prop[{i}]", corpus.render(a), a) for i, a in enumerate(asts)]
        self._truth: dict[str, bool] = {}

    def execute(self, op: Op):
        return tl.pd_valid(tl.parse_prop(op.text))

    def check(self, record: Record) -> bool:
        op = record.op
        if op.text not in self._truth:
            self._truth[op.text] = ref.prop_valid(op.data)
        return record.result is self._truth[op.text]


class ModalWorkload(Workload):
    """`parse_modal` + `emdl_valid` on EMDL formulas over p, q, r."""

    name = "modal"
    population = 500
    # Small models on which a Valid verdict must hold for the whole team.
    probe_models = 3

    def __init__(self, seed: int):
        super().__init__()
        pop_rng = random.Random(POPULATION_SEED)
        members = [corpus.modal_formula(pop_rng) for _ in range(self.population)]
        rng = random.Random(seed)
        asts = [corpus.formula_variant(rng, f, corpus.MODAL_SYMS) for f in members]
        rng.shuffle(asts)
        self.ops = [Op(f"modal[{i}]", corpus.render(a), a) for i, a in enumerate(asts)]
        probe_rng = random.Random(seed + 1)
        self._probes = [
            _ref_model(corpus.small_model(probe_rng, corpus.MODAL_SYMS))
            for _ in range(self.probe_models)
        ]

    def execute(self, op: Op):
        return tl.emdl_valid(tl.parse_modal(op.text))

    def check(self, record: Record) -> bool:
        verdict, f = record.result, record.op.data
        if isinstance(verdict, tl.Invalid):
            return countermodel_refutes(f, verdict.model, verdict.team)
        if isinstance(verdict, tl.Valid):
            return all(ref.modal_holds(f, m, m.full) for m in self._probes)
        return False


def _ref_model(data: dict) -> ref.Model:
    return ref.Model(data["worlds"], data["edges"], {s: set(w) for s, w in data["valuation"].items()})


def countermodel_refutes(f, model, team) -> bool:
    """Whether a library countermodel defeats `f` by the reference."""
    m = ref.Model(
        model.worlds,
        model.edges,
        {sym.name: set(ws) for sym, ws in model.valuation.items()},
    )
    return not ref.modal_holds(f, m, m.mask(team))


class DqbfWorkload(Workload):
    """The DQBF ladder through both engines, cross-checked.

    `eval` ops run `parse_dqbf` + `dqbf_eval`; `reduce` ops run
    `parse_dqbf` + `reduce_to_pd` + `pd_valid`. Reduce ops are left out
    of the timed run on rungs with more than two existentials: there the
    split falls back to subset enumeration and every instance runs past
    the limit. The traced run still attempts them, under `probe_limit`.
    """

    name = "dqbf"
    limit = 10.0
    probe_limit = 1.0
    # Reduce ops the traced run attempts per rung over the cap.
    probe_per_rung = 3
    # (universals, existentials, instances) per rung; 3-CNF matrices
    # with one clause per variable. With both engines on 2/2, the 18 ops
    # put the median among the false 3/3 instances, whose searches all
    # cost about the same, and the 90th percentile between the two 4/4
    # ones, away from the jump between two rungs. False 4/4 instances
    # take about 2 s each, so more of them would leave too few passes.
    rungs = ((2, 2, 1), (3, 3, 14), (4, 4, 2))
    max_reduce_existentials = 2
    max_reference_bits = 12

    def __init__(self, seed: int, with_probe: bool = False):
        super().__init__()
        pop_rng = random.Random(POPULATION_SEED)
        members = [
            (u, e, corpus.dqbf_instance(pop_rng, u, e, u + e))
            for u, e, count in self.rungs
            for _ in range(count)
        ]
        rng = random.Random(seed)
        ops = []
        probes: dict[int, int] = {}
        for i, (u, e, inst) in enumerate(members):
            variant = corpus.dqbf_variant(rng, inst)
            text = corpus.dqbf_text(variant)
            label = f"dqbf[{u}/{e}#{i}]"
            ops.append(Op(label, text, variant, "eval"))
            if e <= self.max_reduce_existentials:
                ops.append(Op(label, text, variant, "reduce"))
            elif with_probe and probes.get(e, 0) < self.probe_per_rung:
                probes[e] = probes.get(e, 0) + 1
                ops.append(Op(label, text, variant, "reduce"))
        rng.shuffle(ops)
        self.ops = ops
        self._truth: dict[str, bool | None] = {}

    def execute(self, op: Op):
        inst = tl.parse_dqbf(op.text)
        if op.kind == "eval":
            return tl.dqbf_eval(inst)
        return tl.pd_valid(tl.reduce_to_pd(inst))

    def is_probe(self, op: Op) -> bool:
        return op.kind == "reduce" and len(op.data["existentials"]) > self.max_reduce_existentials

    def run_op(self, op: Op, limit: float | None = None) -> Record:
        if limit is None and self.is_probe(op):
            limit = self.probe_limit
        return super().run_op(op, limit)

    def truth(self, op: Op) -> bool | None:
        """The reference verdict where the table search is small enough."""
        if op.text not in self._truth:
            bits = sum(1 << len(d) for _, d in op.data["existentials"])
            self._truth[op.text] = ref.dqbf_true(op.data) if bits <= self.max_reference_bits else None
        return self._truth[op.text]

    def gate(self, records: list[Record]) -> None:
        decided: dict[tuple[str, str], bool] = {}
        for r in records:
            if r.status == "ok":
                verdict = r.result if r.op.kind == "reduce" else r.result is not None
                decided[(r.op.text, r.op.kind)] = verdict
        self._decided = decided
        super().gate(records)

    def check(self, record: Record) -> bool:
        op = record.op
        if op.kind == "eval":
            verdict = record.result is not None
            if verdict and not tl.replay_witness(tl.parse_dqbf(op.text), record.result):
                return False
            other = self._decided.get((op.text, "reduce"))
        else:
            verdict = record.result
            other = self._decided.get((op.text, "eval"))
        truth = self.truth(op)
        if truth is not None:
            return verdict == truth
        return other is None or other == verdict


# ---------------------------------------------------------------------------


CLI_SYMS = ("p", "q", "r")


class CliWorkload(Workload):
    """One `tlg` subprocess at a time over every verb, with `--json`."""

    name = "cli"
    limit = 30.0
    in_process = False

    def __init__(self, seed: int, src: str):
        super().__init__()
        self.env = dict(os.environ, PYTHONPATH=src)
        rng = random.Random(seed)
        self.ops = _cli_ops(rng)
        # Latest output of each op, for ops that read another op's output.
        self._stdout: dict[str, str] = {}
        # Peak resident set of the largest `tlg` child, in KiB.
        self.peak_rss_kb = 0

    def stdin_for(self, op: Op) -> str:
        if op.kind == "countermodel":
            source, _ = op.data
            payload = json.loads(self._stdout.get(source, "{}"))
            return json.dumps(payload.get("countermodel", {}))
        return op.data

    def execute(self, op: Op):
        """One `tlg` child; it is reaped with `os.wait4`, so that its own
        peak resident set is known apart from the benchmark's other
        children. Inputs and outputs are small enough for the pipes."""
        stdin = self.stdin_for(op)
        child = subprocess.Popen(
            [sys.executable, "-m", "teamlogic.cli", *op.argv],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=self.env,
        )

        def finish():
            child.stdin.write(stdin)
            child.stdin.close()
            out = child.stdout.read()
            _, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
            return out, usage

        try:
            out, usage = call_limited(finish, self.limit)
        except BaseException:
            child.kill()
            child.wait()
            raise
        finally:
            child.stdout.close()
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return child.returncode, out, stdin

    def run_op(self, op: Op, limit: float | None = None) -> Record:
        record = super().run_op(op, limit)
        if record.status == "ok":
            self._stdout[op.label] = record.result[1]
        return record

    def check(self, record: Record) -> bool:
        code, stdout, stdin = record.result
        want_code, want_payload = expected_cli(record.op.argv, stdin)
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError:
            return False
        payload.pop("stats", None)
        if record.op.kind == "countermodel":
            # The countermodel `valid` printed must defeat its formula by
            # the reference checker too, not only by `tlg mc`.
            data = json.loads(stdin)
            m = _ref_model(data)
            if ref.modal_holds(record.op.data[1], m, m.mask(data["team"])):
                return False
        return code == want_code and payload == want_payload


class CliInProcessWorkload(CliWorkload):
    """The `cli` ops through `teamlogic.cli.run` in this process; the
    traced run uses it to time `cli.run` itself."""

    in_process = True

    def execute(self, op: Op):
        stdin = self.stdin_for(op)
        code, out = run_cli_in_process(op.argv, stdin)
        return code, out, stdin


def _cli_ops(rng: random.Random) -> list[Op]:
    """One op per verb, on inputs drawn from `rng`."""
    f_ast = corpus.prop_formula(rng, CLI_SYMS, (4, 8))
    f = corpus.render(f_ast)
    team = json.dumps(corpus.small_team(rng, CLI_SYMS))
    m_ast = corpus.modal_formula(rng, CLI_SYMS, (3, 5), 1, 2)
    m = corpus.render(m_ast)
    model = json.dumps(corpus.small_model(rng, CLI_SYMS))
    # `dep(x; y)` with x != y is invalid, so this conjunction always
    # yields a countermodel to feed back into `mc --model`.
    x, y = rng.sample(CLI_SYMS, 2)
    refuted_ast = ("and", m_ast, ("mdep", (("lit", x, True),), ("lit", y, True)))
    refuted = corpus.render(refuted_ast)
    dq = corpus.dqbf_text(corpus.dqbf_instance(rng, 2, 2, 4))
    qbf = corpus.qbf_text(rng)
    chain = _chain_dqbf(qbf)

    def op(name: str, argv: list[str], data="", kind: str = "") -> Op:
        return Op(f"cli {name}", "", data, kind, [*argv, "--json"])

    return [
        op("parse", ["parse", "--logic", "prop", f]),
        op("mc team", ["mc", f, "--team", "-"], team),
        op("mc model", ["mc", m, "--model", "-"], model),
        op("sat", ["sat", "--nonempty", f]),
        op("valid pd", ["valid", "--logic", "pd", f]),
        op("valid mdl", ["valid", "--logic", "mdl", refuted]),
        op("mc countermodel", ["mc", refuted, "--model", "-"], ("cli valid mdl", refuted_ast), "countermodel"),
        op("translate", ["translate", m]),
        op("dqbf-eval", ["dqbf-eval", "-"], dq),
        op("dqbf-reduce", ["dqbf-reduce", "-"], dq),
        op("qbf-to-dqbf", ["qbf-to-dqbf", "-"], qbf),
        op("dqbf-to-qbf", ["dqbf-to-qbf", "-"], chain),
    ]


def _chain_dqbf(qbf: str) -> str:
    """The DQBF form of a QBF prefix: each existential depends on the
    universals before it."""
    prefix, matrix = qbf.splitlines()
    toks = prefix.split()[1:]
    universals, exists, seen = [], [], []
    for q, v in zip(toks[::2], toks[1::2]):
        if q == "A":
            universals.append(v)
            seen.append(v)
        else:
            exists.append(f"{v} {{{', '.join(seen)}}}")
    return f"forall {' '.join(universals)}\nexists {' '.join(exists)}\n{matrix}\n"


def expected_cli(argv: list[str], stdin: str) -> tuple[int, dict]:
    """Exit code and payload (without stats) from in-process library calls."""
    verb = argv[0]
    if verb == "parse":
        f = tl.parse_prop(argv[3])
        return 0, {"formula": tl.render(f), "fragment": tl.classify(f).value}
    if verb == "mc" and argv[2] == "--team":
        ok = tl.pt_eval(tl.team_from_dict(json.loads(stdin)), tl.parse_prop(argv[1]))
        return (0 if ok else 1), {"verdict": "true" if ok else "false"}
    if verb == "mc":
        model, team = tl.kripke_from_dict(json.loads(stdin))
        ok = tl.mt_eval(model, team, tl.parse_modal(argv[1]))
        return (0 if ok else 1), {"verdict": "true" if ok else "false"}
    if verb == "sat":
        team = tl.pd_sat(tl.parse_prop(argv[2]), require_nonempty=True)
        if team is None:
            return 1, {"verdict": "unsat"}
        return 0, {"verdict": "sat", "witness": tl.team_to_dict(team)}
    if verb == "valid" and argv[2] == "pd":
        ok = tl.pd_valid(tl.parse_prop(argv[3]))
        return (0 if ok else 1), {"verdict": "valid" if ok else "invalid"}
    if verb == "valid":
        verdict = tl.emdl_valid(tl.parse_modal(argv[3]))
        if verdict:
            payload = {"verdict": "valid"}
            if verdict.witness is not None and len(verdict.witness) > 0:
                payload["witness"] = verdict.witness.bitstring
            return 0, payload
        return 1, {"verdict": "invalid", "countermodel": tl.kripke_to_dict(verdict.model, verdict.team)}
    if verb == "translate":
        return 0, {"formula": tl.render(tl.emdl_to_mliv(tl.parse_modal(argv[1])))}
    if verb == "dqbf-eval":
        witness = tl.dqbf_eval(tl.parse_dqbf(stdin))
        if witness is None:
            return 1, {"verdict": "false"}
        return 0, {
            "verdict": "true",
            "witness": {
                "tables": {s.name: list(t) for s, t in witness.tables.items()},
                "constraints": {s.name: [d.name for d in ds] for s, ds in witness.constraints.items()},
            },
        }
    if verb == "dqbf-reduce":
        return 0, {"formula": tl.render(tl.reduce_to_pd(tl.parse_dqbf(stdin)))}
    if verb == "qbf-to-dqbf":
        return 0, {"instance": tl.render_dqbf(tl.qbf_to_dqbf(tl.parse_qbf(stdin)))}
    if verb == "dqbf-to-qbf":
        return 0, {"instance": tl.render_qbf(tl.dqbf_to_qbf(tl.parse_dqbf(stdin)))}
    raise ValueError(f"no expectation for verb {verb!r}")


def run_cli_in_process(argv: list[str], stdin: str) -> tuple[int, str]:
    """`teamlogic.cli.run` on `argv` with `stdin` as standard input;
    returns the exit code and what it printed."""
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = teamlogic.cli.run(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue()

