import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from teamlogic import (
    And,
    Atom,
    Box,
    Dep,
    Diamond,
    MDep,
    NegAtom,
    Or,
    PropSymbol,
    count_idis,
    emdl_to_mliv,
    kripke_from_dict,
    render,
    team_from_dict,
)
from teamlogic.cli import run

from oracles import bisim_representatives, brute_mt, brute_pt


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_ok(capsys):
    code, out, _ = run_cli(capsys, "parse", "p & (q | r)")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p & (q | r)"
    assert lines[1] == "fragment: pl"


def test_parse_reports_fragment(capsys):
    _, out, _ = run_cli(capsys, "parse", "--logic", "prop", "dep(p; q)")
    assert out.splitlines()[1] == "fragment: pd"
    _, out, _ = run_cli(capsys, "parse", "p ior <> q")
    assert out.splitlines()[1] == "fragment: ml-ior"


def test_parse_prop_mode_rejects_modal(capsys):
    code, _, err = run_cli(capsys, "parse", "--logic", "prop", "<> p")
    assert code == 2
    assert "error:" in err


def test_mc_true_and_false(tmp_path, capsys):
    team = tmp_path / "t.json"
    team.write_text(json.dumps({"domain": ["p", "q"], "rows": [[0, 0], [0, 1]]}))
    code, out, _ = run_cli(capsys, "mc", "--team", str(team), "dep(q; p)")
    assert code == 0
    assert out.strip() == "true"
    code, out, _ = run_cli(capsys, "mc", "--team", str(team), "dep(p; q)")
    assert code == 1
    assert out.strip() == "false"


def test_mc_needs_exactly_one_input(tmp_path, capsys):
    assert run_cli(capsys, "mc", "p")[0] == 2
    team = tmp_path / "t.json"
    team.write_text(json.dumps({"domain": ["p"], "rows": [[1]]}))
    model = tmp_path / "m.json"
    model.write_text(
        json.dumps({"worlds": ["w"], "edges": [], "valuation": {"p": ["w"]}})
    )
    code, _, _ = run_cli(
        capsys, "mc", "--team", str(team), "--model", str(model), "p"
    )
    assert code == 2


def test_mc_kripke(tmp_path, capsys):
    model = tmp_path / "m.json"
    model.write_text(
        json.dumps(
            {
                "worlds": ["w0", "w1"],
                "edges": [["w0", "w1"]],
                "valuation": {"p": ["w1"]},
                "team": ["w0"],
            }
        )
    )
    code, out, _ = run_cli(capsys, "mc", "--model", str(model), "<> p")
    assert code == 0


def test_sat(capsys):
    code, out, _ = run_cli(
        capsys, "sat", "--nonempty", "--json", "dep(; p) & (p | !p)"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "sat"
    assert payload["witness"]["domain"] == ["p"]
    assert len(payload["witness"]["rows"]) == 1
    code, out, _ = run_cli(capsys, "sat", "--nonempty", "p & !p")
    assert code == 1
    assert out.strip() == "unsat"


def test_valid_exit_codes(capsys):
    assert run_cli(capsys, "valid", "--logic", "pd", "dep(p; q) | dep(p; q)")[0] == 0
    assert run_cli(capsys, "valid", "--logic", "pd", "dep(p; q)")[0] == 1
    assert run_cli(capsys, "valid", "--logic", "ml", "<> p | [] !p")[0] == 0
    assert run_cli(capsys, "valid", "--logic", "mdl", "dep(p; p)")[0] == 0
    assert run_cli(capsys, "valid", "--logic", "pl", "p | !p")[0] == 0
    # p is not a tautology and pl refuses dependence atoms
    assert run_cli(capsys, "valid", "--logic", "pl", "p")[0] == 1
    assert run_cli(capsys, "valid", "--logic", "pl", "dep(; p)")[0] == 2


def test_valid_countermodel_reingests(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "valid", "--logic", "mdl", "--json", "dep(; p)"
    )
    assert code == 1
    payload = json.loads(out)
    model = tmp_path / "counter.json"
    model.write_text(json.dumps(payload["countermodel"]))
    code2, out2, _ = run_cli(capsys, "mc", "--model", str(model), "dep(; p)")
    assert code2 == 1
    assert out2.strip() == "false"


def test_valid_json_shape(capsys):
    code, out, _ = run_cli(
        capsys, "valid", "--logic", "mdl", "--json", "dep(p; p)"
    )
    assert code == 0
    assert out.count("\n") == 1
    payload = json.loads(out)
    assert payload["verdict"] == "valid"
    assert payload["witness"] == "01"
    assert payload["stats"]["disjuncts_checked"] >= 1
    assert payload["stats"]["elapsed_ms"] >= 0
    # keys are emitted sorted for byte-stable output
    assert out.index('"stats"') < out.index('"verdict"')


GOLDENS = json.loads((Path(__file__).parent / "valid_goldens.json").read_text())


@pytest.mark.parametrize("case", GOLDENS, ids=[c["name"] for c in GOLDENS])
def test_valid_countermodels_match_goldens(capsys, case):
    # outputs pinned from an earlier build, so that changes to the
    # pipeline keep the same countermodels, not just some countermodel
    code, out, _ = run_cli(capsys, *case["argv"])
    payload = json.loads(out)
    payload["stats"].pop("elapsed_ms")
    assert (code, payload) == (case["exit"], case["payload"])


def test_json_determinism_modulo_timing(capsys):
    outs = []
    for _ in range(2):
        _, out, _ = run_cli(
            capsys, "valid", "--logic", "pd", "--json", "p | !p"
        )
        payload = json.loads(out)
        payload["stats"].pop("elapsed_ms")
        outs.append(json.dumps(payload, sort_keys=True))
    assert outs[0] == outs[1]


def test_translate(capsys):
    code, out, _ = run_cli(capsys, "translate", "dep(p; q)")
    assert code == 0
    assert out.strip() == "p & (q ior !q) | !p & (q ior !q)"


def test_guard_exit_code(capsys):
    args = ", ".join(f"x{i}" for i in range(11))
    code, _, err = run_cli(capsys, "translate", f"dep({args}; p)")
    assert code == 3
    assert "error:" in err


def test_internal_error_exit_code(capsys, monkeypatch):
    import teamlogic.cli as cli

    def broken(args, report):
        raise RuntimeError("countermodel failed replay; this is a bug")

    monkeypatch.setitem(cli._COMMANDS, "translate", broken)
    code, out, err = run_cli(capsys, "translate", "p")
    assert code == 4
    assert out == ""
    assert "internal error: RuntimeError: countermodel failed replay" in err


def test_deep_nesting_gets_a_verdict(capsys):
    # the parser keeps its own stacks, so nesting costs no recursion
    code, out, err = run_cli(
        capsys, "valid", "--logic", "pd", "(" * 10000 + "p" + ")" * 10000
    )
    assert (code, out.strip(), err) == (1, "invalid", "")
    # nor does unfolding a dependence atom under 3000 boxes
    code, out, err = run_cli(capsys, "translate", "[]" * 3000 + "dep(p; q)")
    unfolded = "p & (q ior !q) | !p & (q ior !q)"
    assert (code, out.strip(), err) == (0, "[] " * 3000 + f"({unfolded})", "")
    # nor a singleton check through 1500 conjuncts
    chain = " & ".join(["dep(;p)"] + ["(p | dep(;p))"] * 1499)
    code, out, err = run_cli(capsys, "sat", "--nonempty", chain)
    team = '{"domain": ["p"], "rows": [[0]]}'
    assert (code, out.splitlines(), err) == (0, ["sat", team], "")
    # nor the tableau, one expansion per box, conjunct or disjunct
    for logic in ("ml", "emdl"):
        code, out, err = run_cli(capsys, "valid", "--logic", logic, "[]" * 2000 + "(p | !p)")
        assert (code, out.strip(), err) == (0, "valid", "")
    for text in (
        " & ".join(f"(p{i} | q{i})" for i in range(1000)),
        " | ".join(f"(p{i} & q{i})" for i in range(800)),
    ):
        code, out, err = run_cli(capsys, "valid", "--logic", "ml", text)
        assert (code, out.splitlines()[0], err) == (1, "invalid", "")


def test_recursion_past_the_limit_is_an_internal_error(capsys, monkeypatch):
    # no pass recurses any more, so a library call is made to raise as
    # one past the limit would, deep inside the decision
    import teamlogic.translate as translate

    def too_deep(fs, memo):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(translate, "_tableau", too_deep)
    code, out, err = run_cli(capsys, "valid", "--logic", "ml", "[]" * 2000 + "p")
    assert code == 4
    assert out == ""
    assert "internal error: RecursionError" in err


def test_long_flat_chains_get_verdicts(tmp_path, capsys):
    # each node's hash comes from its children's kept hashes, so a long
    # chain is hashed without recursion and gets a real verdict
    valid = " | ".join(f"p{i}" for i in range(400)) + " | !p0"
    code, out, err = run_cli(capsys, "valid", "--logic", "ml", valid)
    assert (code, out.strip(), err) == (0, "valid", "")
    chain = " & ".join(f"p{i}" for i in range(600))
    code, out, err = run_cli(capsys, "valid", "--logic", "ml", "--json", chain)
    assert (code, err) == (1, "")
    model = tmp_path / "counter.json"
    model.write_text(json.dumps(json.loads(out)["countermodel"]))
    code, out, _ = run_cli(capsys, "mc", "--model", str(model), chain)
    assert (code, out.strip()) == (1, "false")


def test_valid_json_is_independent_of_the_hash_seed():
    # node hashes, and with them the iteration order of formula sets,
    # change with PYTHONHASHSEED; verdicts and countermodels must not
    argvs = [case["argv"] for case in GOLDENS] + [
        ["valid", "--logic", "emdl", "--json", text]
        for text in (
            # 5, 6 and 7 `ior` after unfolding, past C8's cap of 4
            "dep(p, q; r) & <> dep(; p)",
            "dep(p; q) & [] dep(q; r) & <> dep(r; p)",
            "dep(p, q; r) & dep(<> p; q) & dep(; [] r)",
        )
    ]
    child = (
        "import json, sys\n"
        "from teamlogic.cli import run\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    print(run(argv))\n"
    )
    import teamlogic

    src = str(Path(teamlogic.__file__).resolve().parent.parent)
    outs = []
    for seed in ("0", "123"):
        proc = subprocess.run(
            [sys.executable, "-c", child, json.dumps(argvs)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', proc.stdout))
    assert outs[0].count("countermodel") == len(argvs)
    assert outs[0] == outs[1]


def test_valid_json_is_independent_of_node_addresses():
    # formulas hash by identity, so the iteration order of formula sets
    # follows memory addresses; one child first interns and keeps a few
    # thousand unrelated formulas, which moves every later node
    argvs = [case["argv"] for case in GOLDENS] + [
        ["valid", "--logic", "emdl", "--json", text]
        for text in (
            "dep(p, q; r) & <> dep(; p)",
            "dep(p; q) & [] dep(q; r) & <> dep(r; p)",
            "dep(p, q; r) & dep(<> p; q) & dep(; [] r)",
        )
    ]
    child = (
        "import json, sys\n"
        "from teamlogic import parse_modal\n"
        "from teamlogic.cli import run\n"
        "junk = [parse_modal(f'<> a{i} & [] (!b{i} | c{i % 7})') for i in range(int(sys.argv[2]))]\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    print(run(argv))\n"
    )
    import teamlogic

    src = str(Path(teamlogic.__file__).resolve().parent.parent)
    outs = []
    for junk in ("0", "3000"):
        proc = subprocess.run(
            [sys.executable, "-c", child, json.dumps(argvs), junk],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', proc.stdout))
    assert outs[0].count("countermodel") == len(argvs)
    assert outs[0] == outs[1]


def test_mc_guard_override(tmp_path, capsys):
    import itertools

    rows = [list(r) for r in itertools.product((0, 1), repeat=5)]
    team = tmp_path / "wide.json"
    team.write_text(json.dumps({"domain": [f"x{i}" for i in range(5)], "rows": rows}))
    # two copies of an atom with 16 conflict pairs on the 32 rows need
    # 32 certificate bits, past the default of 24
    f = "dep(x0, x1, x2, x3; x4) | dep(x0, x1, x2, x3; x4)"
    code, _, err = run_cli(capsys, "mc", "--team", str(team), f)
    assert code == 3
    assert "error:" in err
    assert run_cli(capsys, "mc", "--team", str(team), "--max-bits", "-1", f)[:2] == (0, "true\n")
    assert run_cli(capsys, "mc", "--team", str(team), "--max-bits", "32", f)[0] == 0
    # a split that needs few bits holds however many rows it divides
    assert run_cli(capsys, "mc", "--team", str(team), "dep(; x0) | dep(; x0)")[:2] == (0, "true\n")


def test_guard_details_print_as_json_on_exit_3(tmp_path, capsys):
    args = ", ".join(f"x{i}" for i in range(11))
    code, out, err = run_cli(capsys, "translate", "--json", f"dep({args}; p)")
    assert code == 3
    assert err == "error: 11 arguments of a dependence atom exceed the guard of 10; raise max_dep_arity to override\n"
    assert json.loads(out) == {"guard": "max_dep_arity", "requested": 11, "limit": 10}
    rows = [[a, b, c, d, e] for a in (0, 1) for b in (0, 1) for c in (0, 1) for d in (0, 1) for e in (0, 1)]
    team = tmp_path / "wide.json"
    team.write_text(json.dumps({"domain": [f"x{i}" for i in range(5)], "rows": rows}))
    f = "dep(x0, x1, x2, x3; x4) | dep(x0, x1, x2, x3; x4)"
    code, out, err = run_cli(capsys, "mc", "--team", str(team), "--json", f)
    assert code == 3
    assert err == "error: 32 certificate bits exceed the guard of 24; raise max_bits to override\n"
    assert json.loads(out) == {"guard": "max_bits", "requested": 32, "limit": 24}
    # without --json, the message alone
    assert run_cli(capsys, "translate", f"dep({args}; p)")[1] == ""


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["valid", "--logic", "ml", "--max-team", "0", "p | !p"], "--max-team"),
        (["valid", "--logic", "mdl", "--max-team", "0", "dep(; p)"], "--max-team"),
        (["valid", "--logic", "emdl", "--max-team", "5", "p"], "--max-team"),
        (["valid", "--logic", "pl", "--max-selections", "0", "p | !p"], "--max-selections"),
        (["valid", "--logic", "pd", "--max-selections", "0", "dep(; p)"], "--max-selections"),
        (["valid", "--logic", "ml", "--max-selections", "-1", "p"], "--max-selections"),
        (["mc", "--team", "TEAM", "--max-choices", "0", "p"], "--max-choices"),
        (["mc", "--team", "TEAM", "--max-team", "-1", "p"], "--max-team"),
        (["mc", "--model", "MODEL", "--max-choices", "-1", "p"], "--max-choices"),
    ],
)
def test_guard_flags_that_do_not_apply_are_usage_errors(tmp_path, capsys, argv, flag):
    team = tmp_path / "t.json"
    team.write_text(json.dumps({"domain": ["p"], "rows": [[1]]}))
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"worlds": ["a"], "edges": [], "valuation": {"p": ["a"]}}))
    argv = [str(team) if a == "TEAM" else str(model) if a == "MODEL" else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert flag in err


@pytest.mark.parametrize(
    "argv",
    [
        ["valid", "--logic", "pd", "--max-team", "N", "p | !p"],
        ["mc", "--team", "TEAM", "--max-bits", "N", "dep(; p) | dep(; p)"],
        ["sat", "--max-team", "N", "dep(; p)"],
        ["mc", "--model", "MODEL", "--max-bits", "N", "<> p"],
        ["valid", "--logic", "emdl", "--max-selections", "N", "dep(; p) | p"],
        ["dqbf-eval", "--max-skolem-bits", "N", "INST"],
    ],
)
def test_guard_values_below_minus_one_are_usage_errors(tmp_path, capsys, argv):
    # only -1 means unbounded; -7 once ran unbounded and exited 0
    files = {
        "TEAM": json.dumps({"domain": ["p"], "rows": [[0], [1]]}),
        "MODEL": json.dumps(
            {"worlds": ["a"], "edges": [["a", "a"]], "valuation": {"p": ["a"]}, "team": ["a"]}
        ),
        "INST": "forall a1\nexists b1 {a1}\nmatrix b1 | !b1\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)

    def with_value(value):
        return [value if a == "N" else str(tmp_path / a) if a in files else a for a in argv]

    flag = argv[argv.index("N") - 1]
    for value in ("-7", "-2"):
        code, out, err = run_cli(capsys, *with_value(value))
        assert code == 2 and out == ""
        assert f"argument {flag}: must be a count, or -1 for no limit, not {value}" in err
    assert run_cli(capsys, *with_value("-1"))[0] == 0


def test_guard_flags_that_apply_still_work(tmp_path, capsys):
    assert run_cli(capsys, "valid", "--logic", "pd", "--max-team", "0", "p")[0] == 3
    assert run_cli(capsys, "valid", "--logic", "emdl", "--max-selections", "1", "dep(; p)")[0] == 3
    model = tmp_path / "m.json"
    data = {"worlds": ["a", "b"], "edges": [["a", "a"], ["a", "b"]], "valuation": {"p": ["b"]}}
    model.write_text(json.dumps({**data, "team": ["a"]}))
    code, _, err = run_cli(capsys, "mc", "--model", str(model), "--max-bits", "0", "<> dep(; p)")
    assert code == 3 and "certificate bits" in err
    assert run_cli(capsys, "mc", "--model", str(model), "--max-bits", "1", "<> dep(; p)")[0] == 0


@pytest.mark.parametrize(
    "data",
    [
        {"worlds": "ab", "edges": [["a", "b"]], "valuation": {"p": ["b"]}},
        {"worlds": ["a", "b"], "edges": ["ab"], "valuation": {"p": ["b"]}},
        {"worlds": ["a", "b"], "edges": "ab", "valuation": {"p": ["b"]}},
        {"worlds": ["a", "b"], "edges": [], "valuation": {"p": "b"}},
        {"worlds": ["a", "b"], "edges": [], "valuation": [["p", "b"]]},
        {"worlds": ["a", "b"], "edges": [], "valuation": {"p": ["b"]}, "team": "a"},
    ],
    ids=["worlds", "edge", "edges", "valuation-entry", "valuation", "team"],
)
def test_mc_model_with_a_string_for_a_list_is_a_usage_error(tmp_path, capsys, data):
    model = tmp_path / "m.json"
    model.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "mc", "--model", str(model), "p")
    assert code == 2 and out == ""
    assert "must be a" in err


def test_mc_team_rows_take_the_integers_0_and_1_only(tmp_path, capsys):
    team = tmp_path / "t.json"
    for data in (
        {"domain": "pq", "rows": [[0, 1]]},
        {"domain": ["p"], "rows": [[True]]},
        {"domain": ["p"], "rows": ["1"]},
        {"domain": ["p"], "rows": [[1.0]]},
        {"domain": ["p"], "rows": [[[0]]]},
        {"domain": ["p"], "rows": [[{}]]},
    ):
        team.write_text(json.dumps(data))
        assert run_cli(capsys, "mc", "--team", str(team), "p")[0] == 2


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO("p | !p"))
    code, out, _ = run_cli(capsys, "valid", "--logic", "pl", "--file", "-")
    assert code == 0


def test_file_and_inline_conflict(tmp_path, capsys):
    f = tmp_path / "f.txt"
    f.write_text("p")
    code, _, err = run_cli(capsys, "parse", "--file", str(f), "p")
    assert code == 2


def test_dqbf_commands(tmp_path, capsys):
    inst = tmp_path / "inst.dqbf"
    inst.write_text("forall a1\nexists b1 {a1}\nmatrix a1 & b1 | !a1 & !b1\n")
    code, out, _ = run_cli(capsys, "dqbf-eval", str(inst))
    assert code == 0
    assert "b1(a1): 0->0 1->1" in out
    code, out, _ = run_cli(capsys, "dqbf-reduce", str(inst))
    assert code == 0
    assert out.strip() == "a1 & b1 | !a1 & !b1 | dep(a1; b1)"
    blind = tmp_path / "blind.dqbf"
    blind.write_text("forall a1\nexists b1 {}\nmatrix a1 & b1 | !a1 & !b1\n")
    assert run_cli(capsys, "dqbf-eval", str(blind))[0] == 1


def test_dqbf_eval_json(tmp_path, capsys):
    inst = tmp_path / "inst.dqbf"
    inst.write_text("forall a1\nexists b1 {a1}\nmatrix a1 & b1 | !a1 & !b1\n")
    code, out, _ = run_cli(capsys, "dqbf-eval", "--json", str(inst))
    assert code == 0
    payload = json.loads(out)
    assert payload["witness"]["tables"] == {"b1": [0, 1]}
    assert payload["witness"]["constraints"] == {"b1": ["a1"]}


def test_qbf_conversion_commands(tmp_path, capsys):
    qbf = tmp_path / "q.qbf"
    qbf.write_text("prefix A a1 E b1\nmatrix a1 & b1 | !a1 & !b1\n")
    code, out, _ = run_cli(capsys, "qbf-to-dqbf", str(qbf))
    assert code == 0
    assert out.splitlines()[0] == "forall a1"
    dq = tmp_path / "back.dqbf"
    dq.write_text(out)
    code, out2, _ = run_cli(capsys, "dqbf-to-qbf", str(dq))
    assert code == 0
    assert out2.splitlines()[0] == "prefix A a1 E b1"
    fork = tmp_path / "fork.dqbf"
    fork.write_text("forall a1 a2\nexists b1 {a1} b2 {a2}\nmatrix b1 | b2\n")
    code, _, err = run_cli(capsys, "dqbf-to-qbf", str(fork))
    assert code == 2
    assert "chain" in err


def test_missing_file(capsys):
    code, _, err = run_cli(capsys, "parse", "--file", "/nonexistent/x.txt")
    assert code == 2


def test_usage_error(capsys):
    assert run_cli(capsys, "valid", "p | !p")[0] == 2  # --logic required
    assert run_cli(capsys, "frobnicate", "p")[0] == 2


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "teamlogic.cli", "valid", "--logic", "pd",
         "dep(p; q) | dep(p; q)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    proc2 = subprocess.run(
        [sys.executable, "-m", "teamlogic.cli", "valid", "--logic", "mdl",
         "--json", "dep(; p)"],
        capture_output=True,
        text=True,
    )
    assert proc2.returncode == 1
    payload = json.loads(proc2.stdout)
    assert payload["verdict"] == "invalid"
    assert "countermodel" in payload


# numpy serves the test oracles only; the rest is what dataclasses and
# typing would bring in at start-up
UNRUN_MODULES = ["numpy", "dataclasses", "inspect", "ast", "typing"]


def test_import_leaves_numpy_unloaded():
    # the library and the CLI load only modules they run; -S keeps out
    # whatever the interpreter's site packages import on their own
    import teamlogic

    src = str(Path(teamlogic.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, teamlogic.cli; "
         f"print([m for m in {UNRUN_MODULES!r} if m in sys.modules])"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# round trips: what one verb prints, another reads back

SYMS = ("p", "q", "r")


@st.composite
def literals(draw):
    sym = PropSymbol(draw(st.sampled_from(SYMS)))
    return Atom(sym) if draw(st.booleans()) else NegAtom(sym)


@st.composite
def modal_formulas(draw, depth=0, deps=True):
    """Modal formulas over p, q, r; with modal dependence atoms if `deps`."""
    if depth >= 3 or draw(st.booleans()):
        if deps and draw(st.integers(0, 3)) == 0:
            args = draw(st.lists(modal_formulas(2, False), max_size=2))
            return MDep(tuple(args), draw(modal_formulas(2, False)))
        return draw(literals())
    kind = draw(st.integers(0, 3))
    if kind < 2:
        return (Diamond, Box)[kind](draw(modal_formulas(depth + 1, deps)))
    left, right = draw(modal_formulas(depth + 1, deps)), draw(modal_formulas(depth + 1, deps))
    return (And, Or)[kind - 2](left, right)


@st.composite
def prop_formulas(draw, depth=0):
    """Propositional dependence formulas over p, q, r."""
    if depth >= 3 or draw(st.booleans()):
        if draw(st.integers(0, 3)) == 0:
            args = draw(st.lists(st.sampled_from(SYMS), max_size=2, unique=True))
            target = draw(st.sampled_from(SYMS))
            return Dep(tuple(map(PropSymbol, args)), PropSymbol(target))
        return draw(literals())
    op = draw(st.sampled_from([And, Or]))
    return op(draw(prop_formulas(depth + 1)), draw(prop_formulas(depth + 1)))


def cli(*argv, data=None):
    """Exit code and stdout of one in-process `tlg` call; `data`, if
    given, is written to a JSON file whose path replaces "FILE"."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        if data is not None:
            path.write_text(json.dumps(data))
        with contextlib.redirect_stdout(out):
            code = run([str(path) if a == "FILE" else a for a in argv])
    return code, out.getvalue()


@given(modal_formulas())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_valid_countermodels_round_trip_through_mc(f):
    # The countermodel must declare every symbol of the formula, or
    # `mc --model` refuses it as missing from the valuation.
    assume(count_idis(emdl_to_mliv(f)) <= 6)
    text = render(f)
    code, out = cli("valid", "--logic", "emdl", "--json", text)
    assert code in (0, 1)
    if code == 1:
        data = json.loads(out)["countermodel"]
        assert cli("mc", "--model", "FILE", text, data=data) == (1, "false\n")
        m, team = kripke_from_dict(data)
        assert not brute_mt(m, bisim_representatives(m, team, f), f)


@given(prop_formulas())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_sat_witnesses_round_trip_through_mc(f):
    text = render(f)
    code, out = cli("sat", "--nonempty", "--json", text)
    assert code in (0, 1)
    if code == 0:
        data = json.loads(out)["witness"]
        assert cli("mc", "--team", "FILE", text, data=data) == (0, "true\n")
        assert brute_pt(team_from_dict(data), f)
