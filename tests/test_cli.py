import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from teamlogic.cli import run


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


def test_recursion_past_the_limit_is_an_internal_error(capsys):
    # the tableau still recurses, one level per box
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
    f = "dep(x0; x1) | dep(x2; x3)"
    code, _, err = run_cli(capsys, "mc", "--team", str(team), f)
    assert code == 3
    assert "error:" in err
    code, out, _ = run_cli(
        capsys, "mc", "--team", str(team), "--max-team", "-1", f
    )
    assert code in (0, 1)


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
    ],
)
def test_guard_flags_that_do_not_apply_are_usage_errors(tmp_path, capsys, argv, flag):
    team = tmp_path / "t.json"
    team.write_text(json.dumps({"domain": ["p"], "rows": [[1]]}))
    argv = [str(team) if a == "TEAM" else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert flag in err


def test_guard_flags_that_apply_still_work(tmp_path, capsys):
    assert run_cli(capsys, "valid", "--logic", "pd", "--max-team", "0", "p")[0] == 3
    assert run_cli(capsys, "valid", "--logic", "emdl", "--max-selections", "1", "dep(; p)")[0] == 3
    model = tmp_path / "m.json"
    data = {"worlds": ["a", "b"], "edges": [["a", "a"], ["a", "b"]], "valuation": {"p": ["b"]}}
    model.write_text(json.dumps({**data, "team": ["a"]}))
    code, _, err = run_cli(capsys, "mc", "--model", str(model), "--max-choices", "1", "<> dep(; p)")
    assert code == 3 and "successor choices" in err


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


def test_import_leaves_numpy_unloaded():
    # numpy serves the test oracles only; the library must not load it
    import teamlogic

    src = str(Path(teamlogic.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, teamlogic; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
