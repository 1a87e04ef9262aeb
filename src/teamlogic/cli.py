"""Command-line front end.

One verb per invocation; exit codes encode the verdict so scripts can
branch without parsing output: 0 true/valid/sat, 1 false/invalid/unsat,
2 usage or parse error, 3 a resource guard refused the computation,
4 an internal error (a bug: the verdict is unknown).
Verdict payloads (teams, countermodels, witnesses) print in the same
file formats the tool reads, so they can be piped back in.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .dqbf import (
    dqbf_eval,
    dqbf_to_qbf,
    parse_dqbf,
    parse_qbf,
    qbf_to_dqbf,
    reduce_to_pd,
    render_dqbf,
    render_qbf,
)
from .errors import GuardLimitError
from .formula import Fragment, classify, render
from .kripke import kripke_from_dict, kripke_to_dict, mt_eval
from .parser import parse_modal, parse_prop
from .prop_team import (
    DEFAULT_MAX_DOMAIN,
    pd_sat,
    pd_valid,
    pt_eval,
    team_from_dict,
    team_to_dict,
)
from .team_eval import DEFAULT_MAX_BITS
from .translate import (
    DEFAULT_MAX_SELECTIONS,
    emdl_to_mliv,
    emdl_valid,
    ml_valid,
)

_EXIT_TRUE = 0
_EXIT_FALSE = 1
_EXIT_USAGE = 2
_EXIT_GUARD = 3
_EXIT_INTERNAL = 4


def _guard(text: str) -> int:
    """A guard flag's value: a count, or -1 for no limit."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < -1:
        raise argparse.ArgumentTypeError(f"must be a count, or -1 for no limit, not {value}")
    return value


def _limit(value: int | None, default):
    """CLI guard override: None means keep the default, -1 means no limit."""
    if value is None:
        return default
    return None if value < 0 else value


def _read_path(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _read_text(args, what: str) -> str:
    inline = getattr(args, what, None)
    if inline is not None and args.file is not None:
        raise ValueError(f"give the {what} inline or via --file, not both")
    if inline is not None:
        return inline
    if args.file is None:
        raise ValueError(f"no {what} given; pass it inline or via --file")
    return _read_path(args.file)


def _load_json(path: str) -> dict:
    try:
        return json.loads(_read_path(path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from None


class _Report:
    """Collects one command's verdict and renders it once, at the end."""

    def __init__(self, as_json: bool):
        self.as_json = as_json
        self.payload: dict = {}
        self.lines: list[str] = []
        self.checked = 1

    def emit(self, exit_code: int, started: float) -> int:
        if self.as_json:
            self.payload.setdefault("stats", {})
            self.payload["stats"].setdefault("disjuncts_checked", self.checked)
            self.payload["stats"]["elapsed_ms"] = int(
                (time.monotonic() - started) * 1000
            )
            print(json.dumps(self.payload, sort_keys=True))
        else:
            for line in self.lines:
                print(line)
        return exit_code


def _cmd_parse(args, report: _Report) -> int:
    text = _read_text(args, "formula")
    f = parse_modal(text) if args.logic == "modal" else parse_prop(text)
    fragment = classify(f)
    report.lines = [render(f), f"fragment: {fragment.value}"]
    report.payload = {"formula": render(f), "fragment": fragment.value}
    return _EXIT_TRUE


def _cmd_mc(args, report: _Report) -> int:
    if (args.team is None) == (args.model is None):
        raise ValueError("mc needs exactly one of --team (propositional) or --model")
    max_bits = _limit(args.max_bits, DEFAULT_MAX_BITS)
    if args.team is not None:
        team = team_from_dict(_load_json(args.team))
        result = pt_eval(team, parse_prop(_read_text(args, "formula")), max_bits=max_bits)
    else:
        model, team = kripke_from_dict(_load_json(args.model))
        result = mt_eval(model, team, parse_modal(_read_text(args, "formula")), max_bits=max_bits)
    report.lines = ["true" if result else "false"]
    report.payload = {"verdict": "true" if result else "false"}
    return _EXIT_TRUE if result else _EXIT_FALSE


def _cmd_sat(args, report: _Report) -> int:
    f = parse_prop(_read_text(args, "formula"))
    witness = pd_sat(
        f,
        require_nonempty=args.nonempty,
        max_domain=_limit(args.max_team, DEFAULT_MAX_DOMAIN),
    )
    if witness is None:
        report.lines = ["unsat"]
        report.payload = {"verdict": "unsat"}
        return _EXIT_FALSE
    team = team_to_dict(witness)
    report.lines = ["sat", json.dumps(team, sort_keys=True)]
    report.payload = {"verdict": "sat", "witness": team}
    return _EXIT_TRUE


def _cmd_valid(args, report: _Report) -> int:
    if args.max_team is not None and args.logic not in ("pl", "pd"):
        raise ValueError("--max-team applies to --logic pl and pd only")
    if args.max_selections is not None and args.logic not in ("mdl", "emdl"):
        raise ValueError("--max-selections applies to --logic mdl and emdl only")
    text = _read_text(args, "formula")
    if args.logic in ("pl", "pd"):
        f = parse_prop(text)
        if args.logic == "pl" and classify(f) is not Fragment.PL:
            raise ValueError("--logic pl admits no dependence atoms")
        result = pd_valid(f, max_domain=_limit(args.max_team, DEFAULT_MAX_DOMAIN))
        report.lines = ["valid" if result else "invalid"]
        report.payload = {"verdict": "valid" if result else "invalid"}
        return _EXIT_TRUE if result else _EXIT_FALSE
    f = parse_modal(text)
    if args.logic == "ml":
        verdict = ml_valid(f)
    else:
        verdict = emdl_valid(
            f, max_selections=_limit(args.max_selections, DEFAULT_MAX_SELECTIONS)
        )
    report.checked = verdict.checked
    if verdict:
        report.lines = ["valid"]
        report.payload = {"verdict": "valid"}
        if verdict.witness is not None and len(verdict.witness) > 0:
            report.lines.append(f"witness: {verdict.witness.bitstring}")
            report.payload["witness"] = verdict.witness.bitstring
        return _EXIT_TRUE
    counter = kripke_to_dict(verdict.model, verdict.team)
    report.lines = ["invalid", json.dumps(counter, indent=2, sort_keys=True)]
    report.payload = {"verdict": "invalid", "countermodel": counter}
    return _EXIT_FALSE


def _cmd_dqbf_eval(args, report: _Report) -> int:
    inst = parse_dqbf(_read_path(args.path))
    witness = dqbf_eval(
        inst, max_table_bits=_limit(args.max_skolem_bits, DEFAULT_MAX_BITS)
    )
    if witness is None:
        report.lines = ["false"]
        report.payload = {"verdict": "false"}
        return _EXIT_FALSE
    report.lines = ["true"]
    described = witness.describe()
    if described:
        report.lines.append(described)
    report.payload = {
        "verdict": "true",
        "witness": {
            "tables": {s.name: list(t) for s, t in witness.tables.items()},
            "constraints": {
                s.name: [d.name for d in deps]
                for s, deps in witness.constraints.items()
            },
        },
    }
    return _EXIT_TRUE


# The verbs that print one rewrite of their input: the payload key of
# the output, and the rewrite from input text to output text.
_REWRITES = {
    "translate": ("formula", lambda text: render(emdl_to_mliv(parse_modal(text)))),
    "dqbf-reduce": ("formula", lambda text: render(reduce_to_pd(parse_dqbf(text)))),
    "qbf-to-dqbf": ("instance", lambda text: render_dqbf(qbf_to_dqbf(parse_qbf(text)))),
    "dqbf-to-qbf": ("instance", lambda text: render_qbf(dqbf_to_qbf(parse_dqbf(text)))),
}


def _cmd_rewrite(args, report: _Report) -> int:
    key, rewrite = _REWRITES[args.verb]
    out = rewrite(_read_path(args.path) if "path" in args else _read_text(args, "formula"))
    report.lines = [out]
    report.payload = {key: out}
    return _EXIT_TRUE


_COMMANDS = {
    "parse": _cmd_parse,
    "mc": _cmd_mc,
    "sat": _cmd_sat,
    "valid": _cmd_valid,
    "dqbf-eval": _cmd_dqbf_eval,
    **dict.fromkeys(_REWRITES, _cmd_rewrite),
}


def _add_formula_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("formula", nargs="?", help="formula text; omit when using --file")
    p.add_argument("--file", help="read the formula from this path; - for stdin")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="machine-readable verdict")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="tlg",
        description="Model checking, satisfiability and validity for team "
        "semantics of propositional and modal dependence logics.",
    )
    sub = top.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("parse", help="parse and reprint a formula")
    _add_formula_args(p)
    p.add_argument("--logic", choices=["prop", "modal"], default="modal")
    _add_common(p)

    p = sub.add_parser("mc", help="model-check a formula against a team")
    _add_formula_args(p)
    p.add_argument("--team", metavar="FILE", help="propositional team JSON")
    p.add_argument("--model", metavar="FILE", help="Kripke structure JSON")
    p.add_argument("--max-bits", type=_guard, metavar="N", help="search bit guard; -1 unbounded")
    _add_common(p)

    p = sub.add_parser("sat", help="find a satisfying team (propositional)")
    _add_formula_args(p)
    p.add_argument("--nonempty", action="store_true", help="ignore the empty team")
    p.add_argument("--max-team", type=_guard, metavar="N", help="domain guard; -1 unbounded")
    _add_common(p)

    p = sub.add_parser("valid", help="decide validity")
    _add_formula_args(p)
    p.add_argument("--logic", choices=["pl", "pd", "ml", "mdl", "emdl"], required=True)
    p.add_argument("--max-team", type=_guard, metavar="N", help="domain guard; -1 unbounded")
    p.add_argument(
        "--max-selections", type=_guard, metavar="N", help="selection guard; -1 unbounded"
    )
    _add_common(p)

    p = sub.add_parser("translate", help="eliminate modal dependence atoms")
    _add_formula_args(p)
    _add_common(p)

    for verb, help_text in [
        ("dqbf-eval", "decide a DQBF instance by Skolem table search"),
        ("dqbf-reduce", "print the team formula whose validity is instance truth"),
        ("qbf-to-dqbf", "read dependency sets off a QBF prefix"),
        ("dqbf-to-qbf", "rebuild a QBF prefix from a chain instance"),
    ]:
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("path", help="instance file; - for stdin")
        if verb == "dqbf-eval":
            p.add_argument(
                "--max-skolem-bits",
                type=_guard,
                metavar="N",
                help="table bit guard; -1 unbounded",
            )
        _add_common(p)
    return top


def run(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; keep both.
        return int(exc.code or 0)
    report = _Report(args.json)
    try:
        code = _COMMANDS[args.verb](args, report)
    except (ValueError, OSError) as exc:  # a ParseError among them
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except GuardLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if args.json:
            details = {"guard": exc.guard, "requested": exc.requested, "limit": exc.limit}
            print(json.dumps(details, sort_keys=True))
        return _EXIT_GUARD
    except Exception as exc:
        # Exit 1 would read as a negative verdict; report the bug instead.
        # Imported here so that no run without a bug pays for the import.
        import traceback

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _EXIT_INTERNAL
    return report.emit(code, started)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
