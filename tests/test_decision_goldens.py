"""Byte-for-byte outputs of the modal validity deciders.

`decision_goldens.json` holds seeded EMDL and ML(`ior`) formulas from
the `oracles` generators, each with the verdict `emdl_valid` or
`mliv_valid` gives it: the witness's bitstring and `checked` for a
`Valid`, `checked` and the countermodel as `kripke_to_dict` writes it,
team included, for an `Invalid`. Any change to the selection order, the
tableau's picks, the model it builds or the filtration shows up here as
a changed line.

Regenerate with `PYTHONPATH=src python tests/test_decision_goldens.py`,
and only on purpose: the file pins what the deciders return.
"""

import json
import random
from pathlib import Path

import pytest

from teamlogic import (
    Valid,
    count_idis,
    emdl_to_mliv,
    emdl_valid,
    kripke_to_dict,
    mliv_valid,
    parse_modal,
    render,
)

from oracles import random_emdl_formula, random_mliv_formula

PATH = Path(__file__).parent / "decision_goldens.json"
DECIDERS = {"emdl": emdl_valid, "ml-ior": mliv_valid}


def _corpus() -> list[tuple[str, str]]:
    """(logic, formula text) pairs: 100 EMDL formulas whose unfoldings
    have 0-10 `ior` and 100 ML(`ior`) formulas with 0-9, at most 12 of
    each logic per `ior` count, so the larger counts are not crowded out.
    """
    rng = random.Random(2022)
    out = []
    for logic, cap in (("emdl", 10), ("ml-ior", 9)):
        per_count: dict = {}
        seen = set()
        while len(seen) < 100:
            if logic == "emdl":
                f = random_emdl_formula(rng, ["p", "q", "r"], rng.randint(2, 10), 2)
                m = count_idis(emdl_to_mliv(f))
            else:
                f = random_mliv_formula(rng, ["p", "q", "r"], rng.randint(3, 26), 2)
                m = count_idis(f)
            text = render(f)
            if m <= cap and per_count.get(m, 0) < 12 and text not in seen:
                seen.add(text)
                per_count[m] = per_count.get(m, 0) + 1
                out.append((logic, text))
    return out


def _outcome(logic: str, text: str) -> dict:
    res = DECIDERS[logic](parse_modal(text))
    if isinstance(res, Valid):
        witness = None if res.witness is None else res.witness.bitstring
        return {"verdict": "valid", "witness": witness, "checked": res.checked}
    return {
        "verdict": "invalid",
        "checked": res.checked,
        "countermodel": kripke_to_dict(res.model, res.team),
    }


GOLDENS = json.loads(PATH.read_text()) if PATH.exists() else []


def test_the_corpus_covers_both_verdicts_and_logics():
    assert len(GOLDENS) == 200
    seen = {(case["logic"], case["verdict"]) for case in GOLDENS}
    assert seen == {(l, v) for l in DECIDERS for v in ("valid", "invalid")}


@pytest.mark.parametrize(
    "case", GOLDENS, ids=[f"{case['logic']}-{i}" for i, case in enumerate(GOLDENS)]
)
def test_decision_matches_the_golden(case):
    want = {k: v for k, v in case.items() if k not in ("logic", "formula")}
    assert _outcome(case["logic"], case["formula"]) == want


if __name__ == "__main__":
    cases = [
        {"logic": logic, "formula": text, **_outcome(logic, text)} for logic, text in _corpus()
    ]
    PATH.write_text(
        "[\n" + ",\n".join(json.dumps(c, sort_keys=True) for c in cases) + "\n]\n"
    )
