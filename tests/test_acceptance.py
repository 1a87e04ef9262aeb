"""Acceptance suite.

One test per acceptance criterion, each printing a single PASS/FAIL
line with its corpus size and elapsed time. The exhaustive corpora are
enumerated in oracles.py; independent reference implementations from
the same module back the spot checks.
"""

import itertools
import random
import time

import numpy as np
import pytest

from teamlogic import (
    Atom,
    Box,
    Diamond,
    DqbfInstance,
    IDis,
    Invalid,
    KripkeStructure,
    NegAtom,
    Or,
    PropSymbol,
    PropTeam,
    QbfInstance,
    Valid,
    And,
    bisimilar,
    count_idis,
    disjoint_union,
    dqbf_eval,
    dqbf_to_qbf,
    eliminate_idis,
    emdl_to_mliv,
    emdl_valid,
    is_simple_constraint,
    kripke_to_dict,
    ml_point_eval,
    ml_valid,
    mliv_valid,
    mt_eval,
    nb_subf,
    parse_modal,
    pd_valid,
    pl_pointwise,
    pt_eval,
    qbf_eval,
    qbf_to_dqbf,
    reduce_to_pd,
    render,
    replay_witness,
    size,
    symbols,
    team_bisimilar,
)

from oracles import (
    PropTeamSetOracle,
    TeamSetOracle,
    _bml_point,
    brute_mt,
    dedup_pool_by_table,
    enumerate_emdl,
    enumerate_pd,
    ml_valid_small_models,
    nnf_pool,
    pd_valid_bruteforce,
    random_dep_free_prop,
    random_emdl_formula,
    random_ml_formula,
    random_mliv_formula,
    random_model,
    random_pd_formula,
    random_subteam,
    random_team,
)

P3 = tuple(PropSymbol(s) for s in ("p", "q", "r"))
p, q = PropSymbol("p"), PropSymbol("q")


def report(tag, ok, detail):
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag} failed: {detail}"


@pytest.mark.slow
def test_c01_pd_validity_oracle_equivalence():
    started = time.time()
    checked = 0
    mismatches = 0
    oracle_checked = 0
    oracles = {}
    for f in enumerate_pd(9, P3):
        dom = tuple(sorted(symbols(f)))
        a = pd_valid(f)
        b = pd_valid_bruteforce(f, dom)
        checked += 1
        if a != b:
            mismatches += 1
        if checked % 97 == 0:
            # independent third opinion on a deterministic subsample
            oracle = oracles.get(dom)
            if oracle is None:
                oracle = oracles[dom] = PropTeamSetOracle(dom)
            bits = oracle.sets(f)
            full = (1 << oracle.n_rows) - 1
            if bool(bits >> full & 1) != a:
                mismatches += 1
            oracle_checked += 1
    rng = random.Random(11)
    for _ in range(500):
        f = random_pd_formula(rng, ["p", "q", "r"], rng.randint(10, 14))
        dom = tuple(sorted(symbols(f)))
        if pd_valid(f) != pd_valid_bruteforce(f, dom):
            mismatches += 1
        checked += 1
    elapsed = time.time() - started
    report(
        "C1 pd validity equals brute force",
        mismatches == 0 and elapsed < 300,
        f"{checked} formulas, {oracle_checked} oracle spot checks, {elapsed:.1f}s",
    )


def test_c02_reduction_correctness():
    started = time.time()
    master = [PropSymbol(s) for s in ("a1", "a2", "b1", "b2")]
    pool = nnf_pool(master, 7)
    checked = 0
    mismatches = 0
    for n in range(0, 3):
        for k in range(0, 3):
            universals = [master[i] for i in range(n)]
            existentials = [master[2 + i] for i in range(k)]
            if not universals and not existentials:
                continue
            allow = 0
            for v in universals + existentials:
                allow |= 1 << master.index(v)
            shape_pool = dedup_pool_by_table(
                entry for entry in pool if entry[2] & ~allow == 0
            )
            dep_choices = [
                tuple(c)
                for r in range(n + 1)
                for c in itertools.combinations(universals, r)
            ]
            for vector in itertools.product(dep_choices, repeat=k):
                for f, _, _ in shape_pool:
                    inst = DqbfInstance(
                        universals, list(zip(existentials, vector)), f
                    )
                    witness = dqbf_eval(inst)
                    valid = pd_valid(reduce_to_pd(inst))
                    checked += 1
                    if (witness is not None) != valid:
                        mismatches += 1
                    elif witness is not None and not replay_witness(inst, witness):
                        mismatches += 1
    elapsed = time.time() - started
    report(
        "C2 dqbf truth equals reduction validity",
        mismatches == 0 and elapsed < 600,
        f"{checked} instances, {elapsed:.1f}s",
    )


def test_c03_flatness():
    started = time.time()
    rng = random.Random(13)
    violations = 0
    for _ in range(1000):
        f = random_dep_free_prop(rng, ["p", "q", "r"], rng.randint(1, 10))
        team = random_team(rng, ["p", "q", "r"], 6)
        flat = all(pl_pointwise(a, f) for a in team.assignments())
        if pt_eval(team, f, max_split_rows=None) != flat:
            violations += 1
    for _ in range(1000):
        m = random_model(rng, rng.randint(1, 4), [p, q])
        team = random_subteam(rng, m.worlds)
        f = random_ml_formula(rng, ["p", "q"], rng.randint(1, 8), 2)
        flat = all(ml_point_eval(m, w, f) for w in team)
        if mt_eval(m, team, f, max_split_rows=None) != flat:
            violations += 1
    elapsed = time.time() - started
    report(
        "C3 flatness of the dep-free fragment",
        violations == 0,
        f"2000 samples, {violations} violations, {elapsed:.1f}s",
    )


def _first_satisfying_team(m, f, rng):
    worlds = sorted(m.worlds)
    masks = sorted(range(1 << len(worlds)), key=lambda v: -bin(v).count("1"))
    for mask in masks:
        team = {w for i, w in enumerate(worlds) if mask >> i & 1}
        if mt_eval(m, team, f, max_split_rows=None):
            return team
    return None


def test_c04_downward_closure():
    started = time.time()
    rng = random.Random(17)
    violations = 0
    found = 0
    while found < 500:
        f = random_pd_formula(rng, ["p", "q"], rng.randint(1, 8))
        team = random_team(rng, ["p", "q"], 4)
        if not pt_eval(team, f, max_split_rows=None):
            continue
        found += 1
        rows = sorted(team.rows)
        for mask in range(1 << len(rows)):
            sub = [row for i, row in enumerate(rows) if mask >> i & 1]
            if not pt_eval(PropTeam(team.domain, sub), f, max_split_rows=None):
                violations += 1
                break
    found = 0
    while found < 500:
        m = random_model(rng, rng.randint(1, 3), [p, q])
        f = random_emdl_formula(rng, ["p", "q"], rng.randint(1, 5), 1)
        team = _first_satisfying_team(m, f, rng)
        if team is None:
            continue
        found += 1
        worlds = sorted(team)
        for mask in range(1 << len(worlds)):
            sub = {w for i, w in enumerate(worlds) if mask >> i & 1}
            if not mt_eval(m, sub, f, max_split_rows=None):
                violations += 1
                break
    elapsed = time.time() - started
    report(
        "C4 downward closure",
        violations == 0,
        f"1000 satisfying pairs, {violations} violations, {elapsed:.1f}s",
    )


def _check_translation(f, oracles, spot_rng=None):
    """Returns the number of violations for one formula."""
    g = emdl_to_mliv(f)
    bad = 0
    if len(nb_subf(g)) > 3 * size(f):
        bad += 1
    plain = [sel_f for _, sel_f in eliminate_idis(g)]
    for oracle in oracles.values():
        cache = {}
        direct = oracle.sets(f, cache)
        translated = oracle.sets(g, cache)
        union = np.zeros_like(direct)
        for sel_f in plain:
            union |= oracle.sets(sel_f, cache)
        if not ((direct == translated).all() and (direct == union).all()):
            bad += 1
    if spot_rng is not None:
        # tie the vectorized verdicts back to the team evaluator
        oracle = oracles[spot_rng.choice((1, 2, 3))]
        sidx = spot_rng.randrange(oracle.n_structs)
        tidx = spot_rng.randrange(oracle.n_teams)
        m = oracle.structure(sidx)
        team = oracle.team_worlds(tidx)
        want = bool(oracle.sets(f)[sidx] >> tidx & 1)
        if mt_eval(m, team, f, max_split_rows=None) != want:
            bad += 1
    return bad


@pytest.mark.slow
def test_c05_translation_equivalence():
    started = time.time()
    oracles = {w: TeamSetOracle(w, ("p", "q")) for w in (1, 2, 3)}
    rng = random.Random(19)
    violations = 0
    checked = 0
    for f in enumerate_emdl(6, ("p", "q")):
        checked += 1
        spot = rng if checked % 400 == 0 else None
        violations += _check_translation(f, oracles, spot)
    randoms = 0
    while randoms < 200:
        f = random_emdl_formula(rng, ["p", "q"], rng.randint(6, 9), 2)
        if count_idis(emdl_to_mliv(f)) > 5:
            continue
        randoms += 1
        checked += 1
        violations += _check_translation(f, oracles)
    elapsed = time.time() - started
    report(
        "C5 translation equivalence and nb bound",
        violations == 0 and elapsed < 900,
        f"{checked} formulas over all structures with 1-3 worlds, {elapsed:.1f}s",
    )


def test_c06_disjunction_property():
    started = time.time()
    rng = random.Random(23)
    violations = 0
    for _ in range(100):
        f = random_ml_formula(rng, ["p", "q"], rng.randint(1, 6), 2)
        g = random_ml_formula(rng, ["p", "q"], rng.randint(1, 6), 2)
        pair = bool(mliv_valid(IDis(f, g)))
        solo = bool(ml_valid(f)) or bool(ml_valid(g))
        if pair != solo:
            violations += 1
    elapsed = time.time() - started
    report(
        "C6 disjunction property",
        violations == 0,
        f"100 pairs, {violations} violations, {elapsed:.1f}s",
    )


def test_c07_small_model_consistency():
    started = time.time()
    sym = PropSymbol("p")
    TRUE = Or(Atom(sym), NegAtom(sym))
    FALSE = And(Atom(sym), NegAtom(sym))
    funcs = {"T": TRUE, "F": FALSE, "p": Atom(sym), "n": NegAtom(sym)}
    # pointwise order on Boolean functions of one symbol
    leq = [
        ("F", "F"), ("F", "p"), ("F", "n"), ("F", "T"),
        ("p", "p"), ("p", "T"), ("n", "n"), ("n", "T"), ("T", "T"),
    ]
    corpus = list(funcs.values())
    for wrap in (Diamond, Box):
        for g in funcs.values():
            modal = wrap(g)
            for lo, hi in leq:
                corpus.append(Or(funcs[lo], And(funcs[hi], modal)))
    violations = 0
    for f in corpus:
        bound = 1 << len(nb_subf(f))
        if bool(ml_valid(f)) != ml_valid_small_models(f, max_worlds=bound):
            violations += 1
    elapsed = time.time() - started
    report(
        "C7 small-model bound agreement",
        violations == 0 and len(corpus) == 76,
        f"{len(corpus)} formulas, bound 2^|nbSubf|, {elapsed:.1f}s",
    )


def test_c08_countermodel_soundness():
    started = time.time()
    rng = random.Random(29)
    invalid = 0
    confirmed = 0
    for _ in range(200):
        f = random_ml_formula(rng, ["p", "q"], rng.randint(1, 7), 2)
        res = ml_valid(f)
        if isinstance(res, Invalid):
            invalid += 1
            (root,) = res.team
            if not _bml_point(res.model, root, f):
                confirmed += 1
    for _ in range(100):
        f = random_mliv_formula(rng, ["p", "q"], rng.randint(1, 5), 1)
        if count_idis(f) > 4:
            continue
        res = mliv_valid(f)
        if isinstance(res, Invalid):
            invalid += 1
            if not brute_mt(res.model, res.team, f):
                confirmed += 1
    for _ in range(150):
        f = random_emdl_formula(rng, ["p", "q"], rng.randint(1, 5), 1)
        if count_idis(emdl_to_mliv(f)) > 4:
            continue
        res = emdl_valid(f)
        if isinstance(res, Invalid):
            invalid += 1
            if not brute_mt(res.model, res.team, f):
                confirmed += 1
    elapsed = time.time() - started
    report(
        "C8 countermodels replay",
        invalid > 50 and confirmed == invalid,
        f"{confirmed}/{invalid} confirmed by the independent checker, {elapsed:.1f}s",
    )


def test_c09_invariance():
    started = time.time()
    rng = random.Random(31)
    violations = 0
    for _ in range(200):
        m = random_model(rng, rng.randint(1, 4), [p, q])
        team = random_subteam(rng, m.worlds)
        f = random_emdl_formula(rng, ["p", "q"], rng.randint(1, 5), 1)
        u = disjoint_union(m, m)
        doubled = {f"L:{w}" for w in team} | {f"R:{w}" for w in team}
        if not team_bisimilar(m, team, u, doubled):
            violations += 1
        if mt_eval(m, team, f, max_split_rows=None) != mt_eval(
            u, doubled, f, max_split_rows=None
        ):
            violations += 1
    for _ in range(200):
        m1 = random_model(rng, rng.randint(1, 3), [p, q])
        m2 = random_model(rng, rng.randint(1, 3), [p, q])
        team = random_subteam(rng, m1.worlds)
        f = random_emdl_formula(rng, ["p", "q"], rng.randint(1, 5), 1)
        u = disjoint_union(m1, m2)
        shifted = {f"L:{w}" for w in team}
        if mt_eval(m1, team, f, max_split_rows=None) != mt_eval(
            u, shifted, f, max_split_rows=None
        ):
            violations += 1
    for _ in range(200):
        m = random_model(rng, rng.randint(1, 4), [p, q])
        w = rng.choice(sorted(m.worlds))
        f = random_ml_formula(rng, ["p", "q"], rng.randint(1, 7), 2)
        u = disjoint_union(m, m)
        if not bisimilar(m, w, u, f"L:{w}"):
            violations += 1
        if ml_point_eval(m, w, f) != ml_point_eval(u, f"L:{w}", f):
            violations += 1
    elapsed = time.time() - started
    report(
        "C9 bisimulation and disjoint-union invariance",
        violations == 0,
        f"600 instances, {violations} violations, {elapsed:.1f}s",
    )


def test_c10_qbf_correspondence():
    started = time.time()
    checked = 0
    violations = 0
    for length in range(1, 5):
        variables = [PropSymbol(f"v{i + 1}") for i in range(length)]
        pool = dedup_pool_by_table(nnf_pool(variables, 5))
        for quants in itertools.product("AE", repeat=length):
            prefix = list(zip(quants, variables))
            for f, _, _ in pool:
                checked += 1
                inst = QbfInstance(prefix, f)
                truth = qbf_eval(inst)
                d = qbf_to_dqbf(inst)
                if not is_simple_constraint(d):
                    violations += 1
                    continue
                if (dqbf_eval(d) is not None) != truth:
                    violations += 1
                back = dqbf_to_qbf(d)
                if qbf_eval(back) != truth:
                    violations += 1
                again = qbf_to_dqbf(back)
                if (
                    again.universals != d.universals
                    or again.existentials != d.existentials
                ):
                    violations += 1
    elapsed = time.time() - started
    report(
        "C10 qbf round trips preserve truth and constraints",
        violations == 0,
        f"{checked} prefix/matrix cases, {elapsed:.1f}s",
    )
