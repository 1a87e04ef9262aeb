"""
Validity checking and the ior translation
=========================================

Modal dependence atoms compile away: each one becomes a disjunction of
value patterns glued with the team-level or (ior). Validity of the
translated formula reduces to plain modal validity, one selection of
ior branches at a time.
"""

from teamlogic import (
    Invalid,
    Valid,
    count_idis,
    eliminate_idis,
    emdl_to_mliv,
    emdl_valid,
    ml_valid,
    mliv_valid,
    parse_modal,
    render,
)

# The translation in action. dep(p; q) unfolds into the two ways q can
# depend on p, each branch fixing q by an ior pair.
f = parse_modal("dep(p; q)")
g = emdl_to_mliv(f)
print(render(f), "translates to")
print("   ", render(g))
print("ior occurrences:", count_idis(g))

# Each way of resolving every ior yields an ordinary modal formula.
for sel, candidate in eliminate_idis(g):
    print(f"  selection {sel.bitstring}: {render(candidate)}")

# The whole formula is valid iff some selection is valid. dep(p; p) is
# a theorem: q := p is a function of p.
res = emdl_valid(parse_modal("dep(p; p)"))
print("dep(p; p):", "valid, witness " + res.witness.bitstring if isinstance(res, Valid) else "invalid")

# Constancy is not a theorem. The checker runs a tableau on the least
# selection that no countermodel found so far refutes, and folds the
# countermodels into a single team that defeats every selection at once.
res = emdl_valid(parse_modal("dep(; p)"))
if isinstance(res, Invalid):
    print("dep(; p): invalid on team", sorted(res.team))
    print("  worlds:", sorted(res.model.worlds))
    print("  tableaux run:", res.checked)

# Plain modal validity sits underneath. The prover builds a tableau
# for the negation and extracts a countermodel on failure.
print("<> p | [] !p valid:", isinstance(ml_valid(parse_modal("<> p | [] !p")), Valid))
res = ml_valid(parse_modal("!p | <> p"))
if isinstance(res, Invalid):
    root = next(iter(res.team))
    print("!p | <> p fails at a world with p and no successors:", root)

# ior at the top level expresses a choice of theorems: the pair is
# valid exactly when one side is. Here neither side is.
res = mliv_valid(parse_modal("p ior !p"))
print("p ior !p:", "valid" if isinstance(res, Valid) else f"invalid after {res.checked} tableaux")
