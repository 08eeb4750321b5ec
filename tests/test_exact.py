"""Exact solver: reference enumerator vs production path, staged
marginalization, component splitting, fragment validation."""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genprograms import (
    aux_atom,
    base_atom,
    random_chained_program,
    random_part_program,
    random_program,
)
from groundsim import exact
from groundsim.exact import (
    ENUM_BOUND,
    CompiledProgram,
    enumerate_worlds,
    solve_exact,
    solve_exact_reference,
)
from groundsim.program import (
    HARD,
    EnumerationBoundError,
    NoAdmissibleWorldError,
    ProgramError,
    WeightedProgram,
    WeightedRule,
    logit,
    parse_program,
)

GOLDEN = Path(__file__).parent / "golden"


def fact(i: int, s: float) -> WeightedRule:
    return WeightedRule(logit(s), base_atom(i))


# ---------------------------------------------------------------------------
# small closed-form cases


def test_single_fact_marginal_is_sigmoid():
    table = solve_exact(WeightedProgram([fact(0, 0.73)]))
    assert math.isclose(table[base_atom(0)], 0.73, abs_tol=1e-12)


def test_independent_facts_are_independent():
    table = solve_exact(WeightedProgram([fact(0, 0.3), fact(1, 0.9)]))
    assert math.isclose(table[base_atom(0)], 0.3, abs_tol=1e-12)
    assert math.isclose(table[base_atom(1)], 0.9, abs_tol=1e-12)


def test_hard_constraint_conditions():
    # worlds with a0 true are forbidden: P(a0) = 0, P(a1) stays at its prior
    prog = WeightedProgram(
        [fact(0, 0.7), fact(1, 0.6), WeightedRule(HARD, None, (base_atom(0),), ())]
    )
    table = solve_exact(prog)
    assert table[base_atom(0)] == 0.0
    assert math.isclose(table[base_atom(1)], 0.6, abs_tol=1e-12)


def test_soft_constraint_discounts_odds():
    # :- a0, not a1 with weight logit(0.95): violating worlds lose odds x19
    prog = WeightedProgram(
        [
            fact(0, 0.5),
            fact(1, 0.5),
            WeightedRule(logit(0.95), None, (base_atom(0),), (base_atom(1),)),
        ]
    )
    table = solve_exact(prog)
    # worlds: {} 1, {a1} 1, {a0} eps=1/19, {a0,a1} 1  (relative weights)
    eps = 1.0 / 19.0
    z = 3.0 + eps
    assert math.isclose(table[base_atom(0)], (1.0 + eps) / z, rel_tol=1e-12)
    assert math.isclose(table[base_atom(1)], 2.0 / z, rel_tol=1e-12)


def test_definite_rule_derives_aux():
    prog = WeightedProgram(
        [fact(0, 0.8), WeightedRule(HARD, aux_atom(0), (base_atom(0),), ())]
    )
    table = solve_exact(prog)
    assert math.isclose(table[aux_atom(0)], 0.8, abs_tol=1e-12)


def test_hard_fact_forces_atom():
    prog = WeightedProgram([fact(0, 0.1), WeightedRule(HARD, base_atom(0))])
    assert solve_exact(prog)[base_atom(0)] == 1.0


def test_no_admissible_world_raises():
    prog = WeightedProgram(
        [
            WeightedRule(HARD, base_atom(0)),
            WeightedRule(HARD, None, (base_atom(0),), ()),
        ]
    )
    with pytest.raises(NoAdmissibleWorldError):
        solve_exact(prog)
    with pytest.raises(NoAdmissibleWorldError):
        solve_exact_reference(prog)


def test_enumeration_bound_enforced():
    prog = WeightedProgram([fact(i, 0.5) for i in range(5)])
    big = WeightedProgram(
        # one constraint chains all atoms into a single component
        prog.rules + [WeightedRule(1.0, None, tuple(base_atom(i) for i in range(5)), ())]
    )
    with pytest.raises(EnumerationBoundError):
        solve_exact(big, enum_bound=4)


def test_unsupported_fragments_rejected():
    soft_head = WeightedProgram(
        [WeightedRule(1.0, aux_atom(0), (base_atom(0),), ()), fact(0, 0.5)]
    )
    with pytest.raises(ProgramError):
        solve_exact(soft_head)
    neg_definite = WeightedProgram(
        [WeightedRule(HARD, aux_atom(0), (), (base_atom(0),)), fact(0, 0.5)]
    )
    with pytest.raises(ProgramError):
        solve_exact(neg_definite)
    fact_and_head = WeightedProgram(
        [fact(0, 0.5), WeightedRule(HARD, base_atom(0), (base_atom(1),), ()), fact(1, 0.5)]
    )
    with pytest.raises(ProgramError):
        solve_exact(fact_and_head)


def test_empty_program():
    table = solve_exact(WeightedProgram())
    assert table.probs == {} and table.log_z == 0.0


# ---------------------------------------------------------------------------
# enumeration invariants


def test_world_probabilities_sum_to_one():
    rng = np.random.default_rng(42)
    for _ in range(30):
        prog = random_program(rng)
        try:
            worlds = list(enumerate_worlds(prog))
        except NoAdmissibleWorldError:
            continue
        assert abs(sum(p for _, p in worlds) - 1.0) <= 1e-9


def test_log_z_adds_over_components():
    p1 = WeightedProgram([fact(0, 0.7)])
    p2 = WeightedProgram(
        [fact(1, 0.4), WeightedRule(1.3, None, (base_atom(1),), ())]
    )
    combined = solve_exact(p1 + p2)
    assert math.isclose(
        combined.log_z,
        solve_exact(p1).log_z + solve_exact(p2).log_z,
        rel_tol=1e-12,
    )


def test_a_compiled_program_solves_and_measures_like_its_program():
    for seed in range(20):
        prog = random_part_program(np.random.default_rng(seed))
        compiled = CompiledProgram.compile(prog)
        assert len(compiled) == len(prog)
        assert compiled.atom_universe() == prog.atom_universe()
        assert solve_exact(compiled) == solve_exact(prog)
        # the compiled structure with another program's fact weights solves
        # that program
        shifted = WeightedProgram(
            [WeightedRule(r.weight - 0.7, r.head) if r.is_fact() and r.weight is not HARD else r
             for r in prog]
        )
        weights = CompiledProgram.compile(shifted).weights
        assert weights != compiled.weights
        assert solve_exact(CompiledProgram(compiled.plans, weights)) == solve_exact(shifted)


# ---------------------------------------------------------------------------
# production solver vs reference oracle


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_solve_exact_matches_reference(seed):
    rng = np.random.default_rng(seed)
    prog = random_program(rng)
    try:
        ref = solve_exact_reference(prog)
    except NoAdmissibleWorldError:
        with pytest.raises(NoAdmissibleWorldError):
            solve_exact(prog)
        return
    table = solve_exact(prog)
    assert set(table.probs) == set(ref.probs)
    for atom in ref.probs:
        assert abs(table[atom] - ref[atom]) <= 1e-9
    assert abs(table.log_z - ref.log_z) <= 1e-9


def test_two_stage_path_matches_reference():
    # shape that triggers the two-stage path: definite bodies touch only
    # constraint-free atoms and every aux head appears in a constraint
    rng = np.random.default_rng(7)
    for _ in range(20):
        prog = WeightedProgram()
        for i in range(4):
            prog.add(fact(i, float(rng.uniform(0.05, 0.95))))
        prog.add(WeightedRule(HARD, aux_atom(0), (base_atom(0),), ()))
        prog.add(WeightedRule(HARD, aux_atom(0), (base_atom(1),), ()))
        prog.add(WeightedRule(HARD, aux_atom(1), (base_atom(2), base_atom(3)), ()))
        prog.add(fact(9, float(rng.uniform(0.05, 0.95))))
        prog.add(WeightedRule(logit(0.95), None, (base_atom(9),), (aux_atom(0),)))
        prog.add(WeightedRule(logit(0.95), None, (aux_atom(1),), (base_atom(9),)))
        ref = solve_exact_reference(prog)
        table = solve_exact(prog)
        for atom in ref.probs:
            assert abs(table[atom] - ref[atom]) <= 1e-9
        assert abs(table.log_z - ref.log_z) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_part_programs_match_reference(seed):
    prog = random_part_program(np.random.default_rng(seed))
    ref = solve_exact_reference(prog)
    table = solve_exact(prog)
    assert set(table.probs) == set(ref.probs)
    for atom in ref.probs:
        assert abs(table[atom] - ref[atom]) <= 1e-9
    assert abs(table.log_z - ref.log_z) <= 1e-9


def test_part_programs_cover_two_stage_edge_shapes(monkeypatch):
    # the property test above draws from these shapes: the parts of each go
    # through the one staged solve as stage-1 blocks (class atoms in no
    # constraint form components of their own, with no blocks), and together
    # they have blocks of unequal size, base atoms with no fact, and aux
    # configurations that no stage-1 assignment reaches
    calls = []
    original = exact.run

    def spy(plan, fact_weights):
        calls.append([len(block.atoms) for block in plan.blocks])
        return original(plan, fact_weights)

    monkeypatch.setattr(exact, "run", spy)
    unequal = factless = unreachable = 0
    for seed in range(30):
        prog = random_part_program(np.random.default_rng(seed))
        before = len(calls)
        solve_exact(prog)
        staged = [sizes for sizes in calls[before:] if sizes]
        assert len(staged) == 1
        sizes = staged[0]
        unequal += len(set(sizes)) > 1
        universe = prog.atom_universe()
        aux = {r.head for r in prog.rules if r.head is not None and r.pos_body}
        facts = {r.head for r in prog.rules if r.is_fact()}
        factless += bool(universe - aux - facts)
        seen = {frozenset(w & aux) for w, _ in enumerate_worlds(prog)}
        unreachable += len(seen) < 2 ** len(aux)
    assert unequal and factless and unreachable

    # a one-atom component of facts alone takes the same solve, with no blocks
    before = len(calls)
    solve_exact(WeightedProgram([fact(0, 0.3), fact(0, 0.6)]))
    assert calls[before:] == [[]]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_chained_programs_match_reference(seed):
    prog = random_chained_program(np.random.default_rng(seed))
    try:
        ref = solve_exact_reference(prog)
    except NoAdmissibleWorldError:
        with pytest.raises(NoAdmissibleWorldError):
            solve_exact(prog)
        return
    table = solve_exact(prog)
    assert set(table.probs) == set(ref.probs)
    for atom in ref.probs:
        assert abs(table[atom] - ref[atom]) <= 1e-9
    assert abs(table.log_z - ref.log_z) <= 1e-9


def test_chained_programs_cover_general_shapes(monkeypatch):
    # the property test above draws from these shapes, none of which the
    # scene programs have; the wide draws have more aux atoms than the
    # enumeration bound over a few base atoms, and no solve enumerates more
    # atoms in stage 2 than the component has base atoms
    widths = []
    original = exact.run

    def spy(plan, fact_weights):
        n_base = len(plan.q_atoms) + sum(len(block.atoms) for block in plan.blocks)
        widths.append((len(plan.q_atoms) + plan.k, n_base))
        return original(plan, fact_weights)

    monkeypatch.setattr(exact, "run", spy)
    chained = constrained = forced = wide = 0
    for seed in range(40):
        prog = random_chained_program(np.random.default_rng(seed))
        try:
            solve_exact(prog)
        except NoAdmissibleWorldError:
            pass
        aux = {r.head for r in prog.rules if r.head is not None and r.pos_body}
        in_constraint = {
            a for r in prog.rules if r.is_constraint() for a in (*r.pos_body, *r.neg_body)
        }
        hard_facts = {r.head for r in prog.rules if r.is_fact() and r.weight is HARD}
        bodies = [set(r.pos_body) for r in prog.rules if r.head in aux]
        outside = aux | in_constraint | hard_facts
        chained += any(b & aux and b - outside for b in bodies)
        constrained += any((b - aux) & in_constraint for b in bodies)
        forced += any(b & hard_facts for b in bodies)
        wide += len(aux) > ENUM_BOUND
    assert chained and constrained and forced and wide
    assert all(stage2 <= n_base for stage2, n_base in widths)


def test_enumeration_bound_applies_per_block():
    # two parts of 5 stage-1 atoms each: 11 base atoms in all, but no block
    # and no stage-2 table exceeds the bound
    prog = random_part_program(np.random.default_rng(3), attr_counts=(4, 4))
    ref = solve_exact_reference(prog)
    table = solve_exact(prog, enum_bound=6)
    for atom in ref.probs:
        assert abs(table[atom] - ref[atom]) <= 1e-9
    assert abs(table.log_z - ref.log_z) <= 1e-9

    one_big_block = random_part_program(np.random.default_rng(3), attr_counts=(6,))
    with pytest.raises(EnumerationBoundError):
        solve_exact(one_big_block, enum_bound=6)


# ---------------------------------------------------------------------------
# a real fineHard component, frozen with the marginals of the 2^20-world sweep


def _golden_component():
    prog = parse_program((GOLDEN / "component_fineHard.lp").read_text())
    expected = json.loads((GOLDEN / "component_fineHard.json").read_text())
    return prog, expected


def _atom_text(a) -> str:
    return f"{a.pred.name}({','.join(str(t) for t in a.args)})"


def test_golden_fine_hard_component():
    # 25 base + 7 derived atoms: above the reference enumerator's bound, so
    # this frozen table is the only oracle for a component of this size
    prog, expected = _golden_component()
    table = solve_exact(prog)
    got = {_atom_text(a): p for a, p in table.probs.items()}
    assert set(got) == set(expected["marginals"])
    for name, p in expected["marginals"].items():
        assert abs(got[name] - p) <= 1e-9, name
    assert abs(table.log_z - expected["log_z"]) <= 1e-9


def test_golden_component_solve_memory():
    # the 20 stage-1 atoms are folded block by block; enumerating their 2^20
    # joint assignments at once took 67 MiB
    prog, _ = _golden_component()
    solve_exact(prog)
    tracemalloc.start()
    try:
        solve_exact(prog)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
