"""Exact solver: reference enumerator and variable elimination vs production
path, on random programs and a corpus of compiled ones, staged
marginalization, component splitting, fragment validation."""

import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genprograms import (
    aux_atom,
    base_atom,
    random_general_program,
    random_part_program,
    random_program,
    random_tree_program,
    read_ground_program,
    variable_elimination,
)
from groundsim import exact
from groundsim.bp import solve_bp
from groundsim.exact import (
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
    program_to_text,
)

GOLDEN = Path(__file__).parent / "golden"


def fact(i: int, s: float) -> WeightedRule:
    return WeightedRule(logit(s), base_atom(i))


# ---------------------------------------------------------------------------
# small closed-form cases


def test_single_fact_marginal_is_sigmoid():
    (table,) = solve_exact(WeightedProgram([fact(0, 0.73)]))
    assert math.isclose(table[base_atom(0)], 0.73, abs_tol=1e-12)


def test_independent_facts_are_independent():
    (table,) = solve_exact(WeightedProgram([fact(0, 0.3), fact(1, 0.9)]))
    assert math.isclose(table[base_atom(0)], 0.3, abs_tol=1e-12)
    assert math.isclose(table[base_atom(1)], 0.9, abs_tol=1e-12)


def test_hard_constraint_conditions():
    # worlds with a0 true are forbidden: P(a0) = 0, P(a1) stays at its prior
    prog = WeightedProgram(
        [fact(0, 0.7), fact(1, 0.6), WeightedRule(HARD, None, (base_atom(0),), ())]
    )
    (table,) = solve_exact(prog)
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
    (table,) = solve_exact(prog)
    # worlds: {} 1, {a1} 1, {a0} eps=1/19, {a0,a1} 1  (relative weights)
    eps = 1.0 / 19.0
    z = 3.0 + eps
    assert math.isclose(table[base_atom(0)], (1.0 + eps) / z, rel_tol=1e-12)
    assert math.isclose(table[base_atom(1)], 2.0 / z, rel_tol=1e-12)


def test_definite_rule_derives_aux():
    prog = WeightedProgram(
        [fact(0, 0.8), WeightedRule(HARD, aux_atom(0), (base_atom(0),), ())]
    )
    (table,) = solve_exact(prog)
    assert math.isclose(table[aux_atom(0)], 0.8, abs_tol=1e-12)


def test_hard_fact_forces_atom():
    prog = WeightedProgram([fact(0, 0.1), WeightedRule(HARD, base_atom(0))])
    assert solve_exact(prog)[0][base_atom(0)] == 1.0


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


def test_enumeration_bound_enforced(monkeypatch):
    prog = WeightedProgram([fact(i, 0.5) for i in range(5)])
    big = WeightedProgram(
        # one constraint chains all atoms into a single component
        prog.rules + [WeightedRule(1.0, None, tuple(base_atom(i) for i in range(5)), ())]
    )
    monkeypatch.setattr(exact, "ENUM_BOUND", 4)
    with pytest.raises(EnumerationBoundError):
        solve_exact(big)
    # stage 2 holds one bit per aux atom: 5 aux atoms over 3 base atoms are
    # wider than the bound, which raises and never truncates
    many_heads = WeightedProgram([fact(i, 0.5) for i in range(3)])
    for j in range(5):
        body = (base_atom(j % 3), base_atom((j + 1) % 3))
        many_heads.add(WeightedRule(HARD, aux_atom(j), body, ()))
    with pytest.raises(EnumerationBoundError):
        solve_exact(many_heads)


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


CHAINS = {
    "two_rule_chain": [
        fact(0, 0.5),
        WeightedRule(HARD, aux_atom(0), (base_atom(0),), ()),
        WeightedRule(HARD, aux_atom(1), (aux_atom(0),), ()),
    ],
    "self_reference": [
        fact(0, 0.5),
        WeightedRule(HARD, aux_atom(0), (base_atom(0), aux_atom(0)), ()),
    ],
    "body_atom_in_constraint": [
        fact(0, 0.5),
        WeightedRule(HARD, aux_atom(0), (base_atom(0),), ()),
        WeightedRule(1.0, None, (base_atom(0),), (aux_atom(0),)),
    ],
    "body_atom_in_hard_fact": [
        fact(0, 0.5),
        WeightedRule(HARD, aux_atom(0), (base_atom(0), base_atom(1)), ()),
        WeightedRule(HARD, base_atom(1)),
    ],
}


@pytest.mark.parametrize("chain", sorted(CHAINS))
@pytest.mark.parametrize(
    "entry",
    [solve_exact, CompiledProgram.compile, solve_exact_reference, solve_bp],
    ids=["solve_exact", "compile", "solve_exact_reference", "solve_bp"],
)
def test_chained_definite_rules_rejected(entry, chain):
    # an aux body holds only base atoms in no constraint and no hard fact:
    # every solver checks that in one place
    with pytest.raises(ProgramError):
        entry(WeightedProgram(CHAINS[chain]))


def test_empty_program():
    (table,) = solve_exact(WeightedProgram())
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
    (combined,) = solve_exact(p1 + p2)
    assert math.isclose(
        combined.log_z,
        solve_exact(p1)[0].log_z + solve_exact(p2)[0].log_z,
        rel_tol=1e-12,
    )


def test_a_compiled_program_solves_and_measures_like_its_program():
    for seed in range(20):
        prog = random_part_program(np.random.default_rng(seed))
        compiled = CompiledProgram.compile(prog)
        assert len(compiled) == len(prog)
        assert compiled.atom_universe() == prog.atom_universe()
        # a compiled program gives one table per weight row
        assert solve_exact(compiled) == solve_exact(prog)
        # the compiled structure with another program's fact weights solves
        # that program, and with both rows, both programs
        shifted = WeightedProgram(
            [WeightedRule(r.weight - 0.7, r.head) if r.is_fact() and r.weight is not HARD else r
             for r in prog]
        )
        weights = CompiledProgram.compile(shifted).weights
        assert weights != compiled.weights
        assert solve_exact(CompiledProgram(compiled.plans, weights)) == solve_exact(shifted)
        both = CompiledProgram(compiled.plans, compiled.weights + weights)
        assert solve_exact(both) == solve_exact(prog) + solve_exact(shifted)


# ---------------------------------------------------------------------------
# production solver vs reference oracle


def _reweighted(compiled: CompiledProgram, row) -> WeightedProgram:
    """The rules of `compiled` with the soft fact weights of `row`."""
    weights = iter(row)
    return WeightedProgram(
        [
            WeightedRule(next(weights), r.head) if r.is_fact() and r.weight is not HARD else r
            for p in compiled.plans
            for r in p.rules
        ]
    )


def _assert_matches(prog: WeightedProgram, oracle, rng, n_rows: int = 3):
    """`solve_exact`'s outputs and log Z, for the program's own soft fact
    weights and n_rows - 1 random rows solved in one batch, each within 1e-9
    of `oracle` (the reference or variable elimination) on the program with
    that row's weights. The outputs are every atom but the body atoms, which
    the solver sums out; log Z as a function of every fact weight pins those
    down too."""
    compiled = CompiledProgram.compile(prog)
    noise = rng.normal(scale=2.0, size=(n_rows, len(compiled.weights[0])))
    noise[0] = 0.0
    rows = np.asarray(compiled.weights) + noise
    in_bodies = {b for r in prog.rules if r.head is not None for b in r.pos_body}
    tables = solve_exact(CompiledProgram(compiled.plans, rows.tolist()))
    for row, table in zip(rows, tables):
        expected = oracle(_reweighted(compiled, row))
        assert set(table.probs) == set(expected.probs) - in_bodies
        for atom, p in table.probs.items():
            assert abs(p - expected[atom]) <= 1e-9, atom
        assert abs(table.log_z - expected.log_z) <= 1e-9


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_solve_exact_matches_reference(seed):
    rng = np.random.default_rng(seed)
    prog = random_program(rng)
    try:
        solve_exact_reference(prog)
    except NoAdmissibleWorldError:
        with pytest.raises(NoAdmissibleWorldError):
            solve_exact(prog)
        return
    _assert_matches(prog, solve_exact_reference, rng)


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
        _assert_matches(prog, solve_exact_reference, rng)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_part_programs_match_reference(seed):
    rng = np.random.default_rng(seed)
    _assert_matches(random_part_program(rng), solve_exact_reference, rng)


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
def test_general_programs_match_reference(seed):
    rng = np.random.default_rng(seed)
    prog = random_general_program(rng)
    try:
        solve_exact_reference(prog)
    except NoAdmissibleWorldError:
        with pytest.raises(NoAdmissibleWorldError):
            solve_exact(prog)
        return
    _assert_matches(prog, solve_exact_reference, rng)


def test_general_programs_cover_their_shapes(monkeypatch):
    # the property test above draws from these shapes, none of which the
    # scene programs have: components whose bits outnumber their stage-1
    # atoms, so that stage 2 enumerates more atoms than the component has
    # base atoms, constraints on base atoms, and hard facts
    widths = []
    original = exact.run

    def spy(plan, fact_weights):
        n_base = len(plan.q_atoms) + sum(len(block.atoms) for block in plan.blocks)
        widths.append((len(plan.q_atoms) + plan.k, n_base))
        return original(plan, fact_weights)

    monkeypatch.setattr(exact, "run", spy)
    constrained = forced = 0
    for seed in range(40):
        prog = random_general_program(np.random.default_rng(seed))
        try:
            solve_exact(prog)
        except NoAdmissibleWorldError:
            pass
        aux = {r.head for r in prog.rules if r.head is not None and r.pos_body}
        constrained += any(set(r.atoms()) - aux for r in prog.rules if r.is_constraint())
        forced += any(r.is_fact() and r.weight is HARD for r in prog.rules)
    assert constrained and forced
    assert any(stage2 > n_base for stage2, n_base in widths)


def test_enumeration_bound_applies_per_block(monkeypatch):
    # two parts of 5 stage-1 atoms each: 11 base atoms in all, but no block
    # and no stage-2 table exceeds the bound
    prog = random_part_program(np.random.default_rng(3), attr_counts=(4, 4))
    monkeypatch.setattr(exact, "ENUM_BOUND", 6)
    _assert_matches(prog, variable_elimination, np.random.default_rng(3))

    one_big_block = random_part_program(np.random.default_rng(3), attr_counts=(6,))
    with pytest.raises(EnumerationBoundError):
        solve_exact(one_big_block)


# ---------------------------------------------------------------------------
# a real fineHard component, frozen with the marginals of the 2^20-world sweep


def _golden_component():
    prog = read_ground_program((GOLDEN / "component_fineHard.lp").read_text())
    expected = json.loads((GOLDEN / "component_fineHard.json").read_text())
    return prog, expected


def _atom_text(a) -> str:
    return f"{a.pred.name}({','.join(str(t) for t in a.args)})"


def test_golden_fine_hard_component():
    # 25 base + 7 derived atoms: above the reference enumerator's bound, so
    # variable elimination is the independent check for a component of this
    # size
    prog, expected = _golden_component()
    # the reader gives back the rules the file was written from
    assert program_to_text(prog) == (GOLDEN / "component_fineHard.lp").read_text()
    (table,) = solve_exact(prog)
    # the solver returns the 5 stage-2 and 7 derived atoms and sums out the
    # 20 stage-1 atoms
    derived = {r.head for r in prog.rules if r.head is not None and r.pos_body}
    assert len(derived) == 7 and derived <= set(table.probs) and len(table.probs) == 12
    for a, p in table.probs.items():
        assert abs(p - expected["marginals"][_atom_text(a)]) <= 1e-9, a
    assert abs(table.log_z - expected["log_z"]) <= 1e-9
    ve = variable_elimination(prog)
    got = {_atom_text(a): p for a, p in ve.probs.items()}
    assert set(got) == set(expected["marginals"])
    for name, p in expected["marginals"].items():
        assert abs(got[name] - p) <= 1e-9, name
    assert abs(ve.log_z - expected["log_z"]) <= 1e-9


def _solve_peak(program) -> int:
    """The peak bytes traced while `solve_exact` solves `program` a second
    time."""
    solve_exact(program)
    tracemalloc.start()
    try:
        solve_exact(program)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_golden_component_solve_memory():
    # the 20 stage-1 atoms are folded block by block; enumerating their 2^20
    # joint assignments at once took 67 MiB
    prog, _ = _golden_component()
    assert _solve_peak(prog) < 4 * 2**20


def test_golden_component_rows_solve_in_bounded_memory():
    # 100 weight rows, as in a fineHard exam, go through in slices of rows;
    # all at once they took 12 MiB
    prog, _ = _golden_component()
    compiled = CompiledProgram.compile(prog)
    assert _solve_peak(CompiledProgram(compiled.plans, compiled.weights * 100)) < 4 * 2**20


# ---------------------------------------------------------------------------
# variable elimination: checked against the reference on the generators, then
# the oracle for the programs the system compiles


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_variable_elimination_matches_reference(seed):
    rng = np.random.default_rng(seed)
    for make in (random_program, random_tree_program, random_part_program, random_general_program):
        prog = make(rng)
        try:
            ref = solve_exact_reference(prog)
        except NoAdmissibleWorldError:
            with pytest.raises(NoAdmissibleWorldError):
                variable_elimination(prog)
            continue
        ve = variable_elimination(prog)
        assert set(ve.probs) == set(ref.probs)
        for atom in ref.probs:
            assert abs(ve[atom] - ref[atom]) <= 1e-9
        assert abs(ve.log_z - ref.log_z) <= 1e-9


def _corpus() -> dict[str, WeightedProgram]:
    """The programs `CompiledProgram.compile` compiled, one per plan key, in
    the seed-0 `maxHelp_semNegScal` cells of fineEasy and fineHard."""
    corpus = {}
    for difficulty in ("fineEasy", "fineHard"):
        text = (GOLDEN / f"corpus_{difficulty}.lp").read_text()
        for i, chunk in enumerate(text.split("\n\n")):
            corpus[f"{difficulty}-{i}"] = read_ground_program(chunk)
    return corpus


@pytest.mark.parametrize("name", sorted(_corpus()))
def test_corpus_matches_variable_elimination(name):
    _assert_matches(_corpus()[name], variable_elimination, np.random.default_rng(0))


def test_corpus_covers_the_widest_components():
    # 7 fineHard plans, and components up to the golden component's 32 atoms
    corpus = _corpus()
    assert sum(name.startswith("fineHard") for name in corpus) == 7
    widest = max(
        len({a for r in rules for a in r.atoms()})
        for prog in corpus.values()
        for rules in exact._split_components(prog.rules)
    )
    assert widest == 32


# ---------------------------------------------------------------------------
# weight rows solved at once, each as it would be alone


def _weight_rows(rng, n_facts: int, n_rows: int) -> np.ndarray:
    """Random soft fact weights, one row per solve. Every third row is
    extreme, so that stage-1 configurations whose mass underflows to 0 differ
    from row to row."""
    rows = rng.normal(scale=3.0, size=(n_rows, n_facts))
    rows[::3] *= rng.choice([1.0, 300.0], size=(len(rows[::3]), n_facts))
    return rows


def _assert_rows_solve_alone(compiled: CompiledProgram, rows: np.ndarray):
    """`run` of each plan over all rows, and `solve_exact` over all rows,
    `==` to each row solved on its own."""
    lo = 0
    for p in compiled.plans:
        block = rows[:, lo : lo + len(p.facts)]
        lo += len(p.facts)
        try:
            log_z, marginals = exact.run(p, block)
        except NoAdmissibleWorldError:
            failed = 0
            for row in block:
                try:
                    exact.run(p, row[None, :])
                except NoAdmissibleWorldError:
                    failed += 1
            assert failed
            return
        assert log_z.shape == (len(rows),) and marginals.shape == (len(rows), len(p.outputs))
        for i, row in enumerate(block):
            alone_z, alone = exact.run(p, row[None, :])
            assert log_z[i] == alone_z[0]
            assert marginals[i].tolist() == alone[0].tolist()
    tables = solve_exact(CompiledProgram(compiled.plans, rows.tolist()))
    alone = [solve_exact(CompiledProgram(compiled.plans, [row])) for row in rows.tolist()]
    assert tables == [table for (table,) in alone]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=7))
def test_part_program_rows_solve_as_alone(seed, n_rows):
    rng = np.random.default_rng(seed)
    compiled = CompiledProgram.compile(random_part_program(rng))
    n_facts = sum(len(p.facts) for p in compiled.plans)
    _assert_rows_solve_alone(compiled, _weight_rows(rng, n_facts, n_rows))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=7))
def test_general_program_rows_solve_as_alone(seed, n_rows):
    rng = np.random.default_rng(seed)
    compiled = CompiledProgram.compile(random_general_program(rng))
    n_facts = sum(len(p.facts) for p in compiled.plans)
    _assert_rows_solve_alone(compiled, _weight_rows(rng, n_facts, n_rows))


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_golden_component_rows_solve_as_alone(seed):
    # 40 rows: more than one slice of rows (`Plan.slice_rows`) of its 2^12
    # stage-2 table
    prog, _ = _golden_component()
    compiled = CompiledProgram.compile(prog)
    rng = np.random.default_rng(seed)
    rows = np.asarray(compiled.weights) + _weight_rows(rng, len(compiled.weights[0]), 40)
    _assert_rows_solve_alone(compiled, rows)


def test_row_solves_cover_shared_and_per_row_folds(monkeypatch):
    # the property tests above fold rows together when their nonzero
    # stage-1 masses sit in the same places, and row by row otherwise, and
    # the golden component's rows go through in more than one slice
    folds = {"shared": 0, "per row": 0}
    original = exact._or_fold

    def spy(a, b):
        if len(a) > 1:
            same = ((a != 0) == (a[0] != 0)).all() and ((b != 0) == (b[0] != 0)).all()
            folds["shared" if same else "per row"] += 1
        return original(a, b)

    monkeypatch.setattr(exact, "_or_fold", spy)
    prog, _ = _golden_component()
    compiled = CompiledProgram.compile(prog)
    (p,) = compiled.plans
    assert p.slice_rows < 40
    rng = np.random.default_rng(0)
    n_facts = len(compiled.weights[0])
    for noise in (rng.normal(size=(40, n_facts)), _weight_rows(rng, n_facts, 40)):
        _assert_rows_solve_alone(compiled, np.asarray(compiled.weights) + noise)
    assert folds["shared"] and folds["per row"]


# ---------------------------------------------------------------------------
# tables built by doubling, against the masked fill they replace


def _masked_fill_rows(p, weights: np.ndarray):
    """`exact._run_rows` with each log-weight table filled as a full table
    from the start: every atom with a soft fact adds its weight column
    through its truth mask, stage 2 starts from the mass of each row's bit
    configuration, the first block's mass is OR-folded into a unit row
    (`_fold_pairs`), and each soft constraint's term is added to the whole
    table in turn."""
    n = len(weights)
    fw = weights.take(p.first, axis=1)
    for col, i in p.more:
        fw[:, col] += weights[:, i]
    nq = len(p.q_atoms)
    idx2 = np.arange(1 << (nq + p.k), dtype=np.int64)
    aconf = idx2 >> nq
    logw2 = np.zeros((n, len(idx2)))
    log_z = 0.0
    if p.blocks:
        size = 1 << p.k
        mass = np.zeros((n, size))
        mass[:, 0] = 1.0
        offsets = np.arange(0, n * size, size)[:, None]
        for block in p.blocks:
            idx = np.arange(1 << len(block.atoms), dtype=np.int64)
            logw = np.zeros((n, len(idx)))
            for i, col in enumerate(block.columns):
                if col is not None:
                    logw += np.where((idx >> i) & 1, fw[:, col : col + 1], 0.0)
            shift = np.maximum.reduce(logw, axis=1)
            log_z += shift
            ew = np.exp(logw - shift[:, None])
            bins = (block.config + offsets).ravel()
            counts = np.bincount(bins, weights=ew.ravel(), minlength=n * size)
            mass = _fold_pairs(mass, counts.reshape(n, size))
        with np.errstate(divide="ignore"):
            logw2 += np.log(mass).take(aconf, axis=1)
    for i, col in enumerate(p.columns):
        if col is not None:
            logw2 += np.where((idx2 >> i) & 1, fw[:, col : col + 1], 0.0)
    for term in [] if p.soft is None else p.soft[1:]:
        logw2 += term
    if p.mask is not None:
        logw2 = np.where(p.mask, logw2, -np.inf)
    m2 = np.maximum.reduce(logw2, axis=1)
    if -np.inf in m2.tolist():
        raise NoAdmissibleWorldError("hard core admits no world")
    q = np.exp(logw2 - m2[:, None])
    z = np.add.reduce(q, axis=1)
    marginals = np.empty((n, len(p.outputs)))
    for j, (where, _) in enumerate(p.outputs):
        marginals[:, j] = np.add.reduce(q.take(where, axis=1), axis=1)
    return m2 + np.log(z) + log_z, marginals / z[:, None]


def _fold_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`exact._or_fold` with each chunk's pair bins computed afresh and its
    products gathered by fancy indexing."""
    n, size = a.shape
    if n > 1 and not (((a != 0) == (a[0] != 0)).all() and ((b != 0) == (b[0] != 0)).all()):
        return np.concatenate([_fold_pairs(a[r : r + 1], b[r : r + 1]) for r in range(n)])
    u, v = np.flatnonzero(a[0]), np.flatnonzero(b[0])
    out = np.zeros((n, size))
    step = max(1, exact._FOLD_CHUNK // max(1, len(v)))
    per = max(1, exact._FOLD_CHUNK // max(1, min(step, len(u)) * len(v)))
    for r in range(0, n, per):
        aa, bb = a[r : r + per], b[r : r + per]
        m = len(aa)
        offsets = np.arange(0, m * size, size)[:, None]
        for lo in range(0, len(u), step):
            uu = u[lo : lo + step]
            bins = ((uu[:, None] | v).ravel() + offsets).ravel()
            products = (aa[:, uu, None] * bb[:, None, v]).ravel()
            counts = np.bincount(bins, weights=products, minlength=m * size)
            out[r : r + m] += counts.reshape(m, size)
    return out


def _golden_plans():
    """Every plan compiled from the golden corpora and the golden component,
    and each plan with soft constraints once more with a weight of its own
    for each of them: compiled programs give all their soft constraints one
    weight, which would hide a change in the order their terms are added."""
    progs = [*_corpus().values(), _golden_component()[0]]
    plans = [p for prog in progs for p in CompiledProgram.compile(prog).plans]
    rng = np.random.default_rng(1)
    reweighted = []
    for p in plans:
        if p.soft is not None:
            weights = rng.normal(scale=3.0, size=(len(p.soft) - 1, 1))
            soft = np.concatenate([p.soft[:1], np.where(p.soft[1:] != 0.0, weights, 0.0)])
            reweighted.append(replace(p, soft=soft))
    return plans + reweighted


def test_doubled_tables_equal_the_masked_fill_on_every_golden_plan():
    plans = _golden_plans()
    assert sum(bool(p.blocks) for p in plans) >= 3 and max(len(p.blocks) for p in plans) >= 2
    assert sum(p.soft is not None and len(p.soft) > 2 for p in plans) >= 2
    rng = np.random.default_rng(0)
    for p in plans:
        for n_rows in (1, 3, p.slice_rows + 5):
            rows = np.asarray(_weight_rows(rng, len(p.facts), n_rows))
            if p.facts:
                rows += [[r.weight for r in p.facts]]
            try:
                log_z, marginals = exact.run(p, rows)
            except NoAdmissibleWorldError:
                with pytest.raises(NoAdmissibleWorldError):
                    _masked_fill_rows(p, rows)
                continue
            slices = [
                _masked_fill_rows(p, rows[lo : lo + p.slice_rows])
                for lo in range(0, n_rows, p.slice_rows)
            ]
            assert np.array_equal(log_z, np.concatenate([z for z, _ in slices]))
            assert np.array_equal(marginals, np.concatenate([m for _, m in slices]))
