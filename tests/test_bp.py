"""Belief propagation: factor-graph construction, acyclicity detection,
exactness on trees, behavior on loopy graphs."""

import numpy as np

from genprograms import (
    aux_atom,
    base_atom,
    random_part_program,
    random_program,
    random_tree_program,
)
from groundsim.bp import build_factor_graph, is_acyclic, solve_bp
from groundsim.exact import solve_exact, solve_exact_reference
from groundsim.program import (
    HARD,
    WeightedProgram,
    WeightedRule,
    logit,
)


def fact(i, s):
    return WeightedRule(logit(s), base_atom(i))


def test_single_fact():
    table = solve_bp(WeightedProgram([fact(0, 0.65)]))
    assert abs(table[base_atom(0)] - 0.65) <= 1e-9
    assert table.converged


def test_empty_program():
    table = solve_bp(WeightedProgram())
    assert table.probs == {}


def test_tree_with_constraint_matches_exact():
    prog = WeightedProgram(
        [
            fact(0, 0.61),
            fact(1, 0.9),
            WeightedRule(logit(0.95), None, (base_atom(0),), (base_atom(1),)),
            WeightedRule(logit(0.95), None, (base_atom(1),), (base_atom(0),)),
        ]
    )
    # two factors over the same pair close a cycle; loopy BP is approximate
    variables, factors = build_factor_graph(prog)
    (exact,) = solve_exact(prog)
    bp = solve_bp(prog)
    tol = 1e-8 if is_acyclic(variables, factors) else 0.1
    for atom in exact.probs:
        assert abs(bp[atom] - exact[atom]) <= tol


def test_completion_factor_handles_definite_rules():
    prog = WeightedProgram(
        [
            fact(0, 0.8),
            fact(1, 0.3),
            WeightedRule(HARD, aux_atom(0), (base_atom(0),), ()),
            WeightedRule(HARD, aux_atom(0), (base_atom(1),), ()),
            WeightedRule(logit(0.95), None, (), (aux_atom(0),)),
        ]
    )
    exact = solve_exact_reference(prog).probs
    bp = solve_bp(prog)
    # the completion factor spans both bodies, graph stays a tree
    variables, factors = build_factor_graph(prog)
    assert is_acyclic(variables, factors)
    for atom in exact:
        assert abs(bp[atom] - exact[atom]) <= 1e-7


def test_headless_aux_is_pinned_false():
    # an aux atom mentioned only in a constraint has no bodies: completion
    # forces it false and the constraint fires deterministically
    prog = WeightedProgram(
        [fact(0, 0.5), WeightedRule(1.0, None, (base_atom(0),), (aux_atom(0),))]
    )
    prog.add(WeightedRule(HARD, aux_atom(0), (base_atom(1),), ()))
    prog.add(fact(1, 0.0001))
    exact = solve_exact_reference(prog).probs
    bp = solve_bp(prog)
    variables, factors = build_factor_graph(prog)
    tol = 1e-7 if is_acyclic(variables, factors) else 0.05
    for atom in exact:
        assert abs(bp[atom] - exact[atom]) <= tol


def test_is_acyclic_detects_cycles():
    acyclic = WeightedProgram([fact(0, 0.5), fact(1, 0.5)])
    variables, factors = build_factor_graph(acyclic)
    assert is_acyclic(variables, factors)

    loopy = WeightedProgram(
        [
            fact(0, 0.5),
            fact(1, 0.5),
            WeightedRule(1.0, None, (base_atom(0), base_atom(1)), ()),
            WeightedRule(1.0, None, (base_atom(0),), (base_atom(1),)),
        ]
    )
    variables, factors = build_factor_graph(loopy)
    assert not is_acyclic(variables, factors)


def _has_cycle(variables, factors) -> bool:
    """Depth-first search over the variable-factor graph: an edge to a node
    already reached, other than the one the search came from, closes a cycle."""
    nbrs = {("v", v): [] for v in variables}
    for i, f in enumerate(factors):
        nbrs[("f", i)] = [("v", v) for v in f.vars]
        for v in f.vars:
            nbrs[("v", v)].append(("f", i))
    reached = set()
    for root in nbrs:
        if root in reached:
            continue
        reached.add(root)
        stack = [(root, None)]
        while stack:
            node, came_from = stack.pop()
            for nb in nbrs[node]:
                if nb == came_from:
                    continue
                if nb in reached:
                    return True
                reached.add(nb)
                stack.append((nb, node))
    return False


def test_is_acyclic_agrees_with_a_dfs_cycle_check():
    rng = np.random.default_rng(17)
    verdicts = []
    for make in (random_tree_program, random_program, random_part_program):
        for _ in range(60):
            variables, factors = build_factor_graph(make(rng))
            verdicts.append(is_acyclic(variables, factors))
            assert verdicts[-1] == (not _has_cycle(variables, factors))
    assert 0 < sum(verdicts) < len(verdicts)


def test_random_trees_match_exact():
    rng = np.random.default_rng(11)
    for _ in range(50):
        prog = random_tree_program(rng)
        variables, factors = build_factor_graph(prog)
        assert is_acyclic(variables, factors)
        (exact,) = solve_exact(prog)
        bp = solve_bp(prog)
        assert bp.converged
        for atom in exact.probs:
            assert abs(bp[atom] - exact[atom]) <= 1e-6


def test_loopy_graph_stays_close_to_exact():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = 4
        prog = WeightedProgram([fact(i, float(rng.uniform(0.2, 0.8))) for i in range(n)])
        # ring of pairwise soft constraints: guaranteed loopy
        for i in range(n):
            j = (i + 1) % n
            prog.add(
                WeightedRule(
                    float(rng.normal() * 0.8), None, (base_atom(i),), (base_atom(j),)
                )
            )
        (exact,) = solve_exact(prog)
        bp = solve_bp(prog)
        for atom in exact.probs:
            assert abs(bp[atom] - exact[atom]) <= 0.08
