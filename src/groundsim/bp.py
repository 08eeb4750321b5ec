"""Loopy sum-product belief propagation over the ground program's factor graph.

Variables are the program's atoms (base and derived). Factors: one unary
factor per soft fact, one completion factor tying each derived atom to the
disjunction of its rule bodies, and one factor per integrity constraint.
Exact on acyclic factor graphs; damped fixed-point iteration otherwise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .logic import Atom
from .program import HARD, ProgramError, WeightedProgram
from .exact import MarginalTable, _classify, _fact_weights, union_find

DAMPING = 0.5
MAX_ITERS = 200
TOL = 1e-8
NEG_INF = -1e9  # finite stand-in so messages stay normalizable


@dataclass
class _Factor:
    vars: list[Atom]
    table: np.ndarray  # log-potential, shape (2,) * len(vars)


def _completion_factor(head: Atom, bodies: list[tuple[Atom, ...]]) -> _Factor:
    vars_ = [head]
    for b in bodies:
        for a in b:
            if a not in vars_:
                vars_.append(a)
    n = len(vars_)
    pos = {a: i for i, a in enumerate(vars_)}
    table = np.full((2,) * n, NEG_INF)
    for assign in itertools.product((0, 1), repeat=n):
        fired = any(all(assign[pos[a]] for a in b) for b in bodies)
        if assign[0] == int(fired):
            table[assign] = 0.0
    return _Factor(vars_, table)


def _constraint_factor(rule) -> _Factor:
    vars_ = []
    for a in (*rule.pos_body, *rule.neg_body):
        if a not in vars_:
            vars_.append(a)
    pos = {a: i for i, a in enumerate(vars_)}
    n = len(vars_)
    table = np.zeros((2,) * n)
    for assign in itertools.product((0, 1), repeat=n):
        body = all(assign[pos[a]] for a in rule.pos_body) and not any(
            assign[pos[a]] for a in rule.neg_body
        )
        if body:
            # constraint violated: forbidden if HARD, weight forfeited otherwise
            table[assign] = NEG_INF if rule.weight is HARD else 0.0
        else:
            table[assign] = 0.0 if rule.weight is HARD else rule.weight
    return _Factor(vars_, table)


def build_factor_graph(program: WeightedProgram):
    c = _classify(program.rules)
    variables = c.base + c.derived
    factors: list[_Factor] = []
    for a, w in _fact_weights((r.head, r.weight) for r in c.facts).items():
        factors.append(_Factor([a], np.array([0.0, w])))
    for r in c.hard_facts:
        factors.append(_Factor([r.head], np.array([NEG_INF, 0.0])))
    by_head: dict[Atom, list[tuple[Atom, ...]]] = {}
    for r in c.definite:
        by_head.setdefault(r.head, []).append(tuple(r.pos_body))
    for head in c.derived:
        bodies = by_head.get(head, [])
        for b in bodies:
            for a in b:
                if a in by_head:
                    raise ProgramError("chained definite rules are not supported by solve_bp")
        factors.append(_completion_factor(head, bodies))
    for r in c.constraints:
        factors.append(_constraint_factor(r))
    return variables, factors


def is_acyclic(variables, factors) -> bool:
    """The factor graph is a forest iff edges = nodes - components. Every
    variable sits in some factor, so the components are those the factors'
    variable lists join."""
    find = union_find([f.vars for f in factors])
    components = len({find(v) for v in variables})
    return sum(len(f.vars) for f in factors) == len(variables) + len(factors) - components


def solve_bp(program: WeightedProgram) -> MarginalTable:
    """Sum-product marginals; flagged non-converged if the iteration cap hits."""
    variables, factors = build_factor_graph(program)
    if not variables:
        return MarginalTable({}, log_z=0.0)
    # undamped flooding is exact on trees after ~diameter sweeps
    damping = 0.0 if is_acyclic(variables, factors) else DAMPING

    # messages in probability space, normalized; indexed by (factor, var) pairs
    msg_fv = {(i, v): np.array([0.5, 0.5]) for i, f in enumerate(factors) for v in f.vars}
    msg_vf = {(i, v): np.array([0.5, 0.5]) for i, f in enumerate(factors) for v in f.vars}
    nbrs_of_var: dict[Atom, list[int]] = {v: [] for v in variables}
    for i, f in enumerate(factors):
        for v in f.vars:
            nbrs_of_var[v].append(i)

    exp_tables = [np.exp(f.table - f.table.max()) for f in factors]

    converged = False
    for _ in range(MAX_ITERS):
        delta = 0.0
        # variable -> factor
        for v in variables:
            for i in nbrs_of_var[v]:
                m = np.ones(2)
                for j in nbrs_of_var[v]:
                    if j != i:
                        m = m * msg_fv[(j, v)]
                s = m.sum()
                m = m / s if s > 0 else np.array([0.5, 0.5])
                new = damping * msg_vf[(i, v)] + (1 - damping) * m
                delta = max(delta, float(np.abs(new - msg_vf[(i, v)]).max()))
                msg_vf[(i, v)] = new
        # factor -> variable
        for i, f in enumerate(factors):
            t = exp_tables[i]
            for axis, v in enumerate(f.vars):
                prod = t
                for axis2, v2 in enumerate(f.vars):
                    if axis2 == axis:
                        continue
                    shape = [1] * t.ndim
                    shape[axis2] = 2
                    prod = prod * msg_vf[(i, v2)].reshape(shape)
                axes = tuple(a for a in range(t.ndim) if a != axis)
                m = prod.sum(axis=axes)
                s = m.sum()
                m = m / s if s > 0 else np.array([0.5, 0.5])
                new = damping * msg_fv[(i, v)] + (1 - damping) * m
                delta = max(delta, float(np.abs(new - msg_fv[(i, v)]).max()))
                msg_fv[(i, v)] = new
        if delta < TOL:
            converged = True
            break

    probs = {}
    for v in variables:
        b = np.ones(2)
        for i in nbrs_of_var[v]:
            b = b * msg_fv[(i, v)]
        s = b.sum()
        probs[v] = float(b[1] / s) if s > 0 else 0.5
    return MarginalTable(probs, log_z=float("nan"), converged=converged)
