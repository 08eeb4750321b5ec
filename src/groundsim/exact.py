"""Exact marginal inference by world enumeration.

Worlds are subsets of base atoms; auxiliary atoms are derived by forward
chaining over HARD definite rules; worlds violating HARD constraints are
discarded; a world's weight is the sum of the weights of the soft rules it
satisfies, normalized into a log-linear distribution.

`enumerate_worlds` is a deliberately plain pure-Python reference. `solve_exact`
is the production path: it splits the program into connected components and
solves each by one of two exact methods:

- flat: enumerate all 2^n assignments of the component's base atoms;
- two-stage, where the scene fragment allows (definite bodies free of
  constraints, every aux atom constrained). Stage 1 marginalizes the atoms of
  the definite bodies. They split into blocks, the connected components of
  the bodies, which in scene programs means one block per part. Each block
  enumerates only its own assignments into a table over aux configurations,
  and the tables combine by an OR-fold (`_or_fold`) that adds only
  non-negative products. Stage 2 enumerates the remaining base atoms with
  every aux configuration.

`enum_bound` caps every single enumeration: the component for the flat
method, each block and the stage-2 table for the two-stage one. Both solvers
are property-tested against each other.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .logic import Atom
from .program import (
    HARD,
    EnumerationBoundError,
    NoAdmissibleWorldError,
    ProgramError,
    WeightedProgram,
    WeightedRule,
)

ENUM_BOUND = 22


@dataclass
class MarginalTable:
    probs: dict[Atom, float]
    log_z: float
    converged: bool = True

    def __getitem__(self, atom: Atom) -> float:
        return self.probs[atom]

    def get(self, atom: Atom, default: float | None = None):
        return self.probs.get(atom, default)


@dataclass
class _Classified:
    facts: list[WeightedRule] = field(default_factory=list)  # soft facts
    hard_facts: list[WeightedRule] = field(default_factory=list)
    definite: list[WeightedRule] = field(default_factory=list)  # HARD, head + body
    constraints: list[WeightedRule] = field(default_factory=list)
    base: list[Atom] = field(default_factory=list)
    derived: list[Atom] = field(default_factory=list)


def _classify(rules: list[WeightedRule]) -> _Classified:
    c = _Classified()
    heads = set()
    for r in rules:
        if r.is_constraint():
            c.constraints.append(r)
        elif r.is_fact():
            (c.hard_facts if r.weight is HARD else c.facts).append(r)
        else:
            if r.weight is not HARD:
                raise ProgramError("soft rules with heads are outside the supported fragment")
            if r.neg_body:
                raise ProgramError("definite rules may not carry default negation")
            c.definite.append(r)
            heads.add(r.head)

    universe = set()
    for r in rules:
        if r.head is not None:
            universe.add(r.head)
        for a in (*r.pos_body, *r.neg_body):
            universe.add(a)
    for a in heads:
        for r in c.facts + c.hard_facts:
            if r.head == a:
                raise ProgramError(f"atom {a} is both a fact and a definite head")
    c.derived = sorted(heads, key=_atom_sort_key)
    c.base = sorted(universe - heads, key=_atom_sort_key)
    return c


def _atom_sort_key(a: Atom):
    return (a.pred.name, tuple(str(t) for t in a.args))


# ---------------------------------------------------------------------------
# reference oracle


def enumerate_worlds(program: WeightedProgram):
    """Yield (frozenset-of-true-atoms, probability) over all admissible worlds.

    Plain nested loops, no numpy; used as the independent oracle in tests.
    """
    worlds, weights = _enumerate_weighted(program)
    m = max(weights)
    unnorm = [math.exp(w - m) for w in weights]
    z = sum(unnorm)
    for world, u in zip(worlds, unnorm):
        yield world, u / z


def _enumerate_weighted(program: WeightedProgram):
    c = _classify(program.rules)
    if len(c.base) > ENUM_BOUND:
        raise EnumerationBoundError(f"{len(c.base)} base atoms exceeds bound {ENUM_BOUND}")
    fact_w = {}
    for r in c.facts:
        fact_w[r.head] = fact_w.get(r.head, 0.0) + r.weight
    forced = {r.head for r in c.hard_facts}

    worlds = []
    weights = []
    for bits in itertools.product([False, True], repeat=len(c.base)):
        truth = dict(zip(c.base, bits))
        if any(not truth[a] for a in forced if a in truth):
            continue
        # forward chaining closure over HARD definite rules
        for a in c.derived:
            truth[a] = False
        changed = True
        while changed:
            changed = False
            for r in c.definite:
                if not truth[r.head] and all(truth[b] for b in r.pos_body):
                    truth[r.head] = True
                    changed = True
        w = 0.0
        admissible = True
        for r in c.constraints:
            body_holds = all(truth[b] for b in r.pos_body) and not any(
                truth[b] for b in r.neg_body
            )
            if body_holds:
                if r.weight is HARD:
                    admissible = False
                    break
            elif r.weight is not HARD:
                w += r.weight
        if not admissible:
            continue
        w += sum(fact_w.get(a, 0.0) for a in c.base if truth[a])
        worlds.append(frozenset(a for a, v in truth.items() if v))
        weights.append(w)

    if not worlds:
        raise NoAdmissibleWorldError("hard core admits no world")
    return worlds, weights


def solve_exact_reference(program: WeightedProgram) -> MarginalTable:
    """Marginals via the plain world enumerator."""
    c = _classify(program.rules)
    worlds, weights = _enumerate_weighted(program)
    m = max(weights)
    unnorm = [math.exp(w - m) for w in weights]
    z = sum(unnorm)
    probs = {a: 0.0 for a in c.base + c.derived}
    for world, u in zip(worlds, unnorm):
        for a in world:
            probs[a] += u / z
    return MarginalTable(probs, log_z=m + math.log(z))


# ---------------------------------------------------------------------------
# production solver


def solve_exact(program: WeightedProgram, enum_bound: int = ENUM_BOUND) -> MarginalTable:
    """Exact marginals; splits into connected components, two-stage where
    possible. Raises EnumerationBoundError for a component neither method can
    solve within `enum_bound`."""
    if not program.rules:
        return MarginalTable({}, log_z=0.0)
    components = _split_components(program.rules)
    probs: dict[Atom, float] = {}
    log_z = 0.0
    for comp_rules in components:
        t = _solve_component(comp_rules, enum_bound)
        probs.update(t.probs)
        log_z += t.log_z
    return MarginalTable(probs, log_z=log_z)


def _split_components(rules: list[WeightedRule]) -> list[list[WeightedRule]]:
    rule_atoms = []
    for r in rules:
        atoms = [r.head] if r.head is not None else []
        rule_atoms.append(atoms + list(r.pos_body) + list(r.neg_body))
    return [[rules[i] for i in group] for group in _connected(rule_atoms)]


def _connected(atom_lists: list[list[Atom]]) -> list[list[int]]:
    """Indices of the (non-empty) atom lists, grouped into the connected
    components their shared atoms form, in sort order of each group's root."""
    parent: dict[Atom, Atom] = {}

    def find(a):
        while parent[a] is not a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra is not rb:
            parent[ra] = rb

    for atoms in atom_lists:
        for a in atoms:
            parent.setdefault(a, a)
        for a in atoms[1:]:
            union(atoms[0], a)

    groups: dict[Atom, list[int]] = {}
    for i, atoms in enumerate(atom_lists):
        groups.setdefault(find(atoms[0]), []).append(i)
    return [groups[k] for k in sorted(groups, key=_atom_sort_key)]


def _solve_component(rules: list[WeightedRule], enum_bound: int) -> MarginalTable:
    c = _classify(rules)
    in_constraint: set[Atom] = set()
    for r in c.constraints:
        in_constraint.update(r.pos_body)
        in_constraint.update(r.neg_body)

    base_set = set(c.base)
    definite_body_atoms = {b for r in c.definite for b in r.pos_body}
    forced = {r.head for r in c.hard_facts}

    two_stage_ok = (
        c.definite
        and definite_body_atoms <= base_set
        and not (definite_body_atoms & in_constraint)
        and all(h in in_constraint for h in c.derived)
        and not (forced & definite_body_atoms)
        and len(c.derived) <= 16
    )
    if two_stage_ok:
        blocks = []
        for group in _connected([list(r.pos_body) for r in c.definite]):
            rules = [c.definite[i] for i in group]
            atoms = sorted({b for r in rules for b in r.pos_body}, key=_atom_sort_key)
            blocks.append((atoms, rules))
        q_atoms = [a for a in c.base if a not in definite_body_atoms]
        if (
            max(len(atoms) for atoms, _ in blocks) <= enum_bound
            and len(q_atoms) + len(c.derived) <= enum_bound
        ):
            return _solve_two_stage(c, blocks, q_atoms)

    if len(c.base) > enum_bound:
        raise EnumerationBoundError(
            f"{len(c.base)} base atoms exceeds enumeration bound {enum_bound}"
        )
    return _solve_flat(c)


def _bit(idx: np.ndarray, i: int) -> np.ndarray:
    return ((idx >> i) & 1).astype(bool)


def _fact_weights(c: _Classified) -> dict[Atom, float]:
    fw: dict[Atom, float] = {}
    for r in c.facts:
        fw[r.head] = fw.get(r.head, 0.0) + r.weight
    return fw


def _solve_flat(c: _Classified) -> MarginalTable:
    n = len(c.base)
    idx = np.arange(1 << n, dtype=np.int64)
    pos = {a: i for i, a in enumerate(c.base)}
    val: dict[Atom, np.ndarray] = {a: _bit(idx, i) for a, i in pos.items()}

    # closure over definite rules (supports chaining)
    for a in c.derived:
        val[a] = np.zeros(len(idx), dtype=bool)
    changed = True
    while changed:
        changed = False
        for r in c.definite:
            body = np.logical_and.reduce([val[b] for b in r.pos_body])
            new = val[r.head] | body
            if not np.array_equal(new, val[r.head]):
                val[r.head] = new
                changed = True

    logw = np.zeros(len(idx))
    mask = np.ones(len(idx), dtype=bool)
    for a, w in _fact_weights(c).items():
        logw += np.where(val[a], w, 0.0)
    for r in c.hard_facts:
        mask &= val[r.head]
    for r in c.constraints:
        body = np.ones(len(idx), dtype=bool)
        for b in r.pos_body:
            body &= val[b]
        for b in r.neg_body:
            body &= ~val[b]
        if r.weight is HARD:
            mask &= ~body
        else:
            logw += np.where(body, 0.0, r.weight)

    if not mask.any():
        raise NoAdmissibleWorldError("hard core admits no world")
    logw = np.where(mask, logw, -np.inf)
    m = logw.max()
    p = np.exp(logw - m)
    z = p.sum()
    probs = {a: float(p[val[a]].sum() / z) for a in c.base + c.derived}
    return MarginalTable(probs, log_z=float(m + np.log(z)))


def _solve_two_stage(
    c: _Classified, blocks: list[tuple[list[Atom], list[WeightedRule]]], q_atoms: list[Atom]
) -> MarginalTable:
    """Marginalize the constraint-free stage-1 atoms (those in definite-rule
    bodies) per aux configuration, then enumerate the remaining base atoms
    with every aux configuration.

    Stage 1 never enumerates all stage-1 atoms together. They split into
    blocks, the connected components of the definite bodies (in scene
    programs, one block per part: its `have` atom and its class and attribute
    atoms). Each block enumerates only its own assignments into a table over
    the 2^k aux configurations; the block tables combine by an OR-fold
    (a subset convolution). Stage 2 weighs each aux configuration by its
    folded mass and mixes P(stage-1 atom | configuration) over the
    configuration posterior.
    """
    nq, k = len(q_atoms), len(c.derived)
    size = 1 << k
    fw = _fact_weights(c)
    aux_pos = {a: j for j, a in enumerate(c.derived)}

    # stage 1, per block: row 0 is the fact mass of the block's assignments by
    # the aux configuration they switch on; row 1+i the same over assignments
    # with the block's atom i true
    tables = []
    shift1 = 0.0
    for atoms, rules in blocks:
        idx = np.arange(1 << len(atoms), dtype=np.int64)
        sval = {a: _bit(idx, i) for i, a in enumerate(atoms)}
        config = np.zeros(len(idx), dtype=np.int64)
        for r in rules:
            body = np.logical_and.reduce([sval[b] for b in r.pos_body])
            config |= body.astype(np.int64) << aux_pos[r.head]
        logw = np.zeros(len(idx))
        for a in atoms:
            if a in fw:
                logw += np.where(sval[a], fw[a], 0.0)
        shift = logw.max()
        shift1 += shift
        ew = np.exp(logw - shift)
        table = np.empty((1 + len(atoms), size))
        table[0] = np.bincount(config, weights=ew, minlength=size)
        for i, a in enumerate(atoms, 1):
            table[i] = np.bincount(config, weights=np.where(sval[a], ew, 0.0), minlength=size)
        tables.append(table)

    # blocks share no atom, so the joint configuration is the OR of independent
    # block configurations: fold each block's rows with the totals of all other
    # blocks (one block per part, so few blocks)
    folded = []
    for i, table in enumerate(tables):
        others = np.zeros(size)
        others[0] = 1.0
        for j, other in enumerate(tables):
            if j != i:
                others = _or_fold(others, other[0])
        folded.append(_or_fold(table, others))
    with np.errstate(divide="ignore"):
        log_mass = np.log(folded[0][0])  # -inf where a config is unreachable

    # stage 2: enumerate remaining base atoms x aux configurations
    n2 = nq + k
    idx2 = np.arange(1 << n2, dtype=np.int64)
    val2: dict[Atom, np.ndarray] = {}
    for i, a in enumerate(q_atoms):
        val2[a] = _bit(idx2, i)
    aconf = (idx2 >> nq) & (size - 1)
    for a, j in aux_pos.items():
        val2[a] = ((aconf >> j) & 1).astype(bool)

    logw2 = log_mass[aconf].copy()
    mask = np.ones(len(idx2), dtype=bool)
    for a in q_atoms:
        if a in fw:
            logw2 += np.where(val2[a], fw[a], 0.0)
    for r in c.hard_facts:
        mask &= val2[r.head]
    for r in c.constraints:
        body = np.ones(len(idx2), dtype=bool)
        for b in r.pos_body:
            body &= val2[b]
        for b in r.neg_body:
            body &= ~val2[b]
        if r.weight is HARD:
            mask &= ~body
        else:
            logw2 += np.where(body, 0.0, r.weight)

    logw2 = np.where(mask, logw2, -np.inf)
    if not np.isfinite(logw2).any():
        raise NoAdmissibleWorldError("hard core admits no world")
    m2 = logw2.max()
    p = np.exp(logw2 - m2)
    z = p.sum()

    probs = {a: float(p[val2[a]].sum() / z) for a in q_atoms + c.derived}
    # marginals of stage-1 atoms: mix P(s_i | aux config) over the config posterior
    p_conf = np.bincount(aconf, weights=p, minlength=size) / z
    for (atoms, _), f in zip(blocks, folded):
        for i, a in enumerate(atoms, 1):
            ratio = np.divide(f[i], f[0], out=np.zeros(size), where=f[0] > 0)
            probs[a] = float((p_conf * ratio).sum())
    return MarginalTable(probs, log_z=float(m2 + np.log(z) + shift1))


_FOLD_CHUNK = 1 << 16  # products per bincount in _or_fold; bounds its memory


def _or_fold(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[..., u | v] = sum of a[..., u] * b[v]: the table of the OR of two
    independent aux configurations, row by row of `a`.

    Only nonzero entries are paired and only non-negative products are added,
    with no Moebius inversion: stage-2 log-weights span over 100 nats, and a
    tiny mass found by subtraction could turn into a wrong marginal.
    """
    rows = np.atleast_2d(a)
    n, size = rows.shape
    u = np.flatnonzero(rows.any(axis=0))
    v = np.flatnonzero(b)
    out = np.zeros(n * size)
    offsets = (np.arange(n) * size)[:, None]
    step = max(1, _FOLD_CHUNK // max(1, n * len(v)))
    for lo in range(0, len(u), step):
        uu = u[lo : lo + step]
        target = offsets + (uu[:, None] | v).ravel()
        weights = (rows[:, uu, None] * b[v]).reshape(n, -1)
        out += np.bincount(target.ravel(), weights=weights.ravel(), minlength=n * size)
    return out.reshape(a.shape)
