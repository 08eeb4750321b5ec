"""Exact marginal inference by world enumeration.

Worlds are subsets of base atoms; each auxiliary atom is the OR of the
bodies of its HARD definite rules, which hold only base atoms in no
constraint and no hard fact (`_classify` rejects any other program, for
every solver); worlds violating HARD constraints are discarded; a world's
weight is the sum of the weights of the soft rules it satisfies, normalized
into a log-linear distribution.

`enumerate_worlds` is a deliberately plain pure-Python reference. `solve_exact`
is the production path: it splits the program into connected components and
solves each by one method in two stages:

- stage 1 sums out the stage-1 atoms, the base atoms in definite bodies.
  Each derived atom gets a bit, the OR over its rules of the AND of their
  bodies. The stage-1 atoms split into blocks, the connected components of
  the rules' bodies, which in scene programs means one block per part. Each
  block enumerates only its own assignments into one row of mass over bit
  configurations, and the rows combine by an OR-fold (`_or_fold`) that adds
  only non-negative products;
- stage 2 enumerates the other base atoms with every bit configuration, and
  derived atom j is bit j. A component without definite rules has no blocks
  and no bits, and stage 2 enumerates all of its base atoms.

`solve_exact` returns log Z and the marginals of the stage-2 atoms and the
derived atoms, one table per row of soft fact weights; queries read class
atoms of objects, which are stage-2 atoms.

`ENUM_BOUND` caps every single enumeration: each block and the stage-2 table.
Each component's solve has two halves: `plan` does everything that depends
only on the rules (classification, blocks, bits, index and mask arrays, the
soft constraints' terms), and `run` does the arithmetic that depends on the
soft fact weights. `run` takes a matrix of weights, one row per solve, and
sums each row in the order a solve of that row alone would sum it, so a
row's results are the same, to the bit, in a batch of any size. A
`CompiledProgram` holds a program's plans and rows of fact weights (a
compiled `WeightedProgram` has one row, its own weights); a caller that
solves one structure with many weight vectors compiles it once and passes
`solve_exact` the compiled program with all of them as rows (see
`reasoner.marginals_each`). The solver is property-tested against the
reference, and against variable elimination on the programs the system
compiles, by its outputs and log Z over several rows of fact weights (log Z
as a function of every fact weight pins down the atoms it sums out), and
every row of a batch against the row solved alone.
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
_TABLE_CELLS = 1 << 16  # table cells per slice of weight rows in run; bounds its memory


@dataclass
class MarginalTable:
    probs: dict[Atom, float]
    log_z: float
    converged: bool = True

    def __getitem__(self, atom: Atom) -> float:
        return self.probs[atom]


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
    for r in c.definite:
        if any(b in heads for b in r.pos_body):
            raise ProgramError(f"definite rule for {r.head} has a derived atom in its body")

    universe = set()
    for r in rules:
        if r.head is not None:
            universe.add(r.head)
        for a in (*r.pos_body, *r.neg_body):
            universe.add(a)
    both = sorted(heads & {r.head for r in c.facts + c.hard_facts}, key=_atom_sort_key)
    if both:
        raise ProgramError(f"atom {both[0]} is both a fact and a definite head")
    outside = {r.head for r in c.hard_facts}
    for r in c.constraints:
        outside.update(r.pos_body)
        outside.update(r.neg_body)
    for r in c.definite:
        if any(b in outside for b in r.pos_body):
            raise ProgramError(
                f"definite rule for {r.head} has a body atom in a constraint or a hard fact"
            )
    c.derived = sorted(heads, key=_atom_sort_key)
    c.base = sorted(universe - heads, key=_atom_sort_key)
    return c


def _atom_sort_key(a: Atom):
    """A total order on ground atoms: the kind breaks ties between predicates
    of one name, which would otherwise keep the order of a set."""
    return (a.pred.name, tuple(str(t) for t in a.args), a.pred.kind)


# ---------------------------------------------------------------------------
# reference oracle


def enumerate_worlds(program: WeightedProgram):
    """Yield (frozenset-of-true-atoms, probability) over all admissible worlds.

    Plain nested loops, no numpy; used as the independent oracle in tests.
    """
    yield from _reference_worlds(program)[1]


def _reference_worlds(program: WeightedProgram):
    """The classification of `program`, its admissible worlds with their
    probabilities, and log Z."""
    c = _classify(program.rules)
    if len(c.base) > ENUM_BOUND:
        raise EnumerationBoundError(f"{len(c.base)} base atoms exceeds bound {ENUM_BOUND}")
    fact_w = _fact_weights((r.head, r.weight) for r in c.facts)
    forced = {r.head for r in c.hard_facts}

    worlds = []
    weights = []
    for bits in itertools.product([False, True], repeat=len(c.base)):
        truth = dict(zip(c.base, bits))
        if any(not truth[a] for a in forced):
            continue
        for a in c.derived:
            truth[a] = False
        for r in c.definite:
            if all(truth[b] for b in r.pos_body):
                truth[r.head] = True
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
    m = max(weights)
    unnorm = [math.exp(w - m) for w in weights]
    z = sum(unnorm)
    return c, [(world, u / z) for world, u in zip(worlds, unnorm)], m + math.log(z)


def solve_exact_reference(program: WeightedProgram) -> MarginalTable:
    """Marginals via the plain world enumerator."""
    c, worlds, log_z = _reference_worlds(program)
    probs = {a: 0.0 for a in c.base + c.derived}
    for world, p in worlds:
        for a in world:
            probs[a] += p
    return MarginalTable(probs, log_z=log_z)


# ---------------------------------------------------------------------------
# production solver


def solve_exact(program: WeightedProgram | CompiledProgram) -> list[MarginalTable]:
    """log Z and the exact marginals of the stage-2 and derived atoms, one
    table per weight row, component by component: `run` on each
    component's `plan` with its columns of the rows. A `WeightedProgram` is
    compiled first, into one row, and raises EnumerationBoundError for a
    component with a block or a stage-2 table of more than `ENUM_BOUND`
    atoms; a `CompiledProgram` was checked when it was compiled."""
    if not isinstance(program, CompiledProgram):
        program = CompiledProgram.compile(program)
    weights = np.asarray(program.weights, dtype=float)
    log_z = np.zeros(len(weights))
    probs: list[dict[Atom, float]] = [{} for _ in range(len(weights))]
    lo = 0
    for p in program.plans:
        lz, marginals = run(p, weights[:, lo : lo + len(p.facts)])
        lo += len(p.facts)
        log_z += lz
        atoms = [a for _, a in p.outputs]
        for table, row in zip(probs, marginals.tolist()):
            table.update(zip(atoms, row))
    return [MarginalTable(t, log_z=z) for t, z in zip(probs, log_z.tolist())]


def _split_components(rules: list[WeightedRule]) -> list[list[WeightedRule]]:
    return [[rules[i] for i in group] for group in _connected([r.atoms() for r in rules])]


def union_find(atom_lists: list[list[Atom]]):
    """Join the atoms of each list into one component; returns `find`, which
    maps an atom to its component's root and raises KeyError for an atom in
    no list."""
    parent: dict[Atom, Atom] = {}

    def find(a):
        while parent[a] is not a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for atoms in atom_lists:
        for a in atoms:
            parent.setdefault(a, a)
        for a in atoms[1:]:
            ra, rb = find(atoms[0]), find(a)
            if ra is not rb:
                parent[ra] = rb
    return find


def _connected(atom_lists: list[list[Atom]]) -> list[list[int]]:
    """Indices of the (non-empty) atom lists, grouped into the connected
    components their shared atoms form, in sort order of each group's root."""
    find = union_find(atom_lists)
    groups: dict[Atom, list[int]] = {}
    for i, atoms in enumerate(atom_lists):
        groups.setdefault(find(atoms[0]), []).append(i)
    return [groups[k] for k in sorted(groups, key=_atom_sort_key)]


@dataclass
class _Block:
    """One stage-1 block: its atoms, the bit configuration each of its 2^n
    assignments switches on, and the (truth over those assignments, weight
    column) pairs of its atoms with a soft fact."""

    atoms: list[Atom]
    config: np.ndarray
    weighted: list[tuple[np.ndarray, int]]


@dataclass
class Plan:
    """The structural half of the solve of one component, whose rules are
    `rules`: everything but the soft fact weights. `run` fills in those
    weights, one column per rule of `facts`, in order.

    Each atom with a soft fact gets one weight column, the sum of its facts'
    weights: `first` is the fact column each sum starts from, and `more`
    the (weight column, fact column) pairs that add further facts, in order.
    Stage 2 enumerates `q_atoms` with the k bits, one per derived atom;
    `aconf` is each stage-2 row's bit configuration, `weighted` the (truth,
    weight column) pairs of the q_atoms with a soft fact, `mask` the rows
    the hard facts and hard constraints admit (None when they admit every
    row), `soft` one log-weight term per soft constraint, and `outputs` the
    (indices of the stage-2 rows where it holds, atom) pairs of the q_atoms
    and derived atoms. `run` takes `slice_rows` weight rows at a time, which
    keeps the widest table within `_TABLE_CELLS` cells."""

    rules: list[WeightedRule]
    facts: list[WeightedRule]
    first: np.ndarray
    more: list[tuple[int, int]]
    blocks: list[_Block]
    q_atoms: list[Atom]
    k: int
    aconf: np.ndarray
    weighted: list[tuple[np.ndarray, int]]
    mask: np.ndarray | None
    soft: list[np.ndarray]
    outputs: list[tuple[np.ndarray, Atom]]
    slice_rows: int


def plan(rules: list[WeightedRule]) -> Plan:
    """Split one component into stage-1 blocks and a stage-2 table, and
    build their index and mask arrays.

    Stage-1 atoms are the base atoms in definite bodies, which `_classify`
    keeps out of every constraint and hard fact. Derived atom j is bit j:
    the OR over its rules of the AND of their bodies. Blocks are the
    connected components of the rules' bodies.
    """
    c = _classify(rules)
    stage1 = {b for r in c.definite for b in r.pos_body}
    bit = {a: j for j, a in enumerate(c.derived)}
    k = len(c.derived)

    block_rules = []
    for group in _connected([r.pos_body for r in c.definite]):
        group_rules = [c.definite[i] for i in group]
        atoms = sorted({b for r in group_rules for b in r.pos_body}, key=_atom_sort_key)
        block_rules.append((atoms, [(r.pos_body, bit[r.head]) for r in group_rules]))
    q_atoms = [a for a in c.base if a not in stage1]
    widest = max([len(q_atoms) + k] + [len(atoms) for atoms, _ in block_rules])
    if widest > ENUM_BOUND:
        raise EnumerationBoundError(
            f"an enumeration of {widest} atoms exceeds enumeration bound {ENUM_BOUND}"
        )
    column: dict[Atom, int] = {}  # atom with a soft fact -> its weight column
    first, more = [], []
    for i, r in enumerate(c.facts):
        if r.head in column:
            more.append((column[r.head], i))
        else:
            column[r.head] = len(first)
            first.append(i)

    blocks = []
    for atoms, block in block_rules:
        idx = np.arange(1 << len(atoms), dtype=np.int64)
        sval = {a: _bit(idx, i) for i, a in enumerate(atoms)}
        config = np.zeros(len(idx), dtype=np.int64)
        for part, j in block:
            body = np.logical_and.reduce([sval[b] for b in part])
            config |= body.astype(np.int64) << j
        weighted = [(sval[a], column[a]) for a in atoms if a in column]
        blocks.append(_Block(atoms, config, weighted))

    nq = len(q_atoms)
    idx2 = np.arange(1 << (nq + k), dtype=np.int64)
    aconf = idx2 >> nq
    val2 = {a: _bit(idx2, i) for i, a in enumerate(q_atoms)}
    for j, a in enumerate(c.derived):
        val2[a] = _bit(aconf, j)

    mask = np.ones(len(idx2), dtype=bool)
    for r in c.hard_facts:
        mask &= val2[r.head]
    soft = []
    for r in c.constraints:
        body = np.ones(len(idx2), dtype=bool)
        for b in r.pos_body:
            body &= val2[b]
        for b in r.neg_body:
            body &= ~val2[b]
        if r.weight is HARD:
            mask &= ~body
        else:
            soft.append(np.where(body, 0.0, r.weight))
    return Plan(
        rules=rules,
        facts=c.facts,
        first=np.array(first, dtype=np.int64),
        more=more,
        blocks=blocks,
        q_atoms=q_atoms,
        k=k,
        aconf=aconf,
        weighted=[(val2[a], column[a]) for a in q_atoms if a in column],
        mask=None if mask.all() else mask,
        soft=soft,
        outputs=[(np.flatnonzero(val2[a]), a) for a in q_atoms + c.derived],
        slice_rows=max(1, _TABLE_CELLS // (1 << widest)),
    )


@dataclass
class CompiledProgram:
    """A program as `solve_exact` solves it: the plan of each connected
    component, in order, and rows of soft fact weights, each holding the
    weights of every plan's facts, plan after plan. Other weights on the
    same structure are `CompiledProgram(plans, weights)`, one row per solve.
    Like a `WeightedProgram`, it has a length (its rules) and an atom
    universe."""

    plans: list[Plan]
    weights: list[list[float]]

    @classmethod
    def compile(cls, program: WeightedProgram) -> "CompiledProgram":
        plans = [plan(rules) for rules in _split_components(program.rules)]
        return cls(plans, [[r.weight for p in plans for r in p.facts]])

    def __len__(self):
        return sum(len(p.rules) for p in self.plans)

    def atom_universe(self) -> set[Atom]:
        return WeightedProgram([r for p in self.plans for r in p.rules]).atom_universe()


def _bit(idx: np.ndarray, i: int) -> np.ndarray:
    return ((idx >> i) & 1).astype(bool)


def _fact_weights(facts) -> dict[Atom, float]:
    """The summed weight of each atom over (atom, weight) pairs."""
    fw: dict[Atom, float] = {}
    for a, w in facts:
        fw[a] = fw.get(a, 0.0) + w
    return fw


def run(plan: Plan, fact_weights) -> tuple[np.ndarray, np.ndarray]:
    """The numeric half of a component's solve, for an (n, len(plan.facts))
    matrix of soft fact weights, one row per solve: log Z of each row, and
    the (n, len(plan.outputs)) marginals of the stage-2 atoms and the
    derived atoms.

    Stage 1 enumerates each block on its own (in scene programs, one part:
    its `have` atom and its class and attribute atoms) into its fact mass by
    the bit configuration each assignment switches on; blocks share no atom,
    so the block masses combine, in block order, by an OR-fold (a subset
    convolution) into the mass of each of the 2^k configurations. Stage 2
    weighs each configuration by that mass and sums the stage-1 atoms out.
    With no stage-1 atoms, k = 0 and stage 2 is a plain enumeration of the
    component's base atoms.

    Each row is summed in the order a solve of that row alone would sum it,
    so a row's results do not depend on the other rows. Rows go through in
    slices of `plan.slice_rows`.
    """
    weights = np.asarray(fact_weights, dtype=float)
    if len(weights) <= plan.slice_rows:
        return _run_rows(plan, weights)
    slices = [
        _run_rows(plan, weights[lo : lo + plan.slice_rows])
        for lo in range(0, len(weights), plan.slice_rows)
    ]
    return (
        np.concatenate([log_z for log_z, _ in slices]),
        np.concatenate([marginals for _, marginals in slices]),
    )


def _run_rows(plan: Plan, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = len(weights)
    fw = weights.take(plan.first, axis=1)  # (n, atoms with a soft fact)
    for col, i in plan.more:
        fw[:, col] += weights[:, i]

    logw2 = np.zeros((n, len(plan.aconf)))
    log_z = 0.0
    if plan.blocks:
        # stage 1: each block's fact mass by bit configuration, OR-folded
        size = 1 << plan.k
        mass = np.zeros((n, size))
        mass[:, 0] = 1.0
        # row r counts into bins r * size + config, so each bin adds in row order
        offsets = np.arange(0, n * size, size)[:, None]
        for block in plan.blocks:
            logw = np.zeros((n, len(block.config)))
            for s, col in block.weighted:
                logw += np.where(s, fw[:, col : col + 1], 0.0)
            shift = np.maximum.reduce(logw, axis=1)
            log_z += shift
            ew = np.exp(logw - shift[:, None])
            bins = (block.config + offsets).ravel()
            counts = np.bincount(bins, weights=ew.ravel(), minlength=n * size)
            mass = _or_fold(mass, counts.reshape(n, size))
        with np.errstate(divide="ignore"):
            logw2 += np.log(mass).take(plan.aconf, axis=1)  # -inf where unreachable

    # stage 2: the other base atoms x bit configurations
    for v, col in plan.weighted:
        logw2 += np.where(v, fw[:, col : col + 1], 0.0)
    for term in plan.soft:
        logw2 += term
    if plan.mask is not None:
        logw2 = np.where(plan.mask, logw2, -np.inf)
    m2 = np.maximum.reduce(logw2, axis=1)
    if -np.inf in m2.tolist():
        raise NoAdmissibleWorldError("hard core admits no world")
    p = np.exp(logw2 - m2[:, None])
    z = np.add.reduce(p, axis=1)
    marginals = np.empty((n, len(plan.outputs)))
    for j, (where, _) in enumerate(plan.outputs):
        marginals[:, j] = np.add.reduce(p.take(where, axis=1), axis=1)
    return m2 + np.log(z) + log_z, marginals / z[:, None]


_FOLD_CHUNK = 1 << 16  # products per bincount in _or_fold; bounds its memory


def _or_fold(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[r, u | v] = sum of a[r, u] * b[r, v], for each row r: the table of
    the OR of two independent aux configurations.

    Only nonzero entries are paired and only non-negative products are added,
    with no Moebius inversion: stage-2 log-weights span over 100 nats, and a
    tiny mass found by subtraction could turn into a wrong marginal. Rows
    fold together only when their nonzero entries sit in the same places,
    so that each row is chunked, and summed, as it would be alone.
    """
    n, size = a.shape
    if n > 1 and not (
        ((a != 0) == (a[0] != 0)).all() and ((b != 0) == (b[0] != 0)).all()
    ):
        return np.concatenate([_or_fold(a[r : r + 1], b[r : r + 1]) for r in range(n)])
    u = np.flatnonzero(a[0])
    v = np.flatnonzero(b[0])
    out = np.zeros((n, size))
    step = max(1, _FOLD_CHUNK // max(1, len(v)))
    # rows per bincount, so one holds at most about _FOLD_CHUNK products
    per = max(1, _FOLD_CHUNK // max(1, min(step, len(u)) * len(v)))
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
