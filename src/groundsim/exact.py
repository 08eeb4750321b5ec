"""Exact marginal inference by world enumeration.

Worlds are subsets of base atoms; auxiliary atoms are derived by forward
chaining over HARD definite rules; worlds violating HARD constraints are
discarded; a world's weight is the sum of the weights of the soft rules it
satisfies, normalized into a log-linear distribution.

`enumerate_worlds` is a deliberately plain pure-Python reference. `solve_exact`
is the production path: it splits the program into connected components and
solves each by one method in two stages:

- stage 1 marginalizes the stage-1 atoms: base atoms in definite bodies and
  in no constraint or hard fact. Each group of definite rules with one head
  and the same other body atoms gets a bit, the OR over its rules of the AND
  of their stage-1 atoms. The stage-1 atoms split into blocks, the connected
  components of the rules' stage-1 parts, which in scene programs means one
  block per part. Each block enumerates only its own assignments into a
  table over bit configurations, and the tables combine by an OR-fold
  (`_or_fold`) that adds only non-negative products;
- stage 2 enumerates the other base atoms with every bit configuration and
  derives the heads by forward chaining, so chained rules, bodies that mix
  stage-1 and other atoms, and constrained or forced body atoms are all
  covered. A component without stage-1 atoms has no blocks and no bits, and
  stage 2 enumerates all of its base atoms. So does a component whose groups
  outnumber its stage-1 atoms, for which staging would widen stage 2.

`enum_bound` caps every single enumeration: each block and the stage-2 table.
Each component's solve has two halves: `plan` does everything that depends
only on the rules (classification, blocks, bits, index and mask arrays, the
soft constraints' terms), and `run` does the arithmetic that depends on the
soft fact weights. A `CompiledProgram` holds a program's plans and fact
weights; a caller that solves one structure with many weight vectors
compiles it once and passes `solve_exact` the compiled program with each
weight vector (see `reasoner.marginals_for`). The solver is property-tested
against the reference.
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
    """A total order on ground atoms: the kind breaks ties between predicates
    of one name, which would otherwise keep the order of a set."""
    return (a.pred.name, tuple(str(t) for t in a.args), a.pred.kind)


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


def solve_exact(
    program: WeightedProgram | CompiledProgram, enum_bound: int = ENUM_BOUND
) -> MarginalTable:
    """Exact marginals, component by component: `run` on each component's
    `plan` with the weights of its soft facts. A `WeightedProgram` is
    compiled first, and raises EnumerationBoundError for a component with a
    block or a stage-2 table of more than `enum_bound` atoms; a
    `CompiledProgram` was checked against the bound it was compiled with."""
    if not isinstance(program, CompiledProgram):
        program = CompiledProgram.compile(program, enum_bound)
    probs: dict[Atom, float] = {}
    log_z = 0.0
    for p, weights in zip(program.plans, program.weights):
        t = run(p, weights)
        probs.update(t.probs)
        log_z += t.log_z
    return MarginalTable(probs, log_z=log_z)


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
    """One stage-1 block: its atoms, their truth over the block's 2^n
    assignments (`sval`, in atom order), each assignment's bit configuration,
    and the (truth, atom) pairs of its atoms with a soft fact."""

    atoms: list[Atom]
    sval: list[np.ndarray]
    config: np.ndarray
    weighted: list[tuple[np.ndarray, Atom]]


@dataclass
class Plan:
    """The structural half of the solve of one component, whose rules are
    `rules`: everything but the soft fact weights. `run` fills in those
    weights, one per rule of `facts`, in order.

    Stage 2 enumerates `q_atoms` with the k bits; `aconf` is each stage-2
    row's bit configuration, `weighted` the (truth, atom) pairs of the
    q_atoms with a soft fact, `mask` the rows the hard facts and hard
    constraints admit, `soft` one log-weight term per soft constraint, and
    `outputs` the (truth, atom) pairs of the q_atoms and derived atoms."""

    rules: list[WeightedRule]
    facts: list[WeightedRule]
    blocks: list[_Block]
    q_atoms: list[Atom]
    k: int
    aconf: np.ndarray
    weighted: list[tuple[np.ndarray, Atom]]
    mask: np.ndarray
    soft: list[np.ndarray]
    outputs: list[tuple[np.ndarray, Atom]]


def plan(rules: list[WeightedRule], enum_bound: int = ENUM_BOUND) -> Plan:
    """Split one component into stage-1 blocks and a stage-2 table, and
    build their index and mask arrays.

    Stage-1 atoms are the base atoms in definite bodies and in no constraint
    or hard fact. The definite rules with the same head and the same other
    body atoms form a group with one bit: the OR over the group's rules of
    the AND of their stage-1 atoms. Bits go in the order of their heads, so a
    scene program's bit j is its derived atom j. Blocks are the connected
    components of the stage-1 parts of the rules. When the groups outnumber
    the stage-1 atoms, nothing is staged, so stage 2 never enumerates more
    atoms than the component's base atoms. Stage 2 derives the heads by
    forward chaining over the plain rules and the groups' bits (chained
    rules included).
    """
    c = _classify(rules)
    outside = {r.head for r in c.hard_facts}
    for r in c.constraints:
        outside.update(r.pos_body)
        outside.update(r.neg_body)
    heads = set(c.derived)
    stage1 = {b for r in c.definite for b in r.pos_body if b not in heads and b not in outside}
    groups = {
        (r.head, tuple(b for b in r.pos_body if b not in stage1))
        for r in c.definite
        if any(b in stage1 for b in r.pos_body)
    }
    if len(groups) > len(stage1):
        # more bits than stage-1 atoms would widen stage 2 beyond the base
        # atoms: enumerate those atoms in stage 2 instead
        stage1 = set()

    staged = []  # (stage-1 part, group) per definite rule with a stage-1 atom
    plain = []  # the definite rules without one, as they are
    for r in c.definite:
        part = [b for b in r.pos_body if b in stage1]
        rest = tuple(b for b in r.pos_body if b not in stage1)
        if part:
            staged.append((part, (r.head, rest)))
        else:
            plain.append((r.head, r.pos_body))
    rank = {a: j for j, a in enumerate(c.derived)}
    # sorted() is stable: groups of one head keep the order of their first rule
    order = sorted(dict.fromkeys(g for _, g in staged), key=lambda g: rank[g[0]])
    bit = {g: j for j, g in enumerate(order)}
    rules2 = [(head, (j, *rest)) for j, (head, rest) in enumerate(order)] + plain
    k = len(order)

    block_rules = []
    for group in _connected([part for part, _ in staged]):
        atoms = sorted({b for i in group for b in staged[i][0]}, key=_atom_sort_key)
        block_rules.append((atoms, [(staged[i][0], bit[staged[i][1]]) for i in group]))
    q_atoms = [a for a in c.base if a not in stage1]
    widest = max([len(q_atoms) + k] + [len(atoms) for atoms, _ in block_rules])
    if widest > enum_bound:
        raise EnumerationBoundError(
            f"an enumeration of {widest} atoms exceeds enumeration bound {enum_bound}"
        )
    has_fact = {r.head for r in c.facts}

    blocks = []
    for atoms, block in block_rules:
        idx = np.arange(1 << len(atoms), dtype=np.int64)
        sval = {a: _bit(idx, i) for i, a in enumerate(atoms)}
        config = np.zeros(len(idx), dtype=np.int64)
        for part, j in block:
            body = np.logical_and.reduce([sval[b] for b in part])
            config |= body.astype(np.int64) << j
        weighted = [(sval[a], a) for a in atoms if a in has_fact]
        blocks.append(_Block(atoms, [sval[a] for a in atoms], config, weighted))

    nq = len(q_atoms)
    idx2 = np.arange(1 << (nq + k), dtype=np.int64)
    aconf = idx2 >> nq
    val2: dict[Atom | int, np.ndarray] = {j: _bit(aconf, j) for j in range(k)}
    for i, a in enumerate(q_atoms):
        val2[a] = _bit(idx2, i)
    for a in c.derived:
        val2[a] = np.zeros(len(idx2), dtype=bool)
    changed = True
    while changed:  # forward chaining closure (supports chained rules)
        changed = False
        for head, body_keys in rules2:
            body = np.logical_and.reduce([val2[b] for b in body_keys])
            new = val2[head] | body
            if not np.array_equal(new, val2[head]):
                val2[head] = new
                changed = True

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
        blocks=blocks,
        q_atoms=q_atoms,
        k=k,
        aconf=aconf,
        weighted=[(val2[a], a) for a in q_atoms if a in has_fact],
        mask=mask,
        soft=soft,
        outputs=[(val2[a], a) for a in q_atoms + c.derived],
    )


@dataclass
class CompiledProgram:
    """A program as `solve_exact` solves it: the plan of each connected
    component, in order, and the weights of each plan's soft facts. Another
    weight vector on the same structure is `CompiledProgram(plans, weights)`.
    Like a `WeightedProgram`, it has a length (its rules) and an atom
    universe."""

    plans: list[Plan]
    weights: list[list[float]]

    @classmethod
    def compile(cls, program: WeightedProgram, enum_bound: int = ENUM_BOUND) -> "CompiledProgram":
        plans = [plan(rules, enum_bound) for rules in _split_components(program.rules)]
        return cls(plans, [[r.weight for r in p.facts] for p in plans])

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


def run(plan: Plan, fact_weights: list[float]) -> MarginalTable:
    """The numeric half of a component's solve: marginalize the stage-1
    atoms per configuration of the k bits, then enumerate the other base
    atoms with every bit configuration. `fact_weights` holds one weight per
    rule of `plan.facts`.

    Stage 1 enumerates each block on its own (in scene programs, one part:
    its `have` atom and its class and attribute atoms) into a table over the
    2^k bit configurations; the block tables combine by an OR-fold (a subset
    convolution). Stage 2 weighs each configuration by its folded mass and
    mixes P(stage-1 atom | configuration) over the configuration posterior.
    With no stage-1 atoms, k = 0 and stage 2 is a plain enumeration of the
    component's base atoms.
    """
    size = 1 << plan.k
    fw = _fact_weights(zip((r.head for r in plan.facts), fact_weights))

    # stage 1, per block: row 0 is the fact mass of the block's assignments by
    # the bit configuration they switch on; row 1+i the same over assignments
    # with the block's atom i true
    tables = []
    shift1 = 0.0
    for block in plan.blocks:
        logw = np.zeros(len(block.config))
        for s, a in block.weighted:
            logw += np.where(s, fw[a], 0.0)
        shift = logw.max()
        shift1 += shift
        ew = np.exp(logw - shift)
        table = np.empty((1 + len(block.atoms), size))
        table[0] = np.bincount(block.config, weights=ew, minlength=size)
        for i, s in enumerate(block.sval, 1):
            table[i] = np.bincount(block.config, weights=np.where(s, ew, 0.0), minlength=size)
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

    # stage 2: the other base atoms x bit configurations
    aconf = plan.aconf
    logw2 = np.zeros(len(aconf))
    if folded:
        with np.errstate(divide="ignore"):
            logw2 += np.log(folded[0][0])[aconf]  # -inf where a config is unreachable
    for v, a in plan.weighted:
        logw2 += np.where(v, fw[a], 0.0)
    for term in plan.soft:
        logw2 += term

    logw2 = np.where(plan.mask, logw2, -np.inf)
    m2 = logw2.max()
    if m2 == -np.inf:
        raise NoAdmissibleWorldError("hard core admits no world")
    p = np.exp(logw2 - m2)
    z = p.sum()

    probs = {a: float(p[v].sum() / z) for v, a in plan.outputs}
    # marginals of stage-1 atoms: mix P(s_i | bit config) over the config posterior
    p_conf = np.bincount(aconf, weights=p, minlength=size) / z
    for block, f in zip(plan.blocks, folded):
        for i, a in enumerate(block.atoms, 1):
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
