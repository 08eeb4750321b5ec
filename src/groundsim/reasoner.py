"""Bridges perception and knowledge: scene and KB translation into weighted
programs, polar/multiple-choice query answering, concept differences."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .logic import (
    CLASS,
    RELATION,
    Atom,
    Const,
    PredicateSym,
    Prop,
    Ques,
    SkolemApp,
    attr_pred,
    canonicalize,
    cls_pred,
    cons_key,
    instance_atom,
    instance_prop,
    rel_pred,
)
from .perception import SceneGraph
from .program import (
    BodyGroup,
    WeightedProgram,
    WeightedRule,
    ground,
    logit,
)
from .exact import CompiledProgram, MarginalTable, solve_exact

THETA_SURE = 0.5


class UnknownPredicateError(KeyError):
    pass


@dataclass(frozen=True)
class ReliabilityParams:
    """How far the agent trusts its symbolic knowledge."""

    u_d: float = 0.95  # deductive-violation penalty
    u_a: float = 0.95  # failure-to-explain penalty


def scene_to_program(sg: SceneGraph) -> WeightedProgram:
    """One soft fact logit(s): gamma(o...) per scored observation,
    deterministically ordered."""
    atoms = []
    for eid in sorted(sg.nodes):
        node = sg.nodes[eid]
        atoms += [Atom(cls_pred(name), (Const(eid),)) for name in sorted(node.class_scores)]
        atoms += [Atom(attr_pred(name), (Const(eid),)) for name in sorted(node.attr_scores)]
    for (i, j) in sorted(sg.edges):
        atoms += [Atom(rel_pred(name), (Const(i), Const(j))) for name in sorted(sg.edges[(i, j)])]
    return WeightedProgram(
        [WeightedRule(logit(_score(sg, a.pred, tuple(t.ident for t in a.args))), a) for a in atoms]
    )


def _score(sg: SceneGraph, pred: PredicateSym, entities: tuple[str, ...]) -> float:
    """The scene score s of the observation pred(entities), whose soft fact
    is logit(s): pred(entities)."""
    if pred.kind == RELATION:
        return sg.edges[entities][pred.name]
    node = sg.nodes[entities[0]]
    return (node.class_scores if pred.kind == CLASS else node.attr_scores)[pred.name]


def _cons_unit(prop: Prop):
    """Consequent as a single body unit: a bare atom, or a BodyGroup when the
    conjunction is skolemized or compound."""
    atoms = prop.cons
    if len(atoms) == 1 and not any(
        isinstance(t, SkolemApp) for t in atoms[0].args
    ):
        return atoms[0]
    return BodyGroup(atoms)


def _ante_unit(prop: Prop):
    atoms = prop.ante
    if len(atoms) == 1:
        return atoms[0]
    return BodyGroup(atoms)


def kb_to_program(kb, u: ReliabilityParams = ReliabilityParams()) -> WeightedProgram:
    """Lifted penalty constraints per the KB translation, for the generic
    props of the `KnowledgeBase` `kb`:

    - each entry: deductive constraint logit(U_d): :- Ante, not Cons
      (negated consequents cancel the default negation: :- Ante, Cons);
    - each group of entries sharing an identical positive consequent: one
      abductive constraint logit(U_a): :- Cons, not Ante_1, ..., not Ante_n.
      Negated consequents generate no abductive constraint.
    """
    props = [canonicalize(entry.prop) for entry in kb]
    prog = WeightedProgram()
    w_d, w_a = logit(u.u_d), logit(u.u_a)
    for prop in props:
        cons = _cons_unit(prop)
        if prop.cons_negated:
            prog.add(WeightedRule(w_d, None, prop.ante + (cons,), ()))
        else:
            prog.add(WeightedRule(w_d, None, prop.ante, (cons,)))

    groups: dict = {}
    for prop in props:
        if prop.cons_negated:
            continue
        groups.setdefault(cons_key(prop), []).append(prop)
    for key in groups:
        members = groups[key]
        cons = _cons_unit(members[0])
        antes = tuple(_ante_unit(p) for p in members)
        prog.add(WeightedRule(w_a, None, (cons,), antes))
    return prog


def build_program(sg: SceneGraph, kb, u: ReliabilityParams = ReliabilityParams()) -> WeightedProgram:
    """Ground Pi_O union Pi_K for the whole scene, as `--dump-program` writes
    it. Queries ground only their own objects (see `marginals_for`)."""
    objects = sorted(sg.object_parts)
    return scene_to_program(sg) + ground(kb_to_program(kb, u), objects, sg.object_parts)


def _plan_key(sg: SceneGraph, queries: list[Atom]):
    """(key, codes, entities, role, scene) for queries on the scene objects
    their atoms mention (an atom on a part belongs to the part's whole).
    `scene` is `sg` cut down to those objects, their parts and the edges
    out of them. `entities` is each object in id order, each followed by its
    parts, and `role` maps each entity to its index there; `codes` holds
    each query atom as (predicate, the entity index of each argument). The
    key holds the set of codes, the sort permutation of the entity ids
    (which fixes the order of the program's atoms and rules), the score
    names of the entities' nodes and each object's edge score names. So two
    sets of objects with one key get the same program up to the names of
    their entities, rule for rule, whatever the order of their queries.
    Raises UnknownPredicateError for a query argument that is not a
    constant or is on no entity of the scene."""
    objects = set()
    for q in queries:
        for t in q.args:
            if not isinstance(t, Const):
                raise UnknownPredicateError(f"query atom is not ground: {q}")
            objects.add(sg.whole_of.get(t.ident, t.ident))
    nodes, edges, object_parts, edge_names = {}, {}, {}, []
    for o in sorted(objects):
        parts = object_parts[o] = sg.object_parts.get(o)
        if parts is None:
            raise UnknownPredicateError(f"query atoms on an entity outside the scene: {o}")
        nodes[o] = sg.nodes[o]
        for p in parts:
            nodes[p] = sg.nodes[p]
            edges[(o, p)] = sg.edges[(o, p)]
        edge_names.append(tuple(tuple(sorted(edges[(o, p)])) for p in parts))
    entities = list(nodes)
    role = {e: i for i, e in enumerate(entities)}
    codes = [(q.pred, tuple(role[t.ident] for t in q.args)) for q in queries]
    key = (
        frozenset(codes),
        tuple(sorted(range(len(entities)), key=entities.__getitem__)),
        tuple(
            (tuple(sorted(n.class_scores)), tuple(sorted(n.attr_scores))) for n in nodes.values()
        ),
        tuple(edge_names),
    )
    return key, codes, entities, role, SceneGraph(nodes, edges, object_parts)


def marginals_for(
    sg: SceneGraph, kb, u: ReliabilityParams, queries: list[Atom]
) -> MarginalTable:
    """Exact marginals of the query atoms, and the log Z of their
    components, for the scene `sg` and the `KnowledgeBase` `kb`.

    The program is built on the scene cut down to the objects the queries
    mention (`_plan_key`). Each lifted rule has one free variable and
    `have` edges link an object only to its own parts, so no component spans
    two objects, and the components solved are those of the whole scene's
    program that hold a query atom, rule for rule and in the same order.

    The program is compiled once per plan key and kept in the KB's memo
    until its revision or `u` changes. Compiling splits it into components
    (see `exact`); the plans kept are those whose outputs hold a query
    atom, each cut down to its query atoms. Each soft fact is stored as a
    slot (predicate, entity indices) and each query code names the compiled
    atom it reads, so a query fills the slots with its entities' scores and
    only the solver's numeric half runs on a hit. Raises
    UnknownPredicateError for a query atom that is not ground or is on an
    entity outside the scene, and for one that no kept plan outputs: an
    atom the program lacks, or one the solver sums out (a stage-1 atom,
    such as a part's attribute in the body of a skolemized generic's rules).
    """
    key, codes, entities, role, scene = _plan_key(sg, queries)
    plans = kb.memo(u, dict)
    planned = plans.get(key)
    if planned is None:
        wanted = set(queries)
        compiled = []
        for p in CompiledProgram.compile(build_program(scene, kb, u)).plans:
            outputs = [(v, a) for v, a in p.outputs if a in wanted]
            if outputs:
                compiled.append(replace(p, outputs=outputs))
        solved = {a for p in compiled for _, a in p.outputs}
        unsolved = ", ".join(str(q) for q in queries if q not in solved)
        if unsolved:
            raise UnknownPredicateError(f"atoms the program does not solve: {unsolved}")
        slots = [
            [(r.head.pred, tuple(role[c.ident] for c in r.head.args)) for r in p.facts]
            for p in compiled
        ]
        planned = plans[key] = (compiled, slots, dict(zip(codes, queries)))
    compiled, slots, atom_of = planned
    weights = [
        [logit(_score(sg, pred, tuple(entities[i] for i in idx))) for pred, idx in fact_slots]
        for fact_slots in slots
    ]
    table = solve_exact(CompiledProgram(compiled, weights))
    return MarginalTable(
        {q: table.probs[atom_of[code]] for q, code in zip(queries, codes)}, log_z=table.log_z
    )


def answer_polar(sg: SceneGraph, kb, u: ReliabilityParams, ques: Ques) -> float:
    """Marginal probability of a polar question's atom; negated queries
    return the complement."""
    if ques.kind != "polar":
        raise ValueError("answer_polar expects a polar question")
    atom = instance_atom(ques.prop)
    if atom is None:
        raise ValueError("polar queries are single ground atoms")
    m = marginals_for(sg, kb, u, [atom])[atom]
    return 1.0 - m if ques.prop.cons_negated else m


def classify(
    sg: SceneGraph, kb, u: ReliabilityParams, candidates: list[str], obj: str
) -> str | None:
    """Argmax class marginal over candidates, or None (not sure) when no
    candidate clears THETA_SURE. Ties break lexicographically."""
    if not candidates:
        raise ValueError("candidates must be non-empty")
    atoms = {c: Atom(cls_pred(c), (Const(obj),)) for c in sorted(candidates)}
    table = marginals_for(sg, kb, u, list(atoms.values()))
    return best_class({c: table[a] for c, a in atoms.items()})


def best_class(scores: dict[str, float]) -> str | None:
    """The class with the highest score above THETA_SURE, or None (not sure)
    when none clears it. Ties break lexicographically."""
    best, best_p = None, THETA_SURE
    for name in sorted(scores):
        if scores[name] > best_p:
            best, best_p = name, scores[name]
    return best


def polar_ques(pred_name: str, obj: str, negated: bool = False) -> Ques:
    """Convenience constructor for '?p(o)' questions."""
    return Ques("polar", prop=instance_prop(cls_pred(pred_name), obj, negated))
