"""Bridges perception and knowledge: scene and KB translation into weighted
programs, polar/multiple-choice query answering, concept differences."""

from __future__ import annotations

from dataclasses import dataclass, field

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
from .memory import KBEntry, KnowledgeBase
from .perception import SceneGraph
from .program import (
    BodyGroup,
    WeightedProgram,
    WeightedRule,
    ground,
    logit,
)
from .exact import CompiledProgram, MarginalTable, solve_exact, union_find

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
    atoms = prop.cons.atoms
    if len(atoms) == 1 and not any(
        isinstance(t, SkolemApp) for t in atoms[0].args
    ):
        return atoms[0]
    return BodyGroup(atoms)


def _ante_unit(prop: Prop):
    atoms = prop.ante.atoms
    if len(atoms) == 1:
        return atoms[0]
    return BodyGroup(atoms)


def kb_to_program(kb, u: ReliabilityParams = ReliabilityParams()) -> WeightedProgram:
    """Lifted penalty constraints per the KB translation:

    - each entry: deductive constraint logit(U_d): :- Ante, not Cons
      (negated consequents cancel the default negation: :- Ante, Cons);
    - each group of entries sharing an identical positive consequent: one
      abductive constraint logit(U_a): :- Cons, not Ante_1, ..., not Ante_n.
      Negated consequents generate no abductive constraint.

    A `KnowledgeBase` is translated once per revision and `u`; each call
    gets its own copy of the rule list. Any other iterable of entries or
    props is translated on every call.
    """
    if isinstance(kb, KnowledgeBase):
        return WeightedProgram(list(_compiled(kb, u).program.rules))
    return _translate_kb(kb, u)


@dataclass
class _Compiled:
    """A `KnowledgeBase` translated at one revision and `u`, and the query
    plans compiled against that translation, by plan key (see
    `marginals_for`)."""

    program: WeightedProgram
    plans: dict = field(default_factory=dict)


def _compiled(kb: KnowledgeBase, u: ReliabilityParams) -> _Compiled:
    """The KB's memo: a revision bump or another `u` drops the translation
    and its plans together."""
    return kb.memo(u, lambda: _Compiled(_translate_kb(kb, u)))


def _translate_kb(kb, u: ReliabilityParams) -> WeightedProgram:
    props = []
    for entry in kb:
        prop = entry.prop if isinstance(entry, KBEntry) else entry
        if not prop.generic:
            raise ValueError("KB translation expects generic props")
        props.append(canonicalize(prop))

    prog = WeightedProgram()
    w_d, w_a = logit(u.u_d), logit(u.u_a)
    for prop in props:
        cons = _cons_unit(prop)
        if prop.cons_negated:
            prog.add(WeightedRule(w_d, None, prop.ante.atoms + (cons,), ()))
        else:
            prog.add(WeightedRule(w_d, None, prop.ante.atoms, (cons,)))

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


def _restrict(prog: WeightedProgram, queries: list[Atom]) -> WeightedProgram:
    """Keep only rules in the connected components of the query atoms."""
    rule_atoms = [r.atoms() for r in prog]
    find = union_find(rule_atoms)
    roots, missing = set(), []
    for q in queries:
        try:
            roots.add(find(q))
        except KeyError:
            missing.append(q)
    if missing:
        raise UnknownPredicateError(f"atoms unknown to the program: {missing}")
    return WeightedProgram([r for r, atoms in zip(prog, rule_atoms) if find(atoms[0]) in roots])


def _object_scene(sg: SceneGraph, objects) -> SceneGraph:
    """The scene cut down to `objects` (those in the scene), their parts and
    the edges out of them, by direct lookups."""
    object_parts = {o: sg.object_parts[o] for o in sorted(objects) if o in sg.object_parts}
    nodes, edges = {}, {}
    for o, parts in object_parts.items():
        nodes[o] = sg.nodes[o]
        for p in parts:
            nodes[p] = sg.nodes[p]
            edges[(o, p)] = sg.edges[(o, p)]
    return SceneGraph(nodes, edges, object_parts)


def _plan_key(sg: SceneGraph, queries: list[Atom]):
    """(key, entities) for queries on one scene object whose part ids extend
    its own id, else None. `entities` is the object, then its parts; the key
    names each query entity by its index there and holds the part ids'
    suffixes (which fix the atoms' sort order) and the score names of the
    object's nodes and edges. So two objects with one key get the same
    restricted program up to the names of their entities, rule for rule."""
    obj = None
    for q in queries:
        for t in q.args:
            if not isinstance(t, Const):
                return None
            o = sg.whole_of.get(t.ident, t.ident)
            if obj is not None and o != obj:
                return None
            obj = o
    parts = sg.object_parts.get(obj)
    if parts is None or not all(len(p) > len(obj) and p.startswith(obj) for p in parts):
        return None
    entities = (obj, *parts)
    role = {e: i for i, e in enumerate(entities)}
    nodes = [sg.nodes[e] for e in entities]
    key = (
        tuple((q.pred, tuple(role[t.ident] for t in q.args)) for q in queries),
        tuple(p[len(obj) :] for p in parts),
        tuple((tuple(sorted(n.class_scores)), tuple(sorted(n.attr_scores))) for n in nodes),
        tuple(tuple(sorted(sg.edges[(obj, p)])) for p in parts),
    )
    return key, entities


def _query_program(sg: SceneGraph, kb, u: ReliabilityParams, queries: list[Atom]):
    """`_restrict(build_program(sg, kb, u), queries)`, built on the scene cut
    down to the objects the queries mention (see `marginals_for`)."""
    owners = {
        sg.whole_of.get(t.ident, t.ident) for q in queries for t in q.args if isinstance(t, Const)
    }
    return _restrict(build_program(_object_scene(sg, owners), kb, u), queries)


@dataclass
class _QueryPlan:
    """One plan key's query program, compiled on the object `entities`
    names."""

    entities: tuple[str, ...]
    program: CompiledProgram

    def solve(self, sg: SceneGraph, entities: tuple[str, ...]) -> MarginalTable:
        """The marginals for the object `entities` names, which has this
        plan key: the compiled program solved with that object's scores as
        its soft fact weights, and its atoms renamed to that object's
        entities."""
        rename = dict(zip(self.entities, entities))

        def weight(fact):
            return logit(_score(sg, fact.head.pred, tuple(rename[c.ident] for c in fact.head.args)))

        plans = self.program.plans
        weights = [[weight(r) for r in p.facts] for p in plans]
        table = solve_exact(CompiledProgram(plans, weights))
        probs = {
            Atom(a.pred, tuple(Const(rename[c.ident]) for c in a.args)): v
            for a, v in table.probs.items()
        }
        return MarginalTable(probs, log_z=table.log_z)


def marginals_for(
    sg: SceneGraph, kb, u: ReliabilityParams, queries: list[Atom]
) -> MarginalTable:
    """Exact marginals of the query atoms' components: those of
    `solve_exact(_restrict(build_program(sg, kb, u), queries))`.

    The program is built on the scene cut down to the objects the queries
    mention, their parts and the edges out of them: an atom on a part
    belongs to the part's whole. Each lifted rule has one free variable and
    `have` edges link an object only to its own parts, so no component spans
    two objects, and the rules solved are those of the whole scene's
    restricted program, in the same order.

    Queries on one object of a `KnowledgeBase`, which is every query the
    learner and the harness make, are answered from a program compiled at
    the first query with the same plan key (`_plan_key`) and kept in the
    KB's memo until its revision or `u` changes; a query then reads its
    object's scores into the soft fact weights, so only the solver's numeric
    half runs. Queries no plan key describes (a plain list of props, as in
    tests and demos, or atoms on two objects) compile their program each
    time. Raises UnknownPredicateError for a query atom the program lacks,
    including one on an entity outside the scene.
    """
    shape = _plan_key(sg, queries) if isinstance(kb, KnowledgeBase) else None
    if shape is None:
        return solve_exact(_query_program(sg, kb, u, queries))
    key, entities = shape
    plans = _compiled(kb, u).plans
    planned = plans.get(key)
    if planned is None:
        program = CompiledProgram.compile(_query_program(sg, kb, u, queries))
        planned = plans[key] = _QueryPlan(entities, program)
    return planned.solve(sg, entities)


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
