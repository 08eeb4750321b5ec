"""Bridges perception and knowledge: scene and KB translation into weighted
programs, polar/multiple-choice query answering, concept differences."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

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
    """One soft fact logit(s): gamma(o...) per scored observation s,
    deterministically ordered."""
    observed = []  # (predicate maker, arguments, scores)
    for eid in sorted(sg.nodes):
        node = sg.nodes[eid]
        observed += [(cls_pred, (eid,), node.class_scores), (attr_pred, (eid,), node.attr_scores)]
    observed += [(rel_pred, pair, sg.edges[pair]) for pair in sorted(sg.edges)]
    return WeightedProgram(
        [
            WeightedRule(logit(scores[name]), Atom(pred(name), tuple(map(Const, args))))
            for pred, args, scores in observed
            for name in sorted(scores)
        ]
    )


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
    """(key, codes, entities) for queries on the scene objects their atoms
    mention (an atom on a part belongs to the part's whole). `entities` is
    each object in id order, each followed by its parts; `codes` holds each
    query atom as (predicate, the index in `entities` of each argument). The
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
    entities, edge_names = [], []
    for o in sorted(objects):
        parts = sg.object_parts.get(o)
        if parts is None:
            raise UnknownPredicateError(f"query atoms on an entity outside the scene: {o}")
        entities += [o, *parts]
        edge_names.append(tuple(tuple(sorted(sg.edges[(o, p)])) for p in parts))
    role = {e: i for i, e in enumerate(entities)}
    codes = [(q.pred, tuple(role[t.ident] for t in q.args)) for q in queries]
    nodes = [sg.nodes[e] for e in entities]
    key = (
        frozenset(codes),
        tuple(sorted(range(len(entities)), key=entities.__getitem__)),
        tuple((tuple(sorted(n.class_scores)), tuple(sorted(n.attr_scores))) for n in nodes),
        tuple(edge_names),
    )
    return key, codes, entities


def _cut_scene(sg: SceneGraph, entities: list[str]) -> SceneGraph:
    """`sg` cut down to `entities` (objects, each followed by its parts, as
    `_plan_key` lists them) and the edges out of their objects."""
    object_parts = {e: sg.object_parts[e] for e in entities if e in sg.object_parts}
    edges = {(o, p): sg.edges[(o, p)] for o, parts in object_parts.items() for p in parts}
    return SceneGraph({e: sg.nodes[e] for e in entities}, edges, object_parts)


def marginals_for(
    sg: SceneGraph, kb, u: ReliabilityParams, queries: list[Atom]
) -> MarginalTable:
    """Exact marginals of the query atoms, and the log Z of their
    components, for the scene `sg` and the `KnowledgeBase` `kb`: the one
    table of `marginals_each` for the one query list `queries`."""
    return marginals_each(sg, kb, u, [queries])[0]


def marginals_each(
    sg: SceneGraph, kb, u: ReliabilityParams, query_lists: list[list[Atom]]
) -> list[MarginalTable]:
    """`marginals_for` of each query list, in order, solved together: the
    lists with one plan key go through the solver's numeric half at once,
    one weight row per list, and each row is solved as it would be alone.

    The program of a list is built on the scene cut down to the objects the
    list mentions (`_plan_key`, kept in `sg.plan_keys` unless that is None;
    `_cut_scene`, on a plan miss only).
    Each lifted rule has one free variable and `have` edges link an object
    only to its own parts, so no component spans two objects, and the
    components solved are those of the whole scene's program that hold a
    query atom, rule for rule and in order.

    The program is compiled once per plan key and kept in the KB's memo
    until its revision or `u` changes. Compiling splits it into components
    (see `exact`); the plans kept are those whose outputs hold a query
    atom, each cut down to its query atoms. Each soft fact is stored as a
    slot (which score dict of which entity, score name) and each query code
    names the compiled atom it reads, so a list fills the slots with the
    logits of its entities' scores and only the solver's numeric half runs
    on a hit. Raises UnknownPredicateError for a query atom that is not ground or is on an
    entity outside the scene, and for one that no kept plan outputs: an
    atom the program lacks, or one the solver sums out (a stage-1 atom,
    such as a part's attribute in the body of a skolemized generic's rules).
    """
    plans = kb.memo(u, dict)
    kept = sg.plan_keys
    groups: dict = {}  # plan key -> [(position, queries, codes, entities)]
    for i, queries in enumerate(query_lists):
        atoms = tuple(queries)
        if kept is None:
            planned = _plan_key(sg, queries)
        elif (planned := kept.get(atoms)) is None:
            planned = kept[atoms] = _plan_key(sg, queries)
        key, codes, entities = planned
        if key not in plans:
            plans[key] = _compile(sg, entities, kb, u, queries, codes)
        groups.setdefault(key, []).append((i, queries, codes, entities))
    tables: list = [None] * len(query_lists)
    for key, members in groups.items():
        compiled, slots, atom_of = plans[key]
        weights = []
        for _, _, _, entities in members:
            dicts = _score_dicts(sg, entities)
            weights.append([logit(dicts[d][name]) for d, name in slots])
        solved = solve_exact(CompiledProgram(compiled, weights))
        for (i, queries, codes, _), table in zip(members, solved):
            tables[i] = MarginalTable(
                {q: table.probs[atom_of[code]] for q, code in zip(queries, codes)},
                log_z=table.log_z,
            )
    return tables


def _score_dicts(sg: SceneGraph, entities: list[str]) -> list:
    """Three score dicts per entity, the ones a fact slot indexes: its class
    scores, its attribute scores and the scores of the `have` edge from its
    whole (None for an object). An edge links an object only to its own
    parts, so a part's one edge is the one from its whole."""
    nodes, edges, whole_of = sg.nodes, sg.edges, sg.whole_of
    dicts = []
    for e in entities:
        node = nodes[e]
        dicts += (node.class_scores, node.attr_scores, edges.get((whole_of.get(e), e)))
    return dicts


def _slot(pred: PredicateSym, args: tuple, role: dict) -> tuple[int, str]:
    """(index into `_score_dicts`, score name) of the soft fact pred(args)."""
    if pred.kind == RELATION:  # have(whole, part): the part's edge
        return 3 * role[args[1].ident] + 2, pred.name
    return 3 * role[args[0].ident] + (0 if pred.kind == CLASS else 1), pred.name


def _compile(sg: SceneGraph, entities: list[str], kb, u: ReliabilityParams, queries, codes):
    """(kept plans, fact slots, compiled atom of each query code) of the
    program on `sg` cut down to `entities`, for `marginals_each`."""
    wanted = set(queries)
    compiled = []
    for p in CompiledProgram.compile(build_program(_cut_scene(sg, entities), kb, u)).plans:
        outputs = [(v, a) for v, a in p.outputs if a in wanted]
        if outputs:
            compiled.append(replace(p, outputs=outputs))
    solved = {a for p in compiled for _, a in p.outputs}
    unsolved = ", ".join(str(q) for q in queries if q not in solved)
    if unsolved:
        raise UnknownPredicateError(f"atoms the program does not solve: {unsolved}")
    role = {e: i for i, e in enumerate(entities)}
    slots = [_slot(r.head.pred, r.head.args, role) for p in compiled for r in p.facts]
    return compiled, slots, dict(zip(codes, queries))


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
    return classify_each(sg, kb, u, candidates, [obj])[0]


def classify_each(
    sg: SceneGraph, kb, u: ReliabilityParams, candidates: list[str], objs: list[str]
) -> list[str | None]:
    """`classify` of each object, all objects in one `marginals_each` call."""
    if not candidates:
        raise ValueError("candidates must be non-empty")
    names = tuple(sorted(candidates))
    query_lists = [class_atoms(names, o) for o in objs]
    tables = marginals_each(sg, kb, u, query_lists)
    return [
        best_class({c: table[a] for c, a in zip(names, atoms)})
        for atoms, table in zip(query_lists, tables)
    ]


@lru_cache(maxsize=256)
def class_atoms(classes: tuple[str, ...], obj: str) -> tuple[Atom, ...]:
    """The atom c(obj) of each class c, in order: an object's class queries,
    built once per (classes, object) while they recur, as a test set's
    objects do from exam to exam and a probed scene's `o1` from probe to
    probe; the cache holds more entries than a fineHard test set has
    objects."""
    return tuple(Atom(cls_pred(c), (Const(obj),)) for c in classes)


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
