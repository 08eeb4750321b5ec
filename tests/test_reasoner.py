"""Reasoner: scene/KB translation into programs, query plans, polar
answering and multiple-choice classification."""

import math
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from groundsim import harness, reasoner
from groundsim.agents import diff_generics, learner_integrate_generics
from groundsim.exact import CompiledProgram, MarginalTable, solve_exact
from groundsim.harness import DIFFICULTIES, ExperimentConfig, run_sequence
from groundsim.logic import (
    HAVE,
    Atom,
    Const,
    Var,
    attr_pred,
    cls_pred,
    skolemize_part_description,
)
from groundsim.memory import EXPLICIT, NEG_IMPLICATURE, KnowledgeBase
from groundsim.perception import DomainSpec, SceneGraph, SceneNode
from groundsim.program import BodyGroup, HARD, ground, logit, program_to_text, rule_to_text
from groundsim.reasoner import (
    ReliabilityParams,
    UnknownPredicateError,
    answer_polar,
    build_program,
    classify,
    kb_to_program,
    marginals_each,
    marginals_for,
    polar_ques,
    scene_to_program,
)
from genprograms import restrict
from test_acceptance import _conj_part_prop, _fresh_learner, _generic, _kb

GOLDEN = Path(__file__).parent / "golden"


def make_scene(
    class_scores: dict, attr_scores: dict | None = None, parts: list | None = None
) -> SceneGraph:
    """Single object o1 with optional part entities carrying attr scores."""
    nodes = {"o1": SceneNode(class_scores=dict(class_scores))}
    edges = {}
    object_parts = {"o1": []}
    for pe, scores in (parts or []):
        nodes[pe] = SceneNode(
            class_scores=dict(scores.get("class", {})),
            attr_scores=dict(scores.get("attr", {})),
        )
        edges[("o1", pe)] = {"have": 1.0}
        object_parts["o1"].append(pe)
    if attr_scores:
        nodes["o1"].attr_scores = dict(attr_scores)
    return SceneGraph(nodes=nodes, edges=edges, object_parts=object_parts)


# ---------------------------------------------------------------------------
# translation


def test_scene_to_program_is_deterministically_ordered():
    sg = make_scene(
        {"burgundyGlass": 0.62, "brandyGlass": 0.61},
        parts=[("o1_stem", {"class": {"stem": 0.9}, "attr": {"short": 0.8}})],
    )
    texts = [rule_to_text(r) for r in scene_to_program(sg)]
    assert texts == [
        "0.447312| brandyGlass(o1).",
        "0.489548| burgundyGlass(o1).",
        "2.197225| stem(o1_stem).",
        "1.386294| short(o1_stem).",
        "13.815510| have(o1,o1_stem).",
    ]


def test_kb_to_program_groups_shared_consequents():
    kb = _kb(
        _generic("brandyGlass", "haveShortStem"),
        _generic("snifter", "haveShortStem"),
    )
    rules = list(kb_to_program(kb))
    constraints = [r for r in rules if r.is_constraint()]
    # two deductive constraints + one shared abductive constraint
    assert len(constraints) == 3
    abductive = constraints[-1]
    assert len(abductive.neg_body) == 2


def test_kb_to_program_negated_consequent_skips_abduction():
    rules = list(kb_to_program(_kb(_generic("burgundyGlass", "haveShortStem", neg=True))))
    assert len(rules) == 1
    assert rule_to_text(rules[0]) == "2.944439| :- burgundyGlass(O), haveShortStem(O)."


def test_kb_to_program_uses_reliability_weights():
    u = ReliabilityParams(u_d=0.8, u_a=0.9)
    rules = list(kb_to_program(_kb(_generic("brandyGlass", "haveShortStem")), u))
    assert math.isclose(rules[0].weight, math.log(4), rel_tol=1e-9)
    assert math.isclose(rules[1].weight, math.log(9), rel_tol=1e-9)


def test_kb_to_program_skolemized_consequent_becomes_body_group():
    prop = skolemize_part_description(
        cls_pred("brandyGlass"), attr_pred("short"), cls_pred("stem")
    )
    rules = list(kb_to_program(_kb(prop)))
    assert isinstance(rules[0].neg_body[0], BodyGroup)
    assert rules[0].neg_body[0].aux_name == "aux_have_short_stem"


def test_kb_to_program_text_names_skolem_terms():
    prop = skolemize_part_description(
        cls_pred("brandyGlass"), attr_pred("short"), cls_pred("stem")
    )
    sk = "sk_brandyGlass_stem(O)"
    group = f"{{have(O,{sk}) & short({sk}) & stem({sk})}}"
    assert program_to_text(kb_to_program(_kb(prop))).splitlines() == [
        f"2.944439| :- brandyGlass(O), not {group}.",
        f"2.944439| :- {group}, not brandyGlass(O).",
    ]


def test_build_program_grounds_over_scene_objects():
    sg = make_scene(
        {"brandyGlass": 0.61},
        parts=[("o1_stem", {"class": {"stem": 0.9}, "attr": {"short": 0.9}})],
    )
    prop = skolemize_part_description(
        cls_pred("brandyGlass"), attr_pred("short"), cls_pred("stem")
    )
    prog = build_program(sg, _kb(prop))
    aux_defs = [r for r in prog if r.weight is HARD and r.head is not None]
    assert len(aux_defs) == 1
    assert aux_defs[0].head == Atom(cls_pred("aux_have_short_stem"), (Const("o1"),))


def test_grounded_fineHard_kb_matches_golden():
    # a semNegScal learner told every conceptDiff answer of fineHard, one
    # unordered pair per episode, grounded over one object with a bowl and a stem
    domain = DomainSpec.builtin_glasses()
    learner = _fresh_learner("semNegScal")
    pairs = combinations(DIFFICULTIES["fineHard"]["classes"], 2)
    for episode, (p, q) in enumerate(pairs, 1):
        statements = diff_generics(domain, p, q)
        learner_integrate_generics(learner, statements, (cls_pred(p), cls_pred(q)), episode)
    prog = ground(kb_to_program(learner.kb), ["o1"], {"o1": ["o1_bowl", "o1_stem"]})
    golden = (GOLDEN / "kb_fineHard_grounded.lp").read_bytes()
    assert program_to_text(prog).encode() == golden


# ---------------------------------------------------------------------------
# queries


def _u():
    return ReliabilityParams()


def test_marginals_for_restricts_to_query_component():
    sg = make_scene({"brandyGlass": 0.61, "burgundyGlass": 0.62, "haveShortStem": 0.9})
    kb = _kb(_generic("brandyGlass", "haveShortStem"))
    atom = Atom(cls_pred("burgundyGlass"), (Const("o1"),))
    table = marginals_for(sg, kb, _u(), [atom])
    # burgundy is independent of the brandy/stem component
    assert math.isclose(table[atom], 0.62, abs_tol=1e-12)
    assert Atom(cls_pred("brandyGlass"), (Const("o1"),)) not in table.probs


def test_marginals_for_unknown_atom_raises():
    sg = make_scene({"brandyGlass": 0.61})
    with pytest.raises(UnknownPredicateError):
        marginals_for(sg, _kb(), _u(), [Atom(cls_pred("nope"), (Const("o1"),))])


def test_answer_polar_and_negation():
    sg = make_scene({"brandyGlass": 0.61, "burgundyGlass": 0.62, "haveShortStem": 0.9})
    kb = _kb(_generic("brandyGlass", "haveShortStem"))
    p = answer_polar(sg, kb, _u(), polar_ques("brandyGlass", "o1"))
    assert math.isclose(p, 0.9057320441988949, abs_tol=1e-9)
    p_neg = answer_polar(sg, kb, _u(), polar_ques("brandyGlass", "o1", negated=True))
    assert math.isclose(p + p_neg, 1.0, abs_tol=1e-12)


def test_answer_polar_rejects_non_polar():
    sg = make_scene({"brandyGlass": 0.61})
    from groundsim.logic import Ques

    with pytest.raises(ValueError):
        answer_polar(sg, _kb(), _u(), Ques("conceptDiff", pair=(cls_pred("a"), cls_pred("b"))))


def test_classify_argmax_and_threshold():
    sg = make_scene({"brandyGlass": 0.61, "burgundyGlass": 0.62})
    assert classify(sg, _kb(), _u(), ["brandyGlass", "burgundyGlass"], "o1") == "burgundyGlass"
    # nothing clears the 0.5 prior strictly: not sure
    flat = make_scene({"brandyGlass": 0.5, "burgundyGlass": 0.5})
    assert classify(flat, _kb(), _u(), ["brandyGlass", "burgundyGlass"], "o1") is None


def test_classify_tie_breaks_lexicographically():
    sg = make_scene({"brandyGlass": 0.8, "burgundyGlass": 0.8})
    assert classify(sg, _kb(), _u(), ["burgundyGlass", "brandyGlass"], "o1") == "brandyGlass"


def test_classify_requires_candidates():
    sg = make_scene({"brandyGlass": 0.61})
    with pytest.raises(ValueError):
        classify(sg, _kb(), _u(), [], "o1")


def test_knowledge_changes_classification():
    # raw vision prefers burgundy; a confidently seen short stem plus the
    # brandy rule flips the decision
    sg = make_scene({"brandyGlass": 0.61, "burgundyGlass": 0.62, "haveShortStem": 0.9})
    kb = _kb(_generic("brandyGlass", "haveShortStem"))
    assert classify(sg, _kb(), _u(), ["brandyGlass", "burgundyGlass"], "o1") == "burgundyGlass"
    assert classify(sg, kb, _u(), ["brandyGlass", "burgundyGlass"], "o1") == "brandyGlass"


# ---------------------------------------------------------------------------
# grounding only the queried objects

CLASSES = ("brandyGlass", "burgundyGlass", "champagneCoupe")
PARTS = ("bowl", "stem")
ATTRS = ("short", "tall", "wide")


def make_multi_scene(n_objects: int = 3, seed: int = 0) -> SceneGraph:
    """Objects o1..on, each with one part entity per part kind; every score
    drawn from a fixed stream."""
    rng = np.random.default_rng(seed)

    def scores(names):
        return {n: float(rng.uniform(0.05, 0.95)) for n in names}

    nodes, edges, object_parts = {}, {}, {}
    for k in range(1, n_objects + 1):
        o = f"o{k}"
        nodes[o] = SceneNode(class_scores=scores(CLASSES + PARTS))
        object_parts[o] = []
        for part in PARTS:
            pe = f"{o}_{part}"
            nodes[pe] = SceneNode(
                class_scores=scores(CLASSES + PARTS),
                attr_scores=scores(ATTRS),
            )
            edges[(o, pe)] = scores(["have"])
            object_parts[o].append(pe)
    return SceneGraph(nodes=nodes, edges=edges, object_parts=object_parts)


def _part_generic(cls: str, attr: str, part: str):
    return skolemize_part_description(cls_pred(cls), attr_pred(attr), cls_pred(part))


def mixed_kb() -> KnowledgeBase:
    """Skolemized generics, two of them sharing a consequent (one abductive
    group), and a negated conjoined consequent."""
    kb = KnowledgeBase()
    kb.add(_part_generic("brandyGlass", "short", "stem"), EXPLICIT, 1)
    kb.add(_part_generic("champagneCoupe", "short", "stem"), EXPLICIT, 2)
    kb.add(_part_generic("burgundyGlass", "tall", "stem"), EXPLICIT, 2)
    kb.add(_conj_part_prop("burgundyGlass", ["short", "wide"], "bowl", neg=True), NEG_IMPLICATURE, 2)
    return kb


def _cls(name: str, eid: str) -> Atom:
    return Atom(cls_pred(name), (Const(eid),))


QUERIES = {
    "classes of one object": [_cls(c, "o2") for c in CLASSES],
    "two objects at once": [_cls("brandyGlass", "o1"), _cls("burgundyGlass", "o3")],
}


def test_mixed_kb_has_the_shapes_the_differential_test_needs():
    rules = list(kb_to_program(mixed_kb()))
    abductive = [r for r in rules if len(r.neg_body) > 1]
    assert len(abductive) == 1 and isinstance(abductive[0].pos_body[0], BodyGroup)
    assert any(isinstance(r.pos_body[-1], BodyGroup) and not r.neg_body for r in rules)


def _moved(atom: Atom, old: str, new: str) -> Atom:
    """`atom` with object `old` and its parts renamed to `new` and its parts."""
    return Atom(atom.pred, tuple(Const(new + t.ident[len(old) :]) for t in atom.args))


def _spy_compile(monkeypatch) -> list:
    """Record every program a query compiles, as compiled."""
    compiled = []

    class SpyCompiledProgram(CompiledProgram):
        @classmethod
        def compile(cls, program):
            compiled.append(CompiledProgram.compile(program))
            return compiled[-1]

    monkeypatch.setattr(reasoner, "CompiledProgram", SpyCompiledProgram)
    return compiled


def _spy_query_path(monkeypatch):
    """Record the entities of every `ground` call, every program compiled
    and every compiled program solved by `marginals_for` or
    `marginals_each`, one weight row per query list."""
    calls = {"ground": [], "compile": _spy_compile(monkeypatch), "solve": []}
    real_ground, real_solve = reasoner.ground, reasoner.solve_exact

    def spy_ground(prog, entities, parts):
        calls["ground"].append(list(entities))
        return real_ground(prog, entities, parts)

    def spy_solve(compiled):
        calls["solve"].append(compiled)
        return real_solve(compiled)

    monkeypatch.setattr(reasoner, "ground", spy_ground)
    monkeypatch.setattr(reasoner, "solve_exact", spy_solve)
    return calls


def _uncached(sg, kb, u, queries):
    """The marginals of the whole scene's program, built, restricted and
    solved with nothing reused."""
    (table,) = solve_exact(restrict(build_program(sg, kb, u), queries))
    return table


def _uncached_table(sg, kb, u, queries) -> MarginalTable:
    """`_uncached` read for the query atoms, as `marginals_for` returns it."""
    expected = _uncached(sg, kb, u, queries)
    return MarginalTable({q: expected.probs[q] for q in queries}, log_z=expected.log_z)


def _query_matches_uncached(sg, kb, u, queries, calls) -> tuple[int, int]:
    """Check `marginals_for` `==` `_uncached`; return how many times the
    query grounded and how many times it compiled a program."""
    expected = _uncached(sg, kb, u, queries)
    grounds, compiles = len(calls["ground"]), len(calls["compile"])
    table = marginals_for(sg, kb, u, queries)
    assert table.probs == {q: expected.probs[q] for q in queries}
    assert table.log_z == expected.log_z
    return len(calls["ground"]) - grounds, len(calls["compile"]) - compiles


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_marginals_for_matches_the_restricted_full_program(name, monkeypatch):
    sg, kb = make_multi_scene(), mixed_kb()
    u = ReliabilityParams(u_d=0.9, u_a=0.8)
    queries = QUERIES[name]
    reference = restrict(build_program(sg, kb, u), queries)
    (expected,) = solve_exact(reference)
    assert any(r.head is not None and r.pos_body for r in reference)  # the skolemized rules are in play

    calls = _spy_query_path(monkeypatch)
    table = marginals_for(sg, kb, u, queries)
    # one compile, whose kept plans are those of the restricted program
    assert len(calls["compile"]) == 1
    solved = [p.rules for p in calls["solve"][0].plans]
    assert solved == [p.rules for p in CompiledProgram.compile(reference).plans]
    assert table.probs == {q: expected.probs[q] for q in queries}
    assert table.log_z == expected.log_z
    owners = sorted({t.ident.split("_")[0] for q in queries for t in q.args})
    assert calls["ground"] == [owners]

    if len(owners) > 1:
        # queries on two objects have a plan key too: asking again hits it,
        # in either order
        moved = [queries, queries[::-1]]
    else:
        # the same queries on another object have the same plan key, and so
        # have the same queries reversed, on a third object
        first, second = (o for o in ("o1", "o2", "o3") if o != owners[0])
        moved = [
            [_moved(q, owners[0], first) for q in queries],
            [_moved(q, owners[0], second) for q in reversed(queries)],
        ]
    # so nothing is grounded or compiled again
    for m in moved:
        assert _query_matches_uncached(sg, kb, u, m, calls) == (0, 0)
    # a revision bump compiles again
    kb.add(_part_generic("brandyGlass", "wide", "bowl"), EXPLICIT, 3)
    assert _query_matches_uncached(sg, kb, u, moved[0], calls) == (1, 1)


def test_marginals_for_keeps_one_component_per_fact_without_kb(monkeypatch):
    calls = _spy_query_path(monkeypatch)
    sg, kb = make_multi_scene(), KnowledgeBase()
    atom = _cls("brandyGlass", "o2")
    assert _query_matches_uncached(sg, kb, _u(), [atom], calls) == (1, 1)
    assert [[r.head for r in p.rules] for p in calls["solve"][0].plans] == [[atom]]
    table = marginals_for(sg, kb, _u(), [atom])
    assert math.isclose(table[atom], sg.nodes["o2"].class_scores["brandyGlass"], abs_tol=1e-12)

    # the same query on another object reuses the plan
    assert _query_matches_uncached(sg, kb, _u(), [_cls("brandyGlass", "o3")], calls) == (0, 0)
    assert len(calls["compile"]) == 1
    # a revision bump compiles again
    kb.add(_part_generic("brandyGlass", "short", "stem"), EXPLICIT, 1)
    assert _query_matches_uncached(sg, kb, _u(), [_cls("brandyGlass", "o3")], calls) == (1, 1)


@pytest.mark.parametrize(
    "unknown",
    [
        _cls("nope", "o1"),  # predicate the program lacks
        _cls("brandyGlass", "o9"),  # object not in the scene
        Atom(attr_pred("short"), (Const("o9_stem"),)),  # part of no scene object
        Atom(cls_pred("brandyGlass"), (Var("X"),)),  # not ground
        # in the bodies of the skolemized rules: the solver sums them out
        Atom(attr_pred("short"), (Const("o1_stem"),)),
        Atom(HAVE, (Const("o3"), Const("o3_stem"))),
    ],
)
def test_marginals_for_raises_for_atoms_the_program_lacks(unknown):
    sg, kb = make_multi_scene(), mixed_kb()
    with pytest.raises(UnknownPredicateError):
        marginals_for(sg, kb, _u(), [unknown])
    with pytest.raises(UnknownPredicateError):
        marginals_for(sg, kb, _u(), [_cls("brandyGlass", "o1"), unknown])


@pytest.mark.parametrize(
    "unknown, message",
    [
        (_cls("nope", "o1"), "atoms the program does not solve: nope(o1)"),
        (Atom(cls_pred("brandyGlass"), (Var("X"),)), "query atom is not ground: brandyGlass(X)"),
        (
            Atom(attr_pred("short"), (Const("o1_stem"),)),
            "atoms the program does not solve: short(o1_stem)",
        ),
    ],
)
def test_unknown_atom_errors_print_atoms_as_text(unknown, message):
    sg, kb = make_multi_scene(), mixed_kb()
    with pytest.raises(UnknownPredicateError) as err:
        marginals_for(sg, kb, _u(), [unknown])
    assert err.value.args == (message,)


def test_one_error_lists_absent_and_summed_out_atoms_in_query_order():
    sg, kb = make_multi_scene(), mixed_kb()
    absent, summed_out = _cls("nope", "o1"), Atom(attr_pred("short"), (Const("o1_stem"),))
    for queries, listed in (
        ([absent, _cls("brandyGlass", "o1"), summed_out], "nope(o1), short(o1_stem)"),
        ([summed_out, absent], "short(o1_stem), nope(o1)"),
    ):
        with pytest.raises(UnknownPredicateError) as err:
            marginals_for(sg, kb, _u(), queries)
        assert err.value.args == (f"atoms the program does not solve: {listed}",)


def test_a_miss_without_kb_keeps_one_plan_per_query_atom(monkeypatch):
    calls = _spy_query_path(monkeypatch)
    sg, kb = make_multi_scene(), KnowledgeBase()
    queries = [_cls(c, "o2") for c in CLASSES] + [Atom(attr_pred("short"), (Const("o2_stem"),))]
    assert _query_matches_uncached(sg, kb, _u(), queries, calls) == (1, 1)
    # every soft fact of o2, its two parts and their edges is a component of its own
    (compiled,) = calls["compile"]
    assert len(compiled.plans) == 5 + 2 * (5 + 3) + 2
    (solved,) = calls["solve"]
    kept = [([r.head for r in p.rules], [a for _, a in p.outputs]) for p in solved.plans]
    assert sorted(kept, key=str) == sorted((([q], [q]) for q in queries), key=str)


# ---------------------------------------------------------------------------
# query plans, one per plan key and KB revision


def test_kbs_at_one_revision_never_share_a_plan(monkeypatch):
    calls = _spy_query_path(monkeypatch)
    sg, u = make_multi_scene(), _u()
    queries = [_cls(c, "o2") for c in CLASSES]
    first, second = mixed_kb(), KnowledgeBase()
    for cls, attr, part in (
        ("brandyGlass", "wide", "bowl"),
        ("burgundyGlass", "short", "stem"),
        ("champagneCoupe", "wide", "bowl"),
        ("brandyGlass", "tall", "stem"),
    ):
        second.add(_part_generic(cls, attr, part), EXPLICIT, 1)
    assert first.revision == second.revision
    assert _query_matches_uncached(sg, first, u, queries, calls) == (1, 1)
    assert _query_matches_uncached(sg, second, u, queries, calls) == (1, 1)
    assert marginals_for(sg, first, u, queries).probs != marginals_for(sg, second, u, queries).probs


def test_another_u_gets_its_own_plan(monkeypatch):
    calls = _spy_query_path(monkeypatch)
    sg, kb = make_multi_scene(), mixed_kb()
    queries = [_cls(c, "o2") for c in CLASSES]
    other = ReliabilityParams(u_d=0.7, u_a=0.6)
    assert _query_matches_uncached(sg, kb, _u(), queries, calls) == (1, 1)
    assert _query_matches_uncached(sg, kb, other, queries, calls) == (1, 1)
    assert _query_matches_uncached(sg, kb, other, queries, calls) == (0, 0)


def test_an_object_with_another_part_layout_gets_its_own_plan(monkeypatch):
    calls = _spy_query_path(monkeypatch)
    sg, kb, u = make_multi_scene(), mixed_kb(), _u()
    # o2 loses its bowl, and o3's stem gets another id: a different sort order
    sg.object_parts["o2"] = ["o2_stem"]
    sg.object_parts["o3"] = ["o3_bowl", "o3_a"]
    sg.nodes["o3_a"] = sg.nodes["o3_stem"]
    sg.edges[("o3", "o3_a")] = sg.edges[("o3", "o3_stem")]
    for o, compiles in (("o1", (1, 1)), ("o2", (1, 1)), ("o3", (1, 1)), ("o1", (0, 0))):
        queries = [_cls(c, o) for c in CLASSES]
        assert _query_matches_uncached(sg, kb, u, queries, calls) == compiles


def test_an_object_with_other_score_names_gets_its_own_plan(monkeypatch):
    calls = _spy_query_path(monkeypatch)
    sg, kb, u = make_multi_scene(), mixed_kb(), _u()
    del sg.nodes["o3_stem"].attr_scores["short"]
    queries = {o: [_cls(c, o) for c in CLASSES] for o in ("o1", "o2", "o3")}
    assert _query_matches_uncached(sg, kb, u, queries["o1"], calls) == (1, 1)
    assert _query_matches_uncached(sg, kb, u, queries["o2"], calls) == (0, 0)
    assert _query_matches_uncached(sg, kb, u, queries["o3"], calls) == (1, 1)


def test_one_batch_solves_each_plan_key_once_and_keeps_the_input_order(monkeypatch):
    calls = _spy_query_path(monkeypatch)
    sg, kb, u = make_multi_scene(), mixed_kb(), _u()
    del sg.nodes["o3_stem"].attr_scores["short"]
    # o1 and o2 share a plan key, o3 has its own
    lists = [[_cls(c, o) for c in CLASSES] for o in ("o1", "o3", "o2", "o1")]
    lists[2].reverse()
    tables = marginals_each(sg, kb, u, lists)
    assert len(calls["compile"]) == 2
    # one solve per plan key, with one weight row per query list
    assert [len(compiled.weights) for compiled in calls["solve"]] == [3, 1]
    for queries, table in zip(lists, tables):
        assert list(table.probs) == queries
        assert table == marginals_for(sg, kb, u, queries)
        assert table == _uncached_table(sg, kb, u, queries)


def _renamed(sg: SceneGraph, renames: dict) -> SceneGraph:
    """`sg` with the entities `renames` names given their new ids."""

    def r(e):
        return renames.get(e, e)

    return SceneGraph(
        nodes={r(e): n for e, n in sg.nodes.items()},
        edges={(r(i), r(j)): s for (i, j), s in sg.edges.items()},
        object_parts={r(o): [r(p) for p in parts] for o, parts in sg.object_parts.items()},
    )


def test_objects_whose_part_ids_do_not_extend_their_own_get_a_plan(monkeypatch):
    calls = _spy_query_path(monkeypatch)
    kb, u = mixed_kb(), _u()
    # the parts of o2 and o3 sort before their objects, unlike those of o1
    sg = _renamed(
        make_multi_scene(),
        {f"o{k}_{part}": f"a{k}_{part}" for k in (2, 3) for part in PARTS},
    )
    for o, stem, compiles in (
        ("o2", "a2_stem", (1, 1)),
        ("o3", "a3_stem", (0, 0)),  # the same layout reuses o2's plan
        ("o1", "o1_stem", (1, 1)),
    ):
        queries = [_cls(c, o) for c in CLASSES] + [_cls("brandyGlass", stem)]
        assert _query_matches_uncached(sg, kb, u, queries, calls) == compiles


def test_objects_whose_entity_ids_interleave_get_their_own_plan(monkeypatch):
    calls = _spy_query_path(monkeypatch)
    kb, u = mixed_kb(), _u()
    # "o1A" < "o1A_bowl" < "o1_bowl": o1A and its parts sort between o1 and
    # o1's parts
    sg = _renamed(
        make_multi_scene(),
        {"o3": "o1A", **{f"o3_{part}": f"o1A_{part}" for part in PARTS}},
    )
    for a, b, compiles in (
        ("o1", "o2", (1, 1)),
        ("o1", "o1A", (1, 1)),
        ("o1A", "o2", (0, 0)),  # entity ids in the order of o1's and o2's
    ):
        queries = [
            _cls("brandyGlass", a),
            _cls("burgundyGlass", b),
            _cls("champagneCoupe", f"{b}_stem"),
        ]
        assert _query_matches_uncached(sg, kb, u, queries, calls) == compiles


def test_unknown_atoms_raise_with_a_warm_cache():
    sg, kb = make_multi_scene(), mixed_kb()
    marginals_for(sg, kb, _u(), [_cls("brandyGlass", "o1")])
    marginals_for(sg, kb, _u(), [_cls("brandyGlass", "o2")])
    for unknown in (
        _cls("nope", "o1"),
        _cls("brandyGlass", "o9"),
        Atom(attr_pred("short"), (Const("o1_stem"),)),
    ):
        with pytest.raises(UnknownPredicateError):
            marginals_for(sg, kb, _u(), [unknown])
        with pytest.raises(UnknownPredicateError):
            marginals_for(sg, kb, _u(), [unknown])
    with pytest.raises(UnknownPredicateError):
        marginals_for(sg, kb, _u(), [_cls("brandyGlass", "o1"), _cls("nope", "o1")])


@pytest.mark.parametrize(
    "difficulty, strategies",
    [
        ("fineEasy", ("maxHelp_semNegScal",)),
        ("fineHard", ("maxHelp_semNegScal",)),
        ("fineEasy", ("minHelp", "medHelp")),
    ],
)
def test_every_query_of_a_cell_matches_the_uncached_path(difficulty, strategies, monkeypatch):
    """Each query list of a seed-0 cell, asked alone (`marginals_for`) or
    with the rest of an exam's (`marginals_each`), is `==` to building,
    restricting and solving its objects' program afresh."""
    real_each = reasoner.marginals_each
    compiled = _spy_compile(monkeypatch)
    queried, compiles, batches = [], [], []

    def checked_each(sg, kb, u, query_lists):
        batches.append(len(query_lists))
        before, known = len(compiled), set(kb.memo(u, dict))
        new = {}  # plan key -> its codes, for the keys this call must compile
        for queries in query_lists:
            key, codes, _, _, _ = reasoner._plan_key(sg, queries)
            if key not in known:
                new.setdefault(key, frozenset(codes))
        tables = real_each(sg, kb, u, query_lists)
        assert len(compiled) - before == len(new)
        compiles.extend((kb.revision, codes) for codes in new.values())
        for queries, table in zip(query_lists, tables):
            scene = reasoner._plan_key(sg, queries)[4]
            (expected,) = solve_exact(restrict(build_program(scene, kb, u), queries))
            assert table.probs == {q: expected.probs[q] for q in queries}
            assert table.log_z == expected.log_z
            queried.append(kb.revision)
        return tables

    # `marginals_for` asks through `reasoner.marginals_each`, exams through
    # `harness.marginals_each`
    monkeypatch.setattr(reasoner, "marginals_each", checked_each)
    monkeypatch.setattr(harness, "marginals_each", checked_each)
    config = ExperimentConfig(difficulty=difficulty, strategies=strategies, seeds=(0,))
    for strategy in strategies:
        compiles.clear()
        run_sequence(config, strategy, 0)
        # one plan per KB revision and set of query atoms, whatever their order
        assert len(set(compiles)) == len(compiles)
    # the episodes' queries one by one, and each exam's test objects at once
    assert set(batches) == {1, config.test_set_size * len(config.classes)}
    # plans are compiled per key and revision, not per query
    assert len(compiled) * 10 < len(queried)


# ---------------------------------------------------------------------------
# plans across KB revisions


def test_plans_are_reused_until_the_kb_or_u_changes(monkeypatch):
    calls = _spy_query_path(monkeypatch)
    removed = []
    real_remove = KnowledgeBase.remove

    def recording_remove(self, entry):  # as the suite20 fixture patches it
        removed.append(frozenset(entry.provenance))
        return real_remove(self, entry)

    monkeypatch.setattr(KnowledgeBase, "remove", recording_remove)

    sg, u = make_multi_scene(), _u()
    queries = [_cls(c, "o1") for c in CLASSES]
    p1 = _part_generic("brandyGlass", "short", "stem")
    p2 = _part_generic("champagneCoupe", "short", "stem")
    kb = KnowledgeBase()

    def query(u, expected_compiles):
        """Marginals on `kb` (twice), checked against a fresh KB with the
        same entries; the first of the two queries on `kb` must compile
        `expected_compiles` plans and the second none."""
        before = len(calls["compile"])
        got = marginals_for(sg, kb, u, queries)
        assert len(calls["compile"]) - before == expected_compiles
        again = marginals_for(sg, kb, u, queries)
        assert len(calls["compile"]) - before == expected_compiles
        fresh = KnowledgeBase()
        for e in kb:
            fresh.add(e.prop, EXPLICIT, 0)
        want = marginals_for(sg, fresh, u, queries)
        assert got.probs == want.probs == again.probs and got.log_z == want.log_z
        return got.probs

    empty = query(u, 1)
    kb.add(p1, EXPLICIT, 1)
    assert kb.revision == 1
    with_p1 = query(u, 1)
    assert with_p1 != empty
    kb.add(p1, NEG_IMPLICATURE, 2)  # provenance only
    assert kb.revision == 1
    query(u, 0)
    entry = kb.add(p2, EXPLICIT, 3)
    assert kb.revision == 2
    query(u, 1)
    kb.remove(next(iter(kb)))
    assert kb.revision == 3 and removed == [frozenset({EXPLICIT, NEG_IMPLICATURE})]
    query(u, 1)
    kb.add(p1, EXPLICIT, 4)
    assert kb.revision == 4 and next(iter(kb)) is entry
    query(u, 1)

    other = ReliabilityParams(u_d=0.7, u_a=0.6)
    query(other, 1)
    assert {r.weight for r in kb_to_program(kb, other)} == {logit(0.7), logit(0.6)}
    query(u, 1)
    assert {r.weight for r in kb_to_program(kb, u)} == {logit(u.u_d), logit(u.u_a)}
    assert kb_to_program(kb, u).rules is not kb_to_program(kb, u).rules
