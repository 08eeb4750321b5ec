"""Reasoner: scene/KB translation into programs, query restriction,
polar answering and multiple-choice classification."""

import math

import numpy as np
import pytest

from groundsim import reasoner
from groundsim.exact import solve_exact
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
from groundsim.perception import SceneGraph, SceneNode, BBox
from groundsim.program import BodyGroup, HARD, logit, rule_to_text
from groundsim.reasoner import (
    ReliabilityParams,
    UnknownPredicateError,
    _restrict,
    answer_polar,
    build_program,
    classify,
    kb_to_program,
    marginals_for,
    polar_ques,
    scene_to_program,
)
from test_acceptance import _conj_part_prop, _generic


def make_scene(
    class_scores: dict, attr_scores: dict | None = None, parts: list | None = None
) -> SceneGraph:
    """Single object o1 with optional part entities carrying attr scores."""
    nodes = {"o1": SceneNode(bbox=BBox(0, 0, 1, 1), class_scores=dict(class_scores))}
    edges = {}
    object_parts = {"o1": []}
    for pe, scores in (parts or []):
        nodes[pe] = SceneNode(
            bbox=BBox(0, 0, 0.5, 0.5),
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
    kb = [
        _generic("brandyGlass", "haveShortStem"),
        _generic("snifter", "haveShortStem"),
    ]
    rules = list(kb_to_program(kb))
    constraints = [r for r in rules if r.is_constraint()]
    # two deductive constraints + one shared abductive constraint
    assert len(constraints) == 3
    abductive = constraints[-1]
    assert len(abductive.neg_body) == 2


def test_kb_to_program_negated_consequent_skips_abduction():
    rules = list(kb_to_program([_generic("burgundyGlass", "haveShortStem", neg=True)]))
    assert len(rules) == 1
    assert rule_to_text(rules[0]) == "2.944439| :- burgundyGlass(O), haveShortStem(O)."


def test_kb_to_program_uses_reliability_weights():
    u = ReliabilityParams(u_d=0.8, u_a=0.9)
    rules = list(kb_to_program([_generic("brandyGlass", "haveShortStem")], u))
    assert math.isclose(rules[0].weight, math.log(4), rel_tol=1e-9)
    assert math.isclose(rules[1].weight, math.log(9), rel_tol=1e-9)


def test_kb_to_program_skolemized_consequent_becomes_body_group():
    prop = skolemize_part_description(
        cls_pred("brandyGlass"), attr_pred("short"), cls_pred("stem")
    )
    rules = list(kb_to_program([prop]))
    assert isinstance(rules[0].neg_body[0], BodyGroup)
    assert rules[0].neg_body[0].aux_name == "aux_have_short_stem"


def test_kb_to_program_rejects_ground_props():
    from test_logic import ground_prop

    with pytest.raises(ValueError):
        kb_to_program([ground_prop("brandyGlass")])


def test_kb_to_program_accepts_entries_and_props():
    kb = KnowledgeBase()
    kb.add(_generic("brandyGlass", "haveShortStem"), EXPLICIT, 1)
    assert len(kb_to_program(kb)) == len(
        kb_to_program([_generic("brandyGlass", "haveShortStem")])
    )


def test_build_program_grounds_over_scene_objects():
    sg = make_scene(
        {"brandyGlass": 0.61},
        parts=[("o1_stem", {"class": {"stem": 0.9}, "attr": {"short": 0.9}})],
    )
    prop = skolemize_part_description(
        cls_pred("brandyGlass"), attr_pred("short"), cls_pred("stem")
    )
    prog = build_program(sg, [prop])
    aux_defs = [r for r in prog if r.weight is HARD and r.head is not None]
    assert len(aux_defs) == 1
    assert aux_defs[0].head == Atom(cls_pred("aux_have_short_stem"), (Const("o1"),))


# ---------------------------------------------------------------------------
# queries


def _u():
    return ReliabilityParams()


def test_marginals_for_restricts_to_query_component():
    sg = make_scene({"brandyGlass": 0.61, "burgundyGlass": 0.62, "haveShortStem": 0.9})
    kb = [_generic("brandyGlass", "haveShortStem")]
    atom = Atom(cls_pred("burgundyGlass"), (Const("o1"),))
    table = marginals_for(sg, kb, _u(), [atom])
    # burgundy is independent of the brandy/stem component
    assert math.isclose(table[atom], 0.62, abs_tol=1e-12)
    assert Atom(cls_pred("brandyGlass"), (Const("o1"),)) not in table.probs


def test_marginals_for_unknown_atom_raises():
    sg = make_scene({"brandyGlass": 0.61})
    with pytest.raises(UnknownPredicateError):
        marginals_for(sg, [], _u(), [Atom(cls_pred("nope"), (Const("o1"),))])


def test_answer_polar_and_negation():
    sg = make_scene({"brandyGlass": 0.61, "burgundyGlass": 0.62, "haveShortStem": 0.9})
    kb = [_generic("brandyGlass", "haveShortStem")]
    p = answer_polar(sg, kb, _u(), polar_ques("brandyGlass", "o1"))
    assert math.isclose(p, 0.9057320441988949, abs_tol=1e-9)
    p_neg = answer_polar(sg, kb, _u(), polar_ques("brandyGlass", "o1", negated=True))
    assert math.isclose(p + p_neg, 1.0, abs_tol=1e-12)


def test_answer_polar_rejects_non_polar():
    sg = make_scene({"brandyGlass": 0.61})
    from groundsim.logic import Ques

    with pytest.raises(ValueError):
        answer_polar(sg, [], _u(), Ques("conceptDiff", pair=(cls_pred("a"), cls_pred("b"))))


def test_classify_argmax_and_threshold():
    sg = make_scene({"brandyGlass": 0.61, "burgundyGlass": 0.62})
    assert classify(sg, [], _u(), ["brandyGlass", "burgundyGlass"], "o1") == "burgundyGlass"
    # nothing clears the 0.5 prior strictly: not sure
    flat = make_scene({"brandyGlass": 0.5, "burgundyGlass": 0.5})
    assert classify(flat, [], _u(), ["brandyGlass", "burgundyGlass"], "o1") is None


def test_classify_tie_breaks_lexicographically():
    sg = make_scene({"brandyGlass": 0.8, "burgundyGlass": 0.8})
    assert classify(sg, [], _u(), ["burgundyGlass", "brandyGlass"], "o1") == "brandyGlass"


def test_classify_requires_candidates():
    sg = make_scene({"brandyGlass": 0.61})
    with pytest.raises(ValueError):
        classify(sg, [], _u(), [], "o1")


def test_knowledge_changes_classification():
    # raw vision prefers burgundy; a confidently seen short stem plus the
    # brandy rule flips the decision
    sg = make_scene({"brandyGlass": 0.61, "burgundyGlass": 0.62, "haveShortStem": 0.9})
    kb = [_generic("brandyGlass", "haveShortStem")]
    assert classify(sg, [], _u(), ["brandyGlass", "burgundyGlass"], "o1") == "burgundyGlass"
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
        nodes[o] = SceneNode(bbox=BBox(0, 0, 1, 1), class_scores=scores(CLASSES + PARTS))
        object_parts[o] = []
        for part in PARTS:
            pe = f"{o}_{part}"
            nodes[pe] = SceneNode(
                bbox=BBox(0, 0, 0.5, 0.5),
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
    "attribute of a part": [Atom(attr_pred("short"), (Const("o2_stem"),))],
    "two objects at once": [_cls("brandyGlass", "o1"), _cls("burgundyGlass", "o3")],
    "have edge": [Atom(HAVE, (Const("o3"), Const("o3_stem")))],
}


def test_mixed_kb_has_the_shapes_the_differential_test_needs():
    rules = list(kb_to_program(mixed_kb()))
    abductive = [r for r in rules if len(r.neg_body) > 1]
    assert len(abductive) == 1 and isinstance(abductive[0].pos_body[0], BodyGroup)
    assert any(isinstance(r.pos_body[-1], BodyGroup) and not r.neg_body for r in rules)


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_marginals_for_matches_the_restricted_full_program(name, monkeypatch):
    sg, kb = make_multi_scene(), mixed_kb()
    u = ReliabilityParams(u_d=0.9, u_a=0.8)
    queries = QUERIES[name]
    reference = _restrict(build_program(sg, kb, u), queries)
    expected = solve_exact(reference)
    assert any(r.is_definite() for r in reference)  # the skolemized rules are in play

    solved, grounded = [], []
    real_solve, real_ground = reasoner.solve_exact, reasoner.ground

    def spy_solve(prog, *args):
        solved.append(list(prog.rules))
        return real_solve(prog, *args)

    def spy_ground(prog, entities, parts):
        grounded.append(list(entities))
        return real_ground(prog, entities, parts)

    monkeypatch.setattr(reasoner, "solve_exact", spy_solve)
    monkeypatch.setattr(reasoner, "ground", spy_ground)
    table = marginals_for(sg, kb, u, queries)
    assert solved == [reference.rules]
    assert table.probs == expected.probs
    assert table.log_z == expected.log_z
    owners = sorted({t.ident.split("_")[0] for q in queries for t in q.args})
    assert grounded == [owners]


def test_marginals_for_keeps_one_component_per_fact_without_kb(monkeypatch):
    solved = []
    real_solve = reasoner.solve_exact
    monkeypatch.setattr(
        reasoner, "solve_exact", lambda prog: solved.append(list(prog.rules)) or real_solve(prog)
    )
    sg = make_multi_scene()
    atom = _cls("brandyGlass", "o2")
    table = marginals_for(sg, KnowledgeBase(), _u(), [atom])
    assert [[r.head for r in rules] for rules in solved] == [[atom]]
    assert math.isclose(table[atom], sg.nodes["o2"].class_scores["brandyGlass"], abs_tol=1e-12)


@pytest.mark.parametrize(
    "unknown",
    [
        _cls("nope", "o1"),  # predicate the program lacks
        _cls("brandyGlass", "o9"),  # object not in the scene
        Atom(attr_pred("short"), (Const("o9_stem"),)),  # part of no scene object
    ],
)
def test_marginals_for_raises_for_atoms_the_program_lacks(unknown):
    sg, kb = make_multi_scene(), mixed_kb()
    with pytest.raises(UnknownPredicateError):
        marginals_for(sg, kb, _u(), [unknown])
    with pytest.raises(UnknownPredicateError):
        marginals_for(sg, kb, _u(), [_cls("brandyGlass", "o1"), unknown])


# ---------------------------------------------------------------------------
# KB translation once per revision


def test_kb_translation_is_reused_until_the_kb_or_u_changes(monkeypatch):
    translations = []
    real_translate = reasoner._translate_kb
    monkeypatch.setattr(
        reasoner,
        "_translate_kb",
        lambda kb, u: translations.append(kb) or real_translate(kb, u),
    )
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

    def query(u, expected_translations):
        """Marginals on `kb` (twice), checked against a fresh KB with the
        same entries; `kb` must have been translated `expected_translations`
        times by the first of its two queries and not again by the second."""
        del translations[:]
        got = marginals_for(sg, kb, u, queries)
        again = marginals_for(sg, kb, u, queries)
        assert [t for t in translations if t is kb] == [kb] * expected_translations
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
    kb.remove(kb.entries[0])
    assert kb.revision == 3 and removed == [frozenset({EXPLICIT, NEG_IMPLICATURE})]
    query(u, 1)
    kb.add(p1, EXPLICIT, 4)
    assert kb.revision == 4 and kb.entries[0] is entry
    query(u, 1)

    other = ReliabilityParams(u_d=0.7, u_a=0.6)
    query(other, 1)
    assert {r.weight for r in kb_to_program(kb, other)} == {logit(0.7), logit(0.6)}
    query(u, 1)
    assert {r.weight for r in kb_to_program(kb, u)} == {logit(u.u_d), logit(u.u_a)}
    assert kb_to_program(kb, u).rules is not kb_to_program(kb, u).rules


def test_plain_kb_lists_are_translated_on_every_call(monkeypatch):
    translations = []
    real_translate = reasoner._translate_kb
    monkeypatch.setattr(
        reasoner,
        "_translate_kb",
        lambda kb, u: translations.append(kb) or real_translate(kb, u),
    )
    props = [_generic("brandyGlass", "haveShortStem")]
    first, second = kb_to_program(props), kb_to_program(props)
    assert len(translations) == 2 and first.rules == second.rules
