"""Agent behavior: teacher feedback per strategy, contrastive questions,
generic integration per learner strategy, scalar cancellation guards."""

import pytest

from groundsim.agents import (
    LearnerState,
    TeacherState,
    cancel_scalar_implicatures,
    diff_generics,
    domain_lexicon,
    learner_ask_diff,
    learner_hear,
    learner_integrate_generics,
    teacher_answer_diff,
    teacher_probe,
    teacher_respond,
)
from groundsim.dialogue import CORRECT, Utterance
from groundsim.logic import attr_pred, cls_pred, prop_key, skolemize_part_description
from groundsim.memory import (
    EXPLICIT,
    NEG_IMPLICATURE,
    SCALAR_IMPLICATURE,
    EpisodicMemory,
    EpisodicRecord,
    KnowledgeBase,
    Lexicon,
)
from groundsim.perception import DomainSpec, ExemplarBase


@pytest.fixture()
def domain():
    return DomainSpec.builtin_glasses()


def make_teacher(domain, strategy="maxHelp"):
    return TeacherState(domain=domain, strategy=strategy, lexicon=domain_lexicon(domain))


def make_learner(strategy="semNegScal"):
    return LearnerState(
        xb=ExemplarBase(),
        kb=KnowledgeBase(),
        episodic=EpisodicMemory(),
        lexicon=Lexicon(),
        strategy=strategy,
    )


def part_prop(cls, attr, part):
    return skolemize_part_description(cls_pred(cls), attr_pred(attr), cls_pred(part))


def test_state_strategy_validation(domain):
    with pytest.raises(ValueError):
        make_teacher(domain, "mediumHelp")
    with pytest.raises(ValueError):
        make_learner("semAll")


# ---------------------------------------------------------------------------
# teacher


def test_teacher_probe_surface(domain):
    utt = teacher_probe(make_teacher(domain), "o1")
    assert utt.surface == "What is this?"
    assert utt.demonstratum == "o1"


def test_teacher_respond_correct_answer(domain):
    utts = teacher_respond(make_teacher(domain), "o1", "brandyGlass", "brandyGlass")
    assert [u.logical_form for u in utts] == [CORRECT]


@pytest.mark.parametrize(
    "strategy,expected",
    [
        ("minHelp", ["This is not a burgundy glass."]),
        ("medHelp", ["This is not a burgundy glass.", "This is a brandy glass."]),
        ("maxHelp", ["This is not a burgundy glass.", "This is a brandy glass."]),
    ],
)
def test_teacher_respond_wrong_answer(domain, strategy, expected):
    utts = teacher_respond(
        make_teacher(domain, strategy), "o1", "brandyGlass", "burgundyGlass"
    )
    assert [u.surface for u in utts] == expected


@pytest.mark.parametrize("strategy", ["minHelp", "medHelp", "maxHelp"])
def test_teacher_respond_not_sure_gets_label(domain, strategy):
    utts = teacher_respond(make_teacher(domain, strategy), "o1", "brandyGlass", None)
    assert [u.surface for u in utts] == ["This is a brandy glass."]


def test_diff_generics_order_and_content(domain):
    props = diff_generics(domain, "brandyGlass", "burgundyGlass")
    assert [prop_key(p) for p in props] == [
        prop_key(part_prop("brandyGlass", "short", "stem"))
    ]
    # both sides, p side first, each sorted by (attr, part)
    props = diff_generics(domain, "champagneCoupe", "martiniGlass")
    assert [prop_key(p) for p in props] == [
        prop_key(part_prop("champagneCoupe", "round", "bowl")),
        prop_key(part_prop("martiniGlass", "conic", "bowl")),
    ]


def test_teacher_answer_diff_states_the_difference(domain):
    # the teacher keeps no state: the learner asks about each pair once
    teacher = make_teacher(domain)
    for _ in range(2):
        answer = teacher_answer_diff(teacher, ("brandyGlass", "burgundyGlass"))
        assert [u.surface for u in answer] == ["Brandy glasses have short stems."]


# ---------------------------------------------------------------------------
# learner questions and hearing


def test_learner_ask_diff_once_per_unordered_pair():
    learner = make_learner()
    learner.lexicon.add("brandy glass", "noun", cls_pred("brandyGlass"))
    learner.lexicon.add("burgundy glass", "noun", cls_pred("burgundyGlass"))
    q = learner_ask_diff(learner, ("brandyGlass", "burgundyGlass"))
    assert q.surface == "How are brandy glasses and burgundy glasses different?"
    assert learner_ask_diff(learner, ("burgundyGlass", "brandyGlass")) is None


def test_learner_hear_adds_neologisms(domain):
    learner = make_learner()
    utt = Utterance("teacher", "This is a brandy glass.", None, "o1")
    form = learner_hear(learner, utt)
    assert form.cons[0].pred == cls_pred("brandyGlass")
    assert learner.lexicon.lookup_pred("brandyGlass") is not None


# ---------------------------------------------------------------------------
# generic integration


PAIR = (cls_pred("brandyGlass"), cls_pred("burgundyGlass"))


def test_semonly_stores_statements_verbatim():
    learner = make_learner("semOnly")
    psi = part_prop("brandyGlass", "short", "stem")
    added = learner_integrate_generics(learner, [psi], PAIR, 1)
    assert [prop_key(p) for p in added] == [prop_key(psi)]
    entry = next(iter(learner.kb))
    assert entry.provenance == {EXPLICIT}


def test_semneg_adds_negative_implicature_with_provenance():
    learner = make_learner("semNeg")
    psi = part_prop("brandyGlass", "short", "stem")
    learner_integrate_generics(learner, [psi], PAIR, 1)
    assert len(learner.kb) == 2
    provs = sorted(frozenset(e.provenance) for e in learner.kb)
    assert provs == [frozenset({EXPLICIT}), frozenset({NEG_IMPLICATURE})]


def test_scalar_screened_by_contradiction():
    from dataclasses import replace

    learner = make_learner("semNegScal")
    # prior: burgundy glasses do NOT have wide bowls; its swap (brandy
    # glasses do not have wide bowls) contradicts the incoming statement
    prior = replace(part_prop("burgundyGlass", "wide", "bowl"), cons_negated=True)
    learner.kb.add(prior, EXPLICIT, 1)
    psi = part_prop("brandyGlass", "wide", "bowl")
    learner_integrate_generics(learner, [psi], PAIR, 2)
    assert not any(SCALAR_IMPLICATURE in e.provenance for e in learner.kb)
    blocked = replace(part_prop("brandyGlass", "wide", "bowl"), cons_negated=True)
    assert not learner.kb.contains(blocked)


def test_scalar_skipped_when_already_in_kb():
    learner = make_learner("semNegScal")
    # the swap of the prior equals the incoming statement itself: deduped
    learner.kb.add(part_prop("burgundyGlass", "short", "stem"), EXPLICIT, 1)
    psi = part_prop("brandyGlass", "short", "stem")
    learner_integrate_generics(learner, [psi], PAIR, 2)
    assert not any(SCALAR_IMPLICATURE in e.provenance for e in learner.kb)


def test_scalar_skips_entries_not_mentioning_pair():
    learner = make_learner("semNegScal")
    learner.kb.add(part_prop("martiniGlass", "conic", "bowl"), EXPLICIT, 1)
    psi = part_prop("brandyGlass", "short", "stem")
    learner_integrate_generics(learner, [psi], PAIR, 2)
    assert not any(SCALAR_IMPLICATURE in e.provenance for e in learner.kb)


def test_scalar_not_duplicated_when_already_known():
    learner = make_learner("semNegScal")
    learner.kb.add(part_prop("brandyGlass", "wide", "bowl"), EXPLICIT, 1)
    learner.kb.add(part_prop("burgundyGlass", "wide", "bowl"), EXPLICIT, 1)
    psi = part_prop("brandyGlass", "short", "stem")
    learner_integrate_generics(learner, [psi], PAIR, 2)
    entry = next(
        e for e in learner.kb
        if prop_key(e.prop) == prop_key(part_prop("burgundyGlass", "wide", "bowl"))
    )
    # already explicit: provenance untouched, no scalar tag added
    assert entry.provenance == {EXPLICIT}


# ---------------------------------------------------------------------------
# cancellation guards


def refuting_record(cls, attr, part):
    return EpisodicRecord(episode=9, true_class=cls, property_scores={(attr, part): 0.05})


def test_cancel_removes_only_scalar_only_entries():
    learner = make_learner("semNegScal")
    prop = part_prop("burgundyGlass", "short", "stem")
    learner.kb.add(prop, SCALAR_IMPLICATURE, 1)
    learner.episodic.append(refuting_record("burgundyGlass", "short", "stem"))
    removed = cancel_scalar_implicatures(learner)
    assert [prop_key(p) for p in removed] == [prop_key(prop)]
    assert len(learner.kb) == 0


def test_cancel_spares_entries_with_explicit_backing():
    learner = make_learner("semNegScal")
    prop = part_prop("burgundyGlass", "short", "stem")
    learner.kb.add(prop, SCALAR_IMPLICATURE, 1)
    learner.kb.add(prop, EXPLICIT, 2)  # merged provenance
    learner.episodic.append(refuting_record("burgundyGlass", "short", "stem"))
    assert cancel_scalar_implicatures(learner) == []
    assert learner.kb.contains(prop)


def test_cancel_without_counterexample_keeps_scalar():
    learner = make_learner("semNegScal")
    prop = part_prop("burgundyGlass", "short", "stem")
    learner.kb.add(prop, SCALAR_IMPLICATURE, 1)
    assert cancel_scalar_implicatures(learner) == []
    assert learner.kb.contains(prop)
