"""Long-term stores: KB provenance bookkeeping, counterexample search over
episodic records, lexicon."""

from dataclasses import replace

import pytest

from groundsim import memory
from groundsim.logic import attr_pred, cls_pred, skolemize_part_description
from groundsim.memory import (
    EXPLICIT,
    NEG_IMPLICATURE,
    SCALAR_IMPLICATURE,
    EpisodicMemory,
    EpisodicRecord,
    KnowledgeBase,
    Lexicon,
    find_counterexamples,
)
from test_acceptance import _conj_part_prop
from test_logic import ground_prop


def part_prop(cls="brandyGlass", attr="short", part="stem", neg=False):
    p = skolemize_part_description(cls_pred(cls), attr_pred(attr), cls_pred(part))
    return replace(p, cons_negated=True) if neg else p


def record(episode, true_class, scores):
    return EpisodicRecord(episode=episode, true_class=true_class, property_scores=scores)


# ---------------------------------------------------------------------------
# knowledge base


def test_kb_dedupes_and_merges_provenance():
    kb = KnowledgeBase()
    e1 = kb.add(part_prop(), EXPLICIT, 3)
    e2 = kb.add(part_prop(), SCALAR_IMPLICATURE, 7)
    assert e1 is e2
    assert len(kb) == 1
    assert e1.provenance == {EXPLICIT, SCALAR_IMPLICATURE}
    assert e1.origin_episodes == [3, 7]
    kb.add(part_prop(), EXPLICIT, 3)
    assert e1.origin_episodes == [3, 7]


def test_kb_contains_and_remove():
    kb = KnowledgeBase()
    entry = kb.add(part_prop(), NEG_IMPLICATURE, 1)
    assert kb.contains(part_prop())
    kb.remove(entry)
    assert not kb.contains(part_prop())
    assert len(kb) == 0


def test_kb_distinguishes_polarity_and_classes():
    kb = KnowledgeBase()
    kb.add(part_prop(), EXPLICIT, 1)
    kb.add(part_prop(neg=True), EXPLICIT, 1)
    kb.add(part_prop(cls="burgundyGlass"), EXPLICIT, 1)
    assert len(kb) == 3


def test_kb_rejects_ground_props():
    with pytest.raises(ValueError):
        KnowledgeBase().add(ground_prop("brandyGlass"), EXPLICIT, 1)


# ---------------------------------------------------------------------------
# counterexample search


def test_positive_rule_refuted_by_missing_conjunct():
    mem = EpisodicMemory()
    mem.append(record(1, "brandyGlass", {("short", "stem"): 0.1}))
    mem.append(record(2, "brandyGlass", {("short", "stem"): 0.95}))
    mem.append(record(3, "burgundyGlass", {("short", "stem"): 0.1}))
    assert find_counterexamples(mem, part_prop()) == [1]


def test_negative_rule_refuted_by_confident_presence():
    mem = EpisodicMemory()
    mem.append(record(1, "burgundyGlass", {("short", "stem"): 0.9}))
    mem.append(record(2, "burgundyGlass", {("short", "stem"): 0.3}))
    prop = part_prop(cls="burgundyGlass", neg=True)
    assert find_counterexamples(mem, prop) == [1]


def test_conjoined_consequent_checks_every_attribute():
    prop = _conj_part_prop("bordeauxGlass", ["wide", "tapered"], "bowl")
    mem = EpisodicMemory()
    # tapered seen, wide confidently absent: refutes the conjunction
    mem.append(
        record(1, "bordeauxGlass", {("wide", "bowl"): 0.05, ("tapered", "bowl"): 0.95})
    )
    assert find_counterexamples(mem, prop) == [1]
    # both seen: consistent
    mem2 = EpisodicMemory()
    mem2.append(
        record(1, "bordeauxGlass", {("wide", "bowl"): 0.9, ("tapered", "bowl"): 0.95})
    )
    assert find_counterexamples(mem2, prop) == []


def test_counterexample_requires_scored_properties():
    mem = EpisodicMemory()
    mem.append(record(1, "brandyGlass", {}))  # property never scored: skipped
    assert find_counterexamples(mem, part_prop()) == []


def test_counterexample_threshold_boundary(monkeypatch):
    mem = EpisodicMemory()
    # theta=0.75 keeps the 1-theta boundary exactly representable
    monkeypatch.setattr(memory, "THETA_COUNTEREXAMPLE", 0.75)
    mem.append(record(1, "brandyGlass", {("short", "stem"): 0.25}))
    mem.append(record(2, "brandyGlass", {("short", "stem"): 0.26}))
    assert find_counterexamples(mem, part_prop()) == [1]


def test_counterexample_input_validation():
    mem = EpisodicMemory()
    with pytest.raises(ValueError):
        find_counterexamples(mem, ground_prop("brandyGlass"))


# ---------------------------------------------------------------------------
# lexicon


def test_lexicon_add_and_lookup():
    lex = Lexicon()
    entry = lex.add("brandy glass", "noun", cls_pred("brandyGlass"))
    assert lex.lookup_surface("brandy glass", "noun") is entry
    assert lex.lookup_pred("brandyGlass") is entry
    assert lex.lookup_pred("brandyGlass") is not None
    assert len(lex) == 1
    # re-adding the same binding is idempotent
    assert lex.add("brandy glass", "noun", cls_pred("brandyGlass")) is entry


def test_lexicon_rejects_conflicting_binding():
    lex = Lexicon()
    lex.add("glass", "noun", cls_pred("glassA"))
    with pytest.raises(ValueError):
        lex.add("glass", "noun", cls_pred("glassB"))
    # same surface under a different part of speech is a separate slot
    lex.add("glass", "adj", attr_pred("glassy"))


def test_kb_revision_counts_changes_to_the_props():
    kb = KnowledgeBase()
    assert kb.revision == 0
    entry = kb.add(part_prop(), EXPLICIT, 1)
    assert kb.revision == 1
    kb.add(part_prop(), NEG_IMPLICATURE, 2)  # provenance only
    assert kb.revision == 1
    kb.remove(entry)
    assert kb.revision == 2
    kb.add(part_prop(), EXPLICIT, 3)
    assert kb.revision == 3


def test_kb_iterates_in_insertion_order_after_a_remove_and_re_add():
    props = [part_prop(), part_prop(attr="wide"), part_prop(neg=True)]
    kb = KnowledgeBase()
    entries = [kb.add(p, EXPLICIT, i) for i, p in enumerate(props)]
    kb.remove(entries[0])
    assert list(kb) == entries[1:] and len(kb) == 2
    readded = kb.add(props[0], EXPLICIT, 3)
    assert list(kb) == [*entries[1:], readded] and len(kb) == 3
    assert [e.prop for e in kb] == [props[1], props[2], props[0]]
    assert kb.revision == 5


def test_kb_memo_rebuilds_on_a_new_revision_or_key():
    kb = KnowledgeBase()
    builds = []

    def build():
        builds.append(kb.revision)
        return len(builds)

    assert kb.memo("a", build) == kb.memo("a", build) == 1
    kb.add(part_prop(), EXPLICIT, 1)
    assert kb.memo("a", build) == 2
    assert kb.memo("b", build) == 3
    assert kb.memo("a", build) == 4  # one value is kept
    assert builds == [0, 1, 1, 1]
