"""Teacher and learner behavior: strategy-conditioned feedback, implicature
derivation, exemplar and KB updates, scalar-implicature cancellation."""

from __future__ import annotations

from dataclasses import dataclass, field

from .dialogue import (
    CORRECT,
    NOT_SURE,
    Utterance,
    parse,
    realize,
)
from .logic import (
    PredicateSym,
    Prop,
    Ques,
    attr_pred,
    cls_pred,
    contradicts,
    derive_neg_implicature,
    instance_prop,
    skolemize_part_description,
    swap_predicates,
    what_is,
)
from .memory import (
    EXPLICIT,
    NEG_IMPLICATURE,
    SCALAR_IMPLICATURE,
    EpisodicMemory,
    KnowledgeBase,
    Lexicon,
    find_counterexamples,
)
from .perception import (
    DomainSpec,
    ExemplarBase,
    SceneGraph,
    build_scene_graph,
    concept_diff,
)
from .reasoner import ReliabilityParams, classify

TEACHER_STRATEGIES = ("minHelp", "medHelp", "maxHelp")
LEARNER_STRATEGIES = ("semOnly", "semNeg", "semNegScal")

MED_HELP = "medHelp"
MAX_HELP = "maxHelp"


def part_lexicon(domain: DomainSpec) -> Lexicon:
    """The part nouns and attribute adjectives of a domain."""
    lex = Lexicon()
    for part in domain.parts:
        lex.add(part, "noun", cls_pred(part))
    for attr in domain.attributes:
        lex.add(attr, "adj", attr_pred(attr))
    return lex


def domain_lexicon(domain: DomainSpec) -> Lexicon:
    """Full vocabulary over a domain: class nouns, part nouns, attribute
    adjectives."""
    lex = part_lexicon(domain)
    for cls in sorted(domain.classes):
        lex.add(domain.surfaces[cls], "noun", cls_pred(cls))
    return lex


@dataclass
class TeacherState:
    domain: DomainSpec
    strategy: str
    lexicon: Lexicon

    def __post_init__(self):
        if self.strategy not in TEACHER_STRATEGIES:
            raise ValueError(f"unknown teacher strategy: {self.strategy}")


@dataclass
class LearnerState:
    xb: ExemplarBase
    kb: KnowledgeBase
    episodic: EpisodicMemory
    lexicon: Lexicon
    strategy: str
    u: ReliabilityParams = field(default_factory=ReliabilityParams)
    confused_pairs: set = field(default_factory=set)

    def __post_init__(self):
        if self.strategy not in LEARNER_STRATEGIES:
            raise ValueError(f"unknown learner strategy: {self.strategy}")

    @property
    def cancels(self) -> bool:
        """Whether the learner can cancel a KB entry: only semNegScal adds
        scalar implicatures, the entries `cancel_scalar_implicatures` drops."""
        return self.strategy == "semNegScal"


# ---------------------------------------------------------------------------
# teacher


def _teacher_utt(t: TeacherState, form, demonstratum=None) -> Utterance:
    return Utterance("teacher", realize(form, t.lexicon), form, demonstratum)


def teacher_probe(t: TeacherState, eid: str) -> Utterance:
    return _teacher_utt(t, what_is(eid), eid)


def _instance_prop(cls: str, eid: str, negated: bool = False) -> Prop:
    return instance_prop(cls_pred(cls), eid, negated)


def teacher_respond(
    t: TeacherState, eid: str, true_class: str, answered: str | None
) -> list[Utterance]:
    """Feedback after the learner's probe answer. Correct answers close the
    episode with bare confirmation; wrong answers get strategy-dependent
    correction; not-sure always gets the true label."""
    if answered == true_class:
        return [_teacher_utt(t, CORRECT, eid)]
    utts = []
    if answered is not None:
        utts.append(_teacher_utt(t, _instance_prop(answered, eid, negated=True), eid))
        if t.strategy in (MED_HELP, MAX_HELP):
            utts.append(_teacher_utt(t, _instance_prop(true_class, eid), eid))
    else:
        utts.append(_teacher_utt(t, _instance_prop(true_class, eid), eid))
    return utts


def diff_generics(domain: DomainSpec, p: str, p_tilde: str) -> list[Prop]:
    """One generic part-description per element of the symmetric property
    difference, first the p side, then the p-tilde side, each sorted."""
    d1, d2 = concept_diff(domain, p, p_tilde)
    props = []
    for cls, side in ((p, d1), (p_tilde, d2)):
        for attr, part in sorted(side):
            props.append(
                skolemize_part_description(cls_pred(cls), attr_pred(attr), cls_pred(part))
            )
    return props


def teacher_answer_diff(t: TeacherState, pair: tuple[str, str]) -> list[Utterance]:
    """Answer ?conceptDiff(p, p~) with generic statements. The learner asks
    about each unordered pair once (`learner_ask_diff`)."""
    return [_teacher_utt(t, prop) for prop in diff_generics(t.domain, *pair)]


# ---------------------------------------------------------------------------
# learner


def learner_perceive(l: LearnerState, scene, class_concepts, attr_concepts) -> SceneGraph:
    return build_scene_graph(scene, l.xb, class_concepts, attr_concepts)


def learner_answer_probe(
    l: LearnerState, sg: SceneGraph, candidates: list[str], eid: str
) -> tuple[Utterance, str | None]:
    """Classify the demonstratum over the run's target classes and realize
    the answer sentence."""
    answer = classify(sg, l.kb, l.u, candidates, eid)
    return learner_answer(l, answer, eid), answer


def learner_answer(l: LearnerState, answer: str | None, eid: str) -> Utterance:
    """The answer sentence: the demonstratum eid is of class `answer`, or
    "I am not sure." for None."""
    form = NOT_SURE if answer is None else _instance_prop(answer, eid)
    return Utterance("learner", realize(form, l.lexicon), form, eid)


def learner_ask_diff(l: LearnerState, pair: tuple[str, str]) -> Utterance | None:
    """Under maxHelp-style curiosity, ask for the difference between the true
    and the confused class, once per unordered pair."""
    key = frozenset(pair)
    if key in l.confused_pairs:
        return None
    l.confused_pairs.add(key)
    ques = Ques("conceptDiff", pair=(cls_pred(pair[0]), cls_pred(pair[1])))
    return Utterance("learner", realize(ques, l.lexicon), ques)


def learner_hear(l: LearnerState, utt: Utterance):
    """Re-parse a heard surface against the learner's own lexicon so unknown
    words become neologism entries."""
    return parse(utt.surface, l.lexicon, utt.demonstratum)


def learner_integrate_generics(
    l: LearnerState,
    statements: list[Prop],
    pair: tuple[PredicateSym, PredicateSym],
    episode: int,
) -> list[Prop]:
    """Store a conceptDiff answer plus any strategy-licensed implicatures.

    semOnly keeps the explicit statements; semNeg adds their negative
    implicatures under the contrastive pair; semNegScal additionally adds the
    predicate-swapped form of every prior KB entry mentioning either class,
    unless it contradicts something just learned.
    """
    p, q = pair
    added = []

    prior = [entry.prop for entry in l.kb]
    neg_forms = []
    for psi in statements:
        l.kb.add(psi, EXPLICIT, episode)
        added.append(psi)
    if l.strategy in ("semNeg", "semNegScal"):
        for psi in statements:
            neg = derive_neg_implicature(psi, p, q)
            neg_forms.append(neg)
            l.kb.add(neg, NEG_IMPLICATURE, episode)
            added.append(neg)
    if l.strategy == "semNegScal":
        screen = list(statements) + neg_forms
        for kappa in prior:
            ante_preds = {a.pred for a in kappa.ante}
            if p not in ante_preds and q not in ante_preds:
                continue
            scl = swap_predicates(kappa, p, q)
            if any(contradicts(scl, s) for s in screen):
                continue
            if l.kb.contains(scl):
                continue
            l.kb.add(scl, SCALAR_IMPLICATURE, episode)
            added.append(scl)
    return added


def cancel_scalar_implicatures(l: LearnerState) -> list[Prop]:
    """Drop KB entries whose only source is a scalar implicature and for
    which episodic memory holds a counterexample."""
    removed = []
    for entry in list(l.kb):
        if entry.provenance != {SCALAR_IMPLICATURE}:
            continue
        if find_counterexamples(l.episodic, entry.prop):
            l.kb.remove(entry)
            removed.append(entry.prop)
    return removed
