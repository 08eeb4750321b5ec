"""Experiment runner: episode sequencing, mistake counting, mid-term exams,
AP/mAP metrics, confusion matrices, multi-seed aggregation, file emission."""

from __future__ import annotations

import csv
import gc
import json
import math
import os
from collections import deque
from dataclasses import dataclass
from functools import cache
from typing import ClassVar

import numpy as np

from .agents import (
    MAX_HELP,
    LearnerState,
    TeacherState,
    cancel_scalar_implicatures,
    domain_lexicon,
    learner_answer,
    learner_ask_diff,
    learner_hear,
    learner_integrate_generics,
    learner_perceive,
    part_lexicon,
    teacher_answer_diff,
    teacher_probe,
    teacher_respond,
)
from .dialogue import CORRECT, Utterance, transcript_line
from .logic import CLASS, Prop, Ques, cls_pred, instance_atom
from .memory import EXPLICIT, EpisodicMemory, EpisodicRecord, KnowledgeBase
from .perception import (
    DomainSpec,
    ExemplarBase,
    FeatureModel,
    SceneGraph,
    SceneScores,
    generate_target,
    init_priors,
)
from .program import program_to_text
from .reasoner import best_class, build_program, class_atoms, classify_each, marginals_each

DIFFICULTIES = {
    "fineEasy": {
        "classes": ("brandyGlass", "burgundyGlass", "champagneCoupe"),
        "n_total": 30,
        "n_exam": 5,
    },
    "fineHard": {
        "classes": (
            "brandyGlass",
            "burgundyGlass",
            "champagneCoupe",
            "bordeauxGlass",
            "martiniGlass",
        ),
        "n_total": 60,
        "n_exam": 10,
    },
}

STRATEGY_COMBOS = {
    "minHelp": ("minHelp", "semOnly"),
    "medHelp": ("medHelp", "semOnly"),
    "maxHelp_semOnly": ("maxHelp", "semOnly"),
    "maxHelp_semNeg": ("maxHelp", "semNeg"),
    "maxHelp_semNegScal": ("maxHelp", "semNegScal"),
}

EPISODE_CAP = 2000  # safety bound on runaway sequences
LOOKAHEAD_CAP = 64  # most upcoming episodes perceived and classified in one batch
DEMONSTRATUM = "o1"  # the episode object's id in the dialogue, as in `generate_scene`
NOT_SURE_LABEL = "not-sure"


def _nonneg_int(value) -> bool:
    """True for an int (not a bool) of 0 or more."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


@dataclass
class ExperimentConfig:
    difficulty: str = "fineEasy"
    strategies: tuple[str, ...] = tuple(STRATEGY_COMBOS)
    seeds: tuple[int, ...] = tuple(range(40))
    out_dir: str | None = None
    dump_programs: bool = False
    # the learner perceives only the target; the distractors' draws keep the rng stream
    n_distractors: ClassVar[int] = 2
    test_set_size: ClassVar[int] = 20  # held-out objects per class
    feature_seed: ClassVar[int] = 0

    def __post_init__(self):
        if not isinstance(self.difficulty, str) or self.difficulty not in DIFFICULTIES:
            raise ValueError(f"unknown difficulty: {self.difficulty}")
        if not isinstance(self.strategies, tuple):
            raise ValueError(f"strategies must be a tuple of strategy names: {self.strategies!r}")
        for s in self.strategies:
            if not isinstance(s, str) or s not in STRATEGY_COMBOS:
                raise ValueError(f"unknown strategy combo: {s}")
        if not self.strategies:
            raise ValueError("strategies must be non-empty")
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        if not isinstance(self.seeds, tuple) or not all(_nonneg_int(s) for s in self.seeds):
            raise ValueError(f"seeds must be integers >= 0: {self.seeds!r}")
        for name, values in (("strategies", self.strategies), ("seeds", self.seeds)):
            if len(set(values)) < len(values):
                raise ValueError(f"{name} must not repeat: {values!r}")

    @property
    def classes(self) -> tuple[str, ...]:
        return DIFFICULTIES[self.difficulty]["classes"]

    @property
    def n_total(self) -> int:
        return DIFFICULTIES[self.difficulty]["n_total"]

    @property
    def n_exam(self) -> int:
        return DIFFICULTIES[self.difficulty]["n_exam"]


@dataclass
class ExamResult:
    mistakes: int
    ranked: dict  # concept -> list of (score, is_positive)
    ap: dict  # concept -> AP (or None when the concept had no positives)
    map: float


@dataclass
class SequenceResult:
    strategy: str
    seed: int
    exams: list[ExamResult]
    confusion: dict  # true class -> {predicted or not-sure: rate}
    transcript: list[str]
    episodes: int
    capped: bool  # stopped at EPISODE_CAP before the mistake budget ran out
    removed_provenances: list[frozenset[str]]  # of each KB entry removed, in order
    program_dumps: list[str] | None = None  # final-exam query programs, text format


@dataclass
class Cell:
    """One (strategy, seed) cell as a job returns it: picklable, so a worker
    process can send it back."""

    strategy: str
    seed: int
    status: str  # "ok", "capped" (stopped at EPISODE_CAP) or "failed"
    result: SequenceResult | None  # None when failed
    error: str | None = None  # the exception of a failed cell


# ---------------------------------------------------------------------------
# metrics


def average_precision(ranked: list[tuple[float, bool]]) -> float:
    """Area under the interpolated precision-recall curve.

    Sort is stable on the input order for tied scores; interpolated precision
    at recall r is the max precision at any recall >= r.
    """
    n_pos = sum(1 for _, pos in ranked if pos)
    if n_pos == 0:
        raise ValueError("average precision needs at least one positive")
    order = sorted(range(len(ranked)), key=lambda i: -ranked[i][0])
    precisions = []  # precision at each positive hit, in rank order
    hits = 0
    for rank, i in enumerate(order, start=1):
        if ranked[i][1]:
            hits += 1
            precisions.append(hits / rank)
    total = 0.0
    best = 0.0
    for p in reversed(precisions):
        best = max(best, p)
        total += best
    return total / n_pos


def mean_ci95(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    if len(arr) < 2:
        return mean, 0.0
    half = 1.96 * float(arr.std(ddof=1)) / math.sqrt(len(arr))
    return mean, half


# ---------------------------------------------------------------------------
# episode loop


def _property_scores(sg, eid: str, domain: DomainSpec) -> dict:
    """Perceived confidence that object eid has an <attr> <part>, per pair."""
    out = {}
    for attr in domain.attributes:
        for part in domain.parts:
            best = 0.0
            for pe in sg.object_parts.get(eid, ()):
                node = sg.nodes[pe]
                s = min(node.attr_scores.get(attr, 0.0), node.class_scores.get(part, 0.0))
                best = max(best, s)
            out[(attr, part)] = best
    return out


def _concepts(config, domain) -> tuple[list[str], list[str]]:
    """The class concepts (the target classes and the parts) and the
    attribute concepts a learner perceives."""
    return list(config.classes) + list(domain.parts), list(domain.attributes)


def _perceive(learner, scene, config, domain):
    return learner_perceive(learner, scene, *_concepts(config, domain))


@cache
def domain_model(feature_seed: int) -> tuple[DomainSpec, FeatureModel]:
    """The glass domain and its feature model, built once per process and
    shared by every cell; neither is ever written to."""
    domain = DomainSpec.builtin_glasses()
    return domain, FeatureModel(domain, seed=feature_seed)


def new_learner(domain: DomainSpec, model: FeatureModel, strategy: str, seed: int) -> LearnerState:
    """A learner that knows the part nouns and attribute adjectives and has
    seen prior part and attribute exemplars, but knows no target class."""
    xb = ExemplarBase()
    init_priors(xb, model, np.random.default_rng([seed, 3]))
    return LearnerState(xb, KnowledgeBase(), EpisodicMemory(), part_lexicon(domain), strategy)


def draw_episodes(model: FeatureModel, config, rng):
    """Each episode's object, drawn from rng as episodes draw them one at a
    time: the targets come in rounds of every class, each round a
    permutation drawn when its first target is taken, and each target's
    object from `generate_target`. The k-th object is named e<k>, its id in
    the scenes a `Lookahead` perceives."""
    k = 0
    while True:
        for i in rng.permutation(len(config.classes)):
            k += 1
            yield generate_target(model, config.classes[i], rng, config.n_distractors, f"e{k}")


class Lookahead:
    """A learner's upcoming episode objects, perceived and classified in
    batches while its state holds: the one episode engine of `run_sequence`
    and `cli.interactive_loop`.

    A learner's answer depends only on its exemplar base, its KB and the
    object. The next `size` objects are therefore perceived as one
    `SceneScores` scene and classified in one `classify_each` call, and each
    answer is used while the KB's and the exemplar base's revisions are
    those the batch was scored at. On a change the rest of the batch is
    dropped, its drawn objects kept, and the next batch starts at the
    episode under way with `size` 1; each batch used up unchanged doubles
    `size`, up to LOOKAHEAD_CAP. Every answer and graph equals that of the
    object's own one-object scene: an entity's scores depend only on its
    own features (`SceneScores`), each object's query list is solved on its
    own weight row (`marginals_each`), and the stream of objects never reads
    an answer, so drawing ahead leaves every episode's object as it was."""

    def __init__(self, learner: LearnerState, config, domain: DomainSpec, objects):
        self.learner = learner
        self.classes = list(config.classes)
        self.domain = domain
        self.concepts = _concepts(config, domain)
        self.objects = objects  # iterator over the episode objects, as `draw_episodes`
        self.upcoming: deque = deque()  # objects drawn for batches, not yet taken
        self.current = None  # the object of the episode under way
        self.size = 1
        self.stamp = None  # (KB revision, exemplar revision) the batch was scored at
        self.sg = None  # the batch's scene graph
        self.answers: dict = {}  # object id -> the learner's answer, for the batch

    def take(self):
        """The next episode's object."""
        self.current = self.upcoming.popleft() if self.upcoming else next(self.objects)
        return self.current

    def answer(self) -> tuple[SceneGraph, str | None]:
        """The graph that holds the current object, and the learner's answer
        to "What is this?" about it as its state is now."""
        learner, eid = self.learner, self.current.eid
        stamp = (learner.kb.revision, learner.xb.revision)
        if stamp != self.stamp or eid not in self.answers:
            self.size = 1 if stamp != self.stamp else min(2 * self.size, LOOKAHEAD_CAP)
            while len(self.upcoming) < self.size - 1:
                self.upcoming.append(next(self.objects))
            batch = [self.current, *self.upcoming][: self.size]
            self.sg = SceneScores(batch, learner.xb).graph(*self.concepts)
            ids = [obj.eid for obj in batch]
            answers = classify_each(self.sg, learner.kb, learner.u, self.classes, ids)
            self.answers = dict(zip(ids, answers))
            self.stamp = stamp
        return self.sg, self.answers[eid]


class LearnerEpisode:
    """The learner's side of one probe-answer-feedback episode, fed one
    teacher utterance at a time by the simulated teacher (`run_episode`) or
    by a human (`cli.interactive_loop`).

    The episode takes the next object of the `Lookahead`, the graph that
    holds it under its own id, and, when asked "What is this?", the
    learner's answer as its state is then; the dialogue names the object
    DEMONSTRATUM. A denial ("This is not an X.") and a label ("This is a
    Y.") are kept until `close`, which derives the mistake and the exemplar
    update from them; a label equal to the answer confirms it. On a label
    that differs from its answer the learner asks how the two classes
    differ, but only when a maxHelp teacher is there to answer; the generics
    that follow are integrated at `close` with their implicatures. A generic
    heard with no question pending is stored as stated."""

    def __init__(self, ahead: Lookahead, teacher_strategy: str, number: int):
        self.ahead = ahead
        self.learner = ahead.learner
        self.asks_diff = teacher_strategy == MAX_HELP
        self.number = number
        self.obj = ahead.take()
        self.sg, _ = ahead.answer()  # the exemplar base holds until `close`
        self.eid = DEMONSTRATUM
        self.answer: str | None = None
        self.denial: str | None = None
        self.label: str | None = None
        self.diff_pair: tuple[str, str] | None = None
        self.statements: list[Prop] = []
        self.transcript: list[str] = []

    def hear(self, utt: Utterance) -> list[Utterance] | None:
        """The learner's replies to one teacher utterance, or None (and
        nothing learned) when it is no teacher move of an episode."""
        form = learner_hear(self.learner, utt)
        replies = []
        if isinstance(form, Ques) and form.kind == "wh":
            _, self.answer = self.ahead.answer()
            replies.append(learner_answer(self.learner, self.answer, self.eid))
        elif isinstance(form, Prop) and form.generic:
            if self.diff_pair is None:
                # no contrastive question: no implicatures are licensed
                self.learner.kb.add(form, EXPLICIT, self.number)
            else:
                self.statements.append(form)
        elif (atom := instance_atom(form)) is not None and atom.pred.kind == CLASS:
            cls = atom.pred.name
            if form.cons_negated:
                self.denial = cls
            else:
                self.label = cls
                if self.asks_diff and self.answer not in (None, cls):
                    diff_q = learner_ask_diff(self.learner, (cls, self.answer))
                    if diff_q is not None:
                        self.diff_pair = (cls, self.answer)
                        replies.append(diff_q)
        elif form != CORRECT:
            return None
        self.transcript.append(transcript_line(utt))
        self.transcript.extend(transcript_line(r) for r in replies)
        return replies

    def close(self) -> bool:
        """Update exemplars, integrate the answer to a difference question,
        record the episode and cancel refuted scalar implicatures. Returns
        whether the learner made a mistake."""
        learner, obj = self.learner, self.obj
        label = None if self.label == self.answer else self.label
        mistake = label is not None or self.denial is not None
        if label is not None:
            learner.xb.add(label, obj.class_feature, positive=True)
        if self.denial is not None:
            learner.xb.add(self.denial, obj.class_feature, positive=False)
        if self.statements:
            pair = tuple(cls_pred(c) for c in self.diff_pair)
            learner_integrate_generics(learner, self.statements, pair, self.number)
        # only a learner that can cancel reads the perceived properties back
        scores = _property_scores(self.sg, obj.eid, self.ahead.domain) if learner.cancels else {}
        learner.episodic.append(EpisodicRecord(self.number, obj.cls, scores))
        if mistake and learner.cancels:
            cancel_scalar_implicatures(learner)
        return mistake


def run_episode(
    teacher: TeacherState, ahead: Lookahead, episode: int
) -> tuple[str, bool, list[str]]:
    """One probe-answer-feedback episode on the lookahead's next object.
    Returns (target, mistake, transcript)."""
    step = LearnerEpisode(ahead, teacher.strategy, episode)
    target = step.obj.cls
    step.hear(teacher_probe(teacher, step.eid))
    for utt in teacher_respond(teacher, step.eid, target, step.answer):
        if step.hear(utt):  # the learner asked how the target and its answer differ
            for generic in teacher_answer_diff(teacher, step.diff_pair):
                step.hear(generic)
    return target, step.close(), step.transcript


# ---------------------------------------------------------------------------
# exams


def make_test_set(model: FeatureModel, config: ExperimentConfig, seed: int):
    """Held-out single-object scenes, test_set_size per target class, from a
    seed stream disjoint from the training episodes."""
    rng = np.random.default_rng([seed, 0x7E57])
    out = []
    for cls in config.classes:
        for i in range(config.test_set_size):
            out.append(model.sample_object(cls, f"t{len(out) + 1}", rng))
    return out


def run_exam(
    learner: LearnerState, test_scene: SceneScores, config, domain, mistakes: int
) -> ExamResult:
    """Polar-mode confidences for every (test object, concept); read-only.

    `test_scene` holds the test set, perceived against `learner.xb` as one
    scene and kept from exam to exam, so an exam scores again only the
    concepts whose exemplars changed since the last one. Each object's class
    atoms are then solved on their own, all objects in one `marginals_each`
    call: scores depend only on the entity and the exemplar base, and each
    query grounds only its own object, so every table equals that of the
    object's own one-object scene."""
    sg = test_scene.graph(*_concepts(config, domain))
    if sg.plan_keys is None:  # kept from exam to exam, and so are its plan keys
        sg.plan_keys = {}
    query_lists = [class_atoms(config.classes, obj.eid) for obj in test_scene.scene]
    tables = marginals_each(sg, learner.kb, learner.u, query_lists)
    ranked = {c: [] for c in config.classes}
    for obj, atoms, table in zip(test_scene.scene, query_lists, tables):
        for c, atom in zip(config.classes, atoms):
            ranked[c].append((table[atom], obj.cls == c))
    ap = {}
    for c in config.classes:
        has_pos = any(pos for _, pos in ranked[c])
        ap[c] = average_precision(ranked[c]) if has_pos else None
    scores = [v for v in ap.values() if v is not None]
    return ExamResult(mistakes=mistakes, ranked=ranked, ap=ap, map=sum(scores) / len(scores))


def confusion_from_exam(exam: ExamResult, test_set, config) -> dict:
    """Row-normalized multiple-choice confusion rates, not-sure as a column:
    `classify`'s argmax over the marginals `exam` ranked."""
    preds = [
        best_class({c: exam.ranked[c][i][0] for c in config.classes})
        for i in range(len(test_set))
    ]
    return _confusion_rates(test_set, preds, config)


def _confusion_rates(test_set, preds: list[str | None], config) -> dict:
    counts = {
        t: {c: 0 for c in config.classes} | {NOT_SURE_LABEL: 0} for t in config.classes
    }
    for obj, pred in zip(test_set, preds):
        counts[obj.cls][pred if pred is not None else NOT_SURE_LABEL] += 1
    out = {}
    for t, row in counts.items():
        total = sum(row.values())
        out[t] = {k: v / total for k, v in row.items()}
    return out


# ---------------------------------------------------------------------------
# sequences and suites


def run_sequence(config: ExperimentConfig, strategy: str, seed: int) -> SequenceResult:
    """One (strategy, seed) cell: episodes until the learner has made
    `n_total` mistakes or EPISODE_CAP episodes have run, an exam after every
    `n_exam`-th mistake, and the confusion of the last exam. The episodes
    take their objects, graphs and answers from a `Lookahead`, which
    perceives and classifies upcoming objects in batches and uses an answer
    only while the learner's state is the one it was computed in; so the
    result is that of episodes perceived and answered one at a time."""
    domain, model = domain_model(config.feature_seed)
    teacher_strategy, learner_strategy = STRATEGY_COMBOS[strategy]

    teacher = TeacherState(domain=domain, strategy=teacher_strategy, lexicon=domain_lexicon(domain))
    learner = new_learner(domain, model, learner_strategy, seed)
    objects = draw_episodes(model, config, np.random.default_rng([seed, 1]))
    ahead = Lookahead(learner, config, domain, objects)
    test_set = make_test_set(model, config, seed)
    test_scene = SceneScores(test_set, learner.xb)

    transcript = []
    exams = []
    mistakes = 0
    episode = 0
    exam_episode = None  # episode after which the last exam ran
    while mistakes < config.n_total and episode < EPISODE_CAP:
        episode += 1
        target, made_mistake, lines = run_episode(teacher, ahead, episode)
        transcript.append(f"# episode {episode} target={target}")
        transcript.extend(lines)
        if made_mistake:
            mistakes += 1
            if mistakes % config.n_exam == 0:
                exams.append(run_exam(learner, test_scene, config, domain, mistakes))
                exam_episode = episode

    # the final exam, unless the run ended between exams
    if exam_episode == episode:
        final = exams[-1]
    else:
        final = run_exam(learner, test_scene, config, domain, mistakes)
    confusion = confusion_from_exam(final, test_set, config)
    dumps = dump_exam_programs(learner, test_set, config, domain) if config.dump_programs else None
    return SequenceResult(
        strategy=strategy,
        seed=seed,
        exams=exams,
        confusion=confusion,
        transcript=transcript,
        episodes=episode,
        capped=mistakes < config.n_total,
        removed_provenances=learner.kb.removed,
        program_dumps=dumps,
    )


def dump_exam_programs(learner: LearnerState, test_set, config, domain) -> list[str]:
    """Text-format grounded program per final-exam query object, for audit."""
    dumps = []
    for obj in test_set:
        sg = _perceive(learner, [obj], config, domain)
        prog = build_program(sg, learner.kb, learner.u)
        header = f"# query object {obj.eid} (true class {obj.cls}), candidates: " + ", ".join(
            config.classes
        )
        dumps.append(header + "\n" + program_to_text(prog))
    return dumps


def _failed_cell(strategy: str, seed: int, exc: Exception) -> Cell:
    return Cell(strategy, seed, "failed", None, f"{type(exc).__name__}: {exc}")


def _run_cell(config: ExperimentConfig, strategy: str, seed: int) -> Cell:
    """One cell as a job: its exception, if any, is recorded, not raised."""
    try:
        result = run_sequence(config, strategy, seed)
    except Exception as exc:
        return _failed_cell(strategy, seed, exc)
    return Cell(strategy, seed, "capped" if result.capped else "ok", result)


def _run_cells(config: ExperimentConfig, jobs: list[tuple[str, int]]):
    """Yield (job index, Cell) as each job ends. With two or more usable CPUs
    the jobs run in forked worker processes, which inherit the parent's
    module state (monkeypatches included), the domain model built here and a
    frozen heap that their garbage collector never walks; otherwise in this
    process."""
    # no sched_getaffinity (macOS, Windows): run serially, as fork is unsafe or absent there
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(jobs), cpus)
    if workers > 1:
        # imported here, not at the top: every interpreter start would pay for them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor, as_completed

        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
            domain_model(config.feature_seed)  # imports numpy.random, once
            was_frozen = gc.get_freeze_count()
            with ProcessPoolExecutor(workers, mp_context=context) as pool:
                gc.freeze()  # a fork pool starts every worker at the first submit
                try:
                    futures = {pool.submit(_run_cell, config, *j): i for i, j in enumerate(jobs)}
                finally:
                    if not was_frozen:  # a caller's own freeze stays
                        gc.unfreeze()
                for future in as_completed(futures):
                    i = futures[future]
                    try:
                        cell = future.result()
                    except Exception as exc:  # the worker died or the cell did not pickle
                        cell = _failed_cell(*jobs[i], exc)
                    yield i, cell
            return
    for i, job in enumerate(jobs):
        yield i, _run_cell(config, *job)


def run_suite(config: ExperimentConfig) -> list[Cell]:
    """Every (strategy, seed) cell, in config order (strategy-major). When
    config.out_dir is set, each cell's transcript and program dump are
    written as the cell ends and the suite files at the end, from the cells
    that did not fail. The files are the same for any number of workers."""
    jobs = [(strategy, seed) for strategy in config.strategies for seed in config.seeds]
    cells: list[Cell | None] = [None] * len(jobs)
    for i, cell in _run_cells(config, jobs):
        cells[i] = cell
        if config.out_dir is not None and cell.result is not None:
            write_cell_outputs(config.out_dir, cell.result)
    if config.out_dir is not None:
        write_outputs(config, suite_results(config, cells))
    return cells


def suite_results(config: ExperimentConfig, cells: list[Cell]) -> dict:
    """strategy -> the SequenceResults of its cells that did not fail, in seed order."""
    results: dict[str, list[SequenceResult]] = {s: [] for s in config.strategies}
    for cell in cells:
        if cell.result is not None:
            results[cell.strategy].append(cell.result)
    return results


def write_cell_outputs(out: str, res: SequenceResult):
    """A cell's transcript and, when dumped, its final-exam programs."""
    os.makedirs(os.path.join(out, "transcripts"), exist_ok=True)
    path = os.path.join(out, "transcripts", f"{res.strategy}_{res.seed}.log")
    with open(path, "w") as fh:
        fh.write("\n".join(res.transcript) + "\n")
    if res.program_dumps is not None:
        os.makedirs(os.path.join(out, "programs"), exist_ok=True)
        ppath = os.path.join(out, "programs", f"{res.strategy}_{res.seed}.lp")
        with open(ppath, "w") as fh:
            fh.write("\n\n".join(res.program_dumps) + "\n")


def write_outputs(config: ExperimentConfig, results: dict):
    """The suite files: curves.csv, aggregate.csv and one confusion_*.json
    per strategy with a result, from `suite_results`."""
    out = config.out_dir
    os.makedirs(out, exist_ok=True)

    with open(os.path.join(out, "curves.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["strategy", "seed", "mistakes", "concept", "AP", "mAP"])
        for strategy in config.strategies:
            for res in results[strategy]:
                for exam in res.exams:
                    for concept in config.classes:
                        ap = exam.ap[concept]
                        w.writerow(
                            [
                                strategy,
                                res.seed,
                                exam.mistakes,
                                concept,
                                "" if ap is None else f"{ap:.6f}",
                                f"{exam.map:.6f}",
                            ]
                        )

    with open(os.path.join(out, "aggregate.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["strategy", "mistakes", "mean_mAP", "ci95_half_width", "n_seeds"])
        for strategy in config.strategies:
            by_mistakes: dict[int, list[float]] = {}
            for res in results[strategy]:
                for exam in res.exams:
                    by_mistakes.setdefault(exam.mistakes, []).append(exam.map)
            for mistakes in sorted(by_mistakes):
                mean, half = mean_ci95(by_mistakes[mistakes])
                w.writerow(
                    [strategy, mistakes, f"{mean:.6f}", f"{half:.6f}", len(by_mistakes[mistakes])]
                )

    for strategy in config.strategies:
        if not results[strategy]:
            continue  # every cell failed
        avg = average_confusion([r.confusion for r in results[strategy]], config)
        with open(os.path.join(out, f"confusion_{strategy}.json"), "w") as fh:
            json.dump(avg, fh, indent=2, sort_keys=True)


def average_confusion(matrices: list[dict], config: ExperimentConfig) -> dict:
    cols = list(config.classes) + [NOT_SURE_LABEL]
    out = {}
    for t in config.classes:
        out[t] = {c: sum(m[t][c] for m in matrices) / len(matrices) for c in cols}
    return out
