"""Experiment harness: metrics, config validation, exams, sequences, file
emission."""

import csv
import gc
import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from groundsim import harness, reasoner
from groundsim.harness import (
    DIFFICULTIES,
    STRATEGY_COMBOS,
    ExperimentConfig,
    average_confusion,
    average_precision,
    make_test_set,
    mean_ci95,
    run_sequence,
    run_suite,
)
from groundsim.cli import main
from groundsim.agents import (
    LearnerState,
    TeacherState,
    domain_lexicon,
    teacher_probe,
    teacher_respond,
)
from groundsim.logic import Atom, Const, cls_pred
from groundsim.memory import EXPLICIT, NEG_IMPLICATURE, EpisodicMemory, KnowledgeBase, Lexicon
from groundsim import perception
from groundsim.perception import (
    DomainSpec,
    ExemplarBase,
    FeatureModel,
    SceneScores,
    build_scene_graph,
    generate_scene,
    generate_target,
    init_priors,
)
from groundsim.program import program_to_text
from groundsim.reasoner import classify, marginals_for
from genprograms import read_ground_program
from test_acceptance import _conj_part_prop
from test_reasoner import _part_generic


# ---------------------------------------------------------------------------
# metrics


def test_average_precision_interpolated():
    ranked = [(0.9, True), (0.8, True), (0.7, False), (0.6, True)]
    assert math.isclose(average_precision(ranked), (1 + 1 + 0.75) / 3, rel_tol=1e-12)


def test_average_precision_perfect_ranking():
    ranked = [(0.9, True), (0.8, True), (0.2, False), (0.1, False)]
    assert average_precision(ranked) == 1.0


def test_average_precision_single_positive_last():
    n = 5
    ranked = [(1.0 - 0.1 * i, False) for i in range(n - 1)] + [(0.0, True)]
    assert math.isclose(average_precision(ranked), 1 / n, rel_tol=1e-12)


def test_average_precision_ties_stable_on_input_order():
    assert average_precision([(0.5, True), (0.5, False)]) == 1.0
    assert average_precision([(0.5, False), (0.5, True)]) == 0.5


def test_average_precision_requires_positive():
    with pytest.raises(ValueError):
        average_precision([(0.5, False)])


def test_oracle_scores_give_perfect_map():
    # oracle learner: score 1 for the true class, 0 otherwise
    per_concept = [
        average_precision([(1.0, True)] * 5 + [(0.0, False)] * 10) for _ in range(3)
    ]
    assert sum(per_concept) / 3 == 1.0


def test_mean_ci95():
    mean, half = mean_ci95([1.0])
    assert (mean, half) == (1.0, 0.0)
    mean, half = mean_ci95([0.0, 1.0])
    assert mean == 0.5
    assert math.isclose(half, 1.96 * np.std([0.0, 1.0], ddof=1) / math.sqrt(2))


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(difficulty="impossible")
    with pytest.raises(ValueError):
        ExperimentConfig(strategies=("maxHelp",))  # not a combo name
    with pytest.raises(ValueError):
        ExperimentConfig(seeds=())
    with pytest.raises(ValueError):
        ExperimentConfig(strategies=())
    for values in (
        {"seeds": (-1,)},
        {"seeds": (0, 1.0)},
        {"seeds": (True,)},
        {"seeds": 2.5},
        {"seeds": (0, 0)},
        {"seeds": (3, 1, 3)},
        {"strategies": ("minHelp", "minHelp")},
        {"difficulty": ["fineEasy"]},
        {"strategies": "minHelp"},
        {"strategies": ["minHelp"]},
        {"strategies": (["minHelp"],)},
    ):
        with pytest.raises(ValueError):
            ExperimentConfig(**values)


def test_difficulty_presets():
    easy = ExperimentConfig(difficulty="fineEasy")
    hard = ExperimentConfig(difficulty="fineHard")
    assert len(easy.classes) == 3 and easy.n_total == 30 and easy.n_exam == 5
    assert len(hard.classes) == 5 and hard.n_total == 60 and hard.n_exam == 10
    assert set(easy.classes) < set(hard.classes)
    assert set(STRATEGY_COMBOS) == {
        "minHelp",
        "medHelp",
        "maxHelp_semOnly",
        "maxHelp_semNeg",
        "maxHelp_semNegScal",
    }
    assert ExperimentConfig().seeds == tuple(range(40))


# ---------------------------------------------------------------------------
# test sets


def test_make_test_set_composition(monkeypatch):
    monkeypatch.setattr(ExperimentConfig, "test_set_size", 4)
    config = ExperimentConfig(difficulty="fineEasy")
    model = FeatureModel(DomainSpec.builtin_glasses(), seed=0)
    objs = make_test_set(model, config, seed=1)
    assert len(objs) == 4 * len(config.classes)
    for cls in config.classes:
        assert sum(1 for o in objs if o.cls == cls) == 4
    again = make_test_set(model, config, seed=1)
    for a, b in zip(objs, again):
        np.testing.assert_array_equal(a.class_feature, b.class_feature)


# ---------------------------------------------------------------------------
# sequences (single cheap cell: minHelp, one seed)


SMALL_TEST_SET = 5  # test objects per class in the cheap cells below


@pytest.fixture(scope="module")
def minhelp_result():
    config = ExperimentConfig(difficulty="fineEasy", strategies=("minHelp",), seeds=(0,))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ExperimentConfig, "test_set_size", SMALL_TEST_SET)
        return config, run_sequence(config, "minHelp", 0)


def test_sequence_exam_schedule(minhelp_result):
    config, res = minhelp_result
    assert len(res.exams) == config.n_total // config.n_exam
    assert [e.mistakes for e in res.exams] == list(
        range(config.n_exam, config.n_total + 1, config.n_exam)
    )
    assert res.episodes >= config.n_total


def test_sequence_exam_contents(minhelp_result):
    config, res = minhelp_result
    for exam in res.exams:
        assert 0.0 <= exam.map <= 1.0
        assert set(exam.ap) == set(config.classes)
        for concept, ranked in exam.ranked.items():
            assert len(ranked) == SMALL_TEST_SET * len(config.classes)
            assert all(0.0 <= s <= 1.0 for s, _ in ranked)


def test_confusion_rows_normalized(minhelp_result):
    config, res = minhelp_result
    for true_cls, row in res.confusion.items():
        assert abs(sum(row.values()) - 1.0) <= 1e-9
        assert set(row) == set(config.classes) | {"not-sure"}


def test_transcript_structure(minhelp_result):
    config, res = minhelp_result
    headers = [ln for ln in res.transcript if ln.startswith("# episode")]
    assert len(headers) == res.episodes
    # every episode opens with the probe
    probes = [ln for ln in res.transcript if "What is this?" in ln]
    assert len(probes) == res.episodes


@pytest.mark.parametrize("difficulty", sorted(DIFFICULTIES))
def test_an_episode_draws_the_rng_state_of_a_whole_scene(difficulty):
    domain, model = harness.domain_model(ExperimentConfig.feature_seed)
    classes = DIFFICULTIES[difficulty]["classes"]
    for seed in range(200):
        target = classes[seed % len(classes)]
        built, drawn = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
        scene = generate_scene(model, target, built, ExperimentConfig.n_distractors)
        obj = generate_target(model, target, drawn, ExperimentConfig.n_distractors)
        assert drawn.bit_generator.state == built.bit_generator.state, seed
        assert (obj.eid, obj.cls, obj.bbox) == (scene[0].eid, scene[0].cls, scene[0].bbox)
        assert np.array_equal(obj.class_feature, scene[0].class_feature)
        for part, built_part in zip(obj.parts, scene[0].parts, strict=True):
            assert np.array_equal(part.class_feature, built_part.class_feature)
            assert np.array_equal(part.attr_feature, built_part.attr_feature)


def test_label_equal_to_the_answer_confirms_it():
    # the simulated teacher says "Correct." here; a human may name the class
    domain = DomainSpec.builtin_glasses()
    model = FeatureModel(domain, seed=0)
    learner = harness.new_learner(domain, model, "semOnly", 0)
    scene = generate_scene(model, "brandyGlass", np.random.default_rng(0), 0)
    learner.xb.add("brandyGlass", scene[0].class_feature, positive=True)
    learner.lexicon.add("brandy glass", "noun", cls_pred("brandyGlass"))
    teacher = TeacherState(domain=domain, strategy="maxHelp", lexicon=domain_lexicon(domain))
    step = harness.LearnerEpisode(learner, "maxHelp", scene, ExperimentConfig(), domain, 1)
    step.hear(teacher_probe(teacher, step.eid))
    assert step.answer == "brandyGlass"
    [label] = teacher_respond(teacher, step.eid, "brandyGlass", None)
    assert step.hear(label) == []
    assert not step.close()
    assert len(learner.xb.positive["brandyGlass"]) == 1
    assert not learner.xb.negative.get("brandyGlass")


def _run_spied(monkeypatch, config):
    """run_sequence(config, "minHelp", 0), recording the arguments of every
    `run_exam` call."""
    exams = []
    real_exam = harness.run_exam

    def spy_exam(*args):
        exams.append(args)
        return real_exam(*args)

    monkeypatch.setattr(harness, "run_exam", spy_exam)
    return run_sequence(config, "minHelp", 0), exams


def _classified_confusion(learner, test_set, config, domain):
    """The confusion rates of `classify` run afresh on every test object."""
    preds = [
        classify(
            harness._perceive(learner, [obj], config, domain),
            learner.kb, learner.u, list(config.classes), obj.eid,
        )
        for obj in test_set
    ]
    return harness._confusion_rates(test_set, preds, config)


def _small_config(monkeypatch):
    monkeypatch.setattr(ExperimentConfig, "test_set_size", SMALL_TEST_SET)
    return ExperimentConfig(difficulty="fineEasy", strategies=("minHelp",), seeds=(0,))


def test_confusion_comes_from_an_exam_right_after_the_final_episode(monkeypatch):
    config = _small_config(monkeypatch)
    res, exams = _run_spied(monkeypatch, config)
    assert config.n_total % config.n_exam == 0 and len(exams) == len(res.exams) > 0
    assert not res.capped
    # the learner is unchanged since the last exam, so classifying again agrees
    learner, test_scene, _, domain, _ = exams[-1]
    assert res.confusion == _classified_confusion(learner, test_scene.scene, config, domain)


@pytest.mark.parametrize("cap, exam_mistakes", [(3, []), (8, [5])])
def test_capped_run_takes_the_confusion_from_one_more_exam(monkeypatch, cap, exam_mistakes):
    monkeypatch.setattr(harness, "EPISODE_CAP", cap)
    config = _small_config(monkeypatch)
    res, exams = _run_spied(monkeypatch, config)
    assert res.episodes == cap and res.capped
    assert [e.mistakes for e in res.exams] == exam_mistakes  # none at the final episode
    assert len(exams) == len(res.exams) + 1
    learner, test_scene, _, domain, _ = exams[-1]
    assert res.confusion == _classified_confusion(learner, test_scene.scene, config, domain)


def test_run_spending_its_mistake_budget_at_the_cap_is_not_capped(monkeypatch):
    config = _small_config(monkeypatch)
    full = run_sequence(config, "minHelp", 0)
    monkeypatch.setattr(harness, "EPISODE_CAP", full.episodes)
    res = run_sequence(config, "minHelp", 0)
    assert res.episodes == full.episodes and not res.capped


def test_mistake_budget_off_the_exam_interval_takes_one_more_exam(monkeypatch):
    spec = {**DIFFICULTIES["fineEasy"], "n_total": 7}
    monkeypatch.setitem(harness.DIFFICULTIES, "fineEasy", spec)
    config = _small_config(monkeypatch)
    res, exams = _run_spied(monkeypatch, config)
    assert [e.mistakes for e in res.exams] == [5] and len(exams) == 2
    assert not res.capped
    learner, test_scene, _, domain, _ = exams[-1]
    assert res.confusion == _classified_confusion(learner, test_scene.scene, config, domain)


def test_exams_plan_each_test_object_once_per_cell(monkeypatch):
    config = _small_config(monkeypatch)
    planned = Counter()  # test object -> plan keys made for its queries
    real_plan_key = reasoner._plan_key

    def spy_plan_key(sg, queries):
        planned[queries[0].args[0].ident] += 1
        return real_plan_key(sg, queries)

    monkeypatch.setattr(reasoner, "_plan_key", spy_plan_key)
    res, exams = _run_spied(monkeypatch, config)
    assert len(exams) == len(res.exams) > 1
    test_eids = [obj.eid for obj in exams[0][1].scene]
    assert {eid: planned[eid] for eid in test_eids} == dict.fromkeys(test_eids, 1)


def test_exemplar_base_keeps_no_unused_pool_after_a_cell(monkeypatch):
    monkeypatch.setattr(ExperimentConfig, "test_set_size", SMALL_TEST_SET)
    config = ExperimentConfig(difficulty="fineEasy", strategies=("maxHelp_semNegScal",), seeds=(0,))
    learners = []
    real_new_learner = harness.new_learner

    def spy_new_learner(*args):
        learners.append(real_new_learner(*args))
        return learners[-1]

    monkeypatch.setattr(harness, "new_learner", spy_new_learner)
    run_sequence(config, "maxHelp_semNegScal", 0)
    xb = learners[0].xb
    class_adds = sum(len(xb.positive.get(c, [])) + len(xb.negative.get(c, [])) for c in config.classes)
    assert class_adds > 2 * len(config.classes)
    used = {id(pool) for pool, _, _ in xb._cache.values()}
    assert {id(pool) for pool in xb._pools.values()} == used
    assert len(used) <= len(config.classes) + 2  # the classes, parts and attributes


def test_exam_scene_marginals_equal_each_objects_own_scene():
    config = ExperimentConfig(difficulty="fineEasy")
    domain = DomainSpec.builtin_glasses()
    model = FeatureModel(domain, seed=0)
    rng = np.random.default_rng([0, 3])
    xb = ExemplarBase()
    init_priors(xb, model, rng)
    classes = list(config.classes)
    for cls, wrong in zip(classes * 2, (classes[1:] + classes[:1]) * 2):
        xb.process_correction(wrong, cls, model.sample_object(cls, "x", rng).class_feature)
    kb = KnowledgeBase()
    kb.add(_part_generic("brandyGlass", "short", "stem"), EXPLICIT, 1)
    kb.add(_part_generic("brandyGlass", "round", "bowl"), EXPLICIT, 1)
    kb.add(_part_generic("champagneCoupe", "round", "bowl"), EXPLICIT, 2)
    kb.add(_conj_part_prop("burgundyGlass", ["short"], "stem", neg=True), NEG_IMPLICATURE, 2)
    learner = LearnerState(
        xb=xb, kb=kb, episodic=EpisodicMemory(), lexicon=Lexicon(), strategy="semNegScal"
    )
    test_set = make_test_set(model, config, seed=0)
    assert len(test_set) == 60
    sg = harness._perceive(learner, test_set, config, domain)
    moved = 0  # objects whose marginals the KB moves
    for obj in test_set:
        atoms = [Atom(cls_pred(c), (Const(obj.eid),)) for c in classes]
        alone = harness._perceive(learner, [obj], config, domain)
        table = marginals_for(sg, kb, learner.u, atoms)
        expected = marginals_for(alone, kb, learner.u, atoms)
        assert table.probs == expected.probs and table.log_z == expected.log_z
        moved += table.probs != marginals_for(alone, KnowledgeBase(), learner.u, atoms).probs
    assert moved == len(test_set)


def test_exams_score_again_only_the_concepts_whose_exemplars_changed(monkeypatch):
    config = ExperimentConfig(difficulty="fineEasy")
    domain = DomainSpec.builtin_glasses()
    model = FeatureModel(domain, seed=0)
    learner = harness.new_learner(domain, model, "semOnly", 0)
    test_set = make_test_set(model, config, seed=0)
    test_scene = SceneScores(test_set, learner.xb)
    class_concepts, attr_concepts = harness._concepts(config, domain)
    scenes, scored = [], []  # each exam's scene; the concepts of each score_fewshot call
    real_graph, real_score = SceneScores.graph, perception.score_fewshot

    def spy_graph(self, *concepts):
        scenes.append(real_graph(self, *concepts))
        return scenes[-1]

    def spy_score(xb, concepts, *args):
        scored.append(list(concepts))
        return real_score(xb, concepts, *args)

    monkeypatch.setattr(SceneScores, "graph", spy_graph)
    monkeypatch.setattr(perception, "score_fewshot", spy_score)

    def exam_scene():
        scored.clear()
        harness.run_exam(learner, test_scene, config, domain, 0)
        sg = scenes[-1]  # the exam's graph
        fresh = build_scene_graph(test_set, learner.xb, class_concepts, attr_concepts)
        assert sg is scenes[0]  # one graph, kept from exam to exam
        assert list(sg.nodes) == list(fresh.nodes)
        for eid, node in sg.nodes.items():
            assert node.class_scores == fresh.nodes[eid].class_scores, eid
            assert node.attr_scores == fresh.nodes[eid].attr_scores, eid
            assert list(node.class_scores) == list(fresh.nodes[eid].class_scores), eid
        assert sg.edges == fresh.edges and sg.object_parts == fresh.object_parts
        assert sg == fresh
        return scored[: len(scored) - 2]  # the exam's calls, not the fresh scene's

    # the first exam scores every concept: class concepts over the objects
    # and the parts in one call, attribute concepts over the parts
    assert exam_scene() == [class_concepts, attr_concepts]
    rng = np.random.default_rng(9)
    for cls, part_kind, attr in (("brandyGlass", "bowl", "round"), ("burgundyGlass", "bowl", "wide")):
        obj = model.sample_object(cls, "x", rng)
        bowl = next(p for p in obj.parts if p.kind == part_kind)
        learner.xb.add(cls, obj.class_feature, positive=True)
        learner.xb.add(part_kind, bowl.class_feature, positive=True)
        learner.xb.add(attr, bowl.attr_feature, positive=attr in bowl.attrs)
        assert exam_scene() == [[cls, part_kind], [attr]]
        # no add since the last exam: nothing is scored again
        assert exam_scene() == []


def test_average_confusion():
    config = ExperimentConfig(difficulty="fineEasy")
    cols = list(config.classes) + ["not-sure"]
    m1 = {t: {c: (1.0 if c == t else 0.0) for c in cols} for t in config.classes}
    m2 = {
        t: {c: (1.0 if c == "not-sure" else 0.0) for c in cols} for t in config.classes
    }
    avg = average_confusion([m1, m2], config)
    for t in config.classes:
        assert avg[t][t] == 0.5 and avg[t]["not-sure"] == 0.5


# ---------------------------------------------------------------------------
# suite output files


@pytest.fixture(scope="module")
def tiny_suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_suite")
    config = ExperimentConfig(
        difficulty="fineEasy",
        strategies=("minHelp",),
        seeds=(0,),
        out_dir=str(out),
        dump_programs=True,
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ExperimentConfig, "test_set_size", SMALL_TEST_SET)
        return config, run_suite(config)


def test_suite_writes_expected_files(tiny_suite):
    config, cells = tiny_suite
    assert [(c.strategy, c.seed, c.status) for c in cells] == [("minHelp", 0, "ok")]
    out = config.out_dir
    assert os.path.exists(os.path.join(out, "curves.csv"))
    assert os.path.exists(os.path.join(out, "aggregate.csv"))
    assert os.path.exists(os.path.join(out, "confusion_minHelp.json"))
    assert os.path.exists(os.path.join(out, "transcripts", "minHelp_0.log"))
    assert os.path.exists(os.path.join(out, "programs", "minHelp_0.lp"))


def test_curves_csv_schema(tiny_suite):
    config, _ = tiny_suite
    with open(os.path.join(config.out_dir, "curves.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {"strategy", "seed", "mistakes", "concept", "AP", "mAP"}
    n_exams = config.n_total // config.n_exam
    assert len(rows) == n_exams * len(config.classes)
    for row in rows:
        assert row["strategy"] == "minHelp"
        assert 0.0 <= float(row["mAP"]) <= 1.0


def test_aggregate_csv_schema(tiny_suite):
    config, _ = tiny_suite
    with open(os.path.join(config.out_dir, "aggregate.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == config.n_total // config.n_exam
    assert all(row["n_seeds"] == "1" for row in rows)


def test_confusion_json_rows_normalized(tiny_suite):
    config, _ = tiny_suite
    with open(os.path.join(config.out_dir, "confusion_minHelp.json")) as fh:
        matrix = json.load(fh)
    assert set(matrix) == set(config.classes)
    for row in matrix.values():
        assert abs(sum(row.values()) - 1.0) <= 1e-9


def _assert_cell_matches(tmp_path, difficulty: str, strategies: tuple, seed: int, digests: str):
    """The files of the `difficulty` cells of `strategies` and `seed`, run
    with `--dump-program`, against their digests in `sha256sum` format."""
    config = ExperimentConfig(
        difficulty=difficulty,
        strategies=strategies,
        seeds=(seed,),
        out_dir=str(tmp_path),
        dump_programs=True,
    )
    run_suite(config)
    golden = Path(__file__).parent / "golden" / digests
    for line in golden.read_text().splitlines():
        digest, name = line.split()
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_fineHard_cell_outputs_match_golden_digests(tmp_path):
    # `groundsim run --difficulty fineHard --strategy maxHelp_semNegScal
    # --seeds 1 --dump-program`
    _assert_cell_matches(tmp_path, "fineHard", ("maxHelp_semNegScal",), 0, "fineHard_cell.sha256")


def test_longest_fineHard_cell_outputs_match_golden_digests(tmp_path):
    # seed 3 (`--config` holding {"seeds": [3]}): 1770 episodes, the longest
    # fineHard cell, with scalar implicatures cancelled and many KB revisions
    _assert_cell_matches(
        tmp_path, "fineHard", ("maxHelp_semNegScal",), 3, "fineHard_cell_seed3.sha256"
    )


def test_fineEasy_cells_outputs_match_golden_digests(tmp_path):
    # `groundsim run --difficulty fineEasy --seeds 1 --dump-program`: all
    # five strategies, 17 files
    _assert_cell_matches(tmp_path, "fineEasy", tuple(STRATEGY_COMBOS), 0, "fineEasy_seed0.sha256")


def test_program_dumps_parse_back(tiny_suite):
    config, cells = tiny_suite
    dumps = cells[0].result.program_dumps
    assert len(dumps) == SMALL_TEST_SET * len(config.classes)
    text = open(os.path.join(config.out_dir, "programs", "minHelp_0.lp")).read()
    # strip per-object comment headers ("# query ...") and the blank lines
    # between dumps, keep "#hard|" rules; the rules read back to the same text
    body = "".join(ln + "\n" for ln in text.splitlines() if ln and not ln.startswith("# "))
    prog = read_ground_program(body)
    assert len(prog) > 0
    assert program_to_text(prog) == body


def test_episode_cap_guard():
    spec = DIFFICULTIES["fineEasy"]
    assert spec["n_exam"] <= spec["n_total"]


# ---------------------------------------------------------------------------
# cells as jobs: worker processes, failed and capped cells


def _files(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _pid_logging_cells(monkeypatch, log: Path):
    """Wrap `run_sequence` to append the pid of the process that ran each cell."""
    real = harness.run_sequence

    def logged(config, strategy, seed):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(config, strategy, seed)

    monkeypatch.setattr(harness, "run_sequence", logged)


def test_parallel_cells_match_a_serial_run(tmp_path, monkeypatch):
    strategies = ("minHelp", "medHelp", "maxHelp_semNegScal")
    runs = {}
    for name, cpus in (("serial", {0}), ("parallel", {0, 1})):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        log = tmp_path / f"{name}.pids"
        _pid_logging_cells(monkeypatch, log)
        config = ExperimentConfig(
            difficulty="fineEasy",
            strategies=strategies,
            seeds=(0, 3),
            out_dir=str(tmp_path / name),
            dump_programs=True,
        )
        cells = run_suite(config)
        monkeypatch.undo()
        assert multiprocessing.active_children() == []
        pids = log.read_text().split()
        runs[name] = cells, _files(tmp_path / name), pids
    (serial, serial_files, serial_pids), (parallel, parallel_files, parallel_pids) = runs.values()
    # one worker runs every cell in this process, two run them in two others
    assert set(serial_pids) == {str(os.getpid())}
    assert len(set(parallel_pids)) == 2 and str(os.getpid()) not in parallel_pids
    assert [(c.strategy, c.seed) for c in parallel] == [(s, n) for s in strategies for n in (0, 3)]
    assert all(c.status == "ok" for c in parallel)
    assert parallel == serial
    # curves.csv, aggregate.csv, and per strategy a confusion file, 2 transcripts and 2 dumps
    assert len(serial_files) == 2 + len(strategies) * (1 + 2 + 2)
    assert parallel_files == serial_files


def test_a_cell_does_not_import_numpy_ma():
    # np.median imports numpy.ma (~20 ms), which every fresh worker would pay for
    code = (
        "import sys\n"
        "from groundsim import harness\n"
        "harness.ExperimentConfig.test_set_size = 2\n"
        "config = harness.ExperimentConfig(strategies=('minHelp',), seeds=(0,))\n"
        "assert harness.run_sequence(config, 'minHelp', 0).exams\n"
        "assert 'numpy.ma' not in sys.modules, 'a cell imported numpy.ma'\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_workers_fork_from_a_parent_that_built_the_feature_model(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(ExperimentConfig, "test_set_size", SMALL_TEST_SET)
    harness.domain_model.cache_clear()
    log = tmp_path / "models"
    real = harness.run_sequence

    def logged(config, strategy, seed):  # the models a worker holds as its cell starts
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {harness.domain_model.cache_info().currsize}\n")
        return real(config, strategy, seed)

    monkeypatch.setattr(harness, "run_sequence", logged)
    frozen = gc.get_freeze_count()
    cells = run_suite(ExperimentConfig(strategies=("minHelp", "medHelp"), seeds=(0, 1)))
    assert [c.status for c in cells] == ["ok"] * 4
    assert "numpy.random" in sys.modules
    assert harness.domain_model.cache_info().currsize == 1  # built here, not sent back
    lines = [line.split() for line in log.read_text().splitlines()]
    assert str(os.getpid()) not in dict(lines)
    assert [n for _, n in lines] == ["1"] * 4  # inherited by every worker
    assert gc.get_freeze_count() == frozen


@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
def test_a_failed_cell_is_listed_and_the_others_are_written(tmp_path, monkeypatch, capsys, cpus):
    real = harness.run_sequence

    def failing(config, strategy, seed):
        if (strategy, seed) == ("medHelp", 1):
            raise RuntimeError("cell broke")
        return real(config, strategy, seed)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    monkeypatch.setattr(harness, "run_sequence", failing)
    out = tmp_path / "out"
    argv = ["run", "--strategy", "minHelp", "--strategy", "medHelp", "--seeds", "2"]
    assert main([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "failed cell (medHelp, seed=1): RuntimeError: cell broke\n"
    assert "minHelp              final mAP" in captured.out
    assert "medHelp              final mAP" in captured.out and "over 1 seeds" in captured.out
    logs = sorted(p.name for p in (out / "transcripts").iterdir())
    assert logs == ["medHelp_0.log", "minHelp_0.log", "minHelp_1.log"]
    for name in ("curves.csv", "confusion_minHelp.json", "confusion_medHelp.json"):
        assert (out / name).exists()
    with open(out / "curves.csv") as fh:
        cells = {(row["strategy"], row["seed"]) for row in csv.DictReader(fh)}
    assert cells == {("minHelp", "0"), ("minHelp", "1"), ("medHelp", "0")}
    with open(out / "aggregate.csv") as fh:
        n_seeds = {row["strategy"]: row["n_seeds"] for row in csv.DictReader(fh)}
    assert n_seeds == {"minHelp": "2", "medHelp": "1"}


def test_a_strategy_whose_cells_all_failed_has_no_confusion_file(tmp_path, monkeypatch):
    def failing(config, strategy, seed):
        raise ValueError("no cell")

    monkeypatch.setattr(harness, "run_sequence", failing)
    config = ExperimentConfig(strategies=("minHelp",), seeds=(0,), out_dir=str(tmp_path))
    (cell,) = run_suite(config)
    assert (cell.status, cell.result, cell.error) == ("failed", None, "ValueError: no cell")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["aggregate.csv", "curves.csv"]


def test_a_worker_that_dies_fails_its_cells(tmp_path, monkeypatch):
    def dying(config, strategy, seed):
        os._exit(3)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(harness, "run_sequence", dying)
    config = ExperimentConfig(strategies=("minHelp",), seeds=(0, 1), out_dir=str(tmp_path))
    cells = run_suite(config)
    assert [(c.seed, c.status) for c in cells] == [(0, "failed"), (1, "failed")]
    assert all(c.error.startswith("BrokenProcessPool") for c in cells)


@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
def test_a_cell_stopped_by_the_episode_cap_is_capped(tmp_path, monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    monkeypatch.setattr(harness, "EPISODE_CAP", 8)
    config = ExperimentConfig(strategies=("minHelp",), seeds=(0, 1), out_dir=str(tmp_path))
    cells = run_suite(config)
    assert [c.status for c in cells] == ["capped", "capped"]
    assert all(c.result.episodes == 8 and c.result.capped for c in cells)
    assert sorted(p.name for p in (tmp_path / "transcripts").iterdir()) == [
        "minHelp_0.log",
        "minHelp_1.log",
    ]
