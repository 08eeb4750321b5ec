"""The benchmark's workloads.

Each workload turns the bench seed into a finite list of requests. The
runner issues them one at a time (a closed loop with one caller) and times
only the calls into `groundsim`; writing inputs, digesting outputs and
checking them happen between requests, outside the timed calls.

- `easy_suite`: one request is the user's command, `groundsim run
  --difficulty fineEasy` with all five strategies on one cell seed.
- `easy_lowhelp`: the same command with only `minHelp` and `medHelp`.
- `hard_query`: one request is a probe query (perceive a three-object scene,
  answer "What is this?") to a fineHard semNegScal learner whose KB holds
  every conceptDiff answer; its components have 25 base and 7 derived atoms.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import tempfile
import time
import traceback

import numpy as np

from groundsim import agents, cli, harness, reasoner
from groundsim.logic import Atom, Const, attr_pred, cls_pred
from groundsim.memory import EpisodicMemory, KnowledgeBase, Lexicon
from groundsim.perception import (
    DomainSpec,
    ExemplarBase,
    FeatureModel,
    generate_scene,
    init_priors,
)

SUITE_STRATEGIES = {
    "easy_suite": tuple(harness.STRATEGY_COMBOS),
    "easy_lowhelp": ("minHelp", "medHelp"),
}
# Requests a bench seed makes available. A run stops early when it has used
# them all, so a much faster program still never repeats an input.
POOL_SIZE = {"easy_suite": 16, "easy_lowhelp": 64, "hard_query": 400}
WORKLOADS = tuple(POOL_SIZE)
# Floors on the requests of one run: easy_suite cells differ a lot from seed
# to seed, so a run averages two; p90 of hard_query needs ten samples beyond
# it.
MIN_REQUESTS = {"easy_suite": 2, "easy_lowhelp": 1, "hard_query": 100}

HARD_DIFFICULTY = "fineHard"
HARD_CORRECTIONS_PER_CLASS = 2
MARGINAL_TOL = 1e-9
# Checking a query's marginals costs a second solve, as much as the query;
# answers are checked on every query, marginals on every tenth.
MARGINAL_CHECK_EVERY = 10


class SuiteWorkload:
    """`groundsim run --difficulty fineEasy` over one derived cell seed per
    request, each into its own output directory under `scratch_dir`."""

    difficulty = "fineEasy"

    def __init__(self, name: str, seed: int, scratch_dir: str):
        self.name = name
        self.strategies = SUITE_STRATEGIES[name]
        self.cell_seeds = [seed * POOL_SIZE[name] + i for i in range(POOL_SIZE[name])]
        self.scratch_dir = scratch_dir
        config = harness.ExperimentConfig(difficulty=self.difficulty)
        self.n_distractors = config.n_distractors
        self.exam_objects = config.test_set_size * len(config.classes)
        self.n_classes = len(config.classes)

    def __len__(self):
        return len(self.cell_seeds)

    def run(self, i: int) -> dict:
        """Request i; returns its timed seconds and a summary of its outputs."""
        work = tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.scratch_dir)
        try:
            config_path = os.path.join(work, "cells.json")
            with open(config_path, "w") as fh:
                json.dump({"strategies": list(self.strategies), "seeds": [self.cell_seeds[i]]}, fh)
            out = os.path.join(work, "out")
            argv = ["run", "--difficulty", self.difficulty, "--config", config_path, "--out", out]
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                rc = cli.main(argv)
                seconds = time.perf_counter() - start
            return {"seconds": seconds, "rc": rc, **self.summarize(out, self.cell_seeds[i])}
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def summarize(self, out: str, cell_seed: int) -> dict:
        """Digest of the command's output files plus the work they record:
        episodes from the transcripts, exams from curves.csv."""
        files = {"curves.csv", "aggregate.csv"} | {f"confusion_{s}.json" for s in self.strategies}
        files |= {f"transcripts/{s}_{cell_seed}.log" for s in self.strategies}
        digests = {}
        for rel in sorted(files):
            path = os.path.join(out, rel)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    digests[rel] = hashlib.sha256(fh.read()).hexdigest()
        missing = sorted(files - set(digests))
        episodes = 0
        for s in self.strategies:
            path = os.path.join(out, "transcripts", f"{s}_{cell_seed}.log")
            if os.path.exists(path):
                with open(path) as fh:
                    episodes += sum(1 for line in fh if line.startswith("# episode "))
        exams = {}
        curves = os.path.join(out, "curves.csv")
        if os.path.exists(curves):
            with open(curves, newline="") as fh:
                for row in csv.DictReader(fh):
                    exams[row["strategy"]] = exams.get(row["strategy"], 0) + 1
        exams = {s: n // self.n_classes for s, n in exams.items()}
        digest = hashlib.sha256(
            "".join(f"{rel}\0{d}\n" for rel, d in sorted(digests.items())).encode()
        ).hexdigest()
        objects = episodes * (1 + self.n_distractors) + sum(
            (n + 1) * self.exam_objects for n in exams.values()
        )
        return {
            "key": f"cell_seed={cell_seed}",
            "output": digest,
            "missing": missing,
            "episodes": episodes,
            "exams": exams,
            "objects": objects,
        }

    def check(self, rec: dict, all_marginals: bool = False) -> list[str]:
        """Problems visible without a reference: exit code, missing files."""
        problems = []
        if rec["rc"] != 0:
            problems.append(f"exit code {rec['rc']}")
        if rec["missing"]:
            problems.append(f"missing outputs {rec['missing']}")
        return problems

    @staticmethod
    def reference_entry(rec: dict) -> dict:
        return {"key": rec["key"], "digest": rec["output"], "episodes": rec["episodes"]}

    @staticmethod
    def compare(rec: dict, ref: dict) -> list[str]:
        if rec["key"] != ref["key"] or rec["output"] != ref["digest"]:
            return [f"{rec['key']}: digest {rec['output']} != {ref['key']}: {ref['digest']}"]
        return []

    @staticmethod
    def fingerprint(rec: dict) -> str:
        return f"{rec['key']} episodes={rec['episodes']} digest={rec['output']}"


class HardQueryWorkload:
    """Probe queries to a fineHard semNegScal learner built through public
    calls only; the KB is read-only while queries run."""

    name = "hard_query"

    def __init__(self, seed: int):
        config = harness.ExperimentConfig(difficulty=HARD_DIFFICULTY)
        self.classes = list(config.classes)
        domain = DomainSpec.builtin_glasses()
        self.class_concepts = self.classes + list(domain.parts)
        self.attributes = list(domain.attributes)
        model = FeatureModel(domain, seed=config.feature_seed)
        self.learner = build_hard_learner(domain, model, self.classes, seed)
        rng = np.random.default_rng([seed, 1])
        self.scenes = []
        for i in range(POOL_SIZE["hard_query"]):
            target = self.classes[i % len(self.classes)]
            self.scenes.append(generate_scene(model, target, rng, config.n_distractors))

    def __len__(self):
        return len(self.scenes)

    def run(self, i: int) -> dict:
        scene = self.scenes[i]
        eid = scene[0].eid
        start = time.perf_counter()
        sg = agents.learner_perceive(self.learner, scene, self.class_concepts, self.attributes)
        _, answer = agents.learner_answer_probe(self.learner, sg, self.classes, eid)
        seconds = time.perf_counter() - start
        return {
            "seconds": seconds, "key": f"query={i}", "index": i, "answer": answer,
            "output": answer, "sg": sg, "eid": eid, "objects": len(scene),
        }

    def marginals(self, rec: dict) -> dict[str, float]:
        """Class marginals of the queried object, solved again (untimed)."""
        atoms = {c: Atom(cls_pred(c), (Const(rec["eid"]),)) for c in sorted(self.classes)}
        learner = self.learner
        table = reasoner.marginals_for(rec["sg"], learner.kb, learner.u, list(atoms.values()))
        return {c: table[a] for c, a in atoms.items()}

    def check(self, rec: dict, all_marginals: bool = False) -> list[str]:
        """On every MARGINAL_CHECK_EVERY-th query (or all), solve again: the
        answer must be the class whose marginal is highest and above one half
        (first in name order on ties), or not-sure when none is."""
        if not (all_marginals or rec["index"] % MARGINAL_CHECK_EVERY == 0):
            return []
        rec["marginals"] = m = self.marginals(rec)
        expected, best = None, reasoner.THETA_SURE
        for c in sorted(m):
            if m[c] > best:
                expected, best = c, m[c]
        problems = [f"{c} marginal {p} outside [0, 1]" for c, p in m.items() if not 0.0 <= p <= 1.0]
        if rec["answer"] != expected:
            problems.append(f"{rec['key']}: answer {rec['answer']} but marginals {m}")
        return problems

    @staticmethod
    def reference_entry(rec: dict) -> dict:
        return {"key": rec["key"], "answer": rec["answer"], "marginals": rec["marginals"]}

    @staticmethod
    def compare(rec: dict, ref: dict) -> list[str]:
        problems = []
        if rec["key"] != ref["key"] or rec["answer"] != ref["answer"]:
            problems.append(f"{rec['key']}: answer {rec['answer']} != reference {ref['answer']}")
        if "marginals" in rec:  # re-solved on this query
            for c, p in ref["marginals"].items():
                got = rec["marginals"].get(c)
                if got is None or abs(got - p) > MARGINAL_TOL:
                    problems.append(f"{rec['key']}: P({c}) = {got} != reference {p}")
        return problems

    @staticmethod
    def fingerprint(rec: dict) -> str:
        m = ",".join(f"{c}={p:.6f}" for c, p in sorted(rec.get("marginals", {}).items()))
        return f"{rec['key']} answer={rec['answer']} {m}".rstrip()


def build_hard_learner(domain: DomainSpec, model: FeatureModel, classes: list[str], seed: int):
    """A semNegScal learner taught by a maxHelp teacher: the class nouns, the
    answer to "How are p and q different?" for every class pair, and a few
    corrected class exemplars."""
    teacher = agents.TeacherState(
        domain=domain, strategy="maxHelp", lexicon=agents.domain_lexicon(domain)
    )
    lexicon = Lexicon()
    for part in domain.parts:
        lexicon.add(part, "noun", cls_pred(part))
    for attr in domain.attributes:
        lexicon.add(attr, "adj", attr_pred(attr))
    xb = ExemplarBase()
    init_priors(xb, model, np.random.default_rng([seed, 3]))
    learner = agents.LearnerState(
        xb=xb, kb=KnowledgeBase(), episodic=EpisodicMemory(), lexicon=lexicon,
        strategy="semNegScal",
    )
    for cls in classes:
        for utt in agents.teacher_respond(teacher, "o1", cls, None):
            agents.learner_hear(learner, utt)
    episode = 0
    for p in classes:
        for q in classes:
            if p == q:
                continue
            episode += 1
            if agents.learner_ask_diff(learner, (p, q)) is None:
                continue  # the unordered pair was answered already
            statements = [
                agents.learner_hear(learner, utt)
                for utt in agents.teacher_answer_diff(teacher, (p, q))
            ]
            agents.learner_integrate_generics(
                learner, statements, (cls_pred(p), cls_pred(q)), episode
            )
    rng = np.random.default_rng([seed, 2])
    for k, cls in enumerate(classes):
        for j in range(HARD_CORRECTIONS_PER_CLASS):
            wrong = classes[(k + 1 + j) % len(classes)]
            feature = model.sample_object(cls, "x", rng).class_feature
            xb.process_correction(wrong, cls, feature)
    return learner


def make_workload(name: str, seed: int, scratch_dir: str):
    if name == "hard_query":
        return HardQueryWorkload(seed)
    return SuiteWorkload(name, seed, scratch_dir)


def run_request(workload, i: int, on_error) -> dict:
    """Request i. One that raises is recorded as an error, with its traceback
    passed to `on_error`, instead of ending the run."""
    try:
        return workload.run(i)
    except Exception:
        on_error(traceback.format_exc())
        return {"seconds": 0.0, "key": f"request={i}", "error": True, "objects": 0}
