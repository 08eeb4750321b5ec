"""Command-line entry point.

`groundsim run` executes multi-seed experiment suites and writes curves,
confusion matrices and transcripts; `--interactive` swaps the simulated
teacher for a human typing template sentences on stdin.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .dialogue import CORRECT, NOT_SURE, ParseError, Utterance, parse
from .harness import (
    DIFFICULTIES,
    STRATEGY_COMBOS,
    ExperimentConfig,
    LearnerEpisode,
    class_queue,
    mean_ci95,
    new_learner,
    run_suite,
    suite_results,
)
from .perception import DomainSpec, FeatureModel, generate_scene

CONFIG_KEYS = ("difficulty", "strategies", "seeds")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="groundsim")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment suite")
    run.add_argument("--difficulty", choices=sorted(DIFFICULTIES), default=None)
    run.add_argument(
        "--strategy",
        action="append",
        choices=sorted(STRATEGY_COMBOS),
        default=None,
        help="strategy combo; repeatable (default: all)",
    )
    run.add_argument("--seeds", type=int, default=None, help="number of shared seeds (0..N-1)")
    run.add_argument("--out", default=None, help="output directory")
    run.add_argument(
        "--dump-program",
        action="store_true",
        help="write final-exam query programs in text format for audit",
    )
    run.add_argument(
        "--interactive",
        action="store_true",
        help="human teacher: type template sentences on stdin",
    )
    run.add_argument("--config", default=None, help="JSON file overriding defaults")
    return parser


def config_from_args(args) -> ExperimentConfig:
    """Defaults < config file < explicit CLI flags. An unknown key or an
    invalid value exits with a one-line message, and so does a config file
    that cannot be read or does not hold a JSON object."""
    values: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, ValueError) as err:  # ValueError: bad JSON or encoding
            raise SystemExit(f"invalid config: {err}") from None
        if not isinstance(loaded, dict):
            raise SystemExit(f"invalid config: {args.config} does not hold a JSON object")
        unknown = set(loaded) - set(CONFIG_KEYS)
        if unknown:
            raise SystemExit(f"unknown config keys: {sorted(unknown)}")
        values.update(loaded)
    if args.difficulty is not None:
        values["difficulty"] = args.difficulty
    if args.strategy is not None:
        values["strategies"] = args.strategy
    if args.seeds is not None:
        values["seeds"] = args.seeds
    if type(values.get("seeds")) is int:  # a count; JSON true is no count
        values["seeds"] = range(values["seeds"])
    for name in ("seeds", "strategies"):
        if isinstance(values.get(name), (list, range)):
            values[name] = tuple(values[name])
    try:
        return ExperimentConfig(out_dir=args.out, dump_programs=args.dump_program, **values)
    except ValueError as err:
        raise SystemExit(f"invalid config: {err}") from None


def run_batch(config: ExperimentConfig) -> int:
    if config.out_dir is not None:  # fail before the cells run, not after
        try:
            os.makedirs(config.out_dir, exist_ok=True)
        except OSError as err:
            raise SystemExit(f"invalid --out: {config.out_dir}: {err.strerror}") from None
    cells = run_suite(config)
    results = suite_results(config, cells)
    for strategy in config.strategies:
        finals = [r.exams[-1].map for r in results[strategy] if r.exams]
        if finals:
            mean, half = mean_ci95(finals)
            print(f"{strategy:20s} final mAP {mean:.3f} +/- {half:.3f} over {len(finals)} seeds")
        no_exam = len(results[strategy]) - len(finals)
        if no_exam:
            print(f"{strategy:20s} no exam in {no_exam} seeds (episode cap reached first)")
        capped = [str(r.seed) for r in results[strategy] if r.capped]
        if capped:
            print(f"{strategy:20s} episode cap reached in seeds {', '.join(capped)}")
    if config.out_dir:
        print(f"results written to {config.out_dir}")
    failed = [c for c in cells if c.status == "failed"]
    for c in failed:
        print(f"failed cell ({c.strategy}, seed={c.seed}): {c.error}", file=sys.stderr)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# interactive mode


def _print_scene(scene, domain: DomainSpec):
    obj = scene[0]
    attrs = {p.kind: ", ".join(p.attrs) if p.attrs else "(plain)" for p in obj.parts}
    print(f"[scene] the demonstratum is a {domain.surfaces[obj.cls]}; "
          + "; ".join(f"{k} is {v}" for k, v in attrs.items()))
    print("[scene] you are the teacher and know the true class; the learner does not.")


def _read_teacher_line(prompt: str) -> str | None:
    try:
        line = input(prompt)
    except EOFError:
        return None
    if not sys.stdin.isatty():  # a terminal echoes what is typed; a pipe does not
        print(line)
    return line.strip()


def interactive_loop(config: ExperimentConfig, strategy: str, seed: int) -> int:
    """Probe-answer-feedback episodes with a human teacher on stdin.

    The human types template sentences ("What is this?", "Correct.",
    "This is a burgundy glass.", "Burgundy glasses have wide bowls." ...).
    "Correct." or a blank line ends the current episode. The learner takes
    each sentence as it takes the simulated teacher's under `strategy`.
    """
    teacher_strategy, learner_strategy = STRATEGY_COMBOS[strategy]
    domain = DomainSpec.builtin_glasses()
    model = FeatureModel(domain, seed=config.feature_seed)
    learner = new_learner(domain, model, learner_strategy, seed)
    rng = np.random.default_rng([seed, 1])
    targets = class_queue(config.classes, rng)

    print(f"interactive mode: learner strategy {learner_strategy}, seed {seed}")
    print("type teacher sentences; blank line = next episode; Ctrl-D = quit")

    episode = 0
    while True:
        episode += 1
        scene = generate_scene(model, next(targets), rng, config.n_distractors)
        step = LearnerEpisode(learner, teacher_strategy, scene, config, domain, episode)
        print(f"\n# episode {episode}")
        _print_scene(scene, domain)

        while True:
            line = _read_teacher_line("teacher> ")
            if line is None:
                print()
                return 0
            if not line:
                break
            try:
                form = parse(line, learner.lexicon, demonstratum=step.eid)
            except ParseError as exc:
                print(f"  [no template matches: {exc}]")
                continue
            replies = step.hear(Utterance("teacher", line, form, step.eid))
            if replies is None:
                if form == NOT_SURE:
                    print("  [the teacher cannot be unsure]")
                else:
                    print("  [sentence understood but not usable as teacher feedback here]")
                continue
            for reply in replies:
                print(f"learner> {reply.surface}")
            if form == CORRECT:
                break
        step.close()


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        config = config_from_args(args)
        if args.interactive:
            # a session writes no files, so an output flag would be dropped silently
            for flag, value in (("--out", args.out), ("--dump-program", args.dump_program)):
                if value:
                    raise SystemExit(f"{flag} is not supported with --interactive")
            return interactive_loop(config, config.strategies[0], config.seeds[0])
        return run_batch(config)
    return 2


if __name__ == "__main__":
    sys.exit(main())
