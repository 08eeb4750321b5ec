"""CLI: argument parsing, config-file precedence, batch runs, interactive
mode driven by scripted stdin."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from groundsim import cli, harness
from groundsim.cli import build_parser, config_from_args, interactive_loop, main
from groundsim.dialogue import SEP
from groundsim.harness import ExperimentConfig


def parse_args(argv):
    return build_parser().parse_args(argv)


# ---------------------------------------------------------------------------
# argument handling


def test_defaults():
    config = config_from_args(parse_args(["run"]))
    assert config.difficulty == "fineEasy"
    assert config.seeds == tuple(range(40))
    assert set(config.strategies) == {
        "minHelp",
        "medHelp",
        "maxHelp_semOnly",
        "maxHelp_semNeg",
        "maxHelp_semNegScal",
    }
    assert config.out_dir is None and not config.dump_programs


def test_flags_override_defaults(tmp_path):
    argv = [
        "run",
        "--difficulty",
        "fineHard",
        "--strategy",
        "minHelp",
        "--strategy",
        "maxHelp_semNeg",
        "--seeds",
        "7",
        "--out",
        str(tmp_path),
        "--dump-program",
    ]
    config = config_from_args(parse_args(argv))
    assert config.difficulty == "fineHard"
    assert config.strategies == ("minHelp", "maxHelp_semNeg")
    assert config.seeds == tuple(range(7))
    assert config.out_dir == str(tmp_path)
    assert config.dump_programs


def test_invalid_strategy_rejected_by_parser(capsys):
    with pytest.raises(SystemExit):
        parse_args(["run", "--strategy", "maxHelp"])
    assert "invalid choice" in capsys.readouterr().err


def test_config_file_overridden_by_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"difficulty": "fineHard", "seeds": 3, "strategies": ["minHelp"]})
    )
    config = config_from_args(
        parse_args(["run", "--config", str(cfg), "--difficulty", "fineEasy"])
    )
    # flag beats file; file beats default
    assert config.difficulty == "fineEasy"
    assert config.seeds == (0, 1, 2)
    assert config.strategies == ("minHelp",)


def test_config_file_seed_list(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seeds": [4, 9]}))
    config = config_from_args(parse_args(["run", "--config", str(cfg)]))
    assert config.seeds == (4, 9)


def test_config_file_with_n_distractors_is_rejected(tmp_path):
    # the number of distractors is fixed, not a setting
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_distractors": 2}))
    with pytest.raises(SystemExit, match=r"unknown config keys: \['n_distractors'\]"):
        main(["run", "--config", str(cfg), "--seeds", "1", "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [("test_set_size", 20), ("feature_seed", 0)])
def test_config_file_with_a_fixed_setting_is_rejected(tmp_path, key, value):
    # the test set size and the feature seed are fixed, not settings
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    with pytest.raises(SystemExit, match=rf"unknown config keys: \['{key}'\]"):
        main(["run", "--config", str(cfg), "--seeds", "1", "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()


def test_repeated_strategy_flag_exits_with_one_line(tmp_path):
    out = tmp_path / "out"
    argv = ["--strategy", "minHelp", "--strategy", "minHelp", "--seeds", "1", "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(["run", *argv])
    assert str(exc.value) == "invalid config: strategies must not repeat: ('minHelp', 'minHelp')"
    assert not out.exists()


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dificulty": "fineEasy"}))
    with pytest.raises(SystemExit, match="dificulty"):
        config_from_args(parse_args(["run", "--config", str(cfg)]))


@pytest.mark.parametrize("mode", [[], ["--interactive"]])
def test_config_file_without_strategies_is_an_error(tmp_path, mode):
    cfg = tmp_path / "empty.json"
    cfg.write_text(json.dumps({"strategies": []}))
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match="strategies must be non-empty"):
        main(["run", "--config", str(cfg), "--seeds", "1", "--out", str(out), *mode])
    assert not out.exists()


@pytest.mark.parametrize(
    "values, message",
    [
        ({"difficulty": "fineMedium"}, "invalid config: unknown difficulty: fineMedium"),
        ({"strategies": []}, "invalid config: strategies must be non-empty"),
        ({"seeds": []}, "invalid config: seeds must be non-empty"),
        ({"seeds": [0, 0]}, "invalid config: seeds must not repeat: (0, 0)"),
        ({"seeds": [-1]}, "invalid config: seeds must be integers >= 0: (-1,)"),
        ({"seeds": 2.5}, "invalid config: seeds must be integers >= 0: 2.5"),
        ({"seeds": True}, "invalid config: seeds must be integers >= 0: True"),
        ({"strategies": ["maxHelp"]}, "invalid config: unknown strategy combo: maxHelp"),
        (
            {"strategies": ["minHelp", "minHelp"]},
            "invalid config: strategies must not repeat: ('minHelp', 'minHelp')",
        ),
        (
            {"strategies": "minHelp"},
            "invalid config: strategies must be a tuple of strategy names: 'minHelp'",
        ),
        ({"strategies": [["minHelp"]]}, "invalid config: unknown strategy combo: ['minHelp']"),
        ({"difficulty": ["fineEasy"]}, "invalid config: unknown difficulty: ['fineEasy']"),
    ],
)
def test_invalid_config_value_exits_with_one_line(tmp_path, values, message):
    # SystemExit with a message: the interpreter prints the line and exits 1,
    # with no traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    out = tmp_path / "out"
    seeds = [] if "seeds" in values else ["--seeds", "1"]
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(cfg), *seeds, "--out", str(out)])
    assert str(exc.value) == message
    assert exc.value.__suppress_context__
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ('["seeds"]', "invalid config: {cfg} does not hold a JSON object"),
        ('{"seeds": 2', "invalid config: Expecting ',' delimiter: line 1 column 12 (char 11)"),
        (None, "invalid config: [Errno 2] No such file or directory: '{cfg}'"),
    ],
)
def test_unreadable_config_file_exits_with_one_line(tmp_path, text, message):
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(cfg), "--out", str(out)])
    assert str(exc.value) == message.format(cfg=cfg)
    assert exc.value.__suppress_context__ or exc.value.__context__ is None  # no traceback
    assert not out.exists()


# ---------------------------------------------------------------------------
# batch run


def test_main_batch_run_writes_outputs(tmp_path, capsys):
    rc = main(
        [
            "run",
            "--difficulty",
            "fineEasy",
            "--strategy",
            "minHelp",
            "--seeds",
            "1",
            "--out",
            str(tmp_path / "out"),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "minHelp" in out and "final mAP" in out
    assert os.path.exists(tmp_path / "out" / "curves.csv")


@pytest.mark.parametrize("inside_a_file", [False, True])
def test_out_path_that_cannot_be_a_directory_exits_before_any_cell(
    tmp_path, monkeypatch, inside_a_file
):
    def no_cell(*args):
        pytest.fail("a cell ran before --out was checked")

    monkeypatch.setattr(harness, "run_sequence", no_cell)
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken / "out" if inside_a_file else taken
    reason = "Not a directory" if inside_a_file else "File exists"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--strategy", "minHelp", "--seeds", "1", "--out", str(out)])
    assert str(exc.value) == f"invalid --out: {out}: {reason}"
    assert exc.value.__suppress_context__


def test_main_batch_run_creates_out_before_the_first_cell(tmp_path, monkeypatch):
    out = tmp_path / "a" / "out"
    seen = []
    real = harness.run_sequence

    def spy(config, strategy, seed):
        seen.append(out.is_dir())
        return real(config, strategy, seed)

    monkeypatch.setattr(harness, "run_sequence", spy)
    monkeypatch.setattr(harness, "EPISODE_CAP", 1)
    assert main(["run", "--strategy", "minHelp", "--seeds", "1", "--out", str(out)]) == 0
    assert seen == [True] and (out / "curves.csv").exists()


def test_main_batch_run_reports_cells_without_exam(tmp_path, capsys, monkeypatch):
    # a cell stopped by the episode cap before its first exam has no final mAP
    monkeypatch.setattr(harness, "EPISODE_CAP", 1)
    argv = ["run", "--strategy", "minHelp", "--seeds", "1", "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "minHelp" in out and "no exam in 1 seeds" in out and "final mAP" not in out
    assert "minHelp              episode cap reached in seeds 0" in out


def test_main_batch_run_reports_capped_cells_by_seed(tmp_path, capsys, monkeypatch):
    # 8 episodes reach the first exam (5 mistakes) of seeds 0 and 1, not the budget
    monkeypatch.setattr(harness, "EPISODE_CAP", 8)
    argv = ["run", "--strategy", "minHelp", "--seeds", "2", "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "final mAP" in out and "no exam in" not in out
    assert "episode cap reached in seeds 0, 1" in out


# ---------------------------------------------------------------------------
# interactive mode


def feed_stdin(monkeypatch, lines):
    it = iter(lines)

    def fake_input(prompt=""):
        try:
            return next(it)
        except StopIteration:
            raise EOFError

    monkeypatch.setattr("builtins.input", fake_input)


def run_interactive(monkeypatch, lines):
    feed_stdin(monkeypatch, lines)
    config = ExperimentConfig(
        difficulty="fineEasy", strategies=("maxHelp_semNeg",), seeds=(0,)
    )
    return interactive_loop(config, "maxHelp_semNeg", 0)


def test_interactive_episode_flow(monkeypatch, capsys):
    rc = run_interactive(
        monkeypatch,
        [
            "What is this?",
            "This is a brandy glass.",
            "",  # end episode 1
            "not a template sentence",
            "What is this?",
            "Correct.",  # accept whatever came back (episode ends either way)
        ],
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "# episode 1" in out and "# episode 2" in out
    assert "learner>" in out
    assert "[no template matches" in out


def test_interactive_generic_without_pending_diff(monkeypatch, capsys):
    rc = run_interactive(
        monkeypatch,
        [
            "Brandy glasses have short stems.",
            "",
        ],
    )
    assert rc == 0
    # no crash, generic stored verbatim, next episode prompt printed
    assert "# episode 2" in capsys.readouterr().out


def test_piped_session_echoes_each_teacher_line():
    # a pipe, unlike a terminal, does not echo what it feeds to the prompt
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "groundsim.cli", "run", "--interactive"],
        input="What is this?\nCorrect.\n",
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    lines = proc.stdout.splitlines()
    assert "teacher> What is this?" in lines
    assert any(line.startswith("learner> ") for line in lines)


@pytest.mark.parametrize("flag", ["--out", "--dump-program"])
def test_interactive_rejects_output_flags(tmp_path, monkeypatch, flag):
    def no_session(*args):
        pytest.fail("the session started")

    monkeypatch.setattr(cli, "interactive_loop", no_session)
    out = tmp_path / "out"
    argv = ["run", "--interactive", flag] + ([str(out)] if flag == "--out" else [])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert str(exc.value) == f"{flag} is not supported with --interactive"
    assert not out.exists()


@pytest.mark.parametrize("strategy", ["medHelp", "maxHelp_semNegScal"])
def test_interactive_replay_of_a_batch_run_learns_the_same(monkeypatch, capsys, strategy):
    # a human typing the simulated teacher's lines gets the same learner:
    # the same answers and questions, exemplar base and knowledge base
    learners = []
    make_learner = harness.new_learner

    def recording_new_learner(*args):
        learners.append(make_learner(*args))
        return learners[-1]

    monkeypatch.setattr(harness, "new_learner", recording_new_learner)
    monkeypatch.setattr(cli, "new_learner", recording_new_learner)
    # exams only read the learner, so one test object per class is enough
    monkeypatch.setattr(ExperimentConfig, "test_set_size", 1)
    config = ExperimentConfig(strategies=(strategy,), seeds=(0,))
    result = harness.run_sequence(config, strategy, 0)

    teacher_lines, learner_lines = [], []
    episodes = "\n".join(result.transcript).split("# episode ")[1:]
    for text in episodes:
        said = [line.split(SEP) for line in text.splitlines()[1:]]
        teacher = [surface for speaker, surface, _ in said if speaker == "teacher"]
        teacher_lines += teacher if teacher[-1] == "Correct." else teacher + [""]
        learner_lines += [surface for speaker, surface, _ in said if speaker == "learner"]
    assert any(line.startswith("How are") for line in learner_lines) == strategy.startswith(
        "maxHelp"
    )

    capsys.readouterr()
    feed_stdin(monkeypatch, teacher_lines)
    assert interactive_loop(config, strategy, 0) == 0
    printed = capsys.readouterr().out.splitlines()
    assert [line[len("learner> "):] for line in printed if line.startswith("learner> ")] == (
        learner_lines
    )
    assert sum(line.startswith("# episode ") for line in printed) == result.episodes + 1

    batch, interactive = learners
    for store in ("positive", "negative"):
        a, b = getattr(batch.xb, store), getattr(interactive.xb, store)
        assert a.keys() == b.keys()
        for concept in a:
            assert len(a[concept]) == len(b[concept]), (store, concept)
            assert all(np.array_equal(x, y) for x, y in zip(a[concept], b[concept]))
    assert [(e.prop, e.provenance) for e in batch.kb] == [
        (e.prop, e.provenance) for e in interactive.kb
    ]
