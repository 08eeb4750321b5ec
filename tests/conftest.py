"""Shared fixtures: the 20-seed experiment suite reused by the acceptance
tests, and a terminal summary section listing per-criterion pass/fail lines."""

import time
from dataclasses import dataclass

import pytest

from groundsim.harness import ExperimentConfig, run_suite, suite_results

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@dataclass
class SuiteRun:
    config: ExperimentConfig
    results: dict  # strategy -> list[SequenceResult]
    removed_provenances: list  # provenance sets of every KB entry removed
    elapsed: float


@pytest.fixture(scope="session")
def suite20(tmp_path_factory):
    """fineEasy suite over all five strategy combos with 20 shared seeds.

    Each cell's result lists the provenance of every KB entry its learner
    removed, so the cancellation criterion can check them all, whichever
    process ran the cell.
    """
    config = ExperimentConfig(
        difficulty="fineEasy",
        seeds=tuple(range(20)),
        out_dir=str(tmp_path_factory.mktemp("suite20")),
    )
    start = time.perf_counter()
    cells = run_suite(config)
    elapsed = time.perf_counter() - start
    failed = [f"({c.strategy}, seed={c.seed}): {c.error}" for c in cells if c.status == "failed"]
    if failed:
        raise RuntimeError(f"suite20 cells failed: {failed}")
    removed = [p for c in cells for p in c.result.removed_provenances]
    return SuiteRun(config, suite_results(config, cells), removed, elapsed)
