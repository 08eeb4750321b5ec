"""Tests of the benchmark itself: input generation, the tracer's patching and
span arithmetic, and how output checks report failures.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wls  # noqa: E402
from groundsim.logic import prop_key  # noqa: E402


# ---------------------------------------------------------------------------
# workload generation


def test_suite_cell_seeds_depend_only_on_bench_seed(tmp_path):
    a = wls.SuiteWorkload("easy_lowhelp", 5, str(tmp_path))
    b = wls.SuiteWorkload("easy_lowhelp", 5, str(tmp_path))
    c = wls.SuiteWorkload("easy_lowhelp", 6, str(tmp_path))
    assert a.cell_seeds == b.cell_seeds
    assert len(a.cell_seeds) == wls.POOL_SIZE["easy_lowhelp"]
    assert not set(a.cell_seeds) & set(c.cell_seeds)


def _hard_inputs(wl):
    kb = [prop_key(e.prop) for e in wl.learner.kb]
    scenes = [
        np.concatenate(
            [o.class_feature for o in scene] + [p.attr_feature for o in scene for p in o.parts]
        )
        for scene in wl.scenes
    ]
    exemplars = {c: len(v) for c, v in wl.learner.xb.positive.items()}
    return kb, scenes, exemplars


def test_hard_query_inputs_are_deterministic_per_seed():
    kb_a, scenes_a, xb_a = _hard_inputs(wls.HardQueryWorkload(1))
    kb_b, scenes_b, xb_b = _hard_inputs(wls.HardQueryWorkload(1))
    kb_c, scenes_c, _ = _hard_inputs(wls.HardQueryWorkload(2))
    assert kb_a == kb_b and xb_a == xb_b
    assert all(np.array_equal(x, y) for x, y in zip(scenes_a, scenes_b))
    assert len(kb_a) == 35
    assert kb_c == kb_a  # the KB comes from the domain, not the seed
    assert not any(np.array_equal(x, y) for x, y in zip(scenes_a, scenes_c))


def test_hard_query_components_have_fine_hard_shape():
    wl = wls.HardQueryWorkload(0)
    tracer = tr.Tracer()
    with tracer.installed(tr.OBSERVERS):
        for i in range(2):
            wls.run_request(wl, i, pytest.fail)
    assert tracer.samples["exact.atoms_per_solve"] == [32, 32]  # 25 base + 7 derived


# ---------------------------------------------------------------------------
# tracer


def _snapshot():
    mods = {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "groundsim" or name.startswith("groundsim.")}
    methods = {}
    for mod_name, cls_name, meth in tr.TRACED_METHODS:
        cls = getattr(importlib.import_module(f"groundsim.{mod_name}"), cls_name)
        methods[(cls_name, meth)] = cls.__dict__[meth]
    return mods, methods


def _assert_restored(before):
    mods, methods = _snapshot()
    assert mods.keys() == before[0].keys()
    for name, attrs in before[0].items():
        for attr, obj in attrs.items():
            assert mods[name][attr] is obj, f"{name}.{attr} not restored"
    assert methods == before[1]


@pytest.mark.parametrize("fail", [False, True])
def test_wrappers_cover_every_lookup_name_and_are_restored(fail):
    import groundsim.agents
    import groundsim.harness
    import groundsim.reasoner

    before = _snapshot()
    tracer = tr.Tracer()
    with pytest.raises(RuntimeError) if fail else contextlib.nullcontext():
        with tracer.installed(tr.OBSERVERS):
            for owner, attr in [
                (groundsim.harness, "marginals_for"),
                (groundsim.reasoner, "marginals_for"),
                (groundsim.reasoner, "solve_exact"),
                (groundsim.reasoner, "ground"),
                (groundsim.agents, "build_scene_graph"),
            ]:
                assert hasattr(getattr(owner, attr), "__wrapped__"), attr
            if fail:
                raise RuntimeError("error inside the traced region")
    _assert_restored(before)


def test_every_public_layer_function_is_wrapped():
    layers = {f"groundsim.{m}" for m in tr.LAYER_MODULES}
    tracer = tr.Tracer()
    with tracer.installed():
        for mod_name in tr.LAYER_MODULES:
            mod = importlib.import_module(f"groundsim.{mod_name}")
            for attr, obj in vars(mod).items():
                public = inspect.isfunction(obj) and not attr.startswith("_")
                if public and obj.__module__ in layers:
                    assert hasattr(obj, "__wrapped__"), f"{mod_name}.{attr}"


def _add_span(t: tr.Tracer, name: str, start: float, end: float, parent: int) -> int:
    idx = t.open(name)
    t.close(idx)
    t.starts[idx], t.ends[idx], t.parents[idx] = start, end, parent
    return idx


def test_self_time_subtracts_the_union_of_child_intervals():
    t = tr.Tracer()
    root = _add_span(t, "root", 0.0, 10.0, -1)
    a = _add_span(t, "a", 1.0, 4.0, root)
    _add_span(t, "a.child", 2.0, 3.0, a)
    _add_span(t, "b", 3.0, 6.0, root)  # overlaps a: [1, 6] is covered once
    _add_span(t, "c", 8.0, 12.0, root)  # clipped to the root's end
    assert t.self_times() == pytest.approx([10.0 - 5.0 - 2.0, 2.0, 1.0, 3.0, 4.0])


def test_nested_spans_from_wrapped_calls():
    ticks = iter(range(100))
    t = tr.Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    wrapped_leaf = t.wrap("leaf", leaf)

    def outer(n):
        return wrapped_outer(n - 1) if n else wrapped_leaf()

    wrapped_outer = t.wrap("outer", outer)
    assert wrapped_outer(1) == 1
    # spans: outer [0, 5], outer [1, 4], leaf [2, 3]
    assert list(t.parents) == [-1, 0, 1]
    summary = t.summary()
    assert summary["outer"] == {"calls": 2, "s": 5.0, "self_s": 4.0}  # recursion counted once
    assert summary["leaf"] == {"calls": 1, "s": 1.0, "self_s": 1.0}


# ---------------------------------------------------------------------------
# output checks


def test_corrupted_reference_digest_is_reported_as_failure(tmp_path, monkeypatch, capsys):
    reference = json.loads(run.REFERENCE.read_text())
    reference["easy_lowhelp"][0]["digest"] = "0" * 64
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(reference))
    monkeypatch.setattr(run, "REFERENCE", corrupted)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)

    rc = run.main(["--workload", "easy_lowhelp", "--seed", "0", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 1
    assert result["correct"] is False
    assert result["attempted"] == 1 and result["failed"] == 1


def test_frozen_reference_matches(tmp_path):
    wl = wls.SuiteWorkload("easy_lowhelp", run.DEFAULT_SEED, str(tmp_path))
    records = [wls.run_request(wl, 0, pytest.fail)]
    reference = run.load_reference("easy_lowhelp")
    assert run.check_records(wl, records, reference) == [[]]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "easy_suite", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
