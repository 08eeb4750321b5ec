"""groundsim benchmark: one workload per run, a closed loop with one caller.

    python3 bench/run.py --workload easy_suite --seed 0 --seconds 20 --trace 0

Run from the repository root; the program is imported from `src/`. With
`--trace 0` the run times the workload with nothing instrumented and reports
the end-to-end metrics of BENCHMARK.json. With `--trace 1` it runs each
request untraced and then traced (see `tracer.py`), for half of the time and
request budget, and reports the per-layer metrics, including the tracing
overhead. Every request's output is checked; on the default seed also
against `reference.json`, frozen from the program with `--freeze`. The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the exit code is 1 when any request failed. Spans and
per-name summaries of a traced run are written under `.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference.json"
DEFAULT_SEED = 0
SETUP_PROBES = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--freeze",
        action="store_true",
        help="run every request of the default seed and write reference.json",
    )
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def log(msg: str):
    print(msg, file=sys.stderr, flush=True)


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters that import the program and
    build the workload's inputs, then exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        # A blocking wait: waiting with a timeout polls, which rounds the
        # time up to the polling interval.
        with subprocess.Popen(cmd, stdout=subprocess.DEVNULL) as proc:
            rc = proc.wait()
        times.append(time.perf_counter() - start)
        if rc != 0:
            raise subprocess.CalledProcessError(rc, cmd)
    return statistics.median(times)


def closed_loop(n_requests: int, seconds: float, min_requests: int, issue) -> list[dict]:
    """One caller: `issue(i)` for i = 0, 1, ... until `seconds` of timed calls
    and `min_requests` requests are done, or all `n_requests` are."""
    records, busy = [], 0.0
    for i in range(n_requests):
        if busy >= seconds and len(records) >= min_requests:
            break
        records.append(issue(i))
        busy += records[-1]["seconds"]
    return records


def load_reference(workload: str):
    with open(REFERENCE) as fh:
        entries = json.load(fh).get(workload)
    if entries is None:
        raise SystemExit(f"{REFERENCE} has no entries for {workload}; run with --freeze")
    return entries


def check_records(wl, records, reference, baseline=None) -> list[list[str]]:
    """Problems per record: errors, self-consistency, the reference entry of
    the same request and, for a traced pass, the untraced pass's output."""
    out = []
    for i, rec in enumerate(records):
        if rec.get("error"):
            out.append([f"{rec['key']}: raised"])
            continue
        problems = []
        if baseline is not None:
            if rec["output"] != baseline[i]["output"]:
                problems.append(f"{rec['key']}: traced output differs from untraced")
        else:
            problems += wl.check(rec)
            if reference is not None:
                problems += wl.compare(rec, reference[i])
        out.append(problems)
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def report(name: str, seed: int, records: list[dict], setup_s: float, failed: int):
    """Human-readable summary with every end-to-end figure that applies to
    the workload; the machine-readable JSON line follows it."""
    ok = [r for r in records if not r.get("error")]
    wall = sum(r["seconds"] for r in records)
    objects = sum(r["objects"] for r in records)
    lines = [
        f"workload {name}, seed {seed}: {len(records)} requests, closed loop, one caller",
        f"  wall_s           {wall:.4f} s (timed calls)",
        f"  objects_per_s    {objects / wall:.2f} 1/s ({objects} scene objects)",
    ]
    if name == "hard_query":
        ms = sorted(r["seconds"] * 1e3 for r in ok)
        p50 = statistics.median(ms)
        p90 = statistics.quantiles(ms, n=10)[8]
        beyond = sum(1 for v in ms if v > p90)
        lines += [
            f"  queries_per_s    {len(ok) / wall:.3f} 1/s",
            f"  query_ms_p50     {p50:.2f} ms (n={len(ms)})",
            f"  query_ms_p90     {p90:.2f} ms (n={len(ms)}, {beyond} samples beyond p90)",
        ]
    else:
        episodes = sum(r["episodes"] for r in ok)
        lines.append(f"  episodes_per_s   {episodes / wall:.2f} 1/s ({episodes} episodes)")
    if setup_s is not None:
        lines.append(
            f"  setup_s          {setup_s:.4f} s (median of {SETUP_PROBES} fresh interpreters)"
        )
    lines += [
        f"  peak_rss_mb      {peak_rss_mb():.1f} MB",
        f"  failed_frac      {failed / len(records):.4f} ({failed}/{len(records)})",
    ]
    print("\n".join(lines))


def emit(metric_specs, values: dict, attempted: int, failed: int):
    missing = [m["name"] for m in metric_specs if m["name"] not in values]
    if missing:
        raise SystemExit(f"metrics not computed: {missing}")
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs
    }
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "groundsim" / "__init__.py").is_file():
        log(f"error: the program's sources are not at {SRC}")
        return 2
    sys.path.insert(0, str(SRC))
    import tracer as tr
    import workloads as wls

    if args.workload not in wls.WORKLOADS:
        log(f"error: unknown workload {args.workload!r}; choose from {wls.WORKLOADS}")
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        if args.setup_only:
            wls.make_workload(args.workload, args.seed, scratch)
            return 0
        if args.freeze:
            return freeze(wls, args.workload, scratch)
        return measure(args, wls, tr, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, wls, tr, scratch) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    name, seed = args.workload, args.seed
    reference = load_reference(name) if seed == DEFAULT_SEED else None
    wl = wls.make_workload(name, seed, scratch)
    if args.trace:
        records, traced, values = traced_run(args, wls, tr, wl, scratch)
        setup_s = None
    else:
        setup_s = setup_seconds(name, seed)
        records = closed_loop(
            len(wl), args.seconds, wls.MIN_REQUESTS[name],
            lambda i: wls.run_request(wl, i, log),
        )
        traced = []
        wall = sum(r["seconds"] for r in records)
        values = {"setup_s": setup_s, "objects_per_s": sum(r["objects"] for r in records) / wall}

    problems = check_records(wl, records, reference)
    problems += check_records(wl, traced, None, baseline=records)
    failed = sum(1 for p in problems if p)
    for p in problems:
        for line in p:
            log(f"FAILED {line}")
    if reference is None:
        print(f"output fingerprints for seed {seed} (compare across commits):")
        for rec in records:
            if not rec.get("error"):
                print(f"  {wl.fingerprint(rec)}")
    else:
        ok = sum(1 for p in problems[: len(records)] if not p)
        print(f"reference check: {ok}/{len(records)} requests match {REFERENCE.name}")
    report(name, seed, records, setup_s, failed)

    values["peak_rss_mb"] = peak_rss_mb()
    emit(spec["per_layer"] if args.trace else spec["end_to_end"], values,
         len(records) + len(traced), failed)
    return 0 if failed == 0 else 1


def traced_run(args, wls, tr, wl, scratch):
    """Each request runs untraced and then traced, so both see the same
    phases of machine load. Each gets half the time and request budget, so a
    traced run takes about as long as an untraced one. Returns the untraced
    records, the traced records and the per-layer metrics."""
    traced_wl = wls.make_workload(wl.name, args.seed, scratch)
    tracer = tr.Tracer()
    traced = []

    def paired(i):
        rec = wls.run_request(wl, i, log)
        with tracer.installed(tr.OBSERVERS):
            traced.append(wls.run_request(traced_wl, i, log))
        return rec

    records = closed_loop(
        len(wl), args.seconds / 2, max(1, wls.MIN_REQUESTS[wl.name] // 2), paired
    )
    summary = tracer.summary()
    values = tr.layer_metrics(
        tracer, summary,
        traced_wall=sum(r["seconds"] for r in traced),
        untraced_wall=sum(r["seconds"] for r in records),
    )
    stem = OUT_DIR / f"trace-{wl.name}"  # the latest traced run per workload
    tracer.write_spans(f"{stem}.tsv")
    with open(f"{stem}-summary.json", "w") as fh:
        json.dump({"metrics": values, "spans": summary}, fh, indent=1, sort_keys=True)
    return records, traced, values


def freeze(wls, name: str, scratch: str) -> int:
    """Run every request of the default seed, check each is self-consistent
    and write their outputs as the reference for `name`."""
    wl = wls.make_workload(name, DEFAULT_SEED, scratch)
    entries = []
    for i in range(len(wl)):
        rec = wls.run_request(wl, i, log)
        problems = ["raised"] if rec.get("error") else wl.check(rec, all_marginals=True)
        if problems:
            log(f"not freezing {name}: {rec['key']}: {problems}")
            return 1
        entries.append(wl.reference_entry(rec))
        log(f"{name} {i + 1}/{len(wl)} {wl.fingerprint(rec)} ({rec['seconds']:.2f} s)")
    reference = {}
    if REFERENCE.exists():
        with open(REFERENCE) as fh:
            reference = json.load(fh)
    reference[name] = entries
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
