"""Run one workload of the fpgroups benchmark and print its metrics.

    python3 perfbench/run.py --workload {embed,census,audit} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports fpgroups from src/.
One process and one client drive a closed loop: the workload's jobs run one
at a time, in passes over the job list, and a new pass starts only while it
is expected to end within --seconds, with at least two passes so that the
report digests of one pass can be compared with the next.  All inputs are
made from --seed before the first timed job.

With --trace 0 no wrapper is installed and the end-to-end metrics of
BENCHMARK.json are printed, each the median over the passes.  With --trace 1
one untraced pass is followed by one traced pass, and the per-layer metrics
are printed.  Either way the last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the full record, with the
machine it ran on, goes to .perfbench/results/ under the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 2
SETUP_REPEATS = 3


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("embed", "census", "audit"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _run_pass(jobs) -> dict:
    """One pass over the job list; failures are recorded, never raised."""
    rec = {"wall_s": 0.0, "verbs": Counter(), "jobs": [], "latencies_s": [], "report_bytes": 0}
    for job in jobs:
        error = ans = None
        t0 = time.perf_counter()
        try:
            ans = job.run()
        except Exception as e:  # a crashing job is a failed job, not a failed run
            error = f"{type(e).__name__}: {e}"
        dt = time.perf_counter() - t0
        if ans is not None:
            try:
                job.check(ans)
            except Exception as e:
                error = f"{type(e).__name__}: {e}"
            rec["latencies_s"] += ans.latencies_s
            rec["report_bytes"] += ans.report_bytes
        rec["wall_s"] += dt
        if job.verb:
            rec["verbs"][job.verb] += dt
        rec["jobs"].append(
            {"label": job.label, "s": dt, "digest": ans and ans.digest, "error": error}
        )
    return rec


def _run_passes(jobs, seconds: float, trace: bool):
    passes, tracer = [], None
    t0 = time.perf_counter()
    while True:
        if trace and len(passes) == 1:
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
        passes.append(_run_pass(jobs))
        elapsed = time.perf_counter() - t0
        if len(passes) < MIN_PASSES:
            continue
        if trace or elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes, tracer


def _check_stability(passes) -> None:
    """A report digest that changes between passes fails that job."""
    for p in passes[1:]:
        for first, job in zip(passes[0]["jobs"], p["jobs"]):
            if job["error"] is None and job["digest"] != first["digest"]:
                job["error"] = "report bytes differ from the first pass"


def _dehn_latency(passes) -> dict | None:
    """Median over the passes of each pass's p50 and p99 query latency, in
    ms; the p99 is the nearest rank, so beyond_p99 samples lie above it."""
    per_pass = [sorted(p["latencies_s"]) for p in passes if p["latencies_s"]]
    if not per_pass:
        return None
    n = len(per_pass[0])
    rank = math.ceil(0.99 * n)
    return {
        "p50": statistics.median(statistics.median(l) for l in per_pass) * 1e3,
        "p99": statistics.median(l[rank - 1] for l in per_pass) * 1e3,
        "samples_per_pass": n,
        "beyond_p99": n - rank,
    }


def _provenance(seed: int) -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


def main(argv=None) -> int:
    started = time.perf_counter()
    args = _args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "fpgroups" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: {ROOT} holds no src/fpgroups package or no BENCHMARK.json", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports fpgroups

    import_s = time.perf_counter() - started
    spec = json.loads(spec_path.read_text())

    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{os.getpid()}"
    try:
        generate_s = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            jobs = workloads.generate(args.workload, args.seed, workdir)
            generate_s.append(time.perf_counter() - t0)
        passes, tracer = _run_passes(jobs, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _check_stability(passes)

    verbs = workloads.VERBS[args.workload]
    per_verb = {f"{v}_s": statistics.median(p["verbs"][v] for p in passes) for v in verbs}
    dehn = _dehn_latency(passes)

    values = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": import_s + statistics.median(generate_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for i, v in enumerate(verbs, 1):
        values[f"verb{i}_s"] = per_verb[f"{v}_s"]
    wanted = spec["end_to_end"]
    if tracer is not None:
        untraced, traced = passes
        values = tracer.layer_metrics(traced["wall_s"])
        values["cli.report_bytes"] = traced["report_bytes"]
        values["trace.overhead_frac"] = traced["wall_s"] / untraced["wall_s"] - 1
        wanted = spec["per_layer"]

    jobs_run = [j for p in passes for j in p["jobs"]]
    failed = [j for j in jobs_run if j["error"] is not None]
    result = {
        "correct": not failed,
        "attempted": len(jobs_run),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": _provenance(args.seed),
        "result": result,
        "fail_frac": len(failed) / len(jobs_run),
        "per_verb_s": per_verb,
        "dehn_query_ms": dehn,
        "setup": {"import_s": import_s, "generate_s": generate_s},
        "passes": [
            {"wall_s": p["wall_s"], "verbs": dict(p["verbs"]), "jobs": p["jobs"]} for p in passes
        ],
    }
    if tracer is not None:
        t0 = tracer.spans[0][1] if tracer.spans else 0.0
        record["spans"] = [[n, s - t0, e - s, parent] for n, s, e, parent in tracer.spans]
    results = out_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")

    for j in failed:
        print(f"perfbench: FAILED {j['label']}: {j['error']}", file=sys.stderr)
    summary = ", ".join(f"{k}={v:.4g}" for k, v in {**per_verb, **(dehn or {})}.items())
    print(f"perfbench: {args.workload}: {len(passes)} passes; {summary}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
