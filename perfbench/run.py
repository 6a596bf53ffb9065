"""Layered benchmark of the ``twoexact`` command line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ideal-sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

One client drives the real command line in-process through
``twoexact.cli.main(argv)``, one job at a time (a closed loop), with stdout
captured.  A pass runs the workload's job list once.  With ``--trace 0`` the
benchmark repeats passes for about ``--seconds`` seconds (at least two) and
reports end-to-end metrics; with ``--trace 1`` it runs one untraced pass and
one traced pass and reports per-layer metrics (see ``tracing.py``).

Times are reported in reference seconds: each job's measured seconds scaled
by the host speed that a fixed probe computation, timed before and after the
job, shows (see ``speed.py``).  Measured seconds are reported as ``raw_*``.

Every job's exit code is checked against a known answer computed outside
the timed passes, and its stdout (and the document it writes, if any) must
be byte-identical across the passes of one run.  A report goes to stdout,
the full result with environment and input sizes to
``perfbench/results/``, and the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from speed import probe, to_reference  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, input_sizes, replays  # noqa: E402

#: Set-ups per run; set-up time is reported as their median.
SETUPS = 3
MIN_PASSES = 2
RESULTS = os.path.join("perfbench", "results")
WORK = os.path.join("perfbench", "work")


def import_package() -> dict:
    """Import the package afresh, so each set-up pays the import."""
    for name in [m for m in sys.modules
                 if m == "twoexact" or m.startswith("twoexact.")]:
        del sys.modules[name]
    return {layer: importlib.import_module(f"twoexact.{layer}")
            for layer in LAYERS + ("onecat",)}


def set_up(workload, work: str) -> tuple[dict, list[float], list[float]]:
    """Set up ``SETUPS`` times; the package of the last, and each set-up's
    seconds, raw and at the reference speed."""
    raw, ref = [], []
    for _ in range(SETUPS):
        shutil.rmtree(work, ignore_errors=True)
        before = probe()
        start = time.perf_counter()
        os.makedirs(work)
        pkg = import_package()
        workload.write_inputs(pkg, work)
        raw.append(time.perf_counter() - start)
        ref.append(to_reference(raw[-1], before, probe()))
    return pkg, raw, ref


def run_pass(pkg: dict, jobs, tracer: Tracer | None = None) -> dict:
    """Run every job once; return per-job exit code, stdout, error and
    seconds (raw and at the reference speed), and their sums over the pass.
    The speed probe runs between jobs, outside their timing."""
    main = pkg["cli"].main
    gc.collect()
    records = []
    probes = [probe()]
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        out, err = io.StringIO(), io.StringIO()
        begin = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code, error = main(list(job.argv)), None
        except (Exception, SystemExit) as exc:  # a job that raised has failed
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - begin
        probes.append(probe())
        records.append({"code": code, "stdout": out.getvalue(),
                        "error": error or err.getvalue() or None,
                        "seconds": seconds,
                        "ref_seconds": to_reference(seconds, *probes[-2:])})
    for job, record in zip(jobs, records):
        digest = hashlib.sha256(record["stdout"].encode("utf-8"))
        if job.out is not None and os.path.exists(job.out):
            with open(job.out, "rb") as fh:
                digest.update(fh.read())
        record["sha256"] = digest.hexdigest()
    return {"wall": sum(r["seconds"] for r in records),
            "ref_wall": sum(r["ref_seconds"] for r in records),
            "jobs": records}


def check(pkg: dict, workload, work: str, jobs, passes) -> list[dict]:
    """Failed job executions: raised, wrong exit code against the known
    answer, stdout or product differing from the first pass, or a mutant
    counterexample that does not replay."""
    answers = workload.answers(pkg, work)
    failures = []
    for number, done in enumerate(passes):
        for index, (job, record) in enumerate(zip(jobs, done["jobs"])):
            first = passes[0]["jobs"][index]
            want = answers[job.answer]
            reason = None
            if record["error"] is not None and record["code"] is None:
                reason = f"raised {record['error']}"
            elif record["code"] != want:
                reason = f"exit {record['code']}, expected {want}"
            elif record["sha256"] != first["sha256"]:
                reason = "output differs from the first pass"
            elif (job.replay is not None and number == 0
                  and not replays(pkg, job.replay, job.argv[-1],
                                  record["stdout"])):
                reason = "counterexample does not replay"
            if reason is not None:
                failures.append({"pass": number, "job": job.name,
                                 "reason": reason})
    return failures


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(pkg: dict, jobs, seconds: float) -> tuple[list, dict]:
    """Untraced passes for about ``seconds`` (at least two), and the
    end-to-end metrics they give."""
    passes, rss = [], None
    started = time.perf_counter()
    while True:
        passes.append(run_pass(pkg, jobs))
        if len(passes) == MIN_PASSES:
            # read here, so the figure covers a fixed amount of work
            rss = peak_rss_mb()
        elapsed = time.perf_counter() - started
        typical = statistics.median(p["wall"] for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            break
    metrics = {
        "wall_s": (statistics.median(p["ref_wall"] for p in passes), "s"),
        "raw_wall_s": (statistics.median(p["wall"] for p in passes), "s")}
    for command in dict.fromkeys(job.command for job in jobs):
        metrics[f"{command}_s"] = (statistics.median(
            sum(r["ref_seconds"] for job, r in zip(jobs, p["jobs"])
                if job.command == command)
            for p in passes), "s")
    metrics["peak_rss_mb"] = (rss, "MB")
    return passes, metrics


def trace_pass(pkg: dict, jobs) -> tuple[list, dict, Tracer]:
    """One untraced pass, then one traced pass, and the per-layer metrics."""
    passes = [run_pass(pkg, jobs)]
    tracer = Tracer(pkg)
    tracer.install()
    try:
        passes.append(run_pass(pkg, jobs, tracer))
    finally:
        tracer.uninstall()
    # The dual cache is read, never cleared: what it retains is a finding.
    cache = getattr(pkg["core"], "_DUAL_CACHE", {})
    metrics = tracer.metrics(len(cache),
                             passes[1]["ref_wall"] / passes[0]["ref_wall"])
    return passes, metrics, tracer


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    work = os.path.join(WORK, name)
    pkg, raw_setups, setups = set_up(workload, work)
    jobs = workload.jobs(work, seed)
    tracer = None
    if trace:
        passes, metrics, tracer = trace_pass(pkg, jobs)
    else:
        passes, metrics = measure(pkg, jobs, seconds)
        metrics = {"setup_s": (statistics.median(setups), "s"),
                   "raw_setup_s": (statistics.median(raw_setups), "s"),
                   **metrics}
    failures = check(pkg, workload, work, jobs, passes)
    attempted = len(jobs) * len(passes)
    metrics["failed_ratio"] = (len(failures) / attempted, "ratio")
    result = {
        "workload": name, "why": workload.why, "seed": seed,
        "seconds": seconds, "trace": int(trace),
        "environment": {"python": platform.python_version(),
                        "implementation": platform.python_implementation(),
                        "nproc": os.cpu_count(),
                        "platform": platform.platform(),
                        "machine": platform.machine()},
        "setup_s": {"raw": raw_setups, "reference": setups},
        "pass_wall_s": {"raw": [p["wall"] for p in passes],
                        "reference": [p["ref_wall"] for p in passes]},
        "inputs": {path: input_sizes(path) for path in sorted(
            {a for job in jobs for a in job.argv[1:]
             if a.endswith(".json") and os.path.exists(a)})},
        "jobs": [{"name": job.name, "argv": list(job.argv),
                  "exit": passes[0]["jobs"][i]["code"],
                  "sha256": passes[0]["jobs"][i]["sha256"],
                  "seconds": [p["jobs"][i]["seconds"] for p in passes],
                  "ref_seconds": [p["jobs"][i]["ref_seconds"]
                                  for p in passes]}
                 for i, job in enumerate(jobs)],
        "failures": failures,
        "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{name}.seed{seed}.trace{int(trace)}")
    if tracer is not None:
        tracer.write_spans(stem + ".spans.jsonl", [job.name for job in jobs])
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    shutil.rmtree(work, ignore_errors=True)
    return result


def report(result: dict) -> None:
    print(f"# workload {result['workload']} seed {result['seed']} "
          f"trace {result['trace']}: {len(result['pass_wall_s']['raw'])} passes of "
          f"{len(result['jobs'])} jobs, {result['failed']} of "
          f"{result['attempted']} failed")
    for failure in result["failures"]:
        print(f"# FAILED pass {failure['pass']} {failure['job']}: "
              f"{failure['reason']}")
    for name, metric in result["metrics"].items():
        print(f"{result['workload']:16} {name:36} {metric['value']:>14.6g} "
              f"{metric['unit']}")


def summary(correct: bool, attempted: int, failed: int,
            metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def listed_metrics(result: dict, trace: bool) -> dict:
    """The metrics ``BENCHMARK.json`` names for this mode, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    return {n: result["metrics"][n] for n in names}


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    attempted = failed = 0
    correct, metrics = True, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        last = json.loads(lines[-1])
        attempted += last["attempted"]
        failed += last["failed"]
        correct = correct and last["correct"]
        metrics.update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(summary(correct, attempted, failed, metrics))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    missing = [p for p in (os.path.join("src", "twoexact", "cli.py"),
                           os.path.join("fixtures", "pb3.2cat.json"))
               if not os.path.exists(p)]
    if missing:
        print(f"error: not a twoexact checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    report(result)
    print(summary(not result["failures"], result["attempted"],
                  result["failed"], listed_metrics(result, bool(args.trace))),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
