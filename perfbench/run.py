"""etaforge benchmark: one seeded workload run, every metric by name.

    python3 perfbench/run.py --workload modn-sweep --seed 1914 --seconds 36 --trace 0

Each run starts fresh worker processes (perfbench/worker.py) with the BLAS
thread count pinned and ETAFORGE_THREADS unset.  Times are reported in
reference seconds, rescaled by a speed probe timed around every check (see
README.md), with the wall-clock values beside them.  With --trace 0 it prints
the end-to-end metrics; with --trace 1 it runs the workload untraced and
then traced, half the time each, and prints the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object
{correct, attempted, failed, metrics}.  Exit status is 0 when a result was
printed; any failure to run the workload exits 2 without a result.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# as in workloads.py, which imports numpy and etaforge; this process does not
WORKLOADS = ("modn-sweep", "subspace-invariants", "eta-spectra")
BLAS_THREADS = 1          # <= nproc everywhere; the index kernel's speed
                          # depends on it, so it never varies
SETUP_SAMPLES = 7         # the run's own start plus six set-up-only starts
SETUP_SEED_STRIDE = 1_000_003   # set-up-only start j builds round 0 of
                                # seed + j * stride: set-up time depends on
                                # the inputs, so it is sampled over several
TAIL_BEYOND = 10
WORKER_GRACE_S = 120      # a check may overrun the deadline
END_TO_END = {"checks_per_s": "1/s", "check_p50_ms": "ms",
              "check_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The workload could not be run; no result is printed."""


def tail_percentile(values, beyond=TAIL_BEYOND):
    """(percentile, value) of the highest percentile with at least
    `beyond` samples above it: the (beyond+1)-th largest value.  With too
    few samples the maximum is returned at percentile 100."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return 100.0, ordered[-1]
    return 100.0 * (n - beyond) / n, ordered[n - beyond - 1]


def worker_env():
    env = dict(os.environ)
    env.pop("ETAFORGE_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def start_worker(workload, seed, seconds, extra=()):
    """Run one worker; returns (seconds from spawn to READY, its last
    output line as JSON: the result, or a set-up-only start's scale to
    reference seconds)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if first.strip() != "READY":
            raise BenchError(f"worker did not start: {first!r}")
        rest, _ = proc.communicate(timeout=seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired:
        raise BenchError("worker exceeded its time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else None)


def summarize(res):
    counts = {k: res["status"].count(k)
              for k in ("ok", "mismatch", "error", "crash")}
    attempted = len(res["status"])
    if attempted == 0:
        raise BenchError("no check completed")
    return attempted, counts


def end_to_end(res, setups):
    raw = res["latencies_s"]
    lat = res["reference_latencies_s"]
    pct, tail = tail_percentile(lat)
    metrics = {
        "checks_per_s": len(lat) / sum(lat),
        "check_p50_ms": 1e3 * statistics.median(lat),
        "check_tail_ms": 1e3 * tail,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = {"checks_per_s": f"wall {len(raw) / sum(raw):.4f}",
             "check_p50_ms": f"of {len(lat)} checks; wall "
                             f"{1e3 * statistics.median(raw):.4f}",
             "check_tail_ms": f"p{pct:.2f} of {len(lat)} checks, "
                              f"{sum(v > tail for v in lat)} beyond; wall "
                              f"{1e3 * tail_percentile(raw)[1]:.4f}",
             "setup_s": f"median of {len(setups)} starts",
             "peak_rss_mb": "not rescaled"}
    return metrics, notes


def provenance(seed, worker_prov):
    lines = sum(f.read_bytes().count(b"\n")
                for f in (ROOT / "src").rglob("*.py"))
    return {"git_sha": _git_sha(), "src_lines": lines, "seed": seed,
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            **worker_prov}


def _git_sha():
    # null outside a git checkout, or without git
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1914)
    p.add_argument("--seconds", type=float, default=36)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    try:
        if args.trace:
            half = args.seconds / 2
            _, plain = start_worker(args.workload, args.seed, half)
            trace_out = HERE / "out" / \
                f"trace-{args.workload}-{args.seed}.json"
            _, res = start_worker(args.workload, args.seed, half,
                                  ("--trace-out", str(trace_out)))
            runs = [plain, res]
            totals = [summarize(r) for r in runs]
            metrics = dict(res["layers"])
            plain_cps = len(plain["latencies_s"]) / sum(
                plain["reference_latencies_s"])
            traced_cps = len(res["latencies_s"]) / sum(
                res["reference_latencies_s"])
            metrics["trace.checks_per_s_ratio"] = traced_cps / plain_cps
            from tracing import PER_LAYER
            units = PER_LAYER
            notes = {"trace.checks_per_s_ratio":
                     f"traced {traced_cps:.4f} / untraced {plain_cps:.4f} "
                     "checks/s"}
        else:
            # each start's set-up time, rescaled by its own speed probes
            setups = [setup_s * scale for setup_s, scale in (
                start_worker(args.workload,
                             args.seed + j * SETUP_SEED_STRIDE, args.seconds,
                             ("--setup-only",))
                for j in range(1, SETUP_SAMPLES))]
            setup_s, res = start_worker(args.workload, args.seed,
                                        args.seconds)
            setups.append(setup_s * res["setup_scale"])
            runs = [res]
            totals = [summarize(res)]
            metrics, notes = end_to_end(res, setups)
            units = END_TO_END
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    attempted = sum(a for a, _ in totals)
    counts = {k: sum(c[k] for _, c in totals) for k in totals[0][1]}
    failed = attempted - counts["ok"]
    print(f"provenance {json.dumps(provenance(args.seed, res['provenance']))}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} checks, {failed} failed ({counts['mismatch']} "
          f"mismatch, {counts['error']} typed error, {counts['crash']} "
          f"crash), fail_ratio {failed / attempted:.6f} ratio")
    for r in runs:
        for line in r["failures"]:
            print(f"FAIL {line}")
        for line in r["known_defects"]:
            print(f"KNOWN DEFECT {line}")
    for name, value in metrics.items():
        note = notes.get(name, "")
        print(f"{name} {value:.6g} {units[name]}" + (f"  ({note})" if note
                                                     else ""))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
