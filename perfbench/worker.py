"""One workload run in a fresh process: import, build round 0, say READY,
then run checks until the time is up and print one JSON result line.

    python3 perfbench/worker.py --workload modn-sweep --seed 1914 --seconds 30
        [--trace-out perfbench/out/trace.json] [--setup-only]

run.py starts this with the BLAS thread count pinned in the environment;
the parent times process start to READY as one set-up sample.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import etaforge  # noqa: E402
from etaforge import core, eta, subspaces  # noqa: E402

if not Path(etaforge.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"worker: etaforge imported from {etaforge.__file__}, "
             f"not from {ROOT / 'src'}")

import numpy as np  # noqa: E402

import workloads  # noqa: E402

# bound before any tracer wraps numpy.linalg, so probes are never traced
_SVD = np.linalg.svd
_PROBE_MATRIX = (np.random.default_rng(0).standard_normal((64, 64))
                 + 1j * np.random.default_rng(1).standard_normal((64, 64)))
SETUP_PROBES = 15
PROBE_REF_S = 0.002     # speed-probe time that defines one reference second
PROBE_WINDOW = 3        # probes on each side of a check
# Stop once this share of --seconds is measured in reference seconds: on a
# fast moment the run then does the same work, not more, so the mix of
# once-per-run and per-round checks does not follow the machine's speed.
REFERENCE_SHARE = 0.7

# thresholded decisions that refuse to answer: a failed check, not a crash
TYPED_ERRORS = (subspaces.UnstableIndexError, subspaces.RealizationGapError,
                eta.EtaConvergenceError, core.EllipticityViolation,
                core.TrigFitError, ArithmeticError)


def speed_probe():
    """Wall time of a fixed mix of interpreter work and one small LAPACK
    call, independent of etaforge: how fast the machine runs right now."""
    t0 = time.perf_counter()
    sorted(((i * 7919) % 2003, i) for i in range(1500))
    _SVD(_PROBE_MATRIX)
    return time.perf_counter() - t0


def reference_scale(probes):
    """Factor from wall seconds, measured while the speed probe took
    `probes` seconds, to seconds on a machine where it takes PROBE_REF_S."""
    return PROBE_REF_S / statistics.median(probes)


def reference_latencies(lat, probes):
    # check i ran between probes i and i + 1
    return [t * reference_scale(probes[max(0, i + 1 - PROBE_WINDOW):
                                       i + 1 + PROBE_WINDOW])
            for i, t in enumerate(lat)]


def run_check(check):
    """(status, detail): ok, mismatch, error (typed) or crash."""
    try:
        ok, detail = check.run()
    except TYPED_ERRORS as exc:
        return "error", f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # reported apart from failed checks
        return "crash", "".join(traceback.format_exception_only(exc)).strip()
    return ("ok" if ok else "mismatch"), detail


def run(workload, seed, seconds, tracer=None):
    """Rounds of checks, with a speed probe before each check and after
    the last, until REFERENCE_SHARE of `seconds` is measured in reference
    seconds or `seconds` of wall time have passed."""
    checks = workloads.build_round(workload, seed, 0)
    print("READY", flush=True)
    # rescales this start's set-up time, as in a --setup-only start
    setup_scale = reference_scale([speed_probe() for _ in range(SETUP_PROBES)])
    if tracer is not None:
        tracer.install()
    kinds, lat, status, failures, probes, defects = [], [], [], [], [], []
    r = 0
    deadline = time.perf_counter() + seconds
    measured = 0.0
    try:
        while True:
            for check in checks:
                if time.perf_counter() >= deadline \
                        or measured >= REFERENCE_SHARE * seconds:
                    break
                probes.append(speed_probe())
                if tracer is not None:
                    tracer.check_id = len(lat)
                t0 = time.perf_counter()
                st, detail = run_check(check)
                lat.append(time.perf_counter() - t0)
                measured += lat[-1] * reference_scale(probes[-PROBE_WINDOW:])
                kinds.append(check.kind)
                status.append(st)
                if st != "ok" and len(failures) < 20:
                    failures.append(f"round {r} {check.kind}: {st}: {detail}")
                if check.note:
                    defects.append(f"round {r} {check.kind}: {check.note}")
            else:
                r += 1
                if tracer is not None:
                    tracer.uninstall()
                checks = workloads.build_round(workload, seed, r)
                if tracer is not None:
                    tracer.install()
                continue
            break
    finally:
        if tracer is not None:
            tracer.uninstall()
    probes.append(speed_probe())
    return {"kinds": kinds, "latencies_s": lat, "status": status,
            "reference_latencies_s": reference_latencies(lat, probes),
            "failures": failures, "known_defects": defects,
            "setup_scale": setup_scale}


def _blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def _api_names():
    import importlib
    import pkgutil
    import types
    package = [n for n, v in vars(etaforge).items()
               if not n.startswith("_")
               and not isinstance(v, types.ModuleType)]
    listed = set()
    for info in pkgutil.iter_modules(etaforge.__path__):
        mod = importlib.import_module(f"etaforge.{info.name}")
        listed.update(getattr(mod, "__all__", ()))
    return {"package_names": len(package), "all_names": len(listed)}


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace-out", default=None)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    if args.setup_only:
        workloads.build_round(args.workload, args.seed, 0)
        print("READY", flush=True)
        print(reference_scale([speed_probe() for _ in range(SETUP_PROBES)]))
        return 0
    tracer = None
    if args.trace_out:
        from tracing import Tracer
        tracer = Tracer()
    result = run(args.workload, args.seed, args.seconds, tracer)
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["provenance"] = {
        "python": sys.version.split()[0], "numpy": np.__version__,
        "blas": _blas(), "public_api": _api_names(),
        "etaforge_threads": os.environ.get("ETAFORGE_THREADS")}
    if tracer is not None:
        result["layers"] = tracer.per_layer()
        out = Path(args.trace_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(tracer.dump()))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
