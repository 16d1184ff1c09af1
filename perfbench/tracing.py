"""Per-layer tracing from outside the package.

A Tracer rebinds chosen public functions to timing wrappers in every
``etaforge.*`` module namespace that holds them (and on their classes for
methods), wraps ``numpy.linalg`` as the LAPACK boundary, and restores
every binding on ``uninstall``.  Nothing under ``src/`` is edited.

Each wrapped call is a frame on one stack.  A frame's self time is its
duration minus the durations of the frames nested directly inside it;
calls are strictly nested because the benchmark runs serially.  Frames of
hot leaf functions (tens of thousands of calls per check family) are
aggregated as counts and times only; every other frame is also kept as a
span (id, parent, check, name, start, end).
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, attribute, metric prefix, hot)
FUNCTIONS = (
    ("indexing", "analytic_index", "indexing.analytic_index", False),
    ("indexing", "build_parity_double", "indexing.build_parity_double", False),
    ("indexing", "index_formula_report", "indexing.index_formula_report",
     False),
    ("symbols", "quantize", "symbols.quantize", False),
    ("symbols", "ellipticity_check", "symbols.ellipticity_check", False),
    ("subspaces", "face_frames", "subspaces.face_frames", False),
    ("subspaces", "lift_symbol", "subspaces.lift_symbol", False),
    ("subspaces", "relative_index", "subspaces.relative_index", False),
    ("core", "polar_unitary", "core.polar_unitary", True),
    ("core", "fit_trig_poly", "core.fit_trig_poly", False),
    ("core", "winding_number", "core.winding_number", False),
    ("core", "stable_rank", "core.stable_rank", False),
    ("kzn", "winding_datum", "kzn.winding_datum", False),
    ("kzn", "direct_image_s1", "kzn.direct_image_s1", False),
    ("kzn", "normal_form", "kzn.normal_form", False),
    ("kzn", "fractional_eta_topological", "kzn.fractional_eta_topological",
     False),
    ("eta", "eta_numeric", "eta.eta_numeric", False),
    ("eta", "dimension_functional", "eta.dimension_functional", False),
    ("torus", "t3_spectrum", "torus.t3_spectrum", False),
    ("torus", "gilkey_eta", "torus.gilkey_eta", False),
)

# (module, class, method, metric prefix)
METHODS = (
    ("subspaces", "PdoSubspace", "realize", "subspaces.realize"),
    ("eta", "SpectrumModel", "lattice3_quadratic", "eta.lattice3_quadratic"),
)

LINALG_OTHER = ("det", "eig", "eigvals", "inv", "pinv", "qr", "solve",
                "lstsq", "cholesky", "slogdet", "matrix_rank")
SMALL_DIM = 16
# counters filled by the per-call hooks rather than by frame timing
EXTRA = ("symbols.quantize.out_mb", "subspaces.realize.misses",
         "eta.eta_numeric.levels", "linalg.svd_large.gflop",
         "linalg.eigh.gflop")

# metric name -> unit, in report order
PER_LAYER = {}
for _, _, _p, _ in FUNCTIONS:
    PER_LAYER[f"{_p}.calls"] = "count"
    PER_LAYER[f"{_p}.s"] = "s"
for _, _, _, _p in METHODS:
    PER_LAYER[f"{_p}.calls"] = "count"
    PER_LAYER[f"{_p}.s"] = "s"
PER_LAYER.update({
    "indexing.analytic_index.self_s": "s",
    "indexing.analytic_index.stable_ratio": "ratio",
    "symbols.quantize.out_mb": "MB",
    "subspaces.realize.misses": "count",
    "subspaces.realize.hit_ratio": "ratio",
    "subspaces.realize.self_s": "s",
    "eta.eta_numeric.levels": "count",
    "linalg.svd_large.calls": "count",
    "linalg.svd_large.s": "s",
    "linalg.svd_large.gflop": "Gflop",
    "linalg.svd_small.calls": "count",
    "linalg.svd_small.s": "s",
    "linalg.eigh.calls": "count",
    "linalg.eigh.s": "s",
    "linalg.eigh.gflop": "Gflop",
    "linalg.other.calls": "count",
    "linalg.other.s": "s",
    "trace.checks_per_s_ratio": "ratio",
})


def _shape(a):
    return getattr(a, "shape", None) or ()


def svd_gflop(shape, compute_uv=True):
    """Real-flop count of one complex SVD, from its shape (computed, not
    measured): Golub-Van Loan R-SVD counts times 4 for complex data."""
    *batch, m, n = shape
    k, l = min(m, n), max(m, n)
    flops = (4 * l * l * k + 8 * l * k * k + 9 * k ** 3) if compute_uv \
        else (4 * l * k * k - 4 * k ** 3 / 3)
    count = 1
    for b in batch:
        count *= b
    return 4 * count * flops / 1e9


def eigh_gflop(shape, vectors=True):
    """Real-flop count of one complex Hermitian eigensolve (computed)."""
    *batch, n, _ = shape
    count = 1
    for b in batch:
        count *= b
    return 4 * count * (9 * n ** 3 if vectors else 4 * n ** 3 / 3) / 1e9


class Tracer:
    """Span stack plus per-name aggregates; see the module docstring."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []
        self.spans = []
        self.calls = defaultdict(int)
        self.errors = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.extra = defaultdict(float)
        self.check_id = None
        self._open = defaultdict(int)
        self._next_id = 0
        self._patches = []

    # -- frames ------------------------------------------------------------

    def enter(self, name, hot=False):
        self._next_id += 1
        frame = [name, self.clock(), 0.0, self._next_id, hot]
        self._open[name] += 1
        self.stack.append(frame)
        return frame

    def exit(self, frame, error=None):
        end = self.clock()
        top = self.stack.pop()
        if top is not frame:
            raise RuntimeError("tracer frames exited out of order")
        name, start, child_s, span_id, hot = frame
        dur = end - start
        self._open[name] -= 1
        self.calls[name] += 1
        if error is not None:
            self.errors[(name, type(error).__name__)] += 1
        if self._open[name] == 0:  # count recursive time once
            self.total_s[name] += dur
        self.self_s[name] += dur - child_s
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += dur
        if not hot:
            self.spans.append((span_id, parent[3] if parent else None,
                               self.check_id, name, start, end))

    def wrap(self, name, fn, hot=False, before=None, after=None):
        """Timing wrapper for fn.  name and hot may be callables of
        (args, kwargs); before(args, kwargs) and after(args, kwargs,
        result) add per-call counters."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = tracer.enter(
                name(args, kwargs) if callable(name) else name,
                hot(args, kwargs) if callable(hot) else hot)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.exit(frame, exc)
                raise
            tracer.exit(frame)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__perfbench_tracer__ = tracer
        return wrapper

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type) else
                              getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Rebind every traced callable; returns self for chaining."""
        import numpy
        # load every traced module so that sys.modules holds them
        from etaforge import (core, eta, indexing, kzn, subspaces,  # noqa
                              symbols, torus)

        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [m for k, m in sorted(sys.modules.items())
                      if m is not None and (k == "etaforge"
                                            or k.startswith("etaforge."))]
        hooks = self._hooks()
        for mod, attr, prefix, hot in FUNCTIONS:
            original = getattr(sys.modules[f"etaforge.{mod}"], attr)
            before, after = hooks.get(prefix, (None, None))
            wrapped = self.wrap(prefix, original, hot, before, after)
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is original:
                        self._patch(ns, key, wrapped)
        for mod, cls_name, attr, prefix in METHODS:
            cls = getattr(sys.modules[f"etaforge.{mod}"], cls_name)
            raw = cls.__dict__[attr]
            before, after = hooks.get(prefix, (None, None))
            if isinstance(raw, classmethod):
                value = classmethod(self.wrap(prefix, raw.__func__, False,
                                              before, after))
            else:
                value = self.wrap(prefix, raw, False, before, after)
            self._patch(cls, attr, value)
        la = numpy.linalg

        def svd_name(args, kwargs):
            dims = _shape(args[0])[-2:]
            return "linalg.svd_small" if dims and max(dims) <= SMALL_DIM \
                else "linalg.svd_large"

        def svd_after(args, kwargs, result):
            if svd_name(args, kwargs) == "linalg.svd_large":
                self.extra["linalg.svd_large.gflop"] += svd_gflop(
                    _shape(args[0]), kwargs.get("compute_uv", True))

        self._patch(la, "svd", self.wrap(
            svd_name, la.svd, hot=lambda a, k: svd_name(a, k)
            == "linalg.svd_small", after=svd_after))
        for attr, vectors in (("eigh", True), ("eigvalsh", False)):
            def eigh_after(args, kwargs, result, vectors=vectors):
                self.extra["linalg.eigh.gflop"] += eigh_gflop(
                    _shape(args[0]), vectors)
            self._patch(la, attr, self.wrap(
                "linalg.eigh", getattr(la, attr),
                hot=lambda a, k: max(_shape(a[0])[-2:] or (0,)) <= SMALL_DIM,
                after=eigh_after))
        for attr in LINALG_OTHER:
            if hasattr(la, attr):
                self._patch(la, attr, self.wrap("linalg.other",
                                                getattr(la, attr), True))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _hooks(self):
        def realize_before(args, kwargs):
            L, N = args[0], args[1] if len(args) > 1 else kwargs["N"]
            if int(N) not in L.realized_truncations():
                self.extra["subspaces.realize.misses"] += 1

        def quantize_after(args, kwargs, result):
            self.extra["symbols.quantize.out_mb"] += result.matrix.nbytes / 1e6

        def eta_before(args, kwargs):
            model = args[0] if args else kwargs["model"]
            self.extra["eta.eta_numeric.levels"] += len(model.eigenvalues())

        return {"subspaces.realize": (realize_before, None),
                "symbols.quantize": (None, quantize_after),
                "eta.eta_numeric": (eta_before, None)}

    # -- results ------------------------------------------------------------

    def per_layer(self):
        """Every PER_LAYER metric except the tracing-overhead ratio."""
        out = {}
        for name in PER_LAYER:
            base, _, field = name.rpartition(".")
            calls = self.calls.get(base, 0)
            if field == "calls":
                out[name] = calls
            elif field == "s":
                out[name] = self.total_s.get(base, 0.0)
            elif field == "self_s":
                out[name] = self.self_s.get(base, 0.0)
            elif field == "stable_ratio":
                raised = sum(v for (n, _), v in self.errors.items()
                             if n == base)
                out[name] = (calls - raised) / calls if calls else 0.0
            elif field == "hit_ratio":
                misses = self.extra.get(f"{base}.misses", 0)
                out[name] = (calls - misses) / calls if calls else 0.0
            elif name in EXTRA:
                out[name] = self.extra.get(name, 0)
        return out

    def dump(self):
        return {"spans": [list(s) for s in self.spans],
                "span_fields": ["id", "parent", "check", "name", "start",
                                "end"],
                "calls": dict(self.calls),
                "total_s": dict(self.total_s),
                "self_s": dict(self.self_s),
                "errors": {f"{n}:{e}": v for (n, e), v in self.errors.items()},
                "extra": dict(self.extra)}
