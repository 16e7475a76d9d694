"""Which sumkit attributes the traced run wraps, and the per-layer metrics.

Layers are sumkit's modules: cli, methods, domains, integrate, holo,
regularity, inclusion (vspace has no separate cost).  Each target below is
an attribute that a caller resolves at call time in its own module
namespace, so wrapping it there records exactly the calls that caller
makes.  A span is named after the layer that owns the called function.
"""

from __future__ import annotations

import contextlib
import math
import statistics

import numpy as np

import oracles
from spans import Tracer

from sumkit import cli, holo, inclusion, methods, regularity
from sumkit.integrate import QuadratureError

LAYERS = ("cli", "methods", "domains", "integrate", "holo", "regularity", "inclusion")

SHIPPED_EXPERIMENTS = (
    ("abel-synthetic", "abel-synthetic-convergent"),
    ("cesaro-regularity", "cesaro-st"),
    ("cesaro-vs-abel", "cesaro-into-abel"),
    ("cesaro-vs-abel", "abel-into-cesaro-reverse"),
    ("kernel-regularity", "logarithmic-st"),
    ("kernel-regularity", "logarithmic-2x-st"),
    ("kernel-regularity", "abel-kernel-st"),
    ("kernel-regularity", "translation-kernel-st"),
    ("matrix-regularity", "cesaro-st"),
    ("matrix-regularity", "identity-st"),
    ("matrix-regularity", "series-summation-st"),
    ("taylor-h2", "taylor-h2-partial-sums"),
    ("taylor-h2", "taylor-h2-abel-dilate"),
    ("taylor-h2", "taylor-h2-log-mean"),
    ("taylor-h2", "dilate-identity-random-polynomials"),
    ("transfer-truncation", "transfer-truncation-c4"),
)
TRANSFORM_KINDS = ("matrix", "seq2func", "kernel_counting", "kernel_lebesgue")
SERIES_SPACES = ("h2", "wiener", "disk_grid")
SLICE_LAYERS = {
    "shipped": LAYERS,
    "deep-sum": ("methods", "domains"),
    "quad-taylor": ("holo", "integrate", "methods", "domains"),
}

#: (name, unit, better) of every per-layer metric, in output order.
PER_LAYER = (
    [(f"cli.exp.{cfg}.{eid}_ms", "ms", "lower") for cfg, eid in SHIPPED_EXPERIMENTS]
    + [("cli.write_ms", "ms", "lower"),
       ("cli.pool_speedup_t2", "ratio", "higher"),
       ("methods.transform_at.calls", "count", "lower")]
    + [(f"methods.transform_at.p50_ms.{k}", "ms", "lower") for k in TRANSFORM_KINDS]
    + [("methods.source_terms", "count", "lower"),
       ("methods.bytes_computed", "bytes", "lower"),
       ("methods.terms_per_s.flat", "1/s", "higher"),
       ("methods.terms_per_s.dense", "1/s", "higher"),
       ("methods.failed_points", "count", "lower"),
       ("methods.wrong_converged", "count", "lower"),
       ("domains.estimate_limit.calls", "count", "lower"),
       ("domains.estimate_limit.self_ms", "ms", "lower"),
       ("integrate.quad.calls", "count", "lower"),
       ("integrate.quad.evaluations", "count", "lower"),
       ("integrate.evals_per_integral", "count", "lower"),
       ("integrate.evals_per_s", "1/s", "higher"),
       ("integrate.quad.self_s", "s", "lower"),
       ("integrate.quad_errors", "count", "lower"),
       ("holo.log_mean_multiplier.calls", "count", "lower"),
       ("holo.log_mean_multiplier.self_s", "s", "lower"),
       ("holo.log_mean_multiplier.us_per_call", "us", "lower")]
    + [(f"holo.series_norm.self_s.{s}", "s", "lower") for s in SERIES_SPACES]
    + [("holo.coeffs_pulled", "count", "lower"),
       ("regularity.check_matrix_st_ms", "ms", "lower"),
       ("regularity.check_kernel_st_ms", "ms", "lower"),
       ("regularity.inconclusive_cells", "count", "lower"),
       ("inclusion.inclusion_ms", "ms", "lower"),
       ("inclusion.transfer_ms", "ms", "lower"),
       ("setup.import_s", "s", "lower"),
       ("setup.scipy_special_share", "ratio", "lower"),
       ("trace.overhead_frac", "ratio", "lower")]
    + [(f"depth.{e}", "rung", "higher")
       for e in ("abel", "cesaro", "log_kernel", "taylor_h2", "taylor_wiener")]
    + [(f"{w}.self_s.{layer}", "s", "lower") for w, ls in SLICE_LAYERS.items() for layer in ls]
)


def _transform_kind(args, kwargs):
    spec = args[0]
    if isinstance(spec, methods.MatrixSpec):
        kind = "matrix"
    elif isinstance(spec, methods.SeqToFuncSpec):
        kind = "seq2func"
    else:
        kind = "kernel_counting" if spec.measure == "counting" else "kernel_lebesgue"
    return f"methods.transform_at.{kind}"


def _targets(t: Tracer) -> list:
    def span(name, **kw):
        return lambda fn: t.wrap(name, fn, **kw)

    def bump(key, amount):
        t.counts[key] += amount

    def quad_after(result, args, kwargs):
        if isinstance(result, QuadratureError):
            bump("integrate.quad_errors", 1)
        elif not isinstance(result, BaseException):
            bump("integrate.evaluations",
                 result[2] if isinstance(result, tuple) else result.evaluations)

    def limit_after(est, args, kwargs):
        if not isinstance(est, BaseException):
            bump("methods.failed_points", len(est.failed_points))

    def regularity_after(report, args, kwargs):
        if not isinstance(report, BaseException):
            bump("regularity.inconclusive_cells",
                 sum(cell[2] == "inconclusive" for c in report.conditions() for cell in c.cells))

    def experiment_name(args, kwargs):
        return f"cli.exp.{t.op_id}.{args[0]['id']}"

    def series_norm_name(args, kwargs):
        return f"holo.series_norm.{args[0].space.tag}"

    quad = span("integrate.quad", after=quad_after)
    limit = span("methods.summability_limit", after=limit_after)
    estimate = span("domains.estimate_limit")
    matrix_st = span("regularity.check_matrix_st", after=regularity_after)
    kernel_st = span("regularity.check_kernel_st", after=regularity_after)
    return [
        (cli, "run_config", span("cli.run_config")),
        (cli, "run_experiment", span("cli.run_experiment", name_of=experiment_name)),
        (cli, "write_csv", span("cli.write_csv")),
        (cli, "summability_limit", limit),
        (cli, "check_matrix_st", matrix_st),
        (cli, "check_kernel_st", kernel_st),
        (cli, "inclusion_experiment", span("inclusion.inclusion_experiment")),
        (cli, "transfer_experiment", span("inclusion.transfer_experiment")),
        (cli, "taylor_summability_experiment", span("holo.taylor_summability_experiment")),
        (cli, "dilate_dual_deviation", span("holo.dilate_dual_deviation")),
        (inclusion, "summability_limit", limit),
        (inclusion, "estimate_limit_at_infinity", estimate),
        (inclusion, "check_matrix_st", matrix_st),
        (inclusion, "check_kernel_st", kernel_st),
        (methods, "summability_limit", limit),
        (methods, "transform_at", span("methods.transform_at", name_of=_transform_kind,
                                       keep_durations=True)),
        (methods, "estimate_limit_at_infinity", estimate),
        (methods, "adaptive_quadrature_batch", quad),
        (regularity, "adaptive_quadrature_batch", quad),
        (regularity, "_certified_sum", span("methods.certified_sum")),
        (holo, "series_norm", span("holo.series_norm", name_of=series_norm_name)),
        (holo, "log_mean_multiplier", span("holo.log_mean_multiplier")),
        (holo, "_adaptive", quad),
        (holo, "_truncation_for",
         lambda fn: t.count("holo.coeffs_pulled", fn, lambda n, args: n + 1)),
    ]


@contextlib.contextmanager
def traced():
    """A fresh tracer with every target wrapped; restored on exit."""
    tracer = Tracer()
    try:
        tracer.install(_targets(tracer))
        yield tracer
    finally:
        tracer.restore()


def defect_probe() -> dict:
    """summability_limit(logarithmic) on 0.5 + (1-t)^2 sin(40 t) at depth 20.

    The logarithmic transform of this source approaches 1/2 only like
    0.025 / log(1/(1-r)), while the trailing window of four samples is far
    narrower, so the estimator certifies a value 1.8e-3 from 1/2 at tol
    1e-3.  Reported as methods.wrong_converged; not a workload operation.
    """
    src = methods.scalar_function(lambda t: 0.5 + (1.0 - t) ** 2 * np.sin(40.0 * t))
    est = methods.summability_limit(methods.logarithmic_method(), src, depth=20,
                                    tol=oracles.LIMIT_TOL)
    value = None if est.value is None else complex(est.value.coords[0])
    verdict = oracles.judge(est.status, value, oracles.ALTERNATING_LIMIT, oracles.LIMIT_TOL)
    return {"status": est.status, "value": None if value is None else value.real,
            "verdict": verdict}


def _sum(tracers, prefix, field="total"):
    return sum(v for t in tracers for k, v in getattr(t, field).items()
               if k == prefix or k.startswith(prefix + "."))


def _calls(tracers, prefix):
    return sum(v for t in tracers for k, v in t.calls.items()
               if k == prefix or k.startswith(prefix + "."))


def per_layer_metrics(tracers, kinds, counters, walls, pool_speedup, defect, depth,
                      import_s, scipy_share, overhead) -> dict:
    ts = list(tracers.values())
    counts = {}
    for t in ts:
        for k, v in t.counts.items():
            counts[k] = counts.get(k, 0) + v
    values = {}
    shipped = tracers["shipped"]
    for cfg, eid in SHIPPED_EXPERIMENTS:
        values[f"cli.exp.{cfg}.{eid}_ms"] = 1e3 * shipped.total.get(f"cli.exp.{cfg}.{eid}", 0.0)
    values["cli.write_ms"] = 1e3 * (shipped.total.get("cli.write_csv", 0.0)
                                    + shipped.self_time.get("cli.run_config", 0.0))
    values["cli.pool_speedup_t2"] = pool_speedup
    values["methods.transform_at.calls"] = _calls(ts, "methods.transform_at")
    for k in TRANSFORM_KINDS:
        durs = [d for t in ts for d in t.durations.get(f"methods.transform_at.{k}", [])]
        values[f"methods.transform_at.p50_ms.{k}"] = 1e3 * statistics.median(durs) if durs else 0.0

    deep = counters["deep-sum"]
    terms = sum(deep.values())
    values["methods.source_terms"] = terms
    values["methods.bytes_computed"] = 16 * (deep.get("flat", 0) + deep.get("slow", 0)
                                             + 4 * deep.get("dense", 0))
    for cls in ("flat", "dense"):
        secs = sum(dt for ops in kinds["deep-sum"].values() for dt, src in ops if src == cls)
        values[f"methods.terms_per_s.{cls}"] = deep.get(cls, 0) / secs if secs else 0.0
    values["methods.failed_points"] = counts.get("methods.failed_points", 0) + sum(
        len(r["failed_points"]) for e in depth.values() for r in e["rungs"])
    values["methods.wrong_converged"] = int(defect["verdict"] == oracles.FAILED)

    values["domains.estimate_limit.calls"] = _calls(ts, "domains.estimate_limit")
    values["domains.estimate_limit.self_ms"] = 1e3 * _sum(ts, "domains.estimate_limit", "self_time")

    quad_calls = _calls(ts, "integrate.quad")
    evaluations = counts.get("integrate.evaluations", 0)
    quad_total = _sum(ts, "integrate.quad")
    values["integrate.quad.calls"] = quad_calls
    values["integrate.quad.evaluations"] = evaluations
    values["integrate.evals_per_integral"] = evaluations / quad_calls if quad_calls else 0.0
    values["integrate.evals_per_s"] = evaluations / quad_total if quad_total else 0.0
    values["integrate.quad.self_s"] = _sum(ts, "integrate.quad", "self_time")
    values["integrate.quad_errors"] = counts.get("integrate.quad_errors", 0)

    lm_calls = _calls(ts, "holo.log_mean_multiplier")
    lm_self = _sum(ts, "holo.log_mean_multiplier", "self_time")
    values["holo.log_mean_multiplier.calls"] = lm_calls
    values["holo.log_mean_multiplier.self_s"] = lm_self
    values["holo.log_mean_multiplier.us_per_call"] = (
        1e6 * _sum(ts, "holo.log_mean_multiplier") / lm_calls if lm_calls else 0.0)
    for s in SERIES_SPACES:
        values[f"holo.series_norm.self_s.{s}"] = _sum(ts, f"holo.series_norm.{s}", "self_time")
    values["holo.coeffs_pulled"] = counts.get("holo.coeffs_pulled", 0)

    values["regularity.check_matrix_st_ms"] = 1e3 * _sum(ts, "regularity.check_matrix_st")
    values["regularity.check_kernel_st_ms"] = 1e3 * _sum(ts, "regularity.check_kernel_st")
    values["regularity.inconclusive_cells"] = counts.get("regularity.inconclusive_cells", 0)
    values["inclusion.inclusion_ms"] = 1e3 * _sum(ts, "inclusion.inclusion_experiment")
    values["inclusion.transfer_ms"] = 1e3 * _sum(ts, "inclusion.transfer_experiment")

    values["setup.import_s"] = import_s
    values["setup.scipy_special_share"] = scipy_share
    values["trace.overhead_frac"] = overhead
    for engine, res in depth.items():
        values[f"depth.{engine}"] = res["depth"]
    for w, layers in SLICE_LAYERS.items():
        selfs = tracers[w].layer_self()
        for layer in layers:
            values[f"{w}.self_s.{layer}"] = selfs.get(layer, 0.0)

    out = {}
    for name, unit, _ in PER_LAYER:
        v = float(values[name])
        out[name] = {"value": v if math.isfinite(v) else 0.0, "unit": unit}
    return out


def self_shares(tracer: Tracer, wall: float) -> dict:
    """Share of a slice's call time per layer, plus the benchmark's own share."""
    shares = {layer: secs / wall for layer, secs in tracer.layer_self().items()}
    shares["bench"] = (wall - tracer.top) / wall
    return shares
