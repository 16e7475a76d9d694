"""Config-driven experiment runner.

Usage:
    sumkit run CONFIG [--out DIR] [--threads N] [--tol X] [--plots]
    sumkit list-builtins

CONFIG is a JSON file (or the name of a shipped example config) holding a
list of experiments; each experiment's kind is one of check_regularity, sum,
inclusion, transfer, weak_inclusion, taylor.  The schema is strict: unknown
keys are rejected before anything runs.

Outputs per experiment: {out}/{id}.csv with the fixed column layout
(experiment_id, module, grid_param, quantity, value_re, value_im, verdict),
plus a combined report.json and a run_manifest.json.  CSV serialization uses
shortest-roundtrip floats and a deterministic row order, so identical config
and toolkit version give byte-identical CSVs.  Verdicts (including fail
verdicts) are data; the process exits 0 when all experiments complete, 2 on
an invalid config, 3 on a runtime failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import __version__
from ._expr import ExpressionError, compile_expression
from .domains import HALF_LINE, NAT, UNIT_INTERVAL, HalfOpenInterval, parameter_grid
from .holo import (
    SeriesSpace,
    dilate_dual_deviation,
    geometric_taylor,
    monomial_taylor,
    power_taylor,
    taylor_from_coefficients,
    taylor_summability_experiment,
)
from .inclusion import (
    inclusion_experiment,
    transfer_experiment,
    truncation_family,
    weak_inclusion_experiment,
)
from .integrate import SUBSTITUTION_LOG_BOUNDARY, SUBSTITUTION_NONE
from .methods import (
    FunctionSource,
    KernelSpec,
    MatrixSpec,
    SeqToFuncSpec,
    SequenceSource,
    abel_method,
    as_kernel,
    cesaro_method,
    identity_method,
    logarithmic_method,
    scaled_method,
    series_summation_method,
    summability_limit,
)
from .regularity import check_kernel_st, check_matrix_st
from .vspace import LinearFunctional, SpaceDescriptor, VectorValue, coordinate_functionals

BUILTIN_METHODS = {
    "identity": identity_method,
    "series_summation": series_summation_method,
    "cesaro": cesaro_method,
    "abel": abel_method,
    "logarithmic": logarithmic_method,
}

SPACES = ("h2", "wiener", "disk_grid")

GENERATORS = ("geometric", "power", "monomial", "synthetic_convergent")

CHAIN_STEPS = ("partial_sums", "abel_dilate", "log_mean")

MEASURES = ("lebesgue", "counting")

# a custom kernel's support tags; a fixed [lo, hi] is the other form
_SUPPORTS = {"full": None, "upto_r": lambda r: (0.0, r), "unit_window": lambda r: (r, r + 1.0)}

SUBSTITUTIONS = (SUBSTITUTION_NONE, SUBSTITUTION_LOG_BOUNDARY)

# custom method kind -> (expression key, its variables (parameter, index), optional keys)
_CUSTOM_KINDS = {
    "matrix": ("entries", ("m", "n"), ()),
    "seq_to_func": ("coeff", ("r", "n"), ("F",)),
    "kernel": ("kernel", ("r", "t"), ("support", "measure", "substitution", "E", "F")),
}

CSV_HEADER = "experiment_id,module,grid_param,quantity,value_re,value_im,verdict"


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# schema helpers


def _check_keys(obj: dict, ctx: str, required: tuple, optional: tuple = ()):
    if not isinstance(obj, dict):
        raise ConfigError(f"{ctx}: expected an object, got {type(obj).__name__}")
    allowed = set(required) | set(optional)
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{ctx}: unknown keys {sorted(unknown)}; allowed {sorted(allowed)}")
    missing = set(required) - set(obj)
    if missing:
        raise ConfigError(f"{ctx}: missing required keys {sorted(missing)}")


def _domain_from(tag, ctx: str):
    if tag == "unit":
        return UNIT_INTERVAL
    if tag == "halfline":
        return HALF_LINE
    if tag == "nat":
        return NAT
    if isinstance(tag, (int, float)) and tag > 0:
        return HalfOpenInterval(float(tag))
    raise ConfigError(f"{ctx}: unknown domain {tag!r}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# an experiment's scalar keys: (test of the value, what it must be)
_SCALAR_KEYS = {
    **dict.fromkeys(("depth", "m_max_exp", "n_max", "r_depth", "exhaust_depth", "count", "seed",
                     "max_degree"),
                    (lambda v: _is_number(v) and isinstance(v, int), "an integer")),
    "tol": (_is_number, "a number"),
    "radii": (lambda v: isinstance(v, list) and all(map(_is_number, v)), "a list of numbers"),
}


def _as_complex(value, ctx: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, list) and len(value) == 2:
        return complex(value[0], value[1])
    raise ConfigError(f"{ctx}: expected a number or [re, im] pair, got {value!r}")


# ---------------------------------------------------------------------------
# builders


def build_method(obj, ctx: str = "method"):
    # a builtin takes only its modifiers; a custom method only its definition
    if isinstance(obj, dict) and "builtin" in obj:
        _check_keys(obj, ctx, ("builtin",), ("scale", "as_kernel"))
        name = obj["builtin"]
        if name not in BUILTIN_METHODS:
            raise ConfigError(f"{ctx}: unknown builtin {name!r}; have {sorted(BUILTIN_METHODS)}")
        spec = BUILTIN_METHODS[name]()
        if obj.get("as_kernel"):
            spec = as_kernel(spec)
        if "scale" in obj:
            spec = scaled_method(spec, _as_complex(obj["scale"], ctx))
        return spec

    if not isinstance(obj, dict):
        raise ConfigError(f"{ctx}: expected an object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if not (isinstance(kind, str) and kind in _CUSTOM_KINDS):
        raise ConfigError(f"{ctx}: need either 'builtin' or a custom 'kind' in "
                          f"{tuple(_CUSTOM_KINDS)}")
    expr_key, variables, optional = _CUSTOM_KINDS[kind]
    _check_keys(obj, ctx, ("kind", expr_key), ("name",) + optional)
    try:
        expr = compile_expression(obj[expr_key], variables)
    except ExpressionError as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc
    param, index = variables

    def kernel_batch(p, ts):
        values = expr(**{param: float(p), index: np.asarray(ts, dtype=float)})
        return np.asarray(values, dtype=complex) * np.ones(len(ts))

    name = obj.get("name", f"custom_{kind}")
    if kind == "matrix":
        return MatrixSpec(name=name, kernel_batch=kernel_batch)
    F = _domain_from(obj.get("F", "unit"), ctx)
    if kind == "seq_to_func":
        return SeqToFuncSpec(name=name, kernel_batch=kernel_batch, F=F)
    support_tag = obj.get("support", "full")
    if isinstance(support_tag, list) and len(support_tag) == 2:
        support = lambda r, _s=tuple(support_tag): (float(_s[0]), float(_s[1]))
    elif isinstance(support_tag, str) and support_tag in _SUPPORTS:
        support = _SUPPORTS[support_tag]
    else:
        raise ConfigError(f"{ctx}: unknown support {support_tag!r}")
    # the first allowed value is the default
    for key, allowed in (("measure", MEASURES), ("substitution", SUBSTITUTIONS)):
        if obj.get(key, allowed[0]) not in allowed:
            raise ConfigError(f"{ctx}: unknown {key} {obj[key]!r}; have {allowed}")
    measure = obj.get("measure", MEASURES[0])
    # a counting kernel sums over the naturals unless told otherwise
    E = _domain_from(obj.get("E", "nat" if measure == "counting" else "unit"), ctx)
    return KernelSpec(name=name, kernel_batch=kernel_batch, support=support, E=E, F=F,
                      measure=measure, substitution=obj.get("substitution", SUBSTITUTIONS[0]))


def _synthetic_convergent(obj, ctx: str):
    """Sequences v_n = L + rho^n u with known limits L."""
    _check_keys(obj, ctx, ("generator", "count", "seed"), ("rho_max", "dim", "name"))
    count = int(obj["count"])
    rho_max = float(obj.get("rho_max", 0.9))
    dim = int(obj.get("dim", 1))
    space = SpaceDescriptor(dim, "l2")
    rng = np.random.default_rng(int(obj["seed"]))
    out = []
    for i in range(count):
        L = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        u = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        u = u / np.linalg.norm(u)
        rho = rho_max * rng.uniform(0.1, 1.0) * np.exp(2j * math.pi * rng.uniform())

        def block(lo, hi, L=L, u=u, rho=rho):
            ns = np.arange(lo, hi)
            return L[None, :] + np.power(rho, ns)[:, None] * u[None, :]

        label = f"synthetic_{i}"
        out.append((label, SequenceSource(space=space, block=block, name=label),
                    VectorValue(L, space)))
    return out


def build_sources(items, ctx: str = "sources"):
    """Returns a list of (label, source, expected_limit_or_None)."""
    if not isinstance(items, list) or not items:
        raise ConfigError(f"{ctx}: expected a non-empty list")
    out = []
    for i, obj in enumerate(items):
        sub = f"{ctx}[{i}]"
        if not isinstance(obj, dict):
            raise ConfigError(f"{sub}: expected an object")
        if obj.get("generator") == "synthetic_convergent":
            out.extend(_synthetic_convergent(obj, sub))
            continue
        if "expr" in obj:
            _check_keys(obj, sub, ("expr",), ("name",))
            try:
                expr = compile_expression(obj["expr"], ("n",))
            except ExpressionError as exc:
                raise ConfigError(f"{sub}: {exc}") from exc
            label = obj.get("name", f"seq_{i}")
            src = SequenceSource(
                space=SpaceDescriptor(1, "l2"),
                block=lambda lo, hi, _e=expr: (
                    np.asarray(_e(n=np.arange(lo, hi, dtype=float)), dtype=complex)
                    * np.ones(hi - lo))[:, None],
                name=label,
            )
            out.append((label, src, None))
            continue
        if "fexpr" in obj:
            _check_keys(obj, sub, ("fexpr",), ("name", "domain"))
            try:
                expr = compile_expression(obj["fexpr"], ("t",))
            except ExpressionError as exc:
                raise ConfigError(f"{sub}: {exc}") from exc
            label = obj.get("name", f"func_{i}")
            src = FunctionSource(
                space=SpaceDescriptor(1, "l2"),
                batch=lambda ts, _e=expr: (
                    np.asarray(_e(t=np.asarray(ts, dtype=float)), dtype=complex)
                    * np.ones(len(ts)))[:, None],
                domain=_domain_from(obj.get("domain", "unit"), sub),
                name=label,
            )
            out.append((label, src, None))
            continue
        raise ConfigError(f"{sub}: need 'expr', 'fexpr', or a known generator")
    return out


def build_taylor(obj, space: SeriesSpace, ctx: str = "function"):
    if not isinstance(obj, dict):
        raise ConfigError(f"{ctx}: expected an object")
    if "coeffs" in obj:
        _check_keys(obj, ctx, ("coeffs",), ("name",))
        coeffs = [_as_complex(c, ctx) for c in obj["coeffs"]]
        return taylor_from_coefficients(coeffs, space, name=obj.get("name", "polynomial"))
    gen = obj.get("generator")
    if gen == "geometric":
        _check_keys(obj, ctx, ("generator", "c", "rho"), ())
        return geometric_taylor(float(obj["c"]), float(obj["rho"]), space)
    if gen == "power":
        _check_keys(obj, ctx, ("generator", "c", "alpha"), ())
        return power_taylor(float(obj["c"]), float(obj["alpha"]), space)
    if gen == "monomial":
        _check_keys(obj, ctx, ("generator", "k"), ())
        return monomial_taylor(int(obj["k"]), space)
    raise ConfigError(f"{ctx}: need 'coeffs' or generator in {GENERATORS[:3]}")


def build_space(tag, ctx: str = "space") -> SeriesSpace:
    if tag not in SPACES:
        raise ConfigError(f"{ctx}: unknown space {tag!r}; have {SPACES}")
    return SeriesSpace(tag)


# ---------------------------------------------------------------------------
# experiment execution


@dataclass
class ExperimentOutcome:
    experiment_id: str
    module: str
    rows: list          # (quantity, grid_param, value, verdict)
    jsonable: dict
    status: str         # "completed" | "error"
    error: str = ""
    plot_series: tuple = ()


def _est_row(label: str, est) -> list:
    value = ""
    if est.value is not None and est.value.dim == 1:
        value = complex(est.value.coords[0])
    return [
        (f"limit[{label}]", "", value, est.status),
        (f"residual[{label}]", "", est.residual, ""),
    ]


def _parts(exp) -> dict:
    """An experiment's nested config built, by key; raises every ConfigError it holds."""
    ctx = exp["id"]
    parts = {key: build_method(exp[key], f"{ctx}.{key}")
             for key in ("method", "method_a", "method_b") if key in exp}
    if "sources" in exp:
        parts["sources"] = build_sources(exp["sources"], f"{ctx}.sources")
    if exp["kind"] == "taylor":
        parts["space"] = build_space(exp.get("space", "h2"), f"{ctx}.space")
        mode = exp.get("mode", "summability")
        if mode not in ("summability", "dilate_identity"):
            raise ConfigError(f"{ctx}: unknown taylor mode {mode!r}")
        if mode == "summability":
            for step in exp.get("chain", ["partial_sums"]):
                if step not in CHAIN_STEPS:
                    raise ConfigError(f"{ctx}: unknown chain step {step!r}")
            parts["function"] = build_taylor(exp["function"], parts["space"], f"{ctx}.function")
    if exp["kind"] == "transfer":
        fam, probes_cfg = exp["family"], exp["probes"]
        _check_keys(fam, f"{ctx}.family", ("name",), ("dim",))
        if fam["name"] != "truncation":
            raise ConfigError(f"{ctx}.family: only the 'truncation' family is shipped")
        space = SpaceDescriptor(int(fam.get("dim", 4)), "l2")
        parts["family"] = truncation_family(space)
        _check_keys(probes_cfg, f"{ctx}.probes", ("count", "seed"), ())
        rng = np.random.default_rng(int(probes_cfg["seed"]))
        parts["probes"] = []
        for _ in range(int(probes_cfg["count"])):
            x = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
            parts["probes"].append(VectorValue(x / np.linalg.norm(x), space))
    if exp["kind"] == "weak_inclusion":
        spec_f = exp.get("functionals", "coordinates")
        dims = {src.space.dim for _, src, _ in parts["sources"]}
        if spec_f == "coordinates":
            if len(dims) != 1:
                raise ConfigError(f"{ctx}: sources have mixed dimensions")
            parts["functionals"] = coordinate_functionals(SpaceDescriptor(dims.pop(), "l2"))
        else:
            parts["functionals"] = [LinearFunctional([_as_complex(w, f"{ctx}.functionals")
                                                      for w in weights]) for weights in spec_f]
    return parts


def _run_check_regularity(exp, tol, parts):
    spec = parts["method"]
    if isinstance(spec, MatrixSpec):
        grid = parameter_grid(NAT, int(exp.get("m_max_exp", 14)))
        report = check_matrix_st(spec, m_grid=grid, n_max=int(exp.get("n_max", 32)), tol=tol)
        series = tuple((m, v) for m, v, _ in report.c1.cells)
    else:
        report = check_kernel_st(spec, r_depth=int(exp.get("r_depth", 20)),
                                 exhaust_depth=int(exp.get("exhaust_depth", 12)), tol=tol)
        series = tuple((r, v) for r, v, _ in report.k1.cells if v == v)
    return report.rows(), report.to_jsonable(), series


def _run_sum(exp, tol, parts):
    spec = parts["method"]
    depth = int(exp.get("depth", 20))
    rows, cases = [], []
    for label, source, expected in parts["sources"]:
        est = summability_limit(spec, source, depth=depth, tol=tol)
        rows.extend(_est_row(label, est))
        case = {"label": label, "status": est.status, "residual": est.residual,
                "samples_used": est.samples_used}
        if expected is not None:
            deviation = (est.value - expected).norm() if est.converged else math.inf
            verdict = "pass" if deviation <= tol else "fail"
            rows.append((f"deviation[{label}]", "", deviation, verdict))
            case["deviation"] = None if math.isinf(deviation) else deviation
            case["verdict"] = verdict
        cases.append(case)
    jsonable = {"method": getattr(spec, "name", "?"), "depth": depth, "tol": tol,
                "cases": cases}
    return rows, jsonable, ()


def _run_inclusion(exp, tol, parts):
    report = inclusion_experiment(parts["method_a"], parts["method_b"], parts["sources"],
                                  depth=int(exp.get("depth", 14)), tol=tol)
    return report.rows(), report.to_jsonable(), ()


def _run_transfer(exp, tol, parts):
    report = transfer_experiment(parts["method_a"], parts["method_b"], parts["family"],
                                 parts["probes"], depth=int(exp.get("depth", 24)), tol=tol)
    return report.rows(), report.to_jsonable(), ()


def _run_weak_inclusion(exp, tol, parts):
    report = weak_inclusion_experiment(parts["method_a"], parts["method_b"], parts["sources"],
                                       parts["functionals"], depth=int(exp.get("depth", 14)),
                                       tol=tol)
    return report.rows(), report.to_jsonable(), ()


def _run_taylor(exp, tol, parts):
    mode = exp.get("mode", "summability")
    space = parts["space"]
    if mode == "dilate_identity":
        count = int(exp.get("count", 100))
        seed = int(exp.get("seed", 0))
        max_degree = int(exp.get("max_degree", 64))
        radii = [float(r) for r in exp.get("radii", [0.25, 0.5, 0.9])]
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(count):
            deg = int(rng.integers(0, max_degree + 1))
            coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            f = taylor_from_coefficients(coeffs, space)
            for r in radii:
                worst = max(worst, dilate_dual_deviation(f, r))
        verdict = "pass" if worst <= 1e-12 else "fail"
        rows = [("dilate_identity_max_deviation", "", worst, verdict)]
        jsonable = {"mode": mode, "count": count, "max_degree": max_degree,
                    "radii": radii, "max_deviation": worst, "verdict": verdict}
        return rows, jsonable, ()
    report = taylor_summability_experiment(parts["function"], space,
                                           exp.get("chain", ["partial_sums"]),
                                           depth=int(exp.get("depth", 20)), tol=tol)
    series = tuple((p, d) for p, d in report.cells)
    return report.rows(), report.to_jsonable(), series


# kind -> (runner, module, default tol, required keys, optional keys)
_RUNNERS = {
    "check_regularity": (_run_check_regularity, "regularity", 1e-6,
                         ("method",), ("tol", "n_max", "m_max_exp", "r_depth", "exhaust_depth")),
    "sum": (_run_sum, "methods", 1e-6, ("method", "sources"), ("tol", "depth")),
    "inclusion": (_run_inclusion, "inclusion", 1e-6,
                  ("method_a", "method_b", "sources"), ("tol", "depth")),
    "transfer": (_run_transfer, "inclusion", 1e-6,
                 ("method_a", "method_b", "family", "probes"), ("tol", "depth")),
    "weak_inclusion": (_run_weak_inclusion, "inclusion", 1e-6,
                       ("method_a", "method_b", "sources"), ("tol", "depth", "functionals")),
    "taylor": (_run_taylor, "holo", 1e-4, (),
               ("mode", "function", "space", "chain", "depth", "tol",
                "count", "seed", "max_degree", "radii")),
}

KINDS = tuple(_RUNNERS)


def validate_config(config) -> list:
    """The experiments of a config; raises ConfigError before anything runs.

    Each experiment's keys and the types of its scalar values (``depth``,
    ``tol``, ``radii`` ...) are checked, and its nested config (methods,
    sources, Taylor function, space and chain, family, probes, functionals)
    is built once and discarded; a value that cannot be built is a
    ConfigError too.
    """
    if not isinstance(config, dict):
        raise ConfigError("top level: expected an object")
    _check_keys(config, "top level", ("experiments",), ("description",))
    experiments = config["experiments"]
    if not isinstance(experiments, list) or not experiments:
        raise ConfigError("experiments: expected a non-empty list")
    seen = set()
    for i, exp in enumerate(experiments):
        ctx = f"experiments[{i}]"
        if not isinstance(exp, dict):
            raise ConfigError(f"{ctx}: expected an object")
        kind = exp.get("kind")
        if kind not in KINDS:
            raise ConfigError(f"{ctx}: unknown kind {kind!r}; allowed {KINDS}")
        _, _, _, required, optional = _RUNNERS[kind]
        _check_keys(exp, ctx, ("id", "kind") + required, optional)
        for key, (valid, expected) in _SCALAR_KEYS.items():
            if key in exp and not valid(exp[key]):
                raise ConfigError(f"{ctx}.{key}: expected {expected}, got {exp[key]!r}")
        exp_id = exp.get("id")
        if not isinstance(exp_id, str) or not exp_id:
            raise ConfigError(f"{ctx}: id must be a non-empty string")
        if exp_id in seen:
            raise ConfigError(f"{ctx}: duplicate id {exp_id!r}")
        seen.add(exp_id)
        try:
            _parts(exp)
        except ConfigError:
            raise
        except (ValueError, TypeError, KeyError) as exc:
            raise ConfigError(f"{ctx}: {type(exc).__name__}: {exc}") from exc
    return experiments


def run_experiment(exp: dict, tol_override=None) -> ExperimentOutcome:
    kind = exp["kind"]
    runner, module, default_tol, _, _ = _RUNNERS[kind]
    tol = float(tol_override if tol_override is not None else exp.get("tol", default_tol))
    try:
        rows, jsonable, series = runner(exp, tol, _parts(exp))
    except ConfigError:
        raise
    except Exception as exc:  # runtime failure: recorded, exits 3
        return ExperimentOutcome(exp["id"], module, [], {}, "error",
                                 f"{type(exc).__name__}: {exc}")
    jsonable = {"id": exp["id"], "kind": kind, "tol": tol, **jsonable}
    return ExperimentOutcome(exp["id"], module, rows, jsonable, "completed",
                             plot_series=series)


# ---------------------------------------------------------------------------
# serialization


def _num_pair(value):
    if value == "" or value is None:
        return "", ""
    if isinstance(value, float) and math.isnan(value):
        return "nan", "nan"
    z = complex(value)
    return repr(z.real), repr(z.imag)


def _fmt_param(param) -> str:
    if param == "":
        return ""
    if isinstance(param, (int, np.integer)):
        return str(int(param))
    return repr(float(param))


def _csv_field(text) -> str:
    return str(text).replace(",", ";").replace("\n", " ")


def write_csv(path: str, outcome: ExperimentOutcome):
    lines = [CSV_HEADER]
    for quantity, param, value, verdict in outcome.rows:
        re_s, im_s = _num_pair(value)
        lines.append(",".join([_csv_field(outcome.experiment_id), outcome.module,
                               _fmt_param(param), _csv_field(quantity),
                               re_s, im_s, _csv_field(verdict)]))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _svg_loglog(series, title: str) -> str:
    pts = [(x, y) for x, y in series
           if isinstance(x, (int, float, np.integer, np.floating))
           and isinstance(y, (int, float, np.integer, np.floating))
           and x > 0 and y > 0 and math.isfinite(float(y))]
    width, height, margin = 640, 480, 60
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<text x="{width // 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
             f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
             f'height="{height - 2 * margin}" fill="none" stroke="black"/>']
    if len(pts) >= 2:
        xs = [math.log10(float(x)) for x, _ in pts]
        ys = [math.log10(float(y)) for _, y in pts]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        xr = (x1 - x0) or 1.0
        yr = (y1 - y0) or 1.0
        coords = []
        for x, y in zip(xs, ys):
            px = margin + (x - x0) / xr * (width - 2 * margin)
            py = height - margin - (y - y0) / yr * (height - 2 * margin)
            coords.append(f"{px:.2f},{py:.2f}")
        parts.append(f'<polyline points="{" ".join(coords)}" fill="none" stroke="blue"/>')
        parts.append(f'<text x="{margin}" y="{height - 20}" font-size="11">'
                     f'log10 x: [{x0:.3g}, {x1:.3g}]  log10 y: [{y0:.3g}, {y1:.3g}]</text>')
    else:
        parts.append(f'<text x="{width // 2}" y="{height // 2}" text-anchor="middle" '
                     f'font-size="12">no positive data to plot</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def run_config(config, out_dir: str, threads=None, tol=None, plots: bool = False) -> int:
    """Execute a config (dict, or a path as str or os.PathLike).  Returns the exit code."""
    started = time.time()
    if isinstance(config, (str, os.PathLike)):
        with open(config) as fh:
            config = json.load(fh)
    experiments = validate_config(config)
    os.makedirs(out_dir, exist_ok=True)

    workers = int(threads) if threads else (os.cpu_count() or 1)
    outcomes = [None] * len(experiments)
    with concurrent.futures.ThreadPoolExecutor(max_workers=max(1, workers)) as pool:
        futures = {pool.submit(run_experiment, exp, tol): i
                   for i, exp in enumerate(experiments)}
        for future in concurrent.futures.as_completed(futures):
            outcomes[futures[future]] = future.result()

    # report assembly is single-threaded and follows the config order
    for outcome in outcomes:
        write_csv(os.path.join(out_dir, f"{outcome.experiment_id}.csv"), outcome)
        if plots:
            svg = _svg_loglog(outcome.plot_series, outcome.experiment_id)
            with open(os.path.join(out_dir, f"{outcome.experiment_id}.svg"), "w") as fh:
                fh.write(svg)

    report = {"toolkit_version": __version__,
              "experiments": [o.jsonable | {"status": o.status, "error": o.error}
                              if o.jsonable else
                              {"id": o.experiment_id, "status": o.status, "error": o.error}
                              for o in outcomes]}
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    digest = hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()
    manifest = {
        "config_sha256": digest,
        "toolkit_version": __version__,
        "wall_time_s": round(time.time() - started, 3),
        "experiments": [{"id": o.experiment_id, "status": o.status, "error": o.error}
                        for o in outcomes],
    }
    with open(os.path.join(out_dir, "run_manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    return 3 if any(o.status == "error" for o in outcomes) else 0


# ---------------------------------------------------------------------------
# shipped configs and the catalog


def shipped_configs() -> dict:
    out = {}
    base = resources.files("sumkit") / "configs"
    for entry in sorted(base.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            data = json.loads(entry.read_text())
            out[entry.name[:-5]] = data.get("description", "")
    return out


def builtin_config_path(name: str):
    base = resources.files("sumkit") / "configs" / f"{name}.json"
    return base if base.is_file() else None


def list_builtins(stream=None):
    stream = stream or sys.stdout
    print("methods:", file=stream)
    for name in sorted(BUILTIN_METHODS):
        print(f"  {name}", file=stream)
    print("spaces:", file=stream)
    for name in SPACES:
        print(f"  {name}", file=stream)
    print("taylor generators:", file=stream)
    for name in GENERATORS[:3]:
        print(f"  {name}", file=stream)
    print("sequence generators:", file=stream)
    print("  synthetic_convergent", file=stream)
    print("chain steps:", file=stream)
    for name in CHAIN_STEPS:
        print(f"  {name}", file=stream)
    print("experiment kinds:", file=stream)
    for name in KINDS:
        print(f"  {name}", file=stream)
    print("example configs:", file=stream)
    for name, description in shipped_configs().items():
        print(f"  {name}: {description}", file=stream)


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sumkit",
                                     description="summability experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a JSON experiment config")
    run_p.add_argument("config", help="path to a config file, or a shipped config name")
    run_p.add_argument("--out", default="sumkit-out", help="output directory")
    run_p.add_argument("--threads", type=int, default=None, help="worker pool size")
    run_p.add_argument("--tol", type=float, default=None,
                       help="override every experiment's tolerance")
    run_p.add_argument("--plots", action="store_true", help="emit SVG line charts")

    sub.add_parser("list-builtins", help="catalog of methods, spaces, generators, configs")

    args = parser.parse_args(argv)
    if args.command == "list-builtins":
        list_builtins()
        return 0

    config_path = args.config
    if not os.path.exists(config_path):
        shipped = builtin_config_path(args.config)
        if shipped is None:
            print(f"config not found: {args.config}", file=sys.stderr)
            return 2
        config_path = str(shipped)
    try:
        return run_config(config_path, args.out, threads=args.threads,
                          tol=args.tol, plots=args.plots)
    except (ConfigError, json.JSONDecodeError) as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
