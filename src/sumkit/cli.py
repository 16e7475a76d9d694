"""Config-driven experiment runner.

Usage:
    sumkit run CONFIG [--out DIR] [--threads N] [--tol X] [--plots]
    sumkit list-builtins

CONFIG is a JSON file (or the name of a shipped example config) holding a
list of experiments; each experiment's kind is one of check_regularity, sum,
inclusion, transfer, weak_inclusion, taylor.  Every config object is read
against one schema that declares each key's check and default: unknown or
missing keys and values of the wrong type or range are rejected, and every
nested object is built, before anything runs.

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
    CHAIN_STEPS,
    SPACE_TAGS,
    SeriesSpace,
    chain_domain,
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
from .integrate import (MEASURE_COUNTING, SUBSTITUTION_LOG_BOUNDARY, SUBSTITUTION_NONE,
                        SUBSTITUTIONS)
from .methods import (
    FunctionSource,
    KernelSpec,
    MatrixSpec,
    SeqToFuncSpec,
    SequenceSource,
    _kernel_support,
    abel_method,
    as_kernel,
    cesaro_method,
    identity_method,
    logarithmic_method,
    scaled_method,
    series_summation_method,
    summability_limit,
)
from .regularity import FAIL, PASS, check_kernel_st, check_matrix_st
from .vspace import SCALAR, LinearFunctional, SpaceDescriptor, VectorValue, coordinate_functionals

BUILTIN_METHODS = {
    "identity": identity_method,
    "series_summation": series_summation_method,
    "cesaro": cesaro_method,
    "abel": abel_method,
    "logarithmic": logarithmic_method,
}

CSV_HEADER = "experiment_id,module,grid_param,quantity,value_re,value_im,verdict"


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# the schema reader
#
# A schema maps each key of a config object to (check, default).  A check
# takes (value, path) and returns the value built, or raises ConfigError.  A
# default is REQUIRED, None (the key may be absent, and then reads as None;
# a key of one mode alone takes its default from the build, see _fill_mode)
# or a config value, which the key's check reads like a given value.

REQUIRED = object()


class _KeyRule(ValueError):
    """A rule of the object built that the value of one of its keys breaks: (key, message)."""


def _read(obj, schema: dict, ctx: str, build=dict):
    """build(values) of obj read against schema; the top level has the empty path."""
    where = ctx or "top level"
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object, got {type(obj).__name__}")
    unknown = set(obj) - set(schema)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}; allowed {sorted(schema)}")
    missing = {key for key, (_, default) in schema.items() if default is REQUIRED} - set(obj)
    if missing:
        raise ConfigError(f"{where}: missing required keys {sorted(missing)}")
    got = {}
    for key, (check, default) in schema.items():
        if key in obj or default is not None:
            got[key] = check(obj.get(key, default), f"{ctx}.{key}" if ctx else key)
        else:
            got[key] = None
    try:
        return build(got)
    except ConfigError:
        raise
    except _KeyRule as exc:
        key, message = exc.args
        raise ConfigError(f"{ctx}.{key}: {message}" if ctx else f"{key}: {message}") from exc
    except ValueError as exc:  # a rule of the object built, e.g. a geometric rho in (0, 1)
        raise ConfigError(f"{where}: {exc}") from exc


def _object(schema: dict, build=dict):
    return lambda value, ctx: _read(value, schema, ctx, build)


def _one_of(variants: dict):
    """Reads an object against the schema of its variant.

    ``variants`` maps (key, value) to (schema, build); an object is of the
    first variant whose key it holds with that value (None: any value).
    """
    def check(obj, ctx):
        if not isinstance(obj, dict):
            raise ConfigError(f"{ctx}: expected an object, got {type(obj).__name__}")
        for (key, value), (schema, build) in variants.items():
            if key in obj and value in (None, obj[key]):
                return _read(obj, schema, ctx, build)
        tags = ", ".join(key if value is None else f"{key}={value!r}" for key, value in variants)
        raise ConfigError(f"{ctx}: expected one of {tags}")
    return check


def _list_of(check):
    def read(items, ctx):
        if not isinstance(items, list) or not items:
            raise ConfigError(f"{ctx}: expected a non-empty list, got {items!r}")
        return [check(item, f"{ctx}[{i}]") for i, item in enumerate(items)]
    return read


def _keep(value, ctx):
    return value


def _is_number(value) -> bool:
    # finite and not a bool; the bound also keeps out ints too large for a float
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _number(what: str, test=lambda v: True, integer: bool = False):
    def check(value, ctx):
        if _is_number(value) and (isinstance(value, int) or not integer) and test(value):
            return value if integer else float(value)
        raise ConfigError(f"{ctx}: expected {what}, got {value!r}")
    return check


_COUNT = _number("an integer >= 1", lambda v: v >= 1, integer=True)
_NATURAL = _number("an integer >= 0", lambda v: v >= 0, integer=True)
_TOL = _number("a finite number > 0", lambda v: v > 0)
_REAL = _number("a finite number")
_LENGTH = _number("a domain name or a number > 0", lambda v: v > 0)


def _string(value, ctx):
    if isinstance(value, str) and value:
        return value
    raise ConfigError(f"{ctx}: expected a non-empty string, got {value!r}")


def _flag(value, ctx):
    if isinstance(value, bool):
        return value
    raise ConfigError(f"{ctx}: expected true or false, got {value!r}")


def _complex(value, ctx) -> complex:
    parts = value if isinstance(value, list) and len(value) == 2 else [value, 0.0]
    if all(map(_is_number, parts)):
        return complex(*parts)
    raise ConfigError(f"{ctx}: expected a number or [re, im] pair, got {value!r}")


def _choice(options):
    """One of options; a dict maps each option to the value it builds."""
    def check(value, ctx):
        if isinstance(value, str) and value in options:
            return options[value] if isinstance(options, dict) else value
        noun = ctx.rsplit(".", 1)[-1].split("[")[0]
        raise ConfigError(f"{ctx}: unknown {noun} {value!r}; have {tuple(options)}")
    return check


_DOMAINS = {"unit": UNIT_INTERVAL, "halfline": HALF_LINE, "nat": NAT}

# a custom kernel's support tags; a fixed [lo, hi] is the other form
_SUPPORTS = {"full": None, "upto_r": lambda r: (0.0, r), "unit_window": lambda r: (r, r + 1.0)}


def _domain(value, ctx):
    if isinstance(value, str):
        return _choice(_DOMAINS)(value, ctx)
    return HalfOpenInterval(_LENGTH(value, ctx))


def _support(value, ctx):
    if isinstance(value, str):
        return _choice(_SUPPORTS)(value, ctx)
    if isinstance(value, list) and len(value) == 2:
        lo, hi = (_REAL(v, f"{ctx}[{i}]") for i, v in enumerate(value))
        return lambda r: (lo, hi)
    raise ConfigError(f"{ctx}: expected a support name or a [lo, hi] pair, got {value!r}")


def _expression(*variables):
    def check(value, ctx):
        if not isinstance(value, str):
            raise ConfigError(f"{ctx}: expected an expression string, got {value!r}")
        try:
            return compile_expression(value, variables)
        except ExpressionError as exc:
            raise ConfigError(f"{ctx}: {exc}") from exc
    return check


def _kernel_expression(param: str, index: str):
    """A method's expression as its kernel_batch(p, ts), p a scalar or an array aligned with ts."""
    compiled = _expression(param, index)

    def check(value, ctx):
        expr = compiled(value, ctx)

        def kernel_batch(p, ts):
            values = expr(**{param: np.asarray(p, dtype=float), index: np.asarray(ts, dtype=float)})
            return np.asarray(values, dtype=complex) * np.ones(len(ts))
        return kernel_batch
    return check


# ---------------------------------------------------------------------------
# config objects: methods, sources, Taylor functions, transfer family and probes


def _builtin(g):
    spec = g["builtin"]()
    if g["as_kernel"]:
        spec = as_kernel(spec)
    return spec if g["scale"] is None else scaled_method(spec, g["scale"])


def _custom_kernel(g):
    spec = KernelSpec(name=g["name"], kernel_batch=g["kernel"], support=g["support"],
                      E=g["E"], F=g["F"], substitution=g["substitution"])
    if spec.measure == MEASURE_COUNTING and spec.substitution != SUBSTITUTION_NONE:
        raise _KeyRule("substitution", f"a counting kernel sums its terms and takes no "
                                       f"substitution, not {spec.substitution!r}")
    # every support form is constant or increasing and affine in r, so both
    # ends of F bound it; u = -log(1 - t) of log_boundary maps only [0, 1)
    for r in (0.0, math.nextafter(getattr(spec.F, "right", math.inf), 0.0)):
        try:
            lo, hi = _kernel_support(spec, r)
        except ValueError as exc:
            raise _KeyRule("support", str(exc)) from exc
        if spec.substitution == SUBSTITUTION_LOG_BOUNDARY and not hi < 1.0:
            raise _KeyRule("support", f"a log_boundary kernel needs its support inside [0, 1) at "
                                      f"every r in F; it is [{lo:.17g}, {hi:.17g}] at r = {r:.17g}")
    return spec


_METHODS = {
    # a builtin takes only its modifiers; a custom method only its definition
    ("builtin", None): ({"builtin": (_choice(BUILTIN_METHODS), REQUIRED),
                         "scale": (_complex, None), "as_kernel": (_flag, False)}, _builtin),
    ("kind", "matrix"): (
        {"kind": (_keep, REQUIRED), "entries": (_kernel_expression("m", "n"), REQUIRED),
         "name": (_string, "custom_matrix")},
        lambda g: MatrixSpec(name=g["name"], kernel_batch=g["entries"])),
    ("kind", "seq_to_func"): (
        {"kind": (_keep, REQUIRED), "coeff": (_kernel_expression("r", "n"), REQUIRED),
         "name": (_string, "custom_seq_to_func"), "F": (_domain, "unit")},
        lambda g: SeqToFuncSpec(name=g["name"], kernel_batch=g["coeff"], F=g["F"])),
    ("kind", "kernel"): (
        {"kind": (_keep, REQUIRED), "kernel": (_kernel_expression("r", "t"), REQUIRED),
         "name": (_string, "custom_kernel"), "support": (_support, "full"),
         "substitution": (_choice(SUBSTITUTIONS), SUBSTITUTION_NONE),
         "E": (_domain, "unit"), "F": (_domain, "unit")},
        _custom_kernel),
}


def build_method(obj, ctx: str = "method"):
    return _one_of(_METHODS)(obj, ctx)


def _synthetic_convergent(g) -> list:
    """Sequences v_n = L + rho^n u with known limits L."""
    space = SpaceDescriptor(g["dim"], "l2")
    rng = np.random.default_rng(g["seed"])
    out = []
    for i in range(g["count"]):
        L = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
        u = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
        u = u / np.linalg.norm(u)
        rho = g["rho_max"] * rng.uniform(0.1, 1.0) * np.exp(2j * math.pi * rng.uniform())

        def block(lo, hi, L=L, u=u, rho=rho):
            ns = np.arange(lo, hi)
            return L[None, :] + np.power(rho, ns)[:, None] * u[None, :]

        label = f"synthetic_{i}"
        out.append((label, SequenceSource(space=space, block=block, name=label),
                    VectorValue(L, space)))
    return out


def _expr_source(g) -> list:
    block = lambda lo, hi: g["expr"](n=np.arange(lo, hi, dtype=float)) * np.ones(hi - lo)
    return [(g["name"], SequenceSource(space=SCALAR, block=block, name=g["name"]), None)]


def _function_source(g) -> list:
    batch = lambda ts: g["fexpr"](t=np.asarray(ts, dtype=float)) * np.ones(len(ts))
    return [(g["name"], FunctionSource(space=SCALAR, batch=batch, domain=g["domain"],
                                       name=g["name"]), None)]


def _source_variants(i: int) -> dict:
    """The source schemas of a sources list's i-th entry, whose default label is numbered."""
    return {
        ("generator", "synthetic_convergent"): (
            {"generator": (_keep, REQUIRED), "count": (_COUNT, REQUIRED),
             "seed": (_NATURAL, REQUIRED), "rho_max": (_REAL, 0.9), "dim": (_COUNT, 1)},
            _synthetic_convergent),
        ("expr", None): ({"expr": (_expression("n"), REQUIRED), "name": (_string, f"seq_{i}")},
                         _expr_source),
        ("fexpr", None): ({"fexpr": (_expression("t"), REQUIRED),
                           "name": (_string, f"func_{i}"), "domain": (_domain, "unit")},
                          _function_source),
    }


def _sources(items, ctx) -> list:
    """(label, source, expected limit or None) of every source, in config order."""
    return [case for i, obj in enumerate(_list_of(_keep)(items, ctx))
            for case in _one_of(_source_variants(i))(obj, f"{ctx}[{i}]")]


_FUNCTIONS = {
    ("coeffs", None): ({"coeffs": (_list_of(_complex), REQUIRED),
                        "name": (_string, "polynomial")},
                       lambda g: taylor_from_coefficients(g["coeffs"], name=g["name"])),
    ("generator", "geometric"): ({"generator": (_keep, REQUIRED), "c": (_REAL, REQUIRED),
                                  "rho": (_REAL, REQUIRED)},
                                 lambda g: geometric_taylor(g["c"], g["rho"])),
    ("generator", "power"): ({"generator": (_keep, REQUIRED), "c": (_REAL, REQUIRED),
                              "alpha": (_REAL, REQUIRED)},
                             lambda g: power_taylor(g["c"], g["alpha"])),
    ("generator", "monomial"): ({"generator": (_keep, REQUIRED), "k": (_NATURAL, REQUIRED)},
                                lambda g: monomial_taylor(g["k"])),
}

_FAMILY = _object({"name": (_choice(("truncation",)), REQUIRED), "dim": (_COUNT, 4)},
                  lambda g: truncation_family(SpaceDescriptor(g["dim"], "l2")))

_PROBES = _object({"count": (_COUNT, REQUIRED), "seed": (_NATURAL, REQUIRED)})


def _functionals(value, ctx):
    if value == "coordinates":
        return value
    return [LinearFunctional(weights) for weights in _list_of(_list_of(_complex))(value, ctx)]


# ---------------------------------------------------------------------------
# experiments: a runner, its module and its schema per kind


@dataclass
class ExperimentOutcome:
    experiment_id: str
    module: str
    rows: list          # (quantity, grid_param, value, verdict)
    jsonable: dict
    status: str         # "completed" | "error"
    error: str = ""
    plot_series: tuple = ()


def _finite_or_none(x):
    # report.json is strict JSON: no NaN or Infinity
    return x if math.isfinite(x) else None


def _est_row(label: str, est) -> list:
    return [
        (f"limit[{label}]", "", est.complex_value, est.status),
        (f"residual[{label}]", "", est.residual, ""),
    ]


def _run_check_regularity(exp, tol):
    spec = exp["method"]
    if isinstance(spec, MatrixSpec):
        report = check_matrix_st(spec, m_grid=parameter_grid(NAT, exp["m_max_exp"]),
                                 n_max=exp["n_max"], tol=tol)
        series = tuple((m, v) for m, v, _ in report.c1.cells)
    else:
        report = check_kernel_st(spec, r_depth=exp["r_depth"],
                                 exhaust_depth=exp["exhaust_depth"], tol=tol)
        series = tuple((r, v) for r, v, _ in report.k1.cells if v == v)
    return report.rows(), report.to_jsonable(), series


def _run_sum(exp, tol):
    spec = exp["method"]
    rows, cases = [], []
    for label, source, expected in exp["sources"]:
        est = summability_limit(spec, source, depth=exp["depth"], tol=tol)
        rows.extend(_est_row(label, est))
        case = {"label": label, "status": est.status, "residual": _finite_or_none(est.residual),
                "samples_used": est.samples_used}
        if expected is not None:
            deviation = (est.value - expected).norm() if est.converged else math.inf
            verdict = PASS if deviation <= tol else FAIL
            rows.append((f"deviation[{label}]", "", deviation, verdict))
            case["deviation"] = _finite_or_none(deviation)
            case["verdict"] = verdict
        cases.append(case)
    jsonable = {"method": spec.name, "depth": exp["depth"], "tol": tol,
                "cases": cases}
    return rows, jsonable, ()


def _run_inclusion(exp, tol):
    report = inclusion_experiment(exp["method_a"], exp["method_b"], exp["sources"],
                                  depth=exp["depth"], tol=tol)
    return report.rows(), report.to_jsonable(), ()


def _run_transfer(exp, tol):
    report = transfer_experiment(exp["method_a"], exp["method_b"], exp["family"],
                                 exp["probes"], depth=exp["depth"], tol=tol)
    return report.rows(), report.to_jsonable(), ()


def _run_weak_inclusion(exp, tol):
    report = weak_inclusion_experiment(exp["method_a"], exp["method_b"], exp["sources"],
                                       exp["functionals"], depth=exp["depth"], tol=tol)
    return report.rows(), report.to_jsonable(), ()


def _run_taylor(exp, tol):
    if exp["mode"] == "dilate_identity":
        rng = np.random.default_rng(exp["seed"])
        fs = []
        for _ in range(exp["count"]):
            deg = int(rng.integers(0, exp["max_degree"] + 1))
            coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            fs.append(taylor_from_coefficients(coeffs, exp["space"]))
        worst = max(dilate_dual_deviation(fs, r) for r in exp["radii"])
        verdict = PASS if worst <= 1e-12 else FAIL
        rows = [("dilate_identity_max_deviation", "", worst, verdict)]
        jsonable = {"mode": exp["mode"], "count": exp["count"], "max_degree": exp["max_degree"],
                    "radii": exp["radii"], "max_deviation": worst, "verdict": verdict}
        return rows, jsonable, ()
    report = taylor_summability_experiment(exp["function"], exp["space"], exp["chain"],
                                           depth=exp["depth"], tol=tol)
    return report.rows(), report.to_jsonable(), tuple(report.cells)


def _measures_fit(exp, kinds=None, what="the sources are"):
    """exp, once each of its methods reads what it is given.

    A counting kernel sums sequences and a Lebesgue kernel integrates
    functions; ``kinds`` is the set of what the methods are given (None:
    that of the experiment's sources).
    """
    if kinds is None:
        kinds = {"sequences" if isinstance(source, SequenceSource) else "functions"
                 for _, source, _ in exp["sources"]}
    for key in ("method", "method_a", "method_b"):
        spec = exp.get(key)
        if spec is None:
            continue
        needs = "sequences" if spec.measure == MEASURE_COUNTING else "functions"
        if kinds != {needs}:
            raise _KeyRule(key, f"{spec.name} is a {spec.measure} kernel and reads {needs} "
                                f"only; {what} {' and '.join(sorted(kinds))}")
    return exp


def _transfer(exp):
    """The probes: count unit vectors of the family's space, drawn from seed."""
    _measures_fit(exp, {"sequences"}, "the probe orbits are")
    space = exp["family"].space
    rng = np.random.default_rng(exp["probes"]["seed"])
    probes = []
    for _ in range(exp["probes"]["count"]):
        x = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
        probes.append(VectorValue(x / np.linalg.norm(x), space))
    return {**exp, "probes": probes}


def _weak_inclusion(exp):
    """The functionals, each of the sources' one dimension."""
    _measures_fit(exp)
    dims = {source.space.dim for _, source, _ in exp["sources"]}
    if len(dims) != 1:
        raise ValueError("sources have mixed dimensions")
    (dim,) = dims
    functionals = exp["functionals"]
    if functionals == "coordinates":
        functionals = coordinate_functionals(SpaceDescriptor(dim, "l2"))
    elif any(phi.dim != dim for phi in functionals):
        raise ValueError(f"every functional needs {dim} weights, the sources' dimension")
    return {**exp, "functionals": functionals}


def _chain(value, ctx) -> list:
    steps = _list_of(_keep)(value, ctx)
    try:
        chain_domain(steps)
    except ValueError as exc:
        raise ConfigError(f"{ctx}: {exc}") from exc
    return steps


def _fill_mode(exp, mode: str, modes: dict):
    """exp with the absent keys of its mode set to their defaults.

    ``modes`` maps each mode to its own keys and their defaults; these keys
    read None when absent, and one given in another mode is an error rather
    than a key left unread.
    """
    for other, keys in modes.items():
        for key in keys:
            if other != mode and exp[key] is not None:
                raise _KeyRule(key, f"is a key of {other}, not of {mode}")
    return exp | {key: default for key, default in modes[mode].items() if exp[key] is None}


def _check_regularity(exp):
    form = "a matrix method" if isinstance(exp["method"], MatrixSpec) else "a kernel"
    return _fill_mode(exp, form, {"a matrix method": {"n_max": 32, "m_max_exp": 14},
                                  "a kernel": {"r_depth": 20, "exhaust_depth": 12}})


def _taylor(exp):
    exp = _fill_mode(exp, f"mode {exp['mode']!r}", {
        "mode 'summability'": {"function": None, "chain": ["partial_sums"], "depth": 20},
        "mode 'dilate_identity'": {"count": 100, "seed": 0, "max_degree": 64,
                                   "radii": [0.25, 0.5, 0.9]}})
    if exp["mode"] == "summability" and exp["function"] is None:
        raise ValueError("mode 'summability' needs the key 'function'")
    return exp


_METHOD = (build_method, REQUIRED)
_SOURCES = (_sources, REQUIRED)
_PAIR = {"method_a": _METHOD, "method_b": _METHOD}

# kind -> (runner, module, schema, build of the experiment read)
_RUNNERS = {
    "check_regularity": (_run_check_regularity, "regularity", {
        "method": _METHOD, "tol": (_TOL, 1e-6), "n_max": (_NATURAL, None),
        "m_max_exp": (_COUNT, None), "r_depth": (_COUNT, None), "exhaust_depth": (_NATURAL, None),
    }, _check_regularity),
    "sum": (_run_sum, "methods", {
        "method": _METHOD, "sources": _SOURCES, "tol": (_TOL, 1e-6), "depth": (_COUNT, 20),
    }, _measures_fit),
    "inclusion": (_run_inclusion, "inclusion", {
        **_PAIR, "sources": _SOURCES, "tol": (_TOL, 1e-6), "depth": (_COUNT, 14),
    }, _measures_fit),
    "transfer": (_run_transfer, "inclusion", {
        **_PAIR, "family": (_FAMILY, REQUIRED), "probes": (_PROBES, REQUIRED),
        "tol": (_TOL, 1e-6), "depth": (_COUNT, 24),
    }, _transfer),
    "weak_inclusion": (_run_weak_inclusion, "inclusion", {
        **_PAIR, "sources": _SOURCES, "functionals": (_functionals, "coordinates"),
        "tol": (_TOL, 1e-6), "depth": (_COUNT, 14),
    }, _weak_inclusion),
    "taylor": (_run_taylor, "holo", {
        "mode": (_choice(("summability", "dilate_identity")), "summability"),
        "function": (_one_of(_FUNCTIONS), None),
        "space": (_choice({tag: SeriesSpace(tag) for tag in SPACE_TAGS}), "h2"),
        "chain": (_chain, None), "depth": (_COUNT, None), "tol": (_TOL, 1e-4),
        "count": (_COUNT, None), "seed": (_NATURAL, None), "max_degree": (_NATURAL, None),
        "radii": (_list_of(_number("a number in [0, 1)", lambda v: 0 <= v < 1)), None),
    }, _taylor),
}

KINDS = tuple(_RUNNERS)

_EXPERIMENT = _one_of({("kind", kind): ({"id": (_string, REQUIRED), "kind": (_keep, REQUIRED),
                                         **schema}, build)
                       for kind, (_, _, schema, build) in _RUNNERS.items()})


def _experiments(items, ctx) -> list:
    experiments = _list_of(_EXPERIMENT)(items, ctx)
    ids = [exp["id"] for exp in experiments]
    for i, exp_id in enumerate(ids):
        if exp_id in ids[:i]:
            raise ConfigError(f"{ctx}[{i}]: duplicate id {exp_id!r}")
    return experiments


def validate_config(config) -> list:
    """The experiments of a config, read and built; raises ConfigError before anything runs.

    Every object (experiment, method, source, Taylor function, family,
    probes) is read against its schema: its keys, the type and range of
    each value, defaults filled in, and its nested objects built.
    """
    return _read(config, {"experiments": (_experiments, REQUIRED),
                          "description": (_string, None)}, "", lambda g: g["experiments"])


def run_experiment(exp: dict, tol_override=None) -> ExperimentOutcome:
    """Runs one experiment as validate_config built it."""
    runner, module, _, _ = _RUNNERS[exp["kind"]]
    tol = exp["tol"] if tol_override is None else tol_override
    try:
        rows, jsonable, series = runner(exp, tol)
    except Exception as exc:  # runtime failure: recorded, exits 3
        return ExperimentOutcome(exp["id"], module, [], {}, "error",
                                 f"{type(exc).__name__}: {exc}")
    jsonable = {"id": exp["id"], "kind": exp["kind"], "tol": tol, **jsonable}
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
    tol = None if tol is None else _TOL(tol, "--tol")
    threads = (os.cpu_count() or 1) if threads is None else _COUNT(threads, "--threads")
    os.makedirs(out_dir, exist_ok=True)

    outcomes = [None] * len(experiments)
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
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
    generators = lambda variants: [name for key, name in variants if key == "generator"]
    catalog = {"methods": sorted(BUILTIN_METHODS), "spaces": SPACE_TAGS,
               "taylor generators": generators(_FUNCTIONS),
               "sequence generators": generators(_source_variants(0)),
               "chain steps": CHAIN_STEPS, "experiment kinds": KINDS,
               "example configs": [f"{name}: {description}"
                                   for name, description in shipped_configs().items()]}
    for title, names in catalog.items():
        print(f"{title}:", file=stream)
        for name in names:
            print(f"  {name}", file=stream)


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
