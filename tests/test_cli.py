"""Config validation, experiment execution, artifacts, determinism."""

import copy
import json
import os
import pathlib
import re
import warnings
from xml.etree import ElementTree

import pytest

from sumkit import cli, methods
from sumkit.cli import (
    ConfigError,
    build_method,
    builtin_config_path,
    main,
    run_config,
    shipped_configs,
    validate_config,
)
from sumkit.domains import HALF_LINE, NAT, UNIT_INTERVAL, parameter_grid
from sumkit.integrate import MEASURE_COUNTING, MEASURE_LEBESGUE
from sumkit.regularity import check_kernel_st

MINIMAL = {
    "experiments": [
        {
            "id": "quick-cesaro",
            "kind": "check_regularity",
            "method": {"builtin": "cesaro"},
            "m_max_exp": 8,
        }
    ]
}


def _read(path):
    with open(path) as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# validation


def test_empty_experiment_list_rejected():
    with pytest.raises(ConfigError):
        validate_config({"experiments": []})


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError):
        validate_config({"experiments": MINIMAL["experiments"], "extra": 1})


def test_unknown_experiment_key_rejected():
    bad = {"experiments": [{**MINIMAL["experiments"][0], "surprise": True}]}
    with pytest.raises(ConfigError) as err:
        validate_config(bad)
    assert "surprise" in str(err.value)


def test_unknown_kind_rejected():
    bad = {"experiments": [{"id": "x", "kind": "mystery"}]}
    with pytest.raises(ConfigError):
        validate_config(bad)


def test_duplicate_ids_rejected():
    bad = {"experiments": [MINIMAL["experiments"][0], MINIMAL["experiments"][0]]}
    with pytest.raises(ConfigError):
        validate_config(bad)


def test_main_exit_2_on_invalid_config(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"experiments": []}))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2


def test_main_exit_2_on_missing_config(tmp_path):
    assert main(["run", str(tmp_path / "nowhere.json"), "--out", str(tmp_path)]) == 2


def _unreadable_input(tmp_path, case):
    """(config path, --out path, stderr fragment) of an input sumkit cannot read."""
    cfg, out = tmp_path / "config.json", tmp_path / "out"
    if case == "config-is-a-directory":
        cfg.mkdir()
        return cfg, out, "Is a directory"
    if case == "config-not-utf8":
        text = json.dumps({**MINIMAL, "description": "café"}, ensure_ascii=False)
        cfg.write_bytes(text.encode("latin-1"))
        return cfg, out, "'utf-8' codec can't decode"
    cfg.write_text(json.dumps(MINIMAL))
    out.write_text("kept")
    return cfg, out, "--out: "


@pytest.mark.parametrize("case", ["config-is-a-directory", "config-not-utf8", "out-is-a-file"])
def test_an_unreadable_input_exits_2_before_anything_runs(tmp_path, capsys, monkeypatch, case):
    ran = []
    monkeypatch.setattr(cli, "run_experiment", lambda *args: ran.append(args))
    cfg, out, reason = _unreadable_input(tmp_path, case)
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid config: ") and err.count("\n") == 1 and reason in err
    assert ran == []
    assert not out.is_dir() and (case != "out-is-a-file" or out.read_text() == "kept")


def _kernel_sum_config(source, **kernel):
    method = {"kind": "kernel", "support": "upto_r", **kernel}
    return {"experiments": [{"id": "custom-kernel", "kind": "sum", "method": method,
                             "sources": [source], "depth": 4}]}


# a valid experiment per base, into which one bad value is set by its path
_BASES = {
    "sum": {"kind": "sum", "method": {"builtin": "cesaro"}, "sources": [{"expr": "1"}],
            "depth": 4},
    "check_regularity": {"kind": "check_regularity", "method": {"builtin": "abel"}, "r_depth": 4},
    "taylor": {"kind": "taylor", "mode": "dilate_identity", "count": 1},
    "synthetic": {"kind": "sum", "method": {"builtin": "abel"}, "depth": 4, "sources": [
        {"generator": "synthetic_convergent", "count": 2, "seed": 1}]},
    "fexpr": {"kind": "sum", "method": {"builtin": "logarithmic"}, "depth": 4,
              "sources": [{"fexpr": "1"}]},
    "kernel": {"kind": "check_regularity", "r_depth": 4,
               "method": {"kind": "kernel", "kernel": "1", "support": "upto_r"}},
    "transfer": {"kind": "transfer", "method_a": {"builtin": "cesaro"},
                 "method_b": {"builtin": "abel"}, "family": {"name": "truncation"},
                 "probes": {"count": 1, "seed": 0}},
    "geometric": {"kind": "taylor", "function": {"generator": "geometric", "c": 1.0, "rho": 0.5}},
    "power": {"kind": "taylor", "function": {"generator": "power", "c": 1.0, "alpha": 2.0}},
    "monomial": {"kind": "taylor", "function": {"generator": "monomial", "k": 1}},
}


@pytest.mark.parametrize("base, key, value", [
    ("sum", "depth", "deep"),
    ("sum", "depth", 14.5),
    ("sum", "tol", "1e-3"),
    ("check_regularity", "r_depth", True),
    ("check_regularity", "exhaust_depth", None),
    ("taylor", "count", "100"),
    ("taylor", "radii", [0.5, "0.9"]),
    ("taylor", "radii", 0.5),
    # nested values: a bool or a fraction is no integer, a bool no number
    ("synthetic", "sources[0].count", 2.5),
    ("synthetic", "sources[0].seed", True),
    ("synthetic", "sources[0].dim", 2.7),
    ("synthetic", "sources[0].rho_max", True),
    ("transfer", "family.dim", 2.7),
    ("transfer", "probes.count", 1.9),
    ("transfer", "probes.seed", True),
    ("monomial", "function.k", 2.9),
    ("geometric", "function.c", "1"),
    ("geometric", "function.rho", True),
    ("power", "function.alpha", None),
    ("sum", "method.scale", True),
    ("fexpr", "sources[0].domain", True),
    ("kernel", "method.E", True),
    ("kernel", "method.support", [0, True]),
    # out of range
    ("sum", "depth", 0),
    ("check_regularity", "r_depth", 0),
    ("check_regularity", "m_max_exp", 0),
    ("check_regularity", "n_max", -1),
    ("check_regularity", "exhaust_depth", -1),
    ("taylor", "count", 0),
    ("taylor", "seed", -1),
    ("taylor", "max_degree", -1),
    ("taylor", "radii", [1.5]),
    ("taylor", "radii", [-0.5]),
    ("sum", "tol", 0),
    ("sum", "tol", float("nan")),
    ("sum", "tol", float("inf")),
    ("synthetic", "sources[0].count", 0),
    ("transfer", "probes.count", 0),
])
def test_scalar_key_of_the_wrong_type_exits_2_before_anything_runs(tmp_path, capsys, base,
                                                                   key, value):
    exp = copy.deepcopy({"id": "e", **_BASES[base]})
    *parents, last = re.findall(r"\w+", key)  # "sources[0].count" -> sources, 0, count
    target = exp
    for part in parents:
        target = target[int(part)] if part.isdigit() else target[part]
    target[last] = value
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"experiments": [exp]}))  # NaN and Infinity as json reads them
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    # a bad list element is named by its index, e.g. experiments[0].radii[1]
    assert re.search(rf"experiments\[0\]\.{re.escape(key)}(\[\d+\])?: expected",
                     capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("exp_id", ["sub/dir", "../escaped", ".", "..", "nul\0byte",
                                    f"sep{os.sep}in", *([f"alt{os.altsep}sep"] * bool(os.altsep))])
def test_an_id_that_is_not_a_file_name_exits_2_before_anything_runs(tmp_path, capsys,
                                                                     monkeypatch, exp_id):
    # {out}/{id}.csv must be one file inside --out
    ran = []
    monkeypatch.setattr(cli, "run_experiment", lambda *args: ran.append(args))
    cfg, out = tmp_path / "config.json", tmp_path / "out"
    cfg.write_text(json.dumps({"experiments": [{**MINIMAL["experiments"][0], "id": exp_id}]}))
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid config: experiments[0].id: expected a file name")
    assert err.count("\n") == 1
    assert ran == [] and not out.exists() and sorted(os.listdir(tmp_path)) == ["config.json"]


@pytest.mark.parametrize("exp, key, deepest", [
    ({"kind": "sum", "method": {"builtin": "abel"}, "sources": [{"expr": "1"}], "depth": 54},
     "depth", 53),
    ({"kind": "inclusion", "method_a": {"builtin": "cesaro"}, "method_b": {"builtin": "abel"},
      "sources": [{"expr": "1"}], "depth": 60}, "depth", 53),
    ({"kind": "transfer", "method_a": {"builtin": "cesaro"},
      "method_b": {"builtin": "abel", "as_kernel": True}, "family": {"name": "truncation"},
      "probes": {"count": 1, "seed": 0}, "depth": 54}, "depth", 53),
    ({"kind": "check_regularity", "method": {"builtin": "logarithmic"}, "r_depth": 54},
     "r_depth", 53),
    ({"kind": "check_regularity", "r_depth": 1024,
      "method": {"kind": "kernel", "kernel": "1", "support": [0, 1], "E": "halfline",
                 "F": "halfline"}}, "r_depth", 1023),
    ({"kind": "taylor", "function": {"generator": "monomial", "k": 1}, "chain": ["log_mean"],
      "depth": 54}, "depth", 53),
], ids=["sum", "inclusion", "transfer", "check_regularity", "halfline", "taylor"])
def test_a_depth_whose_grid_leaves_F_exits_2_before_anything_runs(tmp_path, capsys, exp, key,
                                                                   deepest):
    cfg, out = tmp_path / "config.json", tmp_path / "out"
    cfg.write_text(json.dumps({"experiments": [{"id": "e", **exp}]}))
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid config: experiments[0].{key}: ")
    assert err.endswith(f"the deepest depth inside is {deepest}\n") and not out.exists()
    # the deepest depth itself is a valid config
    validate_config({"experiments": [{"id": "e", **exp, key: deepest}]})


def test_synthetic_source_with_a_name_exits_2(tmp_path, capsys):
    # its cases are labelled synthetic_<i>, so a name would go unread
    exp = copy.deepcopy({"id": "e", **_BASES["synthetic"]})
    exp["sources"][0]["name"] = "mine"
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"experiments": [exp]}))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "experiments[0].sources[0]: unknown keys ['name']" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["0", "-1e-3", "nan", "inf"])
def test_tol_flag_out_of_range_exits_2_before_anything_runs(tmp_path, capsys, tol):
    cfg = tmp_path / "good.json"
    cfg.write_text(json.dumps(MINIMAL))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), f"--tol={tol}"]) == 2
    assert "--tol: expected a finite number > 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_flag_below_1_exits_2_before_anything_runs(tmp_path, capsys, threads):
    cfg = tmp_path / "good.json"
    cfg.write_text(json.dumps(MINIMAL))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), f"--threads={threads}"]) == 2
    assert "--threads: expected an integer >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_readme_tables_list_each_kinds_schema_keys_and_defaults():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Experiment runner")[1].split("\n## ")[0]
    tables = dict(re.findall(r"^\*\*`(\w+)`\*\*.*?\n\n((?:\|[^\n]*\n)+)", section, re.M | re.S))
    assert list(tables) == list(cli.KINDS)
    for kind, table in tables.items():
        rows = [[cell.strip() for cell in line.split("|")[1:-1]]
                for line in table.splitlines()[2:]]
        documented = {key.strip("`"): default for key, _, _, default in rows}
        schema = cli._RUNNERS[kind][2]
        assert list(documented) == list(schema), kind
        filled = _mode_defaults(kind)
        for key, (_, default) in schema.items():
            text = documented[key]
            if default is cli.REQUIRED:
                assert text == "required", (kind, key)
            elif default is None and key not in filled:
                assert text == "none", (kind, key)
            else:
                expected = filled[key] if default is None else default
                assert json.loads(text.strip("`")) == expected, (kind, key)


# one experiment of each mode of a kind whose keys depend on its mode
_MODES = {
    "check_regularity": [{"method": {"builtin": "cesaro"}}, {"method": {"builtin": "abel"}}],
    "taylor": [{"function": {"generator": "monomial", "k": 1}}, {"mode": "dilate_identity"}],
}


def _mode_defaults(kind) -> dict:
    """The keys of one mode that the build fills in when absent, with their values."""
    schema = cli._RUNNERS[kind][2]
    filled = {}
    for given in _MODES.get(kind, []):
        (exp,) = validate_config({"experiments": [{"id": "e", "kind": kind, **given}]})
        filled |= {key: exp[key] for key, (_, default) in schema.items()
                   if key not in given and default is None and exp[key] is not None}
    return filled


@pytest.mark.parametrize("kind, given, key", [
    ("taylor", {"mode": "dilate_identity", "function": {"generator": "monomial", "k": 1}},
     "function"),
    ("taylor", {"mode": "dilate_identity", "chain": ["log_mean"]}, "chain"),
    ("taylor", {"mode": "dilate_identity", "depth": 4}, "depth"),
    ("taylor", {"function": {"generator": "monomial", "k": 1}, "count": 3}, "count"),
    ("taylor", {"function": {"generator": "monomial", "k": 1}, "seed": 3}, "seed"),
    ("taylor", {"function": {"generator": "monomial", "k": 1}, "max_degree": 3}, "max_degree"),
    ("taylor", {"function": {"generator": "monomial", "k": 1}, "radii": [0.5]}, "radii"),
    ("check_regularity", {"method": {"builtin": "cesaro"}, "r_depth": 4}, "r_depth"),
    ("check_regularity", {"method": {"builtin": "cesaro"}, "exhaust_depth": 4}, "exhaust_depth"),
    ("check_regularity", {"method": {"builtin": "logarithmic"}, "m_max_exp": 4}, "m_max_exp"),
    ("check_regularity", {"method": {"builtin": "logarithmic"}, "n_max": 4}, "n_max"),
])
def test_a_key_of_the_other_mode_exits_2(tmp_path, capsys, kind, given, key):
    # the runner would never read it
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"experiments": [{"id": "e", "kind": kind, **given}]}))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert f"experiments[0].{key}: is a key of " in capsys.readouterr().err
    assert not out.exists()


def test_every_config_method_takes_its_measure_from_E():
    # counting on the naturals, Lebesgue on an interval; a kernel's E is unit by default
    kernel = {"kind": "kernel", "kernel": "1 / (r + 1)", "support": "upto_r"}
    for method, E in [({"builtin": "cesaro"}, NAT), ({"builtin": "abel", "as_kernel": True}, NAT),
                      ({"builtin": "logarithmic", "scale": 2.0}, UNIT_INTERVAL),
                      ({"kind": "matrix", "entries": "1"}, NAT),
                      ({"kind": "seq_to_func", "coeff": "r ** n"}, NAT),
                      ({**kernel, "E": "nat", "F": "nat"}, NAT), (kernel, UNIT_INTERVAL),
                      ({**kernel, "E": "halfline"}, HALF_LINE)]:
        spec = build_method(method)
        assert spec.E == E
        assert spec.measure == (MEASURE_COUNTING if E == NAT else MEASURE_LEBESGUE)
    # on E = nat the window 0..j holds j + 1 of the 257 entries 1/257 of row 256
    windows = check_kernel_st(build_method({**kernel, "E": "nat", "F": "nat"}), r_depth=8).k3
    assert [check.cells[-1][1] for check in windows] == \
        pytest.approx([(j + 1) / 257 for j in range(len(windows))], rel=1e-12)
    assert len(windows) >= 5


def test_a_kernel_measure_key_is_an_unknown_key(tmp_path, capsys):
    # the measure is E's, so a config never sets it, spelt right or not
    cfg = tmp_path / "bad.json"
    for measure in ("counting", "countng"):
        cfg.write_text(json.dumps(_kernel_sum_config(
            {"expr": "1"}, kernel="indicator(t <= r) / (r + 1)", E="nat", F="nat",
            measure=measure)))
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "method: unknown keys ['measure']" in capsys.readouterr().err


def test_a_counting_support_sums_its_integer_points():
    # [0.5, 3.7] holds n = 1, 2, 3: the mass of 1/(r + 1) at r = 2 is 3/3, not 4/3
    spec = build_method({"kind": "kernel", "kernel": "1 / (r + 1)", "E": "nat", "F": "nat",
                         "support": [0.5, 3.7]})
    cells = dict((r, value) for r, value, _ in check_kernel_st(spec, r_depth=4).k4.cells)
    assert cells[2] == 1.0


@pytest.mark.parametrize("method", [
    {"E": "nat", "F": "nat", "support": [-2, 3]},
    {"support": [-0.5, 0.5]},
    {"E": "nat", "F": "nat", "support": [0.7, 0.2]},
    {"support": [0.7, 0.2]},
    {"F": "nat", "support": "upto_r"},
], ids=["counting-below-0", "lebesgue-below-0", "counting-backwards", "lebesgue-backwards",
        "lebesgue-past-E"])
def test_a_support_that_is_not_an_interval_of_E_exits_2(tmp_path, capsys, method):
    cfg = tmp_path / "bad.json"
    source = {"expr": "1"} if method.get("E") == "nat" else {"fexpr": "1"}
    cfg.write_text(json.dumps(_kernel_sum_config(source, kernel="1", **method)))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert "experiments[0].method.support: " in capsys.readouterr().err
    assert not out.exists()


def test_misspelt_kernel_substitution_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(_kernel_sum_config(
        {"fexpr": "1"}, kernel="1 / r", substitution="log_boundry")))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "unknown substitution 'log_boundry'" in capsys.readouterr().err


def test_substitution_on_a_counting_kernel_is_a_config_error(tmp_path, capsys):
    # a counting kernel sums its terms, so a substitution would go unread
    kernel = dict(kernel="r**t*(1-r)", E="nat", support="full", F="unit")
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(_kernel_sum_config({"expr": "1"}, **kernel,
                                                 substitution="log_boundary")))
    assert main(["run", str(cfg), "--out", str(tmp_path / "bad")]) == 2
    assert "experiments[0].method.substitution" in capsys.readouterr().err
    cfg.write_text(json.dumps(_kernel_sum_config({"expr": "1"}, **kernel)))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    (case,) = json.loads(_read(tmp_path / "out" / "report.json"))["experiments"][0]["cases"]
    assert case["status"] == "converged"


@pytest.mark.parametrize("key, value", [("measure", "countng"), ("support", "bogus"),
                                        ("entries", "n"), ("name", "mine")])
def test_custom_key_beside_builtin_is_a_config_error(tmp_path, capsys, key, value):
    # a builtin with a custom key must not run as the plain builtin
    cfg = tmp_path / "bad.json"
    method = {"builtin": "cesaro", key: value}
    cfg.write_text(json.dumps({"experiments": [{"id": "m", "kind": "check_regularity",
                                                "method": method, "m_max_exp": 4}]}))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert repr(key) in capsys.readouterr().err


def test_builtin_modifier_on_custom_method_is_a_config_error():
    with pytest.raises(ConfigError, match="'scale'"):
        build_method({"kind": "matrix", "entries": "1", "scale": 2.0})
    # each custom kind takes only its own keys (besides kind and name)
    foreign = {"matrix": {"entries": "1", "coeff": "1", "kernel": "t",
                          "substitution": "log_boundary", "support": "full", "E": "nat",
                          "F": "unit"},
               "seq_to_func": {"coeff": "r ** n", "entries": "1", "kernel": "t",
                               "support": "full", "E": "nat", "substitution": "none"},
               "kernel": {"kernel": "t", "entries": "1", "coeff": "1"}}
    for kind, keys in foreign.items():
        own, *others = keys
        for key in others:
            method = {"kind": kind, own: keys[own], key: keys[key]}
            with pytest.raises(ConfigError, match=repr(key)):
                build_method(method)
    assert build_method({"kind": "matrix", "entries": "1", "name": "ones"}).name == "ones"
    assert build_method({"kind": "seq_to_func", "coeff": "r ** n", "F": "unit"}).F.right == 1.0
    kernel = build_method({"kind": "kernel", "kernel": "1", "support": "upto_r",
                           "substitution": "none", "E": "unit", "F": "unit"})
    assert kernel.support(0.5) == (0.0, 0.5)


@pytest.mark.parametrize("bad", [
    {"method": {"builtin": "cesaro", "bogus": 1}},
    {"method": {"kind": "matrix", "entries": "1", "F": "unit"}},
    {"sources": [{"expr": "1", "bogus": 1}]},
    {"sources": [{"generator": "synthetic_convergent", "count": "many", "seed": 1}]},
])
def test_nested_config_errors_are_raised_before_anything_runs(tmp_path, monkeypatch, bad):
    calls = []
    monkeypatch.setattr("sumkit.cli.summability_limit", lambda *a, **k: calls.append(a))
    good = {"id": "first", "kind": "sum", "method": {"builtin": "cesaro"},
            "sources": [{"expr": "1"}], "depth": 4}
    config = {"experiments": [good, {**good, "id": "second", **bad}]}
    with pytest.raises(ConfigError, match=r"experiments\[1\]|second"):
        validate_config(config)
    with pytest.raises(ConfigError):
        run_config(config, str(tmp_path / "out"))
    assert calls == [] and not (tmp_path / "out").exists()


@pytest.mark.parametrize("exp", [
    {"kind": "taylor", "function": {"generator": "geometric", "c": 1.0}},
    {"kind": "taylor", "function": {"generator": "monomial", "k": 1}, "chain": ["median"]},
    {"kind": "taylor", "function": {"generator": "monomial", "k": 1},
     "chain": ["partial_sums", "log_mean"]},
    {"kind": "taylor", "mode": "sideways"},
    {"kind": "taylor", "space": "h2"},
    {"kind": "taylor", "space": "l7", "mode": "dilate_identity"},
    {"kind": "transfer", "method_a": {"builtin": "cesaro"}, "method_b": {"builtin": "abel"},
     "family": {"name": "rotation"}, "probes": {"count": 1, "seed": 0}},
    {"kind": "transfer", "method_a": {"builtin": "cesaro"}, "method_b": {"builtin": "abel"},
     "family": {"name": "truncation"}, "probes": {"count": 1}},
    {"kind": "weak_inclusion", "method_a": {"builtin": "cesaro"}, "method_b": {"builtin": "abel"},
     "sources": [{"expr": "1"}], "functionals": [["x"]]},
    # two weights against scalar sources: every case would be an error
    pytest.param({"kind": "weak_inclusion", "method_a": {"builtin": "cesaro"},
                  "method_b": {"builtin": "abel"}, "sources": [{"expr": "1"}],
                  "functionals": [[1, 2]]}, id="weak_inclusion-dimension"),
], ids=lambda exp: exp["kind"])
def test_validate_config_builds_every_nested_part(exp):
    with pytest.raises(ConfigError):
        validate_config({"experiments": [{"id": "e", **exp}]})


@pytest.mark.parametrize("exp, path", [
    ({"kind": "sum", "method": {"builtin": "abel"}, "sources": [{"fexpr": "1 - t"}]}, "method"),
    ({"kind": "sum", "method": {"builtin": "logarithmic"}, "sources": [{"expr": "1"}]},
     "method"),
    ({"kind": "inclusion", "method_a": {"builtin": "logarithmic"},
      "method_b": {"builtin": "cesaro"}, "sources": [{"expr": "1"}]}, "method_a"),
    ({"kind": "inclusion", "method_a": {"builtin": "logarithmic"},
      "method_b": {"builtin": "logarithmic"}, "sources": [{"fexpr": "1"}, {"expr": "1"}]},
     "method_a"),
    ({"kind": "weak_inclusion", "method_a": {"builtin": "cesaro"},
      "method_b": {"builtin": "abel", "as_kernel": True},
      "sources": [{"generator": "synthetic_convergent", "count": 1, "seed": 0},
                  {"fexpr": "t"}]}, "method_a"),
    ({"kind": "transfer", "method_a": {"builtin": "cesaro"},
      "method_b": {"builtin": "logarithmic"}, "family": {"name": "truncation"},
      "probes": {"count": 1, "seed": 0}}, "method_b"),
], ids=["counting-on-function", "lebesgue-on-sequence", "inclusion", "mixed-sources",
        "weak_inclusion", "transfer"])
def test_a_method_of_the_wrong_measure_for_its_sources_exits_2(tmp_path, capsys, exp, path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"experiments": [{"id": "e", **exp}]}))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert f"experiments[0].{path}: " in capsys.readouterr().err
    assert not out.exists()


def _log_boundary_check(**method):
    return {"experiments": [{"id": "lb", "kind": "check_regularity", "r_depth": 4,
                             "exhaust_depth": 2,
                             "method": {"kind": "kernel", "kernel": "1 / (1 - t) / 30",
                                        "substitution": "log_boundary", **method}}]}


@pytest.mark.parametrize("method", [{}, {"support": "unit_window"}, {"support": [0.5, 1.0]},
                                    {"support": "upto_r", "F": 2.0},
                                    {"support": "upto_r", "F": "halfline"}],
                         ids=["full", "unit_window", "fixed", "upto_r-F-2", "upto_r-halfline"])
def test_a_log_boundary_support_reaching_1_exits_2(tmp_path, capsys, method):
    # u = -log(1 - t) maps only [0, 1): such a kernel would fail when it runs
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(_log_boundary_check(**method)))
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert "experiments[0].method.support: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("method", [{"support": "upto_r"}, {"support": [0.25, 0.75]},
                                    {"E": 0.5}], ids=["upto_r", "fixed", "full-E-half"])
def test_a_log_boundary_support_inside_the_unit_interval_runs(tmp_path, method):
    out = tmp_path / "out"
    assert run_config(_log_boundary_check(**method), str(out)) == 0
    assert json.loads(_read(out / "report.json"))["experiments"][0]["status"] == "completed"


def test_a_config_lebesgue_kernel_reads_r_as_an_array_like_the_builtin():
    # a grid's quadrature hands the expression one r per node
    custom = build_method({"kind": "kernel", "kernel": "-1 / log(1 - r) / (1 - t)",
                           "support": "upto_r", "substitution": "log_boundary"})
    src = methods.scalar_function(lambda t: 1.0 + (1.0 - t) * (1.0 - 2.0 * t), name="quadratic")
    grid = parameter_grid(UNIT_INTERVAL, 20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours = methods._lebesgue_transforms(custom, src, grid, 1e-5)
        est = methods.summability_limit(custom, src, depth=20, tol=1e-3)
    theirs = methods._lebesgue_transforms(methods.logarithmic_method(), src, grid, 1e-5)
    for a, b in zip(ours, theirs):
        assert abs(complex(a.coords[0]) - complex(b.coords[0])) <= 1e-12
    assert est.converged and abs(complex(est.value.coords[0]) - 1.0) <= 1e-3


def test_abel_check_regularity_runs_the_kernel_form(tmp_path):
    config = {"experiments": [{"id": "abel-st", "kind": "check_regularity",
                               "method": {"builtin": "abel"}, "r_depth": 10,
                               "exhaust_depth": 4}]}
    out = tmp_path / "out"
    assert run_config(config, str(out)) == 0
    entry = json.loads(_read(out / "report.json"))["experiments"][0]
    assert entry["status"] == "completed" and entry["overall"] == "RegularEvidence"
    assert [c["condition"] for c in entry["conditions"]][:2] == ["k1_abs_integral", "k2_abs_sup"]


def test_as_kernel_check_regularity_runs_the_kernel_form(tmp_path):
    config = {"experiments": [
        {"id": "cesaro-matrix", "kind": "check_regularity", "method": {"builtin": "cesaro"},
         "m_max_exp": 8, "n_max": 2},
        {"id": "cesaro-kernel", "kind": "check_regularity",
         "method": {"builtin": "cesaro", "as_kernel": True}, "r_depth": 8, "exhaust_depth": 3},
    ]}
    out = tmp_path / "out"
    assert run_config(config, str(out)) == 0
    matrix, kernel = json.loads(_read(out / "report.json"))["experiments"]
    assert matrix["conditions"][0]["condition"] == "c1_row_abs_sum"
    assert [c["condition"] for c in kernel["conditions"]][:2] == ["k1_abs_integral", "k2_abs_sup"]
    assert len(kernel["conditions"][0]["cells"]) == 8  # r_depth is read
    assert kernel["method"] == "cesaro_as_kernel"


# ---------------------------------------------------------------------------
# execution and artifacts


def test_taylor_verdict_survives_in_report_json(tmp_path):
    config = {"experiments": [{
        "id": "geo-partial-sums", "kind": "taylor", "space": "h2",
        "function": {"generator": "geometric", "c": 1.0, "rho": 0.5},
        "chain": ["partial_sums"], "depth": 8,
    }]}
    out = tmp_path / "out"
    assert run_config(config, str(out)) == 0
    entry = json.loads(_read(out / "report.json"))["experiments"][0]
    assert entry["status"] == "completed"
    last = _read(out / "geo-partial-sums.csv").strip().split("\n")[-1]
    assert last.startswith("geo-partial-sums,holo,,overall,")
    assert entry["verdict"] == last.split(",")[-1] == "converged_to_zero"


def test_run_minimal_config_artifacts(tmp_path):
    out = tmp_path / "out"
    code = run_config(MINIMAL, str(out))
    assert code == 0
    csv_text = _read(out / "quick-cesaro.csv")
    lines = csv_text.strip().split("\n")
    assert lines[0] == "experiment_id,module,grid_param,quantity,value_re,value_im,verdict"
    assert any("RegularEvidence" in line for line in lines)
    assert any(line.startswith("quick-cesaro,regularity,") for line in lines[1:])
    report = json.loads(_read(out / "report.json"))
    assert report["experiments"][0]["status"] == "completed"
    manifest = json.loads(_read(out / "run_manifest.json"))
    assert manifest["experiments"][0]["id"] == "quick-cesaro"
    assert len(manifest["config_sha256"]) == 64


def test_custom_expression_method_runs(tmp_path):
    config = {
        "experiments": [
            {
                "id": "custom-cesaro",
                "kind": "check_regularity",
                "method": {"kind": "matrix", "entries": "indicator(n <= m) / (m + 1)"},
                "m_max_exp": 6,
                "n_max": 4,
            }
        ]
    }
    out = tmp_path / "out"
    assert run_config(config, str(out)) == 0
    assert "RegularEvidence" in _read(out / "custom-cesaro.csv")


def test_source_failures_are_data_not_process_errors(tmp_path):
    config = {
        "experiments": [
            {
                "id": "pole",
                "kind": "sum",
                "method": {"builtin": "cesaro"},
                # 1/(n-5) is infinite at n = 5: every row fails its certificate,
                # which is recorded per grid point, not a process error
                "sources": [{"expr": "1 / (n - 5)", "name": "pole"}],
                "depth": 6,
            }
        ]
    }
    out = tmp_path / "out"
    assert run_config(config, str(out)) == 0
    report = json.loads(_read(out / "report.json"))
    assert report["experiments"][0]["cases"][0]["status"] == "inconclusive"


def test_report_json_is_strict_json_when_a_residual_is_infinite(tmp_path):
    # exp(n) overflows the certified sum at every Abel grid point: residual inf
    config = {"experiments": [{"id": "overflow", "kind": "sum", "method": {"builtin": "abel"},
                               "sources": [{"expr": "exp(n)"}], "depth": 4}]}
    out = tmp_path / "out"
    assert run_config(config, str(out)) == 0

    def reject(constant):
        raise ValueError(f"report.json holds {constant}")

    report = json.loads(_read(out / "report.json"), parse_constant=reject)
    (case,) = report["experiments"][0]["cases"]
    assert case["residual"] is None and case["status"] != "converged"
    assert "residual[seq_0],inf,0.0," in _read(out / "overflow.csv")


def test_runtime_failure_exits_3(tmp_path):
    config = {
        "experiments": [
            {
                "id": "wiener-too-slow",
                "kind": "taylor",
                # (k + 1)^-1.5 has no certified wiener tail within methods._MAX_TERMS
                # coefficients: NonSummableError, a runtime abort
                "function": {"generator": "power", "c": 1, "alpha": 1.5},
                "space": "wiener",
            }
        ]
    }
    out = tmp_path / "out"
    assert run_config(config, str(out)) == 3
    report = json.loads(_read(out / "report.json"))
    assert report["experiments"][0]["status"] == "error"
    assert report["experiments"][0]["error"].startswith("NonSummableError")


def test_tol_override_applies(tmp_path):
    config = {
        "experiments": [
            {
                "id": "sum-alt",
                "kind": "sum",
                "method": {"builtin": "cesaro"},
                "sources": [{"expr": "(1 + (-1)**n) / 2", "name": "alt"}],
                "depth": 10,
                "tol": 1e-12,
            }
        ]
    }
    out1 = tmp_path / "strict"
    run_config(config, str(out1))
    strict = json.loads(_read(out1 / "report.json"))["experiments"][0]["cases"][0]
    assert strict["status"] == "inconclusive"  # 1e-12 unreachable at depth 10

    out2 = tmp_path / "loose"
    run_config(config, str(out2), tol=1e-2)
    loose = json.loads(_read(out2 / "report.json"))["experiments"][0]["cases"][0]
    assert loose["status"] == "converged"


def test_plots_flag_writes_svg(tmp_path):
    out = tmp_path / "out"
    run_config(MINIMAL, str(out), plots=True)
    svg = _read(out / "quick-cesaro.svg")
    assert svg.startswith("<svg")
    assert "polyline" in svg


def test_plots_escape_the_id_in_their_svg_text(tmp_path):
    exp_id = "a<b&c>'d\""
    out = tmp_path / "out"
    config = {"experiments": [{**MINIMAL["experiments"][0], "id": exp_id}]}
    assert run_config(config, str(out), plots=True) == 0
    root = ElementTree.parse(out / f"{exp_id}.svg").getroot()
    assert root.find("{http://www.w3.org/2000/svg}text").text == exp_id


def test_weak_inclusion_kind_runs(tmp_path):
    config = {
        "experiments": [
            {
                "id": "weak",
                "kind": "weak_inclusion",
                "method_a": {"builtin": "cesaro"},
                "method_b": {"builtin": "abel"},
                "sources": [{"expr": "(1 + (-1)**n) / 2", "name": "alt"}],
                "functionals": "coordinates",
                "depth": 12,
                "tol": 1e-3,
            }
        ]
    }
    out = tmp_path / "out"
    assert run_config(config, str(out)) == 0
    # inclusion's rows, one set per source and functional
    lines = _read(out / "weak.csv").splitlines()[1:]
    rows = {line.split(",")[3]: line.split(",")[4:] for line in lines}
    assert list(rows) == ["lim_a[alt|phi_0]", "lim_b[alt|phi_0]", "distance[alt|phi_0]"]
    for side in ("lim_a", "lim_b"):
        re_s, im_s, status = rows[f"{side}[alt|phi_0]"]
        assert status == "converged" and abs(complex(float(re_s), float(im_s)) - 0.5) <= 1e-3
    assert rows["distance[alt|phi_0]"][2] == "transfers"
    (case,) = json.loads(_read(out / "report.json"))["experiments"][0]["cases"]
    assert (case["label"], case["verdict"], case["note"]) == ("alt|phi_0", "transfers", "")


# ---------------------------------------------------------------------------
# shipped configs and determinism


def test_shipped_configs_present_and_named():
    catalog = shipped_configs()
    assert len(catalog) >= 6
    assert "cesaro-regularity" in catalog
    assert "cesaro-vs-abel" in catalog
    for name in catalog:
        assert builtin_config_path(name) is not None


def test_builtin_cesaro_regularity_has_three_condition_blocks(tmp_path):
    out = tmp_path / "out"
    code = run_config(str(builtin_config_path("cesaro-regularity")), str(out))
    assert code == 0
    text = _read(out / "cesaro-st.csv")
    assert "c1_row_abs_sum" in text
    assert "c2_column_0" in text
    assert "c3_row_sum" in text
    assert "RegularEvidence" in text


def test_run_config_opens_a_path_object(tmp_path):
    path = builtin_config_path("cesaro-regularity")
    assert isinstance(path, os.PathLike)
    assert run_config(path, str(tmp_path / "out")) == 0
    assert "RegularEvidence" in _read(tmp_path / "out" / "cesaro-st.csv")


def test_builtin_cesaro_vs_abel_transfers(tmp_path):
    out = tmp_path / "out"
    assert run_config(str(builtin_config_path("cesaro-vs-abel")), str(out)) == 0
    forward = _read(out / "cesaro-into-abel.csv")
    assert "transfers" in forward
    reverse = _read(out / "abel-into-cesaro-reverse.csv")
    assert "violates" in reverse


def test_determinism_byte_identical_csvs(tmp_path):
    config = str(builtin_config_path("cesaro-vs-abel"))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_config(config, str(out1), threads=1)
    run_config(config, str(out2), threads=4)
    for name in ("cesaro-into-abel.csv", "abel-into-cesaro-reverse.csv"):
        assert _read(out1 / name) == _read(out2 / name)
