import json
import string
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gaborscat import cli, operators, solver, tables
from gaborscat.cli import (RunConfig, main, parse_config, write_field_csv,
                           write_pgm)
from gaborscat.errors import ConfigError

SMALL_CONFIG = {
    "scene": {"shape": "circle", "radius": 0.25, "eps_r": 2.0, "k0": 1.45,
              "theta_deg": 0.0, "E0": 1.0},
    "frame": {"X": 0.5, "M": 3, "N": 2,
              "alpha": 0.816496580927726, "beta": 0.816496580927726},
    "zgrid": {"z_min": -0.3, "z_max": 0.3, "delta": 0.05},
    "dual": {"N_u": 2, "N_v": 3, "fit_tol": 5e-3},
    "ewald": {"split": "auto"},
    "solver": {"method": "direct"},
    "output": {"x_min": -1.5, "x_max": 1.5, "nx": 31,
               "z_min": -0.3, "z_max": 0.3, "nz": 13,
               "formats": ["csv", "pgm"], "out_dir": None},
    "cache": {"dir": None, "enabled": True},
}


def write_config(tmp_path, **overrides) -> Path:
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    cfg["output"]["out_dir"] = str(tmp_path / "out")
    cfg["cache"]["dir"] = str(tmp_path / "cache")
    if "scene.shape" in overrides:      # another shape has no radius field
        del cfg["scene"]["radius"]
    for dotted, value in overrides.items():
        if "." in dotted:
            block, key = dotted.split(".")
            cfg[block][key] = value
        else:                                   # a whole block
            cfg[dotted] = value
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return path


def test_parse_config_valid(tmp_path):
    rc = parse_config(write_config(tmp_path))
    assert rc.fp.M == 3
    assert rc.zg.n_k == 12
    assert rc.ewald.split == pytest.approx(4.528365781869865)


def test_config_rejects_oversampling_violation(tmp_path):
    path = write_config(tmp_path, **{"frame.alpha": 1.2, "frame.beta": 1.0})
    with pytest.raises(ConfigError, match="alpha\\*beta"):
        parse_config(path)
    assert main(["solve", str(path)]) == 2


def test_config_rejects_bad_theta(tmp_path):
    path = write_config(tmp_path, **{"scene.theta_deg": 400.0})
    with pytest.raises(ConfigError, match="theta"):
        parse_config(path)


def test_config_rejects_missing_field(tmp_path):
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    del cfg["scene"]["radius"]
    cfg["output"]["out_dir"] = str(tmp_path / "out")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert main(["solve", str(path)]) == 2


def test_solve_emits_artifacts_and_cache_determinism(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["solve", str(path)]) == 0
    out = tmp_path / "out"
    field1 = (out / "field.csv").read_bytes()
    metrics1 = json.loads((out / "metrics.json").read_text())
    assert metrics1["table_cache_hit"] is False
    assert metrics1["residual_norm"] < 1e-8
    # radius 0.25 on z in [-0.3, 0.3]: the outer slices carry no unknowns
    assert 0 < metrics1["factored_unknowns"] < metrics1["unknowns"]
    header = field1.decode().splitlines()[0]
    assert header == "x,z,re,im"
    # warm rerun: byte-identical field, cache hit flagged
    assert main(["solve", str(path)]) == 0
    field2 = (out / "field.csv").read_bytes()
    metrics2 = json.loads((out / "metrics.json").read_text())
    assert field2 == field1
    assert metrics2["table_cache_hit"] is True
    assert [metrics1["kernel_cache_hit"], metrics2["kernel_cache_hit"]] \
        == [False, True]
    # (q, p) columns are counted from the table data, the same when cached
    assert metrics2["table_columns"] == metrics1["table_columns"]
    rc = parse_config(path)
    q_max, p_max = tables.index_bounds(rc.fp, rc.n_u, rc.n_v)
    for kind in ("spatial", "spectral"):
        counts = metrics1["table_columns"][kind]
        assert counts["live"] > 0
        assert counts["live"] + counts["skipped"] == (2 * q_max + 1) * (2 * p_max + 1)
    # the builds' panel-doubling differences; the cache does not store them
    for kind in ("spatial", "spectral"):
        assert 0 < metrics1["table_doubling_diff"][kind] <= rc.ewald.quad_tol
    assert metrics2["table_doubling_diff"] == {"spatial": None, "spectral": None}
    # pgm artifacts
    pgm = (out / "field.pgm").read_bytes()
    assert pgm.startswith(b"P5\n31 13\n255\n")
    sidecar = json.loads((out / "field.pgm.json").read_text())
    assert sidecar["vmin"] < sidecar["vmax"]
    assert sidecar["nx"] == 31 and sidecar["nz"] == 13


@pytest.mark.parametrize("overrides", [
    {"frame.M": "six"},
    {"frame.N": 2.5},
    {"scene.shape": "grating", "scene.n_blocks": "five"},
    {"scene.theta_deg": "north"},
    {"scene.eps_r": None},
    {"scene.center": "ab"},
    {"dual.N_u": [2]},
    {"dual.fit_tol": "loose"},
    {"ewald.quad_tol": {"value": 1e-10}},
    {"solver.tol": "tight"},
    {"output.nx": -3},
    {"output.x_min": float("nan")},
    {"output.nz": True},
], ids=lambda o: ",".join(o))
def test_config_rejects_non_numeric_field(tmp_path, capsys, overrides):
    path = write_config(tmp_path, **overrides)
    with pytest.raises(ConfigError):
        parse_config(path)
    assert main(["solve", str(path)]) == 2
    report = json.loads((tmp_path / "out" / "error.json").read_text())
    assert report["error"] == "ConfigError"


GRATING = {"scene.shape": "grating", "scene.block_w": 0.2, "scene.block_h": 0.2,
           "scene.spacing": 0.5}


OUT_OF_RANGE = [     # (overrides, the field the ConfigError names)
    ({"dual.fit_tol": 0}, "dual.fit_tol"),
    ({"dual.fit_tol": -1}, "dual.fit_tol"),
    ({**GRATING, "scene.n_blocks": 0}, "scene.n_blocks"),
    ({**GRATING, "scene.n_blocks": -2}, "scene.n_blocks"),
    ({**GRATING, "scene.n_blocks": 2.5}, "scene.n_blocks"),
    # 16/(alpha*beta): no Zak lattice
    ({"frame.alpha": 0.7, "frame.beta": 0.7}, "frame"),
]


@pytest.mark.parametrize("overrides, field", OUT_OF_RANGE, ids=[
    ",".join(f"{k}={v!r}" for k, v in o.items() if k not in GRATING)
    for o, _ in OUT_OF_RANGE])
def test_config_rejects_out_of_range_field(tmp_path, capsys, overrides, field):
    # numbers of the right type that no solve can use end at the config, in
    # a ConfigError (exit 2) before anything is built or cached
    path = write_config(tmp_path, **overrides)
    with pytest.raises(ConfigError) as exc:
        parse_config(path)
    assert exc.value.field == field
    assert main(["solve", str(path)]) == 2
    report = json.loads((tmp_path / "out" / "error.json").read_text())
    assert report["error"] == "ConfigError"
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("field", [
    "scene.theta_dg", "frame.m", "zgrid.dz", "dual.fit_tl", "ewald.quad_tl",
    "ewald.trunc_tol", "solver.tl", "output.nxx", "cache.enable", "solvr",
])
def test_config_rejects_unknown_field(tmp_path, capsys, field):
    # a field the config format does not have, a typo or a retired setting,
    # is a ConfigError naming it (exit 2, error.json) and not a silent
    # default
    path = write_config(tmp_path, **{field: 1e-3})
    with pytest.raises(ConfigError) as exc:
        parse_config(path)
    assert exc.value.field == field
    assert main(["solve", str(path)]) == 2
    report = json.loads((tmp_path / "out" / "error.json").read_text())
    assert report["error"] == "ConfigError"
    assert report["message"].startswith(f"{field}: unknown field")
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("overrides", [
    {"scene": 5},
    {"frame": [3, 2]},
    {"zgrid": "fine"},
    {"dual": None},
    {"ewald": 1e-10},
    {"solver": ["direct"]},
    {"output": True},
    {"cache": "on"},
    {"scene.shape": ["circle"]},
    {"output.formats": 5},
    {"output.formats": "csv"},
    {"output.formats": [5]},
    {"output.formats": [["csv"]]},
    {"output.out_dir": 5},
    {"cache.dir": 5},
    {"cache.dir": ["cache"]},
    {"cache.enabled": "no"},
], ids=lambda o: ",".join(f"{k}={v!r}" for k, v in o.items()))
def test_config_rejects_malformed_structure(tmp_path, capsys, overrides):
    path = write_config(tmp_path, **overrides)
    with pytest.raises(ConfigError):
        parse_config(path)
    assert main(["solve", str(path)]) == 2
    # the error report lands in the declared out_dir when the config has a
    # usable one
    if not any(k in ("output", "output.out_dir") for k in overrides):
        report = json.loads((tmp_path / "out" / "error.json").read_text())
        assert report["error"] == "ConfigError"


def test_config_rejects_non_object_top_level(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        parse_config(path)
    assert main(["solve", str(path)]) == 2


NUMERIC_FIELDS = ["frame.M", "frame.N", "scene.theta_deg", "scene.eps_r",
                  "scene.E0", "dual.N_u", "dual.N_v", "dual.fit_tol",
                  "ewald.split", "ewald.quad_tol",
                  "solver.tol", "output.x_min", "output.x_max", "output.nx",
                  "output.z_min", "output.z_max", "output.nz"]
# no digits in the text and |numbers| <= 1e6, so that an accepted value never
# asks for a large output grid
JUNK = st.one_of(st.none(), st.booleans(),
                 st.text(alphabet=string.ascii_letters + " .-", max_size=8),
                 st.integers(-10 ** 6, 10 ** 6),
                 st.floats(-1e6, 1e6),
                 st.sampled_from([float("nan"), float("inf"), -float("inf")]),
                 st.lists(st.integers(0, 9), max_size=3),
                 st.dictionaries(st.sampled_from("ab"), st.integers(0, 9),
                                 max_size=2))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(field=st.sampled_from(NUMERIC_FIELDS), value=JUNK)
def test_parse_config_fuzz_numeric_fields(tmp_path, field, value):
    path = write_config(tmp_path, **{field: value})
    try:
        assert isinstance(parse_config(path), RunConfig)
    except ConfigError:
        pass


STRUCTURE_FIELDS = ["scene", "frame", "zgrid", "dual", "ewald", "solver",
                    "output", "cache", "scene.shape", "solver.method",
                    "output.formats", "output.out_dir", "cache.dir",
                    "cache.enabled"]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(field=st.sampled_from(STRUCTURE_FIELDS), value=JUNK)
def test_parse_config_fuzz_blocks_and_structure(tmp_path, field, value):
    path = write_config(tmp_path, **{field: value})
    try:
        assert isinstance(parse_config(path), RunConfig)
    except ConfigError:
        pass


@pytest.mark.parametrize("method", ["direct", "iterative"])
def test_warm_solve_skips_the_fold(tmp_path, capsys, monkeypatch, method):
    path = write_config(tmp_path, **{"solver.method": method})
    assert main(["solve", str(path)]) == 0
    cold = (tmp_path / "out" / "field.csv").read_bytes()

    def not_reached(*args, **kwargs):
        raise AssertionError("the kernel was folded on a warm cache")

    monkeypatch.setattr(operators, "_fold_kernel", not_reached)
    assert main(["solve", str(path)]) == 0
    assert (tmp_path / "out" / "field.csv").read_bytes() == cold
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert metrics["kernel_cache_hit"] is True


def test_disabled_cache_writes_no_kernel_file(tmp_path, capsys):
    path = write_config(tmp_path, **{"cache.enabled": False})
    assert main(["solve", str(path)]) == 0
    assert not (tmp_path / "cache").exists()
    assert list(tmp_path.rglob("egk*.bin")) == []
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
    assert metrics["table_cache_hit"] is False
    assert metrics["kernel_cache_hit"] is False


def test_metrics_stages_cover_the_run(tmp_path, capsys):
    path = write_config(tmp_path)
    t0 = time.perf_counter()
    assert main(["solve", str(path)]) == 0
    wall = time.perf_counter() - t0
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
    stages = metrics["stages"]
    assert list(stages) == ["dual_fit_s", "tables_s", "operator_s", "solve_s",
                            "synthesize_s", "write_s"]
    assert all(v >= 0 for v in stages.values())
    assert sum(stages.values()) <= wall
    assert stages["solve_s"] == metrics["wall_time_solve"]


@pytest.mark.parametrize("method", ["direct", "iterative"])
def test_metrics_edge_share(tmp_path, capsys, method):
    # the share of ||J|| in the window shifts m = +-M and n = +-N, as a
    # direct computation from the solution reads it
    path = write_config(tmp_path, **{"solver.method": method})
    assert main(["solve", str(path)]) == 0
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
    sol, _ = cli._pipeline(parse_config(path))
    j = sol.J
    total = np.sqrt(np.sum(np.abs(j) ** 2))
    m_edges = np.sqrt(np.sum(np.abs(j[0]) ** 2) + np.sum(np.abs(j[-1]) ** 2))
    n_edges = np.sqrt(np.sum(np.abs(j[:, 0]) ** 2)
                      + np.sum(np.abs(j[:, -1]) ** 2))
    assert set(metrics["edge_share"]) == {"m", "n"}
    assert metrics["edge_share"]["m"] == pytest.approx(m_edges / total,
                                                       rel=1e-12)
    assert metrics["edge_share"]["n"] == pytest.approx(n_edges / total,
                                                       rel=1e-12)
    assert 0 < metrics["edge_share"]["m"] < 1


def test_zero_contrast_edge_share_is_zero():
    assert cli._edge_share(np.zeros((3, 3, 4), dtype=complex)) == \
        {"m": 0.0, "n": 0.0}


def test_solve_parses_config_once(tmp_path, monkeypatch, capsys):
    calls = []

    def counting(path):
        calls.append(path)
        return parse_config(path)

    monkeypatch.setattr(cli, "parse_config", counting)
    path = write_config(tmp_path)
    assert main(["solve", str(path)]) == 0
    assert len(calls) == 1
    calls.clear()
    bad = write_config(tmp_path, **{"frame.beta": "wide"})
    assert main(["solve", str(bad)]) == 2
    assert len(calls) == 1


def test_parse_config_method_defaults_to_iterative(tmp_path):
    assert parse_config(write_config(tmp_path, solver={})).method == "iterative"
    for bad in ("auto", "lu"):
        with pytest.raises(ConfigError, match="solver.method"):
            parse_config(write_config(tmp_path, **{"solver.method": bad}))


def _no_constants(token):
    raise ValueError(f"non-standard JSON token {token}")


@pytest.mark.parametrize("method", ["direct", "iterative"])
def test_metrics_json_is_strict(tmp_path, capsys, method):
    path = write_config(tmp_path, **{"solver.method": method})
    assert main(["solve", str(path)]) == 0
    metrics = json.loads((tmp_path / "out" / "metrics.json").read_text(),
                         parse_constant=_no_constants)
    assert metrics["method"] == method
    if method == "direct":
        assert metrics["condition_estimate"] > 1
        assert metrics["gmres_residuals"] == []
    else:
        assert metrics["condition_estimate"] is None
        assert 0 < len(metrics["gmres_residuals"]) <= metrics["iterations"]
    # the dual fit's normal-equation condition, as dual_window.json reports it
    assert main(["dual-window", str(path)]) == 0
    report = json.loads((tmp_path / "out" / "dual_window.json").read_text())
    assert metrics["dual_fit_condition"] == report["condition"] >= 1


def test_json_artifacts_write_non_finite_as_null():
    text = cli._dumps({"a": [float("nan"), 1.5], "b": float("inf"),
                       "c": {"d": -float("inf")}})
    assert text == '{"a": [null, 1.5], "b": null, "c": {"d": null}}'


def test_nonconvergence_reports_history(tmp_path, capsys, monkeypatch):
    # GMRES out of budget: exit 3, and error.json holds the residual history
    # and the matvecs spent
    monkeypatch.setattr(solver, "_MAX_ITER", 7)
    path = write_config(tmp_path, solver={"tol": 1e-300})
    assert main(["solve", str(path)]) == 3
    report = json.loads((tmp_path / "out" / "error.json").read_text(),
                        parse_constant=_no_constants)
    assert report["error"] == "NonConvergence"
    assert 0 < report["iterations"] <= 7
    assert 0 < len(report["gmres_residuals"]) <= report["iterations"]


def test_gmres_budget_below_one_cycle_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(solver, "_MAX_ITER", 1)
    path = write_config(tmp_path, solver={"method": "iterative"})
    assert main(["solve", str(path)]) == 3
    report = json.loads((tmp_path / "out" / "error.json").read_text())
    assert report["error"] == "NonConvergence"
    assert report["iterations"] == 0


def test_gmres_memory_estimate_reports_sizecap(tmp_path, capsys, monkeypatch):
    # a machine too small for the GMRES basis: exit 3 and a SizeCap report
    monkeypatch.setattr("gaborscat.errors._physical_memory", lambda: 1000)
    path = write_config(tmp_path, solver={"method": "iterative"})
    assert main(["solve", str(path)]) == 3
    report = json.loads((tmp_path / "out" / "error.json").read_text())
    assert report["error"] == "SizeCap"
    assert "GMRES" in report["message"]


def test_dense_memory_estimate_reports_sizecap(tmp_path, capsys, monkeypatch):
    # a machine too small for the direct solve's dense matrix: exit 3 and a
    # SizeCap report, with the matrix never gathered
    def not_gathered(*args, **kwargs):
        raise AssertionError("the dense matrix was gathered")

    monkeypatch.setattr("gaborscat.errors._physical_memory", lambda: 1000)
    monkeypatch.setattr(operators, "assemble_green_matrix", not_gathered)
    path = write_config(tmp_path, **{"solver.method": "direct"})
    assert main(["solve", str(path)]) == 3
    report = json.loads((tmp_path / "out" / "error.json").read_text())
    assert report["error"] == "SizeCap"
    assert "dense system matrix" in report["message"]


def test_solve_checks_scene_before_dual_fit_and_tables(tmp_path, capsys,
                                                       monkeypatch):
    # an object beyond the frame coverage ends the run before any dual fit
    # or table build
    def not_reached(*args, **kwargs):
        raise AssertionError("the run went past the scene check")

    monkeypatch.setattr(cli, "zak_dual_window", not_reached)
    monkeypatch.setattr(cli, "load_or_build", not_reached)
    path = write_config(tmp_path, **{"scene.center": [3.0, 0.0]})
    assert main(["solve", str(path)]) == 3
    report = json.loads((tmp_path / "out" / "error.json").read_text())
    assert report["error"] == "DomainError"
    assert "frame coverage" in report["message"]


def _blocked_dir(tmp_path) -> Path:
    """A directory path under a regular file: it cannot be created."""
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    return blocker / "sub"


def test_uncreatable_cache_dir_exits_2_before_building(tmp_path, capsys,
                                                       monkeypatch):
    def not_reached(*args, **kwargs):
        raise AssertionError("tables were built for a cache that cannot exist")

    monkeypatch.setattr(tables, "build_spatial_table", not_reached)
    monkeypatch.setattr(tables, "build_spectral_table", not_reached)
    path = write_config(tmp_path, **{"cache.dir": str(_blocked_dir(tmp_path))})
    assert main(["solve", str(path)]) == 2
    line = capsys.readouterr().err.strip().splitlines()[-1]
    assert json.loads(line)["error"] == "NotADirectoryError"
    report = json.loads((tmp_path / "out" / "error.json").read_text())
    assert report == json.loads(line)


def test_uncreatable_out_dir_exits_2(tmp_path, capsys):
    path = write_config(tmp_path,
                        **{"output.out_dir": str(_blocked_dir(tmp_path))})
    assert main(["solve", str(path)]) == 2
    line = capsys.readouterr().err.strip().splitlines()[-1]
    assert json.loads(line)["error"] == "NotADirectoryError"
    assert not (tmp_path / "blocker").is_dir()


def test_field_csv_format(tmp_path):
    xs = np.array([0.0, 0.5])
    zs = np.array([-0.25, 0.25])
    field = np.array([[1 + 2j, 3 + 4j], [5 + 6j, 7 + 8j]])
    path = tmp_path / "f.csv"
    write_field_csv(path, xs, zs, field)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,z,re,im"
    assert len(lines) == 5
    # z-outer ordering: first row is (x=0, z=-0.25)
    assert lines[1].split(",")[:2] == ["0", "-0.25"]
    assert lines[2].split(",")[0] == "0.5"
    # 17 significant digits, the sign of zero kept
    write_field_csv(path, np.array([-0.0]), np.array([0.1]),
                    np.array([[complex(1e-300, -0.0)]]))
    assert path.read_text() == "x,z,re,im\n-0,0.10000000000000001,1e-300,-0\n"


def test_green_check_subcommand(capsys):
    code = main(["green-check", "--k0", "1.45", "--rmin", "0.01",
                 "--rmax", "10.0", "--n", "6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "worst" in out


def test_dual_window_subcommand(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["dual-window", str(path)]) == 0
    report = json.loads((tmp_path / "out" / "dual_window.json").read_text())
    assert report["residual"] < 5e-3
    assert (tmp_path / "out" / "dual_window.csv").exists()


def test_tables_subcommand(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["tables", str(path)]) == 0
    cache = tmp_path / "cache"
    assert len(list(cache.glob("egkt-*.bin"))) == 2
    assert len(list(cache.glob("egkf-*.bin"))) == 1
    assert len(list(cache.iterdir())) == 3
    assert main(["tables", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()[-1]
    assert "loaded from" in out and "kernel DFT loaded" in out


def test_compare_subcommand(tmp_path, capsys):
    # object is only ~lambda/9 across, so the oracle needs a finer cell than
    # its lambda/20 default to be meaningful
    path = write_config(tmp_path)
    assert main(["compare", str(path), "--oracle-cell", "0.05"]) == 0
    report = json.loads((tmp_path / "out" / "compare.json").read_text())
    assert report["rel_l2_inside"] < 0.35   # object is only ~X/2 wide; frame-granularity-limited
    assert (tmp_path / "out" / "compare_error.csv").exists()


def test_compare_with_no_interior_patch_exits_3(tmp_path, capsys):
    # a circle of radius 0.05 fills one lambda/20 oracle cell a sixth full:
    # no patch lies wholly inside, so nothing is compared and compare fails
    # instead of reporting a perfect 0
    path = write_config(tmp_path, **{"scene.radius": 0.05})
    assert main(["compare", str(path)]) == 3
    report = json.loads((tmp_path / "out" / "error.json").read_text())
    assert report["error"] == "DomainError"
    assert "selects no point" in report["message"]
    assert not (tmp_path / "out" / "compare.json").exists()


@pytest.mark.parametrize("cell", ["0", "-0.05", "nan", "inf"])
def test_compare_rejects_bad_oracle_cell(tmp_path, capsys, cell):
    path = write_config(tmp_path)
    assert main(["compare", str(path), "--oracle-cell", cell]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "ConfigError"
    assert "--oracle-cell" in payload["message"]
    assert json.loads((tmp_path / "out" / "error.json").read_text()) == payload


@pytest.mark.parametrize("option, value", [
    ("--n", "0"), ("--rmin", "0"), ("--k0", "-1"), ("--rmax", "nan"),
    ("--split", "0"), ("--delta", "-0.05"), ("--tol", "inf")])
def test_green_check_rejects_bad_option(capsys, option, value):
    argv = {"--k0": "1.45", "--n": "6", option: value}
    assert main(["green-check"] + [a for kv in argv.items() for a in kv]) == 2
    payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert payload["error"] == "ConfigError"
    assert option in payload["message"]


def test_compare_oracle_memory_estimate(tmp_path, capsys, monkeypatch):
    # a machine too small for the oracle's dense solve: SizeCap before any
    # n x n array is allocated, reported as a numerical failure
    monkeypatch.setattr("gaborscat.errors._physical_memory", lambda: 1000)
    path = write_config(tmp_path)
    assert main(["compare", str(path), "--oracle-cell", "0.05"]) == 3
    report = json.loads((tmp_path / "out" / "error.json").read_text())
    assert report["error"] == "SizeCap"


def test_compare_checks_oracle_before_solving(tmp_path, capsys, monkeypatch):
    # a cell above lambda/10 ends the run before the main solve starts
    def no_pipeline(rc):
        raise AssertionError("compare ran the solve before the oracle check")

    monkeypatch.setattr(cli, "_pipeline", no_pipeline)
    monkeypatch.chdir(tmp_path)              # the config's out_dir is relative
    config = Path(__file__).resolve().parents[1] / "configs" / "rectangle.json"
    assert main(["compare", str(config), "--oracle-cell", "1.0"]) == 3
    report = json.loads((tmp_path / "out" / "rectangle" / "error.json").read_text())
    assert report["error"] == "DomainError"
    assert "lambda/10" in report["message"]


def test_error_report_json(tmp_path, capsys):
    path = write_config(tmp_path, **{"zgrid.delta": 0.043})
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "ConfigError"


def test_module_entry_point(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "gaborscat", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0


def test_bundled_configs_parse():
    root = Path(__file__).resolve().parents[1] / "configs"
    for name in ("circle.json", "rectangle.json", "grating.json"):
        rc = parse_config(root / name)
        assert rc.scene.k0 > 0
