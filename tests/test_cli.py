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

from gaborscat import cli
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
    {"solver.cap": "big"},
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
                  "ewald.split", "ewald.quad_tol", "ewald.trunc_tol",
                  "solver.tol", "solver.cap", "output.x_min", "output.x_max",
                  "output.nx", "output.z_min", "output.z_max", "output.nz"]
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
    assert main(["tables", str(path)]) == 0
    assert "loaded from" in capsys.readouterr().out


def test_compare_subcommand(tmp_path, capsys):
    # object is only ~lambda/9 across, so the oracle needs a finer cell than
    # its lambda/20 default to be meaningful
    path = write_config(tmp_path)
    assert main(["compare", str(path), "--oracle-cell", "0.05"]) == 0
    report = json.loads((tmp_path / "out" / "compare.json").read_text())
    assert report["rel_l2_inside"] < 0.35   # object is only ~X/2 wide; frame-granularity-limited
    assert (tmp_path / "out" / "compare_error.csv").exists()


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
    monkeypatch.setattr("gaborscat.oracle._physical_memory", lambda: 1000)
    path = write_config(tmp_path)
    assert main(["compare", str(path), "--oracle-cell", "0.05"]) == 3
    report = json.loads((tmp_path / "out" / "error.json").read_text())
    assert report["error"] == "SizeCap"


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
