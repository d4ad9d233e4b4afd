"""Shared fixtures: a small discretization for fast tests and the reference
(paper-scale) circle parameters for acceptance runs."""

import numpy as np
import pytest

import gaborscat as gs

RT23 = float(np.sqrt(2.0 / 3.0))


@pytest.fixture(scope="session")
def fp_small() -> gs.FrameParams:
    return gs.FrameParams(X=0.5, alpha=RT23, beta=RT23, M=3, N=2)


@pytest.fixture(scope="session")
def fp_unit() -> gs.FrameParams:
    """Wider box used by the unit-source and field-representation tests."""
    return gs.FrameParams(X=0.5, alpha=RT23, beta=RT23, M=5, N=5)


@pytest.fixture(scope="session")
def zg_small() -> gs.ZGrid:
    return gs.ZGrid(z_min=-0.3, delta=0.05, n_k=12)


@pytest.fixture(scope="session")
def cfg_small(zg_small) -> gs.EwaldConfig:
    return gs.EwaldConfig(split=gs.optimal_split(1.45, zg_small.delta), k0=1.45)


@pytest.fixture(scope="session")
def dual_small(fp_small) -> gs.DualWindow:
    xs, eta = gs.zak_dual_window(fp_small)
    return gs.fit_dual_coeffs(eta, xs, 3, 4, fp_small)


@pytest.fixture(scope="session")
def dual_unit(fp_unit) -> gs.DualWindow:
    xs, eta = gs.zak_dual_window(fp_unit)
    return gs.fit_dual_coeffs(eta, xs, 3, 4, fp_unit)


@pytest.fixture(scope="session")
def tables_small(fp_small, zg_small, cfg_small, dual_small):
    return gs.load_or_build(None, fp_small, zg_small, cfg_small,
                            dual_small.n_u, dual_small.n_v)[:2]


@pytest.fixture(scope="session")
def tables_unit(fp_unit, zg_small, cfg_small, dual_unit):
    return gs.load_or_build(None, fp_unit, zg_small, cfg_small,
                            dual_unit.n_u, dual_unit.n_v)[:2]


@pytest.fixture(scope="session")
def scene_small_circle() -> gs.Scene:
    """Small circle well inside the fp_small coverage."""
    return gs.Scene(shape=gs.Circle(radius=0.45), eps_r=2.0, k0=1.45, theta=0.0)


@pytest.fixture(scope="session")
def op_small(scene_small_circle, dual_small, tables_small):
    return gs.build_operator(scene_small_circle, dual_small, *tables_small)


@pytest.fixture(scope="session")
def scene_partial() -> gs.Scene:
    """Circle of radius 0.2 on the zg_small interval [-0.3, 0.3]: chi == 0 on
    the outer z slices."""
    return gs.Scene(shape=gs.Circle(radius=0.2), eps_r=2.0, k0=1.45, theta=0.0)


@pytest.fixture(scope="session")
def op_partial(scene_partial, dual_small, tables_small):
    return gs.build_operator(scene_partial, dual_small, *tables_small)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    try:
        from .test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for name, ok, detail in RESULTS:
            terminalreporter.write_line(
                f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
