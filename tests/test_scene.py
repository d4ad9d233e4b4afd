import numpy as np
import pytest

import gaborscat as gs
from gaborscat.errors import DomainError

from .conftest import RT23


def circle_scene():
    return gs.Scene(shape=gs.Circle(radius=1.35), eps_r=2.0, k0=1.45, theta=0.0)


def rectangle_scene():
    return gs.Scene(shape=gs.Rectangle(width=5.0, height=2.0), eps_r=2.0,
                    k0=0.8388, theta=np.pi / 2)


def grating_scene():
    return gs.Scene(shape=gs.Grating(n_blocks=5, block_w=1.0, block_h=1.4,
                                     spacing=2.0), eps_r=2.0, k0=1.5,
                    theta=np.pi / 4)


def test_contrast_circle_reference_points():
    s = circle_scene()
    assert gs.contrast_at(0.0, 0.0, s) == 1.0
    assert gs.contrast_at(2.0, 0.0, s) == 0.0
    assert gs.contrast_at(1.349, 0.0, s) == 1.0


def test_contrast_rectangle_center():
    s = rectangle_scene()
    assert gs.contrast_at(0.0, 0.0, s) == 1.0
    assert gs.contrast_at(2.51, 0.0, s) == 0.0
    assert gs.contrast_at(0.0, 1.01, s) == 0.0


def test_contrast_grating_blocks():
    s = grating_scene()
    xs = np.linspace(-5.5, 5.5, 4001)
    chi = gs.contrast_at(xs, 0.0, s)
    # exactly five disjoint chi=1 intervals along x through the block centers
    edges = np.diff((chi > 0).astype(int))
    assert (edges == 1).sum() == 5
    assert (edges == -1).sum() == 5
    assert set(np.unique(chi)) == {0.0, 1.0}
    assert gs.contrast_at(0.0, 0.71, s) == 0.0


def test_contrast_values_binary():
    s = circle_scene()
    rng = np.random.default_rng(0)
    xs = rng.uniform(-2, 2, 300)
    zs = rng.uniform(-2, 2, 300)
    vals = gs.contrast_at(xs, zs, s)
    assert set(np.unique(vals)) <= {0.0, 1.0}


def test_incident_field_basics():
    s = circle_scene()
    assert gs.incident_field(0.0, 0.0, s) == pytest.approx(1.0)
    zs = np.linspace(-2, 2, 7)
    vals = gs.incident_field(0.3, zs, s)      # theta = 0: no z dependence
    assert np.allclose(vals, vals[0])
    xs = np.linspace(-3, 3, 11)
    assert np.allclose(np.abs(gs.incident_field(xs, 0.5, s)), s.e0)


def test_eps_below_one_rejected():
    with pytest.raises(DomainError):
        gs.Scene(shape=gs.Circle(radius=1.0), eps_r=0.5, k0=1.0, theta=0.0)


NAN = float("nan")
_CIRCLE = dict(shape=gs.Circle(radius=1.0), eps_r=2.0, k0=1.0, theta=0.0)
_FRAME = dict(X=0.5, alpha=0.8, beta=0.8, M=3, N=2)


@pytest.mark.parametrize("build", [
    lambda: gs.Scene(**{**_CIRCLE, "eps_r": NAN}),
    lambda: gs.Scene(**{**_CIRCLE, "k0": NAN}),
    lambda: gs.EwaldConfig(split=NAN, k0=1.0),
    lambda: gs.EwaldConfig(split=2.0, k0=NAN),
    lambda: gs.FrameParams(**{**_FRAME, "X": NAN}),
    lambda: gs.FrameParams(**{**_FRAME, "alpha": -0.8, "beta": -0.8}),
    lambda: gs.ZGrid(z_min=0.0, delta=NAN, n_k=4),
    lambda: gs.ZGrid(z_min=NAN, delta=0.05, n_k=4),
], ids=["scene-eps_r-nan", "scene-k0-nan", "ewald-split-nan", "ewald-k0-nan",
        "frame-X-nan", "frame-negative-rates", "zgrid-delta-nan",
        "zgrid-z_min-nan"])
def test_public_dataclasses_reject_nan_and_negative_rates(build):
    # NaN fails every range check, and a frame needs alpha, beta > 0 (the
    # negative pair's product lies in (0, 1), but its analysis grid is empty)
    with pytest.raises(DomainError):
        build()


def test_unknown_shape_rejected():
    # Scene is the one place that checks the shape object: everything after
    # it asks the shape for its own extents and indicator
    with pytest.raises(DomainError, match="unknown shape"):
        gs.Scene(shape=(1.0, 2.0), eps_r=2.0, k0=1.0, theta=0.0)


def test_validate_scene_z_overflow():
    fp = gs.FrameParams(X=0.5, alpha=RT23, beta=RT23, M=6, N=3)
    zg = gs.ZGrid(z_min=-0.5, delta=0.05, n_k=20)
    with pytest.raises(DomainError):
        gs.validate_scene(circle_scene(), fp, zg)


def test_validate_scene_margin_warning():
    fp = gs.FrameParams(X=0.5, alpha=RT23, beta=RT23, M=6, N=3)
    zg = gs.ZGrid.from_bounds(-1.4, 1.4, 0.05)
    # the reference rectangle touches the coverage edge: warn, not fail
    with pytest.warns(UserWarning, match="window shifts"):
        gs.validate_scene(rectangle_scene(), fp, zg)
    # the circle passes quietly
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gs.validate_scene(circle_scene(), fp, zg)


def _chi_slices(scene, zg, grid):
    """The contrast at grid on each z node, as the operator holds it."""
    return np.array([gs.contrast_at(grid, z_k, scene) for z_k in zg.nodes])


def test_project_source_zero_contrast(fp_small, zg_small, dual_small):
    s = gs.Scene(shape=gs.Circle(radius=0.4), eps_r=1.0, k0=1.45, theta=0.0)
    grid = gs.analysis_grid(fp_small)
    j = gs.project_source(s, zg_small, grid, _chi_slices(s, zg_small, grid),
                          gs.analysis_matrix(grid, dual_small, fp_small))
    assert np.all(j == 0)


def test_project_source_linear_in_e0(fp_small, zg_small, dual_small):
    s1 = gs.Scene(shape=gs.Circle(radius=0.4), eps_r=2.0, k0=1.45, theta=0.0,
                  e0=1.0)
    s2 = gs.Scene(shape=gs.Circle(radius=0.4), eps_r=2.0, k0=1.45, theta=0.0,
                  e0=2.0)
    grid = gs.analysis_grid(fp_small)
    ana = gs.analysis_matrix(grid, dual_small, fp_small)
    chi = _chi_slices(s1, zg_small, grid)
    j1 = gs.project_source(s1, zg_small, grid, chi, ana)
    j2 = gs.project_source(s2, zg_small, grid, chi, ana)
    assert np.array_equal(j2, 2.0 * j1)


def test_project_source_gibbs_limited_near_optimal(fp_unit, zg_small, dual_unit):
    # the sharp boundary caps the achievable accuracy: the best box-limited
    # approximation of the central slice (dense least squares) sits at several
    # percent, and the dual-window projection must stay close to that optimum
    from .oracles import lstsq_reconstruction
    s = gs.Scene(shape=gs.Circle(radius=0.45), eps_r=2.0, k0=1.45, theta=0.0)
    grid = gs.analysis_grid(fp_unit)
    j = gs.project_source(s, zg_small, grid, _chi_slices(s, zg_small, grid),
                          gs.analysis_matrix(grid, dual_unit, fp_unit))
    rec = gs.synthesize(j.reshape(2 * fp_unit.M + 1, 2 * fp_unit.N + 1, -1),
                        grid, fp_unit)                   # (nx, n_k+1)
    direct = np.array([gs.contrast_at(grid, zk, s)
                       * gs.incident_field(grid, zk, s)
                       for zk in zg_small.nodes]).T
    err = np.linalg.norm(rec - direct) / np.linalg.norm(direct)
    k_mid = zg_small.n_k // 2
    f_mid = direct[:, k_mid].astype(complex)
    best = lstsq_reconstruction(f_mid, grid, fp_unit, fp_unit.M, fp_unit.N)
    best_err = np.linalg.norm(best - f_mid) / np.linalg.norm(f_mid)
    mid_err = (np.linalg.norm(rec[:, k_mid] - f_mid)
               / np.linalg.norm(f_mid))
    assert mid_err < 1.5 * best_err
    assert err < 0.12


def test_x_extent_helpers():
    assert gs.Grating(5, 1.0, 1.4, 2.0).half_extents() == pytest.approx((4.5, 0.7))
    assert gs.Rectangle(5.0, 2.0).half_extents() == pytest.approx((2.5, 1.0))
    assert gs.Circle(1.35).half_extents() == pytest.approx((1.35, 1.35))
