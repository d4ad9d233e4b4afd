import numpy as np
import pytest
from scipy import special

import gaborscat as gs
from gaborscat.errors import DomainError, GridMismatch, SizeCap


def circle_scene(eps_r=2.0, e0=1.0, theta=0.0):
    return gs.Scene(shape=gs.Circle(radius=1.35), eps_r=eps_r, k0=1.45,
                    theta=theta, e0=e0)


@pytest.fixture(scope="module")
def mom_circle():
    return gs.mom_solve(circle_scene(), gs.MoMConfig())


def test_mom_zero_contrast():
    res = gs.mom_solve(circle_scene(eps_r=1.0), gs.MoMConfig())
    assert np.abs(res.e_scattered).max() < 1e-13


def test_mom_cell_default_and_cap():
    res = gs.mom_solve(circle_scene(), gs.MoMConfig())
    assert res.cell == pytest.approx(circle_scene().wavelength / 20)
    with pytest.raises(DomainError):
        gs.MoMConfig(cell=1.0).resolved_cell(circle_scene())   # > lambda/10
    with pytest.raises(SizeCap):
        gs.mom_solve(circle_scene(), gs.MoMConfig(cell=0.005))


@pytest.mark.parametrize("cell", [0.0, -0.05, float("nan"), float("inf")])
def test_mom_cell_rejects_non_positive_or_non_finite(cell):
    with pytest.raises(DomainError):
        gs.MoMConfig(cell=cell).resolved_cell(circle_scene())


def test_mom_memory_estimate_before_allocation(monkeypatch, mom_circle):
    # the dense set-up needs 72 B per n x n entry; with the memory reading
    # below that, mom_solve refuses before allocating any n x n array
    n = len(mom_circle.x)
    monkeypatch.setattr("gaborscat.errors._physical_memory",
                        lambda: 72 * n * n - 1)
    with pytest.raises(SizeCap):
        gs.mom_solve(circle_scene(), gs.MoMConfig())


def test_mom_matches_cylinder_series(mom_circle):
    # the oracle-for-the-oracle: analytic series at the patch centroids
    scene = circle_scene()
    ref = gs.cylinder_reference_field(mom_circle.x, mom_circle.z, scene,
                                      which="scattered")
    inside = gs.contrast_at(mom_circle.x, mom_circle.z, scene) > 0
    err = (np.linalg.norm((mom_circle.e_scattered - ref)[inside])
           / np.linalg.norm(ref[inside]))
    assert err < 1e-2


def test_mom_self_convergence(mom_circle):
    from scipy.interpolate import griddata
    fine = gs.mom_solve(circle_scene(), gs.MoMConfig(cell=mom_circle.cell / 2))
    interp = griddata((fine.x, fine.z), fine.e_total,
                      (mom_circle.x, mom_circle.z), method="linear")
    ok = ~np.isnan(interp)
    err = (np.linalg.norm((mom_circle.e_total - interp)[ok])
           / np.linalg.norm(interp[ok]))
    assert err < 1e-2


def test_mom_linear_in_amplitude(mom_circle):
    double = gs.mom_solve(circle_scene(e0=2.0), gs.MoMConfig())
    assert np.allclose(double.e_total, 2.0 * mom_circle.e_total, rtol=1e-12)


def test_mom_rotational_reciprocity():
    # circular symmetry: rotating the incidence angle rotates the solution;
    # total scattered power (norm over cells) is invariant
    a = gs.mom_solve(circle_scene(theta=0.0), gs.MoMConfig())
    b = gs.mom_solve(circle_scene(theta=np.pi / 2), gs.MoMConfig())
    na = np.linalg.norm(a.e_scattered)
    nb = np.linalg.norm(b.e_scattered)
    assert abs(na - nb) / na < 1e-2


def test_mom_scattered_at_external_points(mom_circle):
    # radiated exterior field matches the analytic exterior series
    scene = circle_scene()
    xs = np.array([2.0, 0.0, -2.5])
    zs = np.array([0.5, 2.2, -0.3])
    got = mom_circle.scattered_at(xs, zs)
    k0 = scene.k0
    r0 = scene.shape.radius
    k1 = k0 * np.sqrt(scene.eps_r)
    rho = np.hypot(xs, zs)
    phi = np.arctan2(zs, xs)
    u, v = k0 * r0, k1 * r0
    ref = np.zeros(3, dtype=complex)
    for n in range(-25, 26):
        ju, jv = special.jv(n, u), special.jv(n, v)
        jpu, jpv = special.jvp(n, u), special.jvp(n, v)
        h, hp = special.hankel2(n, u), special.h2vp(n, u)
        b_n = -(k1 * jpv * ju - k0 * jv * jpu) / (k1 * jpv * h - k0 * jv * hp)
        ref += 1j ** n * b_n * special.hankel2(n, k0 * rho) * np.exp(1j * n * phi)
    assert np.linalg.norm(got - ref) / np.linalg.norm(ref) < 2e-2


def test_cylinder_series_boundary_continuity():
    # interior series (package) meets the exterior series (test-local) at r0
    scene = circle_scene()
    r0 = scene.shape.radius
    phis = np.linspace(0, 2 * np.pi, 17)[:-1]
    xs = 0.999999 * r0 * np.cos(phis)
    zs = 0.999999 * r0 * np.sin(phis)
    inner = gs.cylinder_reference_field(xs, zs, scene, which="total")
    k0 = scene.k0
    k1 = k0 * np.sqrt(scene.eps_r)
    u, v = k0 * r0, k1 * r0
    outer = gs.incident_field(xs, zs, scene)
    for n in range(-25, 26):
        ju, jv = special.jv(n, u), special.jv(n, v)
        jpu, jpv = special.jvp(n, u), special.jvp(n, v)
        h, hp = special.hankel2(n, u), special.h2vp(n, u)
        b_n = -(k1 * jpv * ju - k0 * jv * jpu) / (k1 * jpv * h - k0 * jv * hp)
        outer += (1j ** n * b_n * special.hankel2(n, k0 * r0 * 0.999999)
                  * np.exp(1j * n * phis))
    assert np.linalg.norm(inner - outer) / np.linalg.norm(outer) < 1e-6


def test_cylinder_series_weak_contrast_limit():
    scene = circle_scene(eps_r=1.0 + 1e-9)
    xs = np.array([0.3, -0.5, 0.0])
    zs = np.array([0.1, 0.4, -0.9])
    total = gs.cylinder_reference_field(xs, zs, scene, which="total")
    inc = gs.incident_field(xs, zs, scene)
    assert np.linalg.norm(total - inc) / np.linalg.norm(inc) < 1e-7


def test_compare_fields_metrics():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    same = gs.compare_fields(a, a)
    assert same["rel_l2"] == 0.0 and same["max_abs"] == 0.0
    doubled = gs.compare_fields(2 * a, a)
    assert doubled["rel_l2"] == pytest.approx(1.0)
    mask = np.zeros((5, 5), dtype=bool)
    mask[2, 2] = True
    m = gs.compare_fields(2 * a, a, mask)
    assert m["max_abs"] == pytest.approx(abs(a[2, 2]))
    with pytest.raises(DomainError, match="selects no point"):
        gs.compare_fields(a, a, np.zeros((5, 5), dtype=bool))
    with pytest.raises(GridMismatch):
        gs.compare_fields(a, a[:3])
    with pytest.raises(GridMismatch):
        gs.compare_fields(a, a, np.ones((2, 2), dtype=bool))
