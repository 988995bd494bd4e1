import numpy as np
import pytest
from scipy.integrate import quad

from crowdflow.geometry import Grid
from crowdflow.kernels import build_stencil, make_quartic_kernel
from direct_sum import weight_sum


def small_grid(h):
    n = max(2, int(round(1.0 / h)))
    return Grid(nx=n, ny=n, h=h, origin=(0.0, 0.0))


def test_peak_value():
    kern = make_quartic_kernel(0.625)
    expected = 315.0 / (128.0 * np.pi * 0.625**2)
    assert kern.profile(0.0) == expected
    assert abs(kern.profile(0.0) - 2.00535) < 1e-5


def test_vanishes_at_support():
    kern = make_quartic_kernel(0.625)
    assert kern.profile(0.625) == 0.0
    assert kern.profile(0.7) == 0.0
    assert kern.profile(np.hypot(0.625, 0.0)) == 0.0
    assert kern.profile(np.hypot(0.6, 0.2)) == 0.0  # radius > support


def test_half_support_value():
    kern = make_quartic_kernel(0.5)
    expected = kern.coefficient * (15.0 / 16.0) ** 4
    assert np.isclose(kern.profile(0.25), expected, rtol=1e-14)


@pytest.mark.parametrize("support", [0.625, 1.5, 0.1875, 0.5])
def test_unit_mass(support):
    kern = make_quartic_kernel(support)
    total, err = quad(lambda r: 2.0 * np.pi * r * kern.profile(r), 0.0, support)
    assert abs(total - 1.0) < 1e-10
    assert err < 1e-10


def test_profile_monotone_nonincreasing():
    kern = make_quartic_kernel(1.5)
    xs = np.linspace(0.0, 1.5, 301)
    vals = np.array([kern.profile(x) for x in xs])
    assert np.all(np.diff(vals) <= 0.0)
    assert np.all(vals >= 0.0)


def test_profile_derivative_matches_difference_quotient():
    kern = make_quartic_kernel(0.625)
    xs = np.linspace(0.05, 0.6, 23)
    errs = []
    for delta in (2e-3, 1e-3):
        fd = np.array(
            [(kern.profile(x + delta) - kern.profile(x - delta)) / (2 * delta) for x in xs]
        )
        exact = np.array([kern.profile_derivative(x) for x in xs])
        errs.append(np.max(np.abs(fd - exact)))
    # centered differences are second order
    assert errs[0] / errs[1] > 3.5
    assert errs[1] < 1e-3


def test_gradient_at_origin_and_outside():
    kern = make_quartic_kernel(0.625)
    assert np.array_equal(kern.gradient(0.0, 0.0), np.zeros(2))
    assert np.array_equal(kern.gradient(0.7, 0.0), np.zeros(2))


def test_gradient_rotation_equivariance():
    kern = make_quartic_kernel(0.625)
    point = np.array([0.21, -0.13])
    for angle in (0.3, 1.2, 2.9):
        c, s = np.cos(angle), np.sin(angle)
        rot = np.array([[c, -s], [s, c]])
        g = np.array(kern.gradient(*point))
        g_rot = np.array(kern.gradient(*(rot @ point)))
        assert np.allclose(rot @ g, g_rot, atol=1e-12)


def test_gradient_points_inward():
    kern = make_quartic_kernel(0.625)
    g = np.array(kern.gradient(0.3, 0.1))
    # decreasing profile: gradient opposes the radial direction
    assert np.dot(g, [0.3, 0.1]) < 0.0


def test_stencil_radius_and_weight_sum():
    kern = make_quartic_kernel(0.625)
    h = 0.03125
    stencil = build_stencil(kern, small_grid(h))
    assert np.max(np.abs(stencil.offsets)) <= 20
    dist = np.hypot(stencil.offsets[:, 0] * h, stencil.offsets[:, 1] * h)
    assert np.all(dist < 0.625)
    assert abs(weight_sum(stencil) - 1.0) <= 0.01
    assert np.all(stencil.weights >= 0.0)


def test_stencil_resolution_floor():
    kern = make_quartic_kernel(0.625)
    build_stencil(kern, small_grid(0.625 / 3.0))  # exactly three cells across: fine
    with pytest.raises(ValueError, match="need at least 3 cells"):
        build_stencil(kern, small_grid(0.625 / 2.99))


def test_stencil_gradient_weights_antisymmetric():
    kern = make_quartic_kernel(0.625)
    stencil = build_stencil(kern, small_grid(0.03125))
    table = {
        (int(i), int(j)): (gx, gy)
        for (i, j), (gx, gy) in zip(stencil.offsets, stencil.grad_weights)
    }
    for (i, j), (gx, gy) in table.items():
        mx, my = table[(-i, -j)]
        assert mx == -gx
        assert my == -gy
    sums = np.abs(stencil.grad_weights.sum(axis=0))
    assert np.all(sums <= 1e-12)


def test_weight_sum_error_shrinks_under_refinement():
    kern = make_quartic_kernel(0.5)
    coarse = build_stencil(kern, small_grid(0.5 / 20.0))
    fine = build_stencil(kern, small_grid(0.5 / 80.0))
    coarse_sum, fine_sum = weight_sum(coarse), weight_sum(fine)
    assert abs(fine_sum - 1.0) < abs(coarse_sum - 1.0)
    assert abs(coarse_sum - 1.0) <= 0.01
    assert abs(fine_sum - 1.0) <= 0.001


def test_nonpositive_support_rejected():
    with pytest.raises(ValueError):
        make_quartic_kernel(0.0)
    with pytest.raises(ValueError):
        make_quartic_kernel(-1.0)
    # a non-finite support is no kernel either
    for support in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="positive and finite"):
            make_quartic_kernel(support)
