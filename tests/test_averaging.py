import numpy as np
import pytest

from crowdflow.averaging import (
    Channel,
    DomainAverager,
    KernelSpectra,
    assemble_nonlocal,
    compute_z,
    compute_z_gradient,
    convolve_bounded,
    gradient_convolve_bounded,
    stencil_apply,
)
from crowdflow.config import RunConfig
from crowdflow.fields import ScalarField
from crowdflow.geometry import Domain, build_grid
from crowdflow.kernels import KernelStencil, build_stencil, make_quartic_kernel
from crowdflow.simulator import init_scenario


def box_setup(size, h, support, bounds=None):
    if bounds is None:
        bounds = (0.0, size, 0.0, size)
    dom = Domain.rectangle(bounds)
    grid, mask = build_grid(dom, h)
    stencil = build_stencil(make_quartic_kernel(support), grid)
    return grid, mask, stencil


def interior_field(grid, mask, fn):
    return ScalarField.from_function(grid, fn, mask)


def random_field(grid, mask, rng, scale=1.0):
    vals = rng.uniform(0.0, scale, size=grid.shape)
    vals[~mask.interior] = 0.0
    return ScalarField(grid, vals)


def test_z_deep_interior_equals_weight_sum():
    grid, mask, stencil = box_setup(4.0, 0.125, 0.5)
    z = compute_z(grid, mask, stencil)
    xm, ym = grid.center_mesh()
    dist = np.minimum.reduce([xm, 4.0 - xm, ym, 4.0 - ym])
    deep = dist > 0.5
    assert deep.any()
    assert np.all(z.values[deep] == stencil.weight_sum)


def test_z_wall_and_corner_values():
    # twenty cells across the support
    grid, mask, stencil = box_setup(4.0, 0.05, 1.0)
    z = compute_z(grid, mask, stencil).values
    assert abs(z[0, 0] - 0.25) < 0.05
    assert abs(z[40, 0] - 0.5) < 0.05
    assert abs(z[0, 40] - 0.5) < 0.05
    interior = mask.interior
    assert np.all(z[interior] > 0.0)
    assert np.all(z[interior] <= 1.01)


def test_z_recompute_is_identical():
    grid, mask, stencil = box_setup(4.0, 0.125, 0.5)
    a = compute_z(grid, mask, stencil)
    b = compute_z(grid, mask, stencil)
    assert np.array_equal(a.values, b.values)


def test_z_must_be_positive():
    grid, mask, _ = box_setup(2.0, 0.125, 0.5)
    degenerate = KernelStencil(
        offsets=np.array([[0, 0]]),
        weights=np.array([0.0]),
        grad_weights=np.zeros((1, 2)),
        support=0.5,
        weight_sum=0.0,
    )
    with pytest.raises(ValueError):
        compute_z(grid, mask, degenerate)
    with pytest.raises(ValueError):
        DomainAverager(grid, mask, degenerate)


def test_z_must_be_positive_beyond_fft_rounding():
    # a zero centre weight and a ring 8 cells out: on the 15 x 15 box the
    # ring of the middle cell lies wholly off the grid, so its direct z is
    # exactly 0 while the FFT z there is rounding noise (+2.2e-16 here)
    grid, mask, _ = box_setup(1.875, 0.125, 0.5)
    offsets = np.array([[0, 0], [8, 0], [-8, 0], [0, 8], [0, -8]])
    ring = KernelStencil(
        offsets=offsets,
        weights=np.array([0.0, 1.0, 1.0, 1.0, 1.0]),
        grad_weights=np.zeros((5, 2)),
        support=1.0,
        weight_sum=4.0,
    )
    assert grid.shape == (15, 15)
    (z,) = stencil_apply(mask.interior.astype(float), offsets, [ring.weights])
    assert z[7, 7] == 0.0
    with pytest.raises(ValueError):
        compute_z(grid, mask, ring)
    with pytest.raises(ValueError):
        DomainAverager(grid, mask, ring)


def test_constant_density_is_fixed_point():
    grid, mask, stencil = box_setup(4.0, 0.125, 0.5)
    z = compute_z(grid, mask, stencil)
    two = interior_field(grid, mask, lambda x, y: 2.0)
    out = convolve_bounded(two, stencil, z, mask)
    assert np.array_equal(out.values[mask.interior], two.values[mask.interior])
    assert np.all(out.values[~mask.interior] == 0.0)
    odd = interior_field(grid, mask, lambda x, y: 0.7)
    out_odd = convolve_bounded(odd, stencil, z, mask)
    assert np.max(np.abs(out_odd.values[mask.interior] - 0.7)) <= 1e-12


def test_average_respects_local_bounds():
    grid, mask, stencil = box_setup(4.0, 0.125, 0.5)
    z = compute_z(grid, mask, stencil)
    rng = np.random.default_rng(2317)
    nx, ny = grid.shape
    interior = mask.interior
    for _ in range(100):
        rho = random_field(grid, mask, rng, scale=3.0)
        avg = convolve_bounded(rho, stencil, z, mask).values
        lo = np.full(grid.shape, np.inf)
        hi = np.full(grid.shape, -np.inf)
        for (di, dj), w in zip(stencil.offsets, stencil.weights):
            if w == 0.0:
                continue
            i0, i1 = max(0, di), nx + min(0, di)
            j0, j1 = max(0, dj), ny + min(0, dj)
            if i0 >= i1 or j0 >= j1:
                continue
            src = rho.values[i0 - di : i1 - di, j0 - dj : j1 - dj]
            src_ok = interior[i0 - di : i1 - di, j0 - dj : j1 - dj]
            lo[i0:i1, j0:j1] = np.where(
                src_ok, np.minimum(lo[i0:i1, j0:j1], src), lo[i0:i1, j0:j1]
            )
            hi[i0:i1, j0:j1] = np.where(
                src_ok, np.maximum(hi[i0:i1, j0:j1], src), hi[i0:i1, j0:j1]
            )
        slack = 1e-12 * 3.0
        assert np.all(avg[interior] >= lo[interior] - slack)
        assert np.all(avg[interior] <= hi[interior] + slack)


def test_average_is_linear():
    grid, mask, stencil = box_setup(4.0, 0.125, 0.5)
    z = compute_z(grid, mask, stencil)
    rng = np.random.default_rng(99)
    r1 = random_field(grid, mask, rng)
    r2 = random_field(grid, mask, rng)
    a, b = 1.7, -0.4
    combo = ScalarField(grid, a * r1.values + b * r2.values)
    lhs = convolve_bounded(combo, stencil, z, mask).values
    rhs = a * convolve_bounded(r1, stencil, z, mask).values + b * convolve_bounded(
        r2, stencil, z, mask
    ).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_gradient_of_constant_vanishes():
    grid, mask, stencil = box_setup(4.0, 0.125, 0.5)
    z = compute_z(grid, mask, stencil)
    zg = compute_z_gradient(grid, mask, stencil)
    two = interior_field(grid, mask, lambda x, y: 2.0)
    g = gradient_convolve_bounded(two, stencil, z, zg, mask)
    assert np.all(g.x == 0.0)
    assert np.all(g.y == 0.0)
    other = interior_field(grid, mask, lambda x, y: 0.3)
    g2 = gradient_convolve_bounded(other, stencil, z, zg, mask)
    assert np.max(np.abs(g2.x)) <= 1e-12
    assert np.max(np.abs(g2.y)) <= 1e-12


def test_gradient_of_linear_field():
    grid, mask, stencil = box_setup(4.0, 0.0625, 0.5)
    z = compute_z(grid, mask, stencil)
    zg = compute_z_gradient(grid, mask, stencil)
    rho = interior_field(grid, mask, lambda x, y: x)
    g = gradient_convolve_bounded(rho, stencil, z, zg, mask)
    xm, ym = grid.center_mesh()
    dist = np.minimum.reduce([xm, 4.0 - xm, ym, 4.0 - ym])
    deep = dist > 0.5 + 2 * 0.0625
    assert np.max(np.abs(g.x[deep] - 1.0)) < 0.02
    assert np.max(np.abs(g.y[deep])) < 0.02
    # difference quotient of the averaged field as an independent check
    avg = convolve_bounded(rho, stencil, z, mask).values
    interior = mask.interior
    both = interior.copy()
    both[1:-1, :] &= interior[2:, :] & interior[:-2, :]
    both[0, :] = both[-1, :] = False
    fd = np.zeros_like(avg)
    fd[1:-1, :] = (avg[2:, :] - avg[:-2, :]) / (2 * 0.0625)
    bound = 5.0 * 0.0625 * np.max(rho.values) / 0.5
    assert np.max(np.abs(g.x[both] - fd[both])) <= bound


def test_gradient_matches_difference_quotient_to_second_order():
    errs = []
    for h in (0.125, 0.0625):
        grid, mask, stencil = box_setup(4.0, h, 1.0)
        z = compute_z(grid, mask, stencil)
        zg = compute_z_gradient(grid, mask, stencil)
        rho = interior_field(grid, mask, lambda x, y: np.sin(1.3 * x) * np.cos(0.9 * y))
        g = gradient_convolve_bounded(rho, stencil, z, zg, mask)
        avg = convolve_bounded(rho, stencil, z, mask).values
        fdx = (avg[2:, 1:-1] - avg[:-2, 1:-1]) / (2 * h)
        fdy = (avg[1:-1, 2:] - avg[1:-1, :-2]) / (2 * h)
        xm, ym = grid.center_mesh()
        dist = np.minimum.reduce([xm, 4.0 - xm, ym, 4.0 - ym])
        deep = (dist > 2 * h)[1:-1, 1:-1]
        err = max(
            np.max(np.abs(g.x[1:-1, 1:-1][deep] - fdx[deep])),
            np.max(np.abs(g.y[1:-1, 1:-1][deep] - fdy[deep])),
        )
        errs.append(err)
    assert errs[0] / errs[1] >= 3.5


def test_gradient_antisymmetric_density_on_axis():
    # 17 rows: the middle row sits exactly on the symmetry axis
    grid, mask, stencil = box_setup(4.0, 0.25, 1.0, bounds=(0.0, 4.0, 0.0, 4.25))
    assert grid.shape[1] == 17
    z = compute_z(grid, mask, stencil)
    zg = compute_z_gradient(grid, mask, stencil)
    rho = interior_field(grid, mask, lambda x, y: y - 2.125)
    g = gradient_convolve_bounded(rho, stencil, z, zg, mask)
    avg = convolve_bounded(rho, stencil, z, mask)
    axis = mask.interior[:, 8]
    assert np.max(np.abs(avg.values[:, 8][axis])) <= 1e-10
    assert np.max(np.abs(g.x[:, 8][axis])) <= 1e-10


def assert_pinned_to_direct(fast, slow, mask, stencil):
    """The FFT normalizers: bitwise the direct sum on deep cells, 1e-13 elsewhere."""
    # deep: every offset of the footprint lands on an interior cell
    n = stencil.offsets.shape[0]
    (count,) = stencil_apply(mask.interior.astype(float), stencil.offsets, [np.ones(n)])
    deep = count == n
    assert deep.any() and not deep.all()
    assert fast[deep].tobytes() == slow[deep].tobytes()
    assert np.max(np.abs(fast - slow)) <= 1e-13
    assert np.all(fast[~mask.interior] == 0.0)


def test_averager_bundles_the_pieces():
    grid, mask, stencil = box_setup(4.0, 0.125, 0.5)
    av = DomainAverager(grid, mask, stencil)
    assert_pinned_to_direct(av.z.values, compute_z(grid, mask, stencil).values, mask, stencil)
    assert av.stencil is stencil and av.mask is mask
    # the oracle run on the averager's pieces keeps a constant fixed, flat
    const = interior_field(grid, mask, lambda x, y: np.full(x.shape, 0.7))
    avg = convolve_bounded(const, av.stencil, av.z, av.mask)
    g = gradient_convolve_bounded(const, av.stencil, av.z, av.z_grad, av.mask)
    assert np.max(np.abs(avg.values - const.values)) <= 1e-12
    assert np.max(np.abs(g.x)) <= 1e-12 and np.max(np.abs(g.y)) <= 1e-12


@pytest.mark.parametrize(
    "name,h", [("room-eq25", 0.125), ("room-eq25", 0.0625), ("corridor-eq20", 0.0625)]
)
def test_averager_normalizers_against_the_direct_sums(name, h):
    scenario = init_scenario(RunConfig(scenario=name, h=h))
    grid, mask = scenario.grid, scenario.mask
    channels = scenario.model.channels
    averagers = {id(c.averager): c.averager for c in channels}
    gradient_ids = {id(c.averager) for c in channels if c.kind == "gradient"}
    assert gradient_ids
    for key, av in averagers.items():
        stencil = av.stencil
        direct_z = compute_z(grid, mask, stencil)
        assert_pinned_to_direct(av.z.values, direct_z.values, mask, stencil)
        if key not in gradient_ids:
            continue
        direct = compute_z_gradient(grid, mask, stencil)
        for fast, slow in ((av.z_grad.x, direct.x), (av.z_grad.y, direct.y)):
            assert_pinned_to_direct(fast, slow, mask, stencil)


def test_sup_bound_against_l1_mass():
    grid, mask, stencil = box_setup(4.0, 0.125, 0.5)
    av = DomainAverager(grid, mask, stencil)
    peak = make_quartic_kernel(0.5).profile(0.0)
    c = np.min(av.z.values[mask.interior])
    rng = np.random.default_rng(5)
    for _ in range(10):
        rho = random_field(grid, mask, rng, scale=2.0)
        avg = convolve_bounded(rho, stencil, av.z, mask)
        l1 = grid.cell_area * np.sum(np.abs(rho.values))
        assert np.max(np.abs(avg.values)) <= peak * l1 / c + 1e-12


def test_channel_layout_single_population():
    grid, mask, stencil = box_setup(4.0, 0.125, 0.5)
    av = DomainAverager(grid, mask, stencil)
    coupling = (Channel("average", (0,), av), Channel("gradient", (0,), av))
    rho = interior_field(grid, mask, lambda x, y: x)
    out = assemble_nonlocal([rho], KernelSpectra(coupling))
    assert list(out) == list(coupling)
    assert_spectral_matches_direct([rho], coupling)


def test_channel_layout_two_populations():
    grid, mask, stencil = box_setup(4.0, 0.125, 0.5)
    av = DomainAverager(grid, mask, stencil)
    coupling = (
        Channel("average", (0, 1), av),
        Channel("average", (0, 1), av),
        Channel("gradient", (0,), av),
        Channel("gradient", (1,), av),
        Channel("gradient", (0,), av),
        Channel("gradient", (1,), av),
    )
    rng = np.random.default_rng(11)
    r1 = random_field(grid, mask, rng)
    r2 = random_field(grid, mask, rng)
    out = assemble_nonlocal([r1, r2], KernelSpectra(coupling))
    # duplicates collapse into the key of their first use
    assert list(out) == [coupling[0], coupling[2], coupling[3]]
    assert_spectral_matches_direct([r1, r2], coupling)


def test_zero_density_gives_zero_results():
    grid, mask, stencil = box_setup(2.0, 0.125, 0.5)
    av = DomainAverager(grid, mask, stencil)
    coupling = (Channel("average", (0,), av), Channel("gradient", (0,), av))
    zero = ScalarField.zeros(grid)
    out = assemble_nonlocal([zero], KernelSpectra(coupling))
    assert list(out) == list(coupling)
    assert np.all(out[coupling[0]].values == 0.0)
    assert np.all(out[coupling[1]].x == 0.0)
    assert np.all(out[coupling[1]].y == 0.0)


# ---------------------------------------------------------------- spectral engine


def edge_heavy_fields(grid, mask, channels, count, seed):
    """Random interior densities with extra mass in a band as wide as the
    largest stencil along all four edges of the array, where too little
    zero padding would wrap one edge's mass onto the opposite edge."""
    r = max(int(np.abs(c.averager.stencil.offsets).max()) for c in channels)
    rng = np.random.default_rng(seed)
    fields = []
    for _ in range(count):
        vals = rng.uniform(0.0, 2.0, size=mask.interior.shape)
        band = np.zeros(mask.interior.shape, dtype=bool)
        band[:r] = band[-r:] = True
        band[:, :r] = band[:, -r:] = True
        vals[band] += rng.uniform(0.0, 4.0, size=int(band.sum()))
        vals[~mask.interior] = 0.0
        for edge in (vals[0], vals[-1], vals[:, 0], vals[:, -1]):
            assert edge.sum() > 0.0
        fields.append(ScalarField(grid, vals))
    return fields


def direct_channel(rhos, channel):
    """The channel by the direct sum: sources summed in order, then averaged."""
    total = rhos[channel.sources[0]].values.copy()
    for idx in channel.sources[1:]:
        total += rhos[idx].values
    combined = ScalarField(rhos[0].grid, total)
    av = channel.averager
    if channel.kind == "average":
        return convolve_bounded(combined, av.stencil, av.z, av.mask)
    return gradient_convolve_bounded(combined, av.stencil, av.z, av.z_grad, av.mask)


def assert_spectral_matches_direct(rhos, channels):
    spectral = assemble_nonlocal(rhos, KernelSpectra(channels))
    assert list(spectral) == list(dict.fromkeys(channels))
    for channel, b in spectral.items():
        a = direct_channel(rhos, channel)
        if channel.kind == "average":
            assert np.max(np.abs(a.values - b.values)) <= 1e-12
        else:
            assert np.max(np.abs(a.x - b.x)) <= 1e-12
            assert np.max(np.abs(a.y - b.y)) <= 1e-12


@pytest.mark.parametrize("name", ["room-eq25", "corridor-eq20"])
def test_spectral_matches_direct_on_presets(name):
    # the room has obstacles; the corridor's total average sums two sources
    scenario = init_scenario(RunConfig(scenario=name, h=0.0625))
    channels = scenario.model.channels
    if name == "corridor-eq20":
        assert any(len(c.sources) == 2 for c in channels)
    rhos = edge_heavy_fields(
        scenario.grid, scenario.mask, channels, len(scenario.initial), seed=17
    )
    assert_spectral_matches_direct(rhos, channels)


def test_spectral_matches_direct_three_populations():
    grid, mask, near = box_setup(4.0, 0.0625, 0.25)
    far = build_stencil(make_quartic_kernel(0.75), grid)
    near_av = DomainAverager(grid, mask, near)
    far_av = DomainAverager(grid, mask, far)
    channels = (
        Channel("average", (0, 1, 2), near_av),
        Channel("average", (1, 2), far_av),
        Channel("gradient", (0,), far_av),
        Channel("gradient", (1,), near_av),
        Channel("gradient", (2,), far_av),
        Channel("gradient", (0, 2), near_av),
    )
    rhos = edge_heavy_fields(grid, mask, channels, 3, seed=23)
    assert_spectral_matches_direct(rhos, channels)


@pytest.mark.parametrize(
    "kinds_and_sources",
    [(("average", (2,)),), (("average", (0,)), ("gradient", (2,)))],
    ids=["only-channel", "second-channel"],
)
def test_channel_index_out_of_range(kinds_and_sources):
    grid, mask, stencil = box_setup(2.0, 0.125, 0.5)
    av = DomainAverager(grid, mask, stencil)
    coupling = tuple(Channel(kind, sources, av) for kind, sources in kinds_and_sources)
    rho = ScalarField.zeros(grid)
    with pytest.raises(ValueError):
        assemble_nonlocal([rho], KernelSpectra(coupling))


def test_engine_rejects_mismatched_grids():
    grid, mask, stencil = box_setup(2.0, 0.125, 0.5)
    other_grid, other_mask, other_stencil = box_setup(3.0, 0.125, 0.5)
    av = DomainAverager(grid, mask, stencil)
    other_av = DomainAverager(other_grid, other_mask, other_stencil)
    with pytest.raises(ValueError, match="different grids"):
        KernelSpectra([Channel("average", (0,), av), Channel("average", (0,), other_av)])
    spectra = KernelSpectra([Channel("average", (0,), av)])
    with pytest.raises(ValueError, match="different grids"):
        assemble_nonlocal([ScalarField.zeros(other_grid)], spectra)


def test_channel_kind_is_checked_at_construction():
    grid, mask, stencil = box_setup(2.0, 0.125, 0.5)
    av = DomainAverager(grid, mask, stencil)
    with pytest.raises(ValueError, match="unknown channel kind"):
        Channel("curl", (0,), av)
    with pytest.raises(ValueError, match="at least one source"):
        Channel("average", (), av)
