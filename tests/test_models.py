import numpy as np
import pytest

from crowdflow.averaging import (
    Channel,
    DomainAverager,
    KernelSpectra,
    assemble_nonlocal,
)
from crowdflow.config import RunConfig, preset
from crowdflow.errors import ConfigError
from crowdflow.fields import ScalarField, VectorField
from crowdflow.geometry import Domain, Grid, build_grid
from crowdflow.kernels import build_stencil, make_quartic_kernel
from crowdflow.models import (
    ModelSpec,
    PopulationModel,
    SpeedLaw,
    build_desired_field,
    eval_velocities,
    grid_distance,
    wall_discomfort,
)
from crowdflow.simulator import StepBuffers, init_scenario, step
from direct_sum import (
    compute_z,
    compute_z_gradient,
    convolve_bounded,
    gradient_convolve_bounded,
)


def square_with_right_exit(h=0.125, size=4.0):
    dom = Domain.rectangle(
        (0.0, size, 0.0, size), exits=[((size, 0.0), (size, size))]
    )
    grid, mask = build_grid(dom, h)
    return dom, grid, mask


def single_population_setup(h=0.125, beta=0.6, amplitude=2.0, capacity=4.0):
    _, grid, mask = square_with_right_exit(h=h)
    stencil = build_stencil(make_quartic_kernel(0.5), grid)
    averager = DomainAverager(grid, mask, stencil)
    [w] = build_desired_field(grid, mask, wall_discomfort(grid, mask, 0.3, None), [None])
    pop = PopulationModel(
        speed_law=SpeedLaw(amplitude, capacity),
        w=w,
        betas=(beta,),
        average=Channel("average", (0,), averager),
        gradients=(Channel("gradient", (0,), averager),),
    )
    return ModelSpec(populations=[pop]), grid, mask, averager


# ---------------------------------------------------------------- speed law


def test_speed_law_values():
    law = SpeedLaw(2.0, 4.0)
    assert law(0.0) == 2.0
    assert law(4.0) == 0.0
    assert law(5.0) == 0.0
    assert law(-1.0) == 2.0  # clamped on the left
    assert SpeedLaw(1.5, 4.5)(0.0) == 1.5
    assert np.array_equal(law(np.array([0.0, 4.0])), np.array([2.0, 0.0]))


def test_speed_law_monotone():
    law = SpeedLaw(2.0, 4.0)
    r = np.linspace(0.0, 6.0, 241)
    v = law(r)
    assert np.all(np.diff(v) <= 0.0)
    assert np.all(v >= 0.0)
    assert np.all(v <= 2.0)


def test_speed_law_validation():
    with pytest.raises(ValueError):
        SpeedLaw(-1.0, 4.0)
    with pytest.raises(ValueError):
        SpeedLaw(2.0, 0.0)


# ---------------------------------------------------------------- distances


def test_grid_distance_optimality():
    rng = np.random.default_rng(17)
    grid = Grid(nx=20, ny=20, h=0.25, origin=(0.0, 0.0))
    passable = rng.uniform(size=(20, 20)) > 0.25
    passable[0, 0] = True
    [dist] = grid_distance(grid, passable, [[(0, 0, 0.0)]])
    assert dist[0, 0] == 0.0
    moves = [
        (di, dj, np.hypot(di * 0.25, dj * 0.25))
        for di in (-1, 0, 1)
        for dj in (-1, 0, 1)
        if (di, dj) != (0, 0)
    ]
    for i in range(20):
        for j in range(20):
            if not passable[i, j] or not np.isfinite(dist[i, j]):
                continue
            if (i, j) == (0, 0):
                continue
            candidates = [
                dist[i + di, j + dj] + cost
                for di, dj, cost in moves
                if 0 <= i + di < 20 and 0 <= j + dj < 20 and passable[i + di, j + dj]
            ]
            finite = [c for c in candidates if np.isfinite(c)]
            assert finite, f"reachable cell ({i},{j}) with no finite neighbor"
            assert dist[i, j] == min(finite)
    assert np.all(np.isinf(dist[~passable]))


def direction(grid, mask):
    """w without a wall push: the unit direction toward every exit."""
    return build_desired_field(grid, mask, VectorField.zeros(grid), [None])


def test_empty_square_points_at_exit():
    _, grid, mask = square_with_right_exit(h=0.125)
    [unit] = direction(grid, mask)
    xm, ym = grid.center_mesh()
    deep = (xm > 0.5) & (xm < 3.0) & (ym > 1.0) & (ym < 3.0)
    assert np.max(np.abs(unit.x[deep] - 1.0)) <= 0.05
    assert np.max(np.abs(unit.y[deep])) <= 0.05
    mag = unit.magnitude()
    nonzero = mag > 0.0
    assert np.max(np.abs(mag[nonzero] - 1.0)) <= 1e-12
    # the distance the direction descends decreases toward the exit
    i, j = mask.face_sets[0].exit_cell
    seeds = [(a, b, 0.5 * grid.h) for a, b in zip(i.tolist(), j.tolist())]
    [dist] = grid_distance(grid, mask.interior, [seeds])
    assert dist[0, 16] > dist[-1, 16]


def test_direction_steers_around_obstacle():
    h = 0.0625
    dom = Domain.rectangle(
        (0.0, 4.0, 0.0, 4.0),
        exits=[((4.0, 0.0), (4.0, 4.0))],
        obstacles=[(2.0, 2.25, 1.0, 3.0)],
    )
    grid, mask = build_grid(dom, h)
    [unit] = direction(grid, mask)
    i = int(1.5 / h)
    j = int(1.8 / h)
    cx = grid.x_centers()[i]
    cy = grid.y_centers()[j]
    # behind the column the short way around is via its lower corner
    ref = np.array([2.0 - cx, 1.0 - cy])
    ref /= np.hypot(*ref)
    d = np.array([unit.x[i, j], unit.y[i, j]])
    cos_angle = float(d @ ref)
    assert cos_angle >= np.cos(np.radians(15.0))
    assert d[1] < -0.1  # genuinely turning downward


def test_discomfort_at_walls():
    _, grid, mask = square_with_right_exit(h=0.0625)
    discomfort = wall_discomfort(grid, mask, 0.3, None)
    mag = discomfort.magnitude()
    i_mid = int(2.0 / 0.0625)
    assert abs(mag[i_mid, 0] - 0.3) <= 1e-12
    assert discomfort.y[i_mid, 0] > 0.0  # pushes away from the bottom wall
    assert discomfort.x[0, i_mid] > 0.0  # and away from the left wall
    # far from every wall the push is gone (range is 10 cells by default)
    assert mag[i_mid, i_mid] == 0.0
    # w combines direction and discomfort
    [w] = build_desired_field(grid, mask, discomfort, [None])
    [unit] = direction(grid, mask)
    assert np.allclose(w.x - unit.x, discomfort.x, atol=1e-14)
    assert np.allclose(w.y - unit.y, discomfort.y, atol=1e-14)


def test_unreachable_cells_rejected():
    blocked = Domain(
        bounding_box=(0.0, 4.0, 0.0, 4.0),
        inside=lambda x, y: (x > 0.0)
        & (x < 4.0)
        & (y > 0.0)
        & (y < 4.0)
        & ~((x >= 2.0) & (x <= 2.25)),
        exits=(((4.0, 0.0), (4.0, 4.0)),),
    )
    grid, mask = build_grid(blocked, 0.0625)
    discomfort = wall_discomfort(grid, mask, 0.3, None)
    with pytest.raises(ValueError):
        build_desired_field(grid, mask, discomfort, [None])


def w_bytes(w):
    return w.x.tobytes() + w.y.tobytes()


def test_negative_target_exit_counts_from_the_end():
    cfg = preset("corridor-eq20")
    by_last = init_scenario(RunConfig(scenario=cfg, h=0.0625))
    cfg["populations"][0]["target_exits"] = [-1]
    by_negative = init_scenario(RunConfig(scenario=cfg, h=0.0625))
    assert w_bytes(by_negative.model.populations[0].w) == w_bytes(
        by_last.model.populations[0].w
    )
    for bad in ([2], [-3]):
        cfg["populations"][0]["target_exits"] = bad
        with pytest.raises(ConfigError, match="target_exits"):
            init_scenario(RunConfig(scenario=cfg, h=0.0625))


def test_no_exit_list_targets_every_exit():
    dom = Domain.rectangle(
        (0.0, 4.0, 0.0, 4.0),
        exits=[((0.0, 0.0), (0.0, 4.0)), ((4.0, 1.0), (4.0, 2.0))],
    )
    grid, mask = build_grid(dom, 0.125)
    discomfort = wall_discomfort(grid, mask, 0.3, None)
    every, listed, one = build_desired_field(grid, mask, discomfort, [None, [0, 1], [1]])
    assert w_bytes(every) == w_bytes(listed)
    assert w_bytes(one) != w_bytes(every)


# ---------------------------------------------------------------- velocities


def test_velocity_zero_density_follows_w():
    spec, grid, mask, averager = single_population_setup()
    rho = ScalarField.zeros(grid)
    out = assemble_nonlocal([rho], KernelSpectra(spec.channels))
    (vel,) = eval_velocities(spec, out)
    w = spec.populations[0].w
    assert np.array_equal(vel.x, 2.0 * w.x)
    assert np.array_equal(vel.y, 2.0 * w.y)


def test_velocity_at_capacity_stalls():
    # the direct sums, divided by the direct z, average a density at capacity
    # to exactly the capacity; the FFT engine leaves a speed of about 1e-44
    spec, grid, mask, averager = single_population_setup()
    vals = np.where(mask.interior, 4.0, 0.0)
    rho = ScalarField(grid, vals)
    average, (gradient,) = spec.populations[0].average, spec.populations[0].gradients
    stencil = averager.stencil
    z = compute_z(grid, mask, stencil)
    z_grad = compute_z_gradient(grid, mask, stencil)
    out = {
        average: convolve_bounded(rho, stencil, z, mask),
        gradient: gradient_convolve_bounded(rho, stencil, z, z_grad, mask),
    }
    (vel,) = eval_velocities(spec, out)
    assert np.all(vel.x == 0.0)
    assert np.all(vel.y == 0.0)


def test_velocity_respects_declared_bound():
    spec, grid, mask, _ = single_population_setup()
    w = spec.populations[0].w
    expected_bound = 2.0 * (float(np.max(w.magnitude())) + 0.6)
    assert np.isclose(spec.velocity_bound, expected_bound, rtol=1e-12)
    rng = np.random.default_rng(23)
    for _ in range(5):
        rho = ScalarField(
            grid, np.where(mask.interior, rng.uniform(0, 5, grid.shape), 0.0)
        )
        out = assemble_nonlocal([rho], KernelSpectra(spec.channels))
        (vel,) = eval_velocities(spec, out)
        assert np.max(vel.magnitude()) <= spec.velocity_bound + 1e-12


def two_population_setup(h=0.125, amp1=1.0, amp2=1.5, betas1=(0.2, 0.5), betas2=(0.5, 0.2)):
    dom = Domain.rectangle(
        (0.0, 4.0, 0.0, 4.0),
        exits=[((0.0, 0.0), (0.0, 4.0)), ((4.0, 0.0), (4.0, 4.0))],
    )
    grid, mask = build_grid(dom, h)
    stencil = build_stencil(make_quartic_kernel(0.5), grid)
    averager = DomainAverager(grid, mask, stencil)
    discomfort = wall_discomfort(grid, mask, 0.3, None)
    right, left = build_desired_field(grid, mask, discomfort, [[1], [0]])
    average = Channel("average", (0, 1), averager)
    gradients = (Channel("gradient", (0,), averager), Channel("gradient", (1,), averager))
    pops = [
        PopulationModel(SpeedLaw(amp1, 4.5), right, tuple(betas1), average, gradients),
        PopulationModel(SpeedLaw(amp2, 4.5), left, tuple(betas2), average, gradients),
    ]
    return ModelSpec(populations=pops), grid, mask


def test_two_population_zero_density():
    spec, grid, mask = two_population_setup()
    zero = ScalarField.zeros(grid)
    out = assemble_nonlocal([zero, zero], KernelSpectra(spec.channels))
    v1, v2 = eval_velocities(spec, out)
    w1 = spec.populations[0].w
    w2 = spec.populations[1].w
    assert np.allclose(v1.x, 1.0 * w1.x, atol=1e-15)
    assert np.allclose(v2.x, 1.5 * w2.x, atol=1e-15)
    assert np.allclose(v2.y, 1.5 * w2.y, atol=1e-15)


def test_two_population_jam_at_total_capacity():
    spec, grid, mask = two_population_setup()
    r1 = ScalarField(grid, np.where(mask.interior, 2.25, 0.0))
    r2 = ScalarField(grid, np.where(mask.interior, 2.25, 0.0))
    out = assemble_nonlocal([r1, r2], KernelSpectra(spec.channels))
    v1, v2 = eval_velocities(spec, out)
    assert np.max(v1.magnitude()) <= 1e-12
    assert np.max(v2.magnitude()) <= 1e-12


def test_two_population_swap_symmetry():
    # relabeling the populations relabels the avoidance weights as well
    spec, grid, mask = two_population_setup(betas1=(0.1, 0.7), betas2=(0.4, 0.25))
    old1, old2 = spec.populations
    swapped = ModelSpec(
        populations=[
            PopulationModel(
                old2.speed_law, old2.w, tuple(reversed(old2.betas)),
                old2.average, old2.gradients,
            ),
            PopulationModel(
                old1.speed_law, old1.w, tuple(reversed(old1.betas)),
                old1.average, old1.gradients,
            ),
        ],
    )
    rng = np.random.default_rng(31)
    r1 = ScalarField(grid, np.where(mask.interior, rng.uniform(0, 2, grid.shape), 0.0))
    r2 = ScalarField(grid, np.where(mask.interior, rng.uniform(0, 2, grid.shape), 0.0))
    out = assemble_nonlocal([r1, r2], KernelSpectra(spec.channels))
    v1, v2 = eval_velocities(spec, out)
    out_sw = assemble_nonlocal([r2, r1], KernelSpectra(swapped.channels))
    w1, w2 = eval_velocities(swapped, out_sw)
    assert np.allclose(v1.x, w2.x, atol=1e-13)
    assert np.allclose(v1.y, w2.y, atol=1e-13)
    assert np.allclose(v2.x, w1.x, atol=1e-13)
    assert np.allclose(v2.y, w1.y, atol=1e-13)


def test_velocity_law_damps_the_gradient_channels_in_place():
    scenario = init_scenario(RunConfig(scenario="corridor-eq20", h=0.0625))
    spectra = StepBuffers.for_scenario(scenario).spectra
    averaged = assemble_nonlocal(scenario.initial_state().densities, spectra)
    averages = {c: f.values.tobytes() for c, f in averaged.items() if c.kind == "average"}
    gradients = {c: (f.x.copy(), f.y.copy()) for c, f in averaged.items() if c.kind == "gradient"}
    assert averages and gradients
    eval_velocities(scenario.model, averaged)
    # several populations read one average through their own speed laws
    for channel, data in averages.items():
        assert averaged[channel].values.tobytes() == data
    for channel, (gx, gy) in gradients.items():
        norm = np.sqrt(1.0 + gx**2 + gy**2)
        assert averaged[channel].x.tobytes() == (gx / norm).tobytes()
        assert averaged[channel].y.tobytes() == (gy / norm).tobytes()


def test_damped_gradients_keep_positive_zeros_off_the_interior():
    scenario = init_scenario(RunConfig(scenario="corridor-eq20", h=0.0625))
    buffers = StepBuffers.for_scenario(scenario)
    state = scenario.initial_state()
    for _ in range(3):
        state, _ = step(scenario, state, buffers)
    outside = ~scenario.mask.interior
    spectra = buffers.spectra
    checked = 0
    for channel, field in zip(spectra.channels, spectra.averaged):
        if channel.kind == "gradient":
            for component in (field.x[outside], field.y[outside]):
                assert np.all(component == 0.0)
                assert not np.signbit(component).any()
            checked += 1
    assert checked == 2


def test_velocity_wrong_population_count():
    # one avoidance weight per gradient channel; zip would drop the extras
    spec, _, _, averager = single_population_setup()
    pop = spec.populations[0]
    with pytest.raises(ValueError):
        PopulationModel(pop.speed_law, pop.w, (0.6, 0.2), pop.average, pop.gradients)
    with pytest.raises(ValueError):
        PopulationModel(
            pop.speed_law,
            pop.w,
            (0.6,),
            pop.average,
            pop.gradients + (Channel("gradient", (1,), averager),),
        )


# ---------------------------------------------------------------- distances


def preset_searches(monkeypatch, name, h):
    """The (grid, passable, seed_sets, limit) of the two distance searches
    that building the preset runs: the wall search first (one seed set,
    finite limit), then one search for every population's exits (one seed
    set per population, limit +inf)."""
    from crowdflow import models

    calls = []

    def recording(grid, passable, seed_sets, limit=np.inf):
        calls.append((grid, passable, seed_sets, limit))
        return grid_distance(grid, passable, seed_sets, limit)

    monkeypatch.setattr(models, "grid_distance", recording)
    scenario = init_scenario(RunConfig(scenario=name, h=h))
    wall, exits = calls
    assert len(wall[2]) == 1 and np.isfinite(wall[3])
    assert len(exits[2]) == len(scenario.model.populations) and np.isinf(exits[3])
    return wall, exits


def preset_wall_search(monkeypatch, name, h):
    """The (grid, passable, seeds, limit) of a preset's wall-distance search."""
    grid, passable, (seeds,), limit = preset_searches(monkeypatch, name, h)[0]
    return grid, passable, seeds, limit


@pytest.mark.parametrize("name,h", [("room-eq25", 0.0625), ("corridor-eq20", 0.0625)])
def test_truncated_distance_is_exact_within_the_limit(monkeypatch, name, h):
    grid, passable, seeds, wall_limit = preset_wall_search(monkeypatch, name, h)
    [full] = grid_distance(grid, passable, [seeds])
    reached = np.isfinite(full)
    for limit in (0.0, 3.0 * h, wall_limit, float(np.median(full[reached]))):
        [cut] = grid_distance(grid, passable, [seeds], limit)
        within = full <= limit
        assert within.any() and not within[reached].all()
        assert cut[within].tobytes() == full[within].tobytes()
        # beyond the limit: an upper bound or +inf, never below the truth
        assert np.all(cut[~within] >= full[~within])


def scipy_distance(grid, passable, seeds):
    """Reference distance by scipy's Dijkstra on the same 8-neighbor graph.

    The seed offsets enter as edges of cost d0 from one virtual source node
    (the last), so each path's length is summed from the source outward, as
    in ``grid_distance``; two seeds on one cell keep the smaller offset.
    """
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    sparse = pytest.importorskip("scipy.sparse")
    nx, ny = grid.shape
    source = nx * ny
    index = np.arange(nx * ny).reshape(nx, ny)
    rows, cols, costs = [], [], []
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == dj == 0:
                continue
            src = (slice(max(0, -di), nx - max(0, di)), slice(max(0, -dj), ny - max(0, dj)))
            dst = (slice(max(0, di), nx + min(0, di)), slice(max(0, dj), ny + min(0, dj)))
            ok = passable[src] & passable[dst]
            rows.append(index[src][ok])
            cols.append(index[dst][ok])
            costs.append(np.full(int(ok.sum()), np.hypot(di * grid.h, dj * grid.h)))
    offsets = {}
    for i, j, d0 in seeds:
        offsets[index[i, j]] = min(d0, offsets.get(index[i, j], np.inf))
    rows.append(np.full(len(offsets), source))
    cols.append(np.array(list(offsets), dtype=int))
    costs.append(np.array(list(offsets.values()), dtype=float))
    # explicit zero costs stay edges in a sparse csgraph input
    graph = sparse.csr_matrix(
        (np.concatenate(costs), (np.concatenate(rows), np.concatenate(cols))),
        shape=(source + 1, source + 1),
    )
    return csgraph.dijkstra(graph, indices=source)[:source].reshape(nx, ny)


def assert_stacked_search_exact(grid, passable, seed_sets):
    """A search of several seed sets gives each set the bytes of scipy's
    Dijkstra and of a search of that set alone."""
    stacked = grid_distance(grid, passable, seed_sets)
    assert len(stacked) == len(seed_sets)
    for seeds, dist in zip(seed_sets, stacked):
        reference = scipy_distance(grid, passable, seeds).tobytes()
        assert dist.tobytes() == reference
        assert grid_distance(grid, passable, [seeds])[0].tobytes() == reference
    return stacked


@pytest.mark.parametrize("name,h", [("room-eq25", 0.0625), ("corridor-eq20", 0.0625)])
def test_grid_distance_matches_scipy_dijkstra(monkeypatch, name, h):
    wall, (grid, passable, exit_sets, _) = preset_searches(monkeypatch, name, h)
    (wall_seeds,) = wall[2]
    assert all(d0 == 0.0 for _, _, d0 in wall_seeds)
    for seeds in exit_sets:
        # exit seeds sit half a cell from their exit face
        assert {d0 for _, _, d0 in seeds} == {0.5 * grid.h}
    assert_stacked_search_exact(grid, passable, exit_sets)
    # sets whose offsets differ share the rounds too
    assert_stacked_search_exact(grid, passable, [wall_seeds, *exit_sets])


def test_grid_distance_seed_rules():
    grid = Grid(nx=6, ny=5, h=0.25, origin=(0.0, 0.0))
    passable = np.ones(grid.shape, dtype=bool)
    passable[3, :] = False
    passable[3, 4] = True
    # no seeds: nothing is reached; no seed sets: no distances
    assert np.all(np.isinf(grid_distance(grid, passable, [[]])[0]))
    assert grid_distance(grid, passable, []) == []
    # a seed cell off the grid is an error, not a wrapped or padding cell
    for seed in [(1, -3, 0.0), (9, 0, 0.0), (6, 0, 0.0), (0, 5, 0.0), (-1, 0, 0.0)]:
        with pytest.raises(ValueError, match="off the 6 x 5 grid"):
            grid_distance(grid, passable, [[(0, 0, 0.0), seed]])
    # so is a cell index that is not a whole number: it is not truncated
    for seed in [(1.7, 0.2, 0.0), (1, 0.5, 0.0), (np.nan, 0, 0.0), (0, np.inf, 0.0)]:
        with pytest.raises(ValueError, match="whole numbers"):
            grid_distance(grid, passable, [[(0, 0, 0.0), seed]])
    # and a seed row that is not (i, j, d0), in any set: rows are not
    # re-chunked into three-entry seeds
    for seeds in (
        [(0, 0), (1, 1), (2, 2)],
        [(0, 0, 0.0, 1.0)],
        [(0, 0, 0.0), (1, 1)],
        [0, 0, 0.0],
    ):
        with pytest.raises(ValueError, match=r"\(i, j, d0\)"):
            grid_distance(grid, passable, [[(0, 0, 0.0)], seeds])
    # a seed on an impassable cell is ignored
    [alone, ignored] = grid_distance(grid, passable, [[(0, 0, 0.0)], [(0, 0, 0.0), (3, 0, 0.0)]])
    assert alone.tobytes() == ignored.tobytes()
    assert np.isinf(alone[3, 0])
    # two seeds on one cell: the smaller offset wins, in either order
    both, reversed_, single = grid_distance(
        grid,
        passable,
        [[(5, 0, 0.75), (5, 0, 0.125)], [(5, 0, 0.125), (5, 0, 0.75)], [(5, 0, 0.125)]],
    )
    assert both[5, 0] == 0.125
    assert both.tobytes() == reversed_.tobytes() == single.tobytes()
    # the gap in the wall at (3, 4) is the only way between the halves
    assert alone[5, 0] == pytest.approx(alone[3, 4] + 2 * 0.25 + 2 * np.hypot(0.25, 0.25))


@pytest.mark.parametrize("name", ["room-eq25", "corridor-eq20"])
def test_discomfort_has_no_negative_zeros(name):
    scenario = init_scenario(RunConfig(scenario=name, h=0.0625))
    push = preset(name)["desired"]
    discomfort = wall_discomfort(
        scenario.grid, scenario.mask, push["discomfort_amp"], push["discomfort_range"]
    )
    for component in (discomfort.x, discomfort.y):
        zero = component == 0.0
        assert zero.any()
        assert not np.signbit(component[zero]).any()
