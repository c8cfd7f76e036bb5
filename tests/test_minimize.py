import math
import tracemalloc

import numpy as np
import pytest

from blochframes import (
    DenseOperator,
    PauliCoefficients,
    StateSpec,
    bound_cat,
    build_state,
    minimize_wcan,
    mix_with_identity,
    pauli_coefficients,
    sphere_grid,
    threshold_search,
    wcan_continuous,
)
import blochframes.minimize as minimize
from blochframes.minimize import SCAN_BUDGET, _derivatives, _scan_count, _threshold
from blochframes.operators import _pauli_rows
from blochframes.representations import _mode_contract
from conftest import random_density

FOUR_PI = 4 * math.pi


def test_sphere_grid_contains_poles_and_equator():
    pts = sphere_grid(48)
    assert any(abs(t) < 1e-15 for t, _ in pts)
    assert any(abs(t - math.pi) < 1e-12 for t, _ in pts)
    equator_phis = sorted(p for t, p in pts if abs(t - math.pi / 2) < 1e-12)
    assert len(equator_phis) >= 4
    assert any(abs(p - math.pi) < 1e-12 for p in equator_phis)


def test_sphere_grid_too_small(monkeypatch):
    with pytest.raises(ValueError):
        sphere_grid(5)
    # the point count is checked, not the request, before anything is allocated:
    # 9,000,000 asks for 8,997,284 points, where 8,000,000 fit
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="sphere grid of 8997284 points is above the limit of 8000000"):
            sphere_grid(SCAN_BUDGET + 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the largest one-sphere scan _scan_count picks holds exactly SCAN_BUDGET points
    m, p = minimize._rings(_scan_count(10**9, 1))
    assert 2 + (m - 1) * p == SCAN_BUDGET
    # and a grid of exactly the budget is built, a larger one refused
    monkeypatch.setattr(minimize, "SCAN_BUDGET", len(sphere_grid(1000)))
    assert len(sphere_grid(1000)) == minimize.SCAN_BUDGET
    with pytest.raises(ValueError, match="above the limit"):
        sphere_grid(1010)


def _ring_loop(count):
    # the grid as a double loop over rings and azimuths, one point at a time
    m = max(2, 2 * round(math.sqrt(count / 8.0)))
    p = (count - 2) // (m - 1)
    p = max(2, p - (p % 2))
    pts = [(0.0, 0.0)]
    for i in range(1, m):
        theta = math.pi * i / m
        for j in range(p):
            pts.append((theta, 2.0 * math.pi * j / p))
    pts.append((math.pi, 0.0))
    return pts


@pytest.mark.parametrize("counts", [range(6, 200), (50, 51, 1000, 1001, 2814, 4000)])
def test_sphere_grid_matches_ring_loop(counts):
    for count in counts:
        expected = np.array(_ring_loop(count))
        got = sphere_grid(count)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), count


def _former_choice(sizes, n):
    """The count the former thinning loop of minimize_wcan scanned over n
    spheres, for every request in sizes (count -> grid size, ascending from 6):

        count = request
        while len(sphere_grid(count)) ** n > SCAN_BUDGET and count > 6:
            count -= 2

    A request that fits, or is 6, is kept; one that does not goes on as
    request - 2 did; 7 stepped to sphere_grid(5), which raised (None).
    """
    chosen = {}
    for request, size in sizes.items():
        if size**n <= SCAN_BUDGET or request == 6:
            chosen[request] = request
        else:
            chosen[request] = None if request == 7 else chosen[request - 2]
    return chosen


def test_scan_choice_matches_former_thinning_loop():
    sizes = {count: len(_ring_loop(count)) for count in range(6, 2001)}
    for n in range(1, 11):
        for request, count in _former_choice(sizes, n).items():
            if count is None:
                # the loop raised once 7 was over budget, on odd requests at N >= 9
                assert n >= 9 and request % 2 == 1
                count = 7
            assert _scan_count(request, n) == count, (n, request)
    # every request at N = 9 scans the 6-point grid, within the refusal bound
    assert {sizes[_scan_count(request, 9)] for request in sizes} == {6}
    assert 6**9 <= 4 * SCAN_BUDGET


def test_scan_uses_the_chosen_grid(rng):
    sizes = {count: len(_ring_loop(count)) for count in range(6, 52)}
    for n in (1, 2, 3, 4):
        former = _former_choice(sizes, n)
        c = pauli_coefficients(random_density(rng, n))
        for grid in (6, 7, 8, 12, 13, 24, 25, 40, 51):
            res = minimize_wcan(c, grid_per_sphere=grid, refine_iters=0)
            points = set(_ring_loop(former[grid]))
            assert res.grid_used == len(points)
            assert all(point in points for tie in res.grid_ties for point in tie)


def _former_node_values(self, nodes_per_qubit):
    # node_values as it was: a scaled copy of the contraction, a second table
    mats = [_pauli_rows(nodes, 1.0 / 3.0) for nodes in nodes_per_qubit]
    return (3.0 / FOUR_PI) ** self.qubits * _mode_contract(self.coeffs, mats)


def _former_grid(c, grid):
    angles = sphere_grid(_scan_count(grid, c.qubits))
    theta, phi = angles.T
    nodes = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], 1)
    return angles, [nodes] * c.qubits


def _former_ties(c, grid):
    # the tie report as it was: one angles row per qubit per tie, read in Python
    angles, nodes = _former_grid(c, grid)
    table = _former_node_values(c, nodes)
    flat = table.reshape(-1)
    tie_flats = np.flatnonzero(flat <= flat.min() + 1e-12)[:24]
    return tuple(
        tuple(tuple(angles[i].tolist()) for i in np.unravel_index(t, table.shape))
        for t in tie_flats
    )


def _former_tie_gap(c, grid):
    # the tie gap as a second scan gave it: the values above the ties, then their minimum
    flat = c.node_values(_former_grid(c, grid)[1]).reshape(-1)
    low = flat.min()
    above = flat[flat > low + 1e-12]
    return float(above.min() - low) if above.size else math.inf


@pytest.mark.parametrize("refine", [0, 1])
def test_scan_matches_former_scan_and_tie_report(rng, monkeypatch, refine):
    cases = [
        (pauli_coefficients(random_density(rng, n)), grid)
        for n in (1, 2, 3, 4)
        for grid in (6, 7, 12, 24, 25)
    ]
    # the maximally mixed state ties at every grid point, up to the cap of 24
    cases.append((pauli_coefficients(build_state(StateSpec("maximally_mixed", qubits=2))), 12))
    results = [minimize_wcan(c, grid, refine) for c, grid in cases]
    for (c, grid), res in zip(cases, results):
        assert res.grid_ties == _former_ties(c, grid)
        assert res.tie_gap == _former_tie_gap(c, grid)
    monkeypatch.setattr(PauliCoefficients, "node_values", _former_node_values)
    for (c, grid), res in zip(cases, results):
        former = minimize_wcan(c, grid, refine)
        assert res.value == former.value
        assert res.argmin == former.argmin
        assert res.grid_ties == former.grid_ties
        assert res.grid_used == former.grid_used
        assert res.tie_gap == former.tie_gap
    assert len(results[-1].grid_ties) == 24
    assert results[-1].tie_gap == math.inf


def test_large_scan_keeps_nothing_after_the_call():
    # a one-qubit scan of 200,000 points builds about 8 MB of grid and table;
    # none of it may outlive the call
    c = pauli_coefficients(build_state(StateSpec("maximally_mixed", qubits=1)))
    minimize_wcan(c, 200_000, 0)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        res = minimize_wcan(c, 200_000, 0)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.grid_used > 150_000
    assert peak - before > 4_000_000
    assert after - before < 100_000


def test_ten_qubit_scan_refused_at_every_grid():
    c = PauliCoefficients(10, np.zeros((4,) * 10))
    for grid in range(6, 2001):
        with pytest.raises(ValueError, match="product grid scan is infeasible for 10 qubits"):
            minimize_wcan(c, grid_per_sphere=grid, refine_iters=0)


def test_minimize_rejects_small_grid(rng):
    c = pauli_coefficients(random_density(rng, 1))
    for grid in (4, 5, 0, -3):
        with pytest.raises(ValueError):
            minimize_wcan(c, grid_per_sphere=grid)
    with pytest.raises(ValueError):
        minimize_wcan(PauliCoefficients(10, np.zeros((4,) * 10)), grid_per_sphere=5)


def test_maximally_mixed_is_flat():
    for n in (1, 2, 3):
        rho = build_state(StateSpec("maximally_mixed", qubits=n))
        res = minimize_wcan(pauli_coefficients(rho), grid_per_sphere=12, refine_iters=1)
        assert abs(res.value - (1 / FOUR_PI) ** n) < 1e-12
        assert len(res.grid_ties) > 1


def test_reported_minimum_is_an_evaluation(rng):
    # the result is w evaluated at its argmin, never an extrapolation
    from blochframes import wcan_continuous

    for n in (1, 2):
        rho = random_density(rng, n)
        c = pauli_coefficients(rho)
        res = minimize_wcan(c, grid_per_sphere=16, refine_iters=2)
        assert abs(wcan_continuous(c, res.argmin) - res.value) < 1e-12
        # refinement never reports worse than the best grid tie
        grid_only = minimize_wcan(c, grid_per_sphere=16, refine_iters=0)
        assert res.value <= grid_only.value + 1e-15


def test_global_lower_bound_random_states(rng):
    for n in (1, 2, 3):
        bound = -(2 ** (2 * n - 1)) / FOUR_PI**n
        for _ in range(12):
            rho = random_density(rng, n)
            res = minimize_wcan(pauli_coefficients(rho), grid_per_sphere=10, refine_iters=1)
            assert res.value >= bound - 1e-12


def test_eps_cat_three_qubit_threshold_minimum():
    rho = build_state(StateSpec("eps_cat", qubits=3, epsilon=1 / 27))
    res = minimize_wcan(pauli_coefficients(rho), grid_per_sphere=24, refine_iters=3)
    assert abs(res.value) < 1e-8
    # the minimizing configuration is equatorial
    for v in res.argmin:
        assert abs(v.z) < 1e-6


def test_eps_cat_six_qubit_polar_minimum():
    eps = bound_cat(6) * 1.4
    rho = build_state(StateSpec("eps_cat", qubits=6, epsilon=eps))
    res = minimize_wcan(pauli_coefficients(rho), grid_per_sphere=12, refine_iters=1)
    assert res.value < 0
    for v in res.argmin:
        assert abs(v.z) > 1 - 1e-9
    # exactly one qubit points opposite the other five
    signs = [1 if v.z > 0 else -1 for v in res.argmin]
    assert abs(sum(signs)) == 4


def test_determinism(rng):
    rho = random_density(rng, 2)
    c = pauli_coefficients(rho)
    a = minimize_wcan(c, grid_per_sphere=14, refine_iters=2)
    b = minimize_wcan(c, grid_per_sphere=14, refine_iters=2)
    assert a.value == b.value
    assert a.argmin == b.argmin
    assert a.grid_ties == b.grid_ties


def test_ties_at_werner_threshold():
    # at the N=2 threshold both the anti-aligned poles and anti-phased
    # equator pairs sit at the same (zero) minimum
    rho = build_state(StateSpec("eps_cat", qubits=2, epsilon=1 / 9))
    res = minimize_wcan(pauli_coefficients(rho), grid_per_sphere=24, refine_iters=0)
    assert abs(res.value) < 1e-15
    ties = set(res.grid_ties)
    pole_pair = ((0.0, 0.0), (math.pi, 0.0))
    assert pole_pair in ties
    half = math.pi / 2
    assert any(
        abs(t1 - half) < 1e-12 and abs(t2 - half) < 1e-12 for (t1, _), (t2, _) in ties
    )


def test_mix_with_identity_matches_family(rng):
    pure = pauli_coefficients(build_state(StateSpec("cat", qubits=3)))
    mixed = mix_with_identity(pure, 0.4)
    direct = pauli_coefficients(build_state(StateSpec("eps_cat", qubits=3, epsilon=0.4)))
    assert np.abs(mixed.coeffs - direct.coeffs).max() < 1e-14


def test_mix_with_identity_epsilon_range(rng):
    pure = pauli_coefficients(random_density(rng, 1))
    with pytest.raises(ValueError):
        mix_with_identity(pure, -0.1)
    with pytest.raises(ValueError):
        mix_with_identity(pure, 1.1)


def test_threshold_search_cat_small_grid():
    pure = pauli_coefficients(build_state(StateSpec("cat", qubits=2)))
    thr = threshold_search(pure, grid_per_sphere=12, refine_iters=1)
    assert abs(thr - 1 / 9) < 1e-5


def test_threshold_search_always_nonnegative_state():
    pure = pauli_coefficients(build_state(StateSpec("maximally_mixed", qubits=1)))
    assert threshold_search(pure, grid_per_sphere=8, refine_iters=0) == 1.0


def test_grid_used_reports_thinning():
    c = pauli_coefficients(build_state(StateSpec("maximally_mixed", qubits=2)))
    assert minimize_wcan(c, grid_per_sphere=24, refine_iters=0).grid_used == 20
    c = pauli_coefficients(build_state(StateSpec("maximally_mixed", qubits=7)))
    assert minimize_wcan(c, grid_per_sphere=24, refine_iters=0).grid_used == 8


def test_threshold_search_cat_is_exact():
    for n in range(2, 8):
        pure = pauli_coefficients(build_state(StateSpec("cat", qubits=n)))
        assert abs(threshold_search(pure) - bound_cat(n)) < 1e-15


def _random_pure(rng, n):
    v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    v /= np.linalg.norm(v)
    return pauli_coefficients(DenseOperator(np.outer(v, v.conj()), n, hermitian=True))


def test_threshold_closed_form_matches_bisection(rng):
    tol = 1e-7
    for n in (1, 2, 2, 3):
        pure = _random_pure(rng, n)
        found = threshold_search(pure, grid_per_sphere=12, refine_iters=1)
        assert found < 1.0
        lo, hi = 0.0, 1.0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if minimize_wcan(mix_with_identity(pure, mid), 12, 1).value >= 0.0:
                lo = mid
            else:
                hi = mid
        assert abs(found - 0.5 * (lo + hi)) <= tol


def test_refined_minimum_is_coordinatewise_stationary(rng):
    # with the other qubits fixed, w = a + b . n_k; probing +-e_j recovers a
    # and b, and no exact step a - |b| may undercut the reported minimum
    for n in (1, 2, 3, 3):
        c = pauli_coefficients(random_density(rng, n))
        res = minimize_wcan(c, grid_per_sphere=12, refine_iters=1)
        for k in range(n):
            def w(direction):
                vectors = list(res.argmin)
                vectors[k] = direction
                return wcan_continuous(c, vectors)

            axes = np.eye(3)
            b = np.array([(w(e) - w(-e)) / 2 for e in axes])
            a = (w(axes[2]) + w(-axes[2])) / 2
            assert a - np.linalg.norm(b) >= res.value - 1e-12


def test_refinement_takes_few_rounds(rng, monkeypatch):
    # coordinate steps alone crawl along flat valleys, up to hundreds of
    # sweeps; with the Newton step every seeded state converges in a few
    # rounds, so the cost of a solve hardly depends on the state
    rounds = []
    newton_move = minimize._newton_move

    def counted(*args):
        rounds[-1] += 1
        return newton_move(*args)

    monkeypatch.setattr(minimize, "_newton_move", counted)
    for n in (2, 3, 4) * 8:
        c = pauli_coefficients(random_density(rng, n))
        rounds.append(0)
        grid_only = minimize_wcan(c, grid_per_sphere=12, refine_iters=0).value
        assert minimize_wcan(c, grid_per_sphere=12, refine_iters=1).value <= grid_only
    assert max(rounds) <= 12


def _random_vectors(rng, n):
    vecs = rng.normal(size=(n, 3))
    return vecs / np.linalg.norm(vecs, axis=1, keepdims=True)


def test_slope_matches_node_value_differences(rng):
    # w is affine in n_k, so with the other qubits fixed its slope along e_a is
    # w(n_k = e_a) - w(n_k = 0); _derivatives returns it over the (3 / 4 pi)^N scale
    for n in (1, 2, 3, 4):
        c = pauli_coefficients(random_density(rng, n))
        vecs = _random_vectors(rng, n)
        slopes, _ = _derivatives(c.coeffs, vecs)
        for k in range(n):
            nodes = [v[None, :] for v in vecs]
            nodes[k] = np.vstack([np.zeros(3), np.eye(3)])
            values = c.node_values(nodes).reshape(4)
            scale = (3.0 / FOUR_PI) ** n
            assert np.abs(slopes[3 * k : 3 * k + 3] - (values[1:] - values[0]) / scale).max() < 1e-12


def test_cross_blocks_match_second_differences(rng):
    # w is affine in each n_k, so its second derivative along (n_k)_a and
    # (n_l)_b is the mixed difference of w over n_k in {0, e_a} and n_l in
    # {0, e_b}, and it is 0 on one qubit
    probes = np.vstack([np.zeros(3), np.eye(3)])
    for n in (1, 2, 3, 4):
        c = pauli_coefficients(random_density(rng, n))
        vecs = _random_vectors(rng, n)
        _, cross = _derivatives(c.coeffs, vecs)
        assert cross.shape == (3 * n, 3 * n)
        scale = (3.0 / FOUR_PI) ** n
        for k in range(n):
            assert not cross[3 * k : 3 * k + 3, 3 * k : 3 * k + 3].any()
            for l in range(k + 1, n):
                nodes = [v[None, :] for v in vecs]
                nodes[k] = nodes[l] = probes
                values = c.node_values(nodes).reshape(4, 4)
                second = values[1:, 1:] - values[1:, :1] - values[:1, 1:] + values[0, 0]
                block = cross[3 * k : 3 * k + 3, 3 * l : 3 * l + 3]
                assert np.abs(block - second / scale).max() < 1e-12
                assert np.array_equal(cross[3 * l : 3 * l + 3, 3 * k : 3 * k + 3], block.T)


def test_derivative_layouts_are_cached_read_only():
    layout = minimize._layout(3)
    assert minimize._layout(3) is layout
    assert all(not a.flags.writeable for a in layout)
    assert minimize._layout.cache_info().maxsize == 10


def _former_minimum(c, grid, refine_iters):
    """minimize_wcan's value as its refinement was before one contraction
    served a whole round: a contraction per qubit for the slopes, and the
    Newton step's own, with its index arrays built on every call."""
    n = c.qubits
    scan = minimize_wcan(c, grid, 0)

    def slope(vecs, k):
        mats = list(_pauli_rows(vecs, 1.0 / 3.0)[:, None, :])
        mats[k] = np.eye(4)[1:]
        return _mode_contract(c.coeffs, mats).reshape(3)

    def newton_move(vecs):
        mats = np.tile(np.eye(4), (n, 1, 1))
        mats[:, 0] = _pauli_rows(vecs, 1.0 / 3.0)
        flat = _mode_contract(c.coeffs, mats).reshape(-1)
        place = (4 ** np.arange(n - 1, -1, -1)[:, None] * np.arange(1, 4)).reshape(-1)
        qubit = np.repeat(np.arange(n), 3)
        same = qubit[:, None] == qubit[None, :]
        slopes = flat[place]
        cross = np.where(same, 0.0, flat[place[:, None] + np.where(same, 0, place[None, :])])
        normal = np.where(same, np.outer(vecs, vecs), 0.0)
        tangent = np.eye(3 * n) - normal
        sphere = np.repeat(-np.einsum("ki,ki->k", vecs, slopes.reshape(n, 3)), 3)
        hess = tangent @ cross @ tangent + sphere[:, None] * tangent + normal
        curvature, modes = np.linalg.eigh(hess)
        curvature = np.maximum(np.abs(curvature), minimize._CURVATURE_FLOOR * np.abs(curvature).max())
        grad = tangent @ slopes
        move = -(modes @ ((modes.T @ grad) / curvature))
        return move.reshape(n, 3), float(-grad @ move)

    def evaluate(trial):
        return float(c.node_values(trial[:, None, :]).reshape(()))

    scale = (3.0 / FOUR_PI) ** n
    vecs, value = np.array(scan.argmin), scan.value
    for _ in range(minimize._MAX_SWEEPS if refine_iters > 0 else 0):
        lowered = False
        for k in range(n):
            b = slope(vecs, k)
            norm = float(np.linalg.norm(b))
            if norm == 0.0:
                continue
            trial = vecs.copy()
            trial[k] = -b / norm
            trial_value = evaluate(trial)
            if trial_value < value:
                vecs, value, lowered = trial, trial_value, True
        move, gain = newton_move(vecs) if n > 1 else (None, 0.0)
        for halvings in range(minimize._MAX_HALVINGS if scale * gain > minimize._GAIN_FLOOR * abs(value) else 0):
            trial = vecs + move * 0.5**halvings
            trial /= np.linalg.norm(trial, axis=1, keepdims=True)
            trial_value = evaluate(trial)
            if trial_value < value:
                vecs, value, lowered = trial, trial_value, True
                break
        if not lowered:
            break
    return value


def test_refinement_matches_the_former_loop(rng):
    # one contraction per round changes only the order in which the slopes are summed
    for n in (1, 2, 3, 4):
        for grid, refine in ((6, 1), (12, 1), (24, 3), (25, 3)):
            c = pauli_coefficients(random_density(rng, n))
            res = minimize_wcan(c, grid, refine)
            former = _former_minimum(c, grid, refine)
            assert abs(res.value - former) <= 1e-15 * abs(former), (n, grid)
            assert res.grid_ties == _former_ties(c, grid)
        for grid in (6, 7, 12, 24, 25):
            pure = pauli_coefficients(build_state(StateSpec("cat", qubits=n)))
            assert threshold_search(pure, grid, 3) == _threshold(pure, _former_minimum(pure, grid, 3))
            for epsilon in (0.05, 0.3):
                c = pauli_coefficients(build_state(StateSpec("eps_cat", qubits=n, epsilon=epsilon)))
                res = minimize_wcan(c, grid, 3)
                assert abs(res.value - _former_minimum(c, grid, 3)) <= 1e-15 * abs(res.value)
                assert res.grid_ties == _former_ties(c, grid)
