"""Deterministic global minimization of the canonical expansion function.

The function is affine in each per-qubit Bloch vector separately, and for the
state families of interest its minima sit at pole or equator configurations.
A uniform (theta, phi) product grid that always contains the poles and, for
even point counts, an equator ring with phi = 0 and phi = pi therefore
evaluates the relevant candidates exactly.  For generic states the best grid
point is then polished by rounds of exact coordinate steps and one Newton step
on the product of spheres: with every qubit but k fixed the function is
a + b . n_k, whose minimum over the unit sphere is a - |b| at n_k = -b/|b|, and
its second derivatives are tensor contractions too.  The Newton step makes the
descent converge in a few rounds for every state, where coordinate steps alone
crawl along flat valleys.  The function is affine in the mixing weight with
the identity too, so the separability threshold follows from one
minimization.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .operators import BlochVector, _pauli_rows
from .representations import FOUR_PI, PauliCoefficients, _mode_contract

# cap on the size of the scanned product grid; above it the per-sphere grid
# is thinned (poles and equator survive thinning because they sit on every
# even grid)
SCAN_BUDGET = 8_000_000
_TIE_CAP = 24
# refinement rounds until one lowers nothing; this only bounds a slow descent
_MAX_SWEEPS = 200
# a Newton step that does not lower the value is halved this many times
_MAX_HALVINGS = 8
# curvatures below this share of the largest are raised to it
_CURVATURE_FLOOR = 1e-12
# Newton steps predicted to gain less than this share of |w| are not tried
_GAIN_FLOOR = 1e-15
# the rows e_x, e_y, e_z that pick the Bloch components out of one axis
_AXES = np.eye(4)[1:]


class SphereGrid(NamedTuple):
    points: np.ndarray  # (P, 2) rows of (theta, phi)


def sphere_grid(count: int) -> SphereGrid:
    """At most `count` deterministic points: both poles plus latitude rings.

    The ring structure uses m theta intervals and p azimuths with m, p even,
    so theta = pi/2 and phi in {0, pi} are always present.
    """
    if count < 6:
        raise ValueError("sphere grids need at least 6 points")
    m = max(2, 2 * round(math.sqrt(count / 8.0)))
    p = (count - 2) // (m - 1)
    p = max(2, p - (p % 2))
    pts = [(0.0, 0.0)]
    for i in range(1, m):
        theta = math.pi * i / m
        for j in range(p):
            pts.append((theta, 2.0 * math.pi * j / p))
    pts.append((math.pi, 0.0))
    return SphereGrid(np.array(pts))


class MinimizeResult(NamedTuple):
    value: float
    argmin: tuple[BlochVector, ...]
    grid_ties: tuple[tuple[tuple[float, float], ...], ...]
    grid_used: int  # points per sphere actually scanned, after budget thinning


def _slope(c: PauliCoefficients, vecs: np.ndarray, k: int) -> np.ndarray:
    """A positive multiple of b, where w = a + b . n_k while every other qubit
    stays at vecs; the weights (1/3, n_j) are those of node_values."""
    mats = list(_pauli_rows(vecs, 1.0 / 3.0)[:, None, :])
    mats[k] = _AXES
    return _mode_contract(c.coeffs, mats).reshape(3)


def _newton_move(coeffs: np.ndarray, vecs: np.ndarray) -> tuple[np.ndarray, float]:
    """Newton displacement of every n_k at once, tangent to the spheres, and
    the decrease its linear part predicts, both for w / (3 / 4 pi)^N.

    Contracting axis j of the tensor with the rows (1/3, n_j), e_x, e_y, e_z
    gives at once the slopes b_k (one index nonzero, the others 0) and, w
    being affine in each n_k, its only second derivatives: the cross blocks
    (two indices nonzero).  On the unit spheres each qubit adds -(n_k . b_k)
    on its tangent plane.  Curvatures enter by absolute value, so the move
    points downhill near saddles too; the normal directions get curvature 1
    and no gradient, so the move has no normal part.
    """
    n = len(vecs)
    mats = np.tile(np.eye(4), (n, 1, 1))
    mats[:, 0] = _pauli_rows(vecs, 1.0 / 3.0)
    flat = _mode_contract(coeffs, mats).reshape(-1)
    # flat index of component a of qubit k, for the 3N rows (k, a)
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
    curvature = np.maximum(np.abs(curvature), _CURVATURE_FLOOR * np.abs(curvature).max())
    grad = tangent @ slopes
    move = -(modes @ ((modes.T @ grad) / curvature))
    return move.reshape(n, 3), float(-grad @ move)


def minimize_wcan(
    c: PauliCoefficients, grid_per_sphere: int = 24, refine_iters: int = 3
) -> MinimizeResult:
    """Minimize the canonical expansion function over product Bloch vectors.

    Scans the full product of per-qubit grids.  With refine_iters > 0 it then
    runs rounds of one exact coordinate step per qubit and one Newton step
    (halved while it does not lower the value), starting at the best grid
    point and keeping a step only if its evaluated value is strictly lower,
    until a whole round lowers nothing; refine_iters == 0 reports the grid
    minimum.  Deterministic for fixed parameters; on value ties the
    lexicographically smallest grid multi-index wins.  The result is always
    an evaluated point, so it upper-bounds the true minimum.

    grid_ties lists the grid configurations (as (theta, phi) per qubit) whose
    scanned value ties the grid minimum within 1e-12, capped at 24 entries.
    """
    if grid_per_sphere < 6:
        raise ValueError("grid_per_sphere must be at least 6")
    n = c.qubits

    count = grid_per_sphere
    grid = sphere_grid(count)
    while len(grid.points) ** n > SCAN_BUDGET and count > 6:
        count -= 2
        grid = sphere_grid(count)
    if len(grid.points) ** n > 4 * SCAN_BUDGET:
        raise ValueError(f"product grid scan is infeasible for {n} qubits")

    angles = grid.points
    nodes = np.stack(
        [
            np.sin(angles[:, 0]) * np.cos(angles[:, 1]),
            np.sin(angles[:, 0]) * np.sin(angles[:, 1]),
            np.cos(angles[:, 0]),
        ],
        axis=1,
    )
    table = c.node_values([nodes] * n)
    flat = table.reshape(-1)
    best_flat = int(np.argmin(flat))
    value = float(flat[best_flat])

    tie_flats = np.flatnonzero(flat <= value + 1e-12)[:_TIE_CAP]
    shape = table.shape
    ties = tuple(
        tuple((float(angles[i, 0]), float(angles[i, 1])) for i in np.unravel_index(t, shape))
        for t in tie_flats
    )

    def evaluate(trial: np.ndarray) -> float:
        return float(c.node_values(trial[:, None, :]).reshape(()))

    scale = (3.0 / FOUR_PI) ** n
    vecs = nodes[list(np.unravel_index(best_flat, shape))]
    for _ in range(_MAX_SWEEPS if refine_iters > 0 else 0):
        lowered = False
        for k in range(n):
            b = _slope(c, vecs, k)
            norm = float(np.linalg.norm(b))
            if norm == 0.0:
                continue
            trial = vecs.copy()
            trial[k] = -b / norm
            trial_value = evaluate(trial)
            if trial_value < value:
                vecs, value, lowered = trial, trial_value, True
        move, gain = _newton_move(c.coeffs, vecs) if n > 1 else (None, 0.0)
        # a step whose predicted gain is below rounding cannot lower w
        for halvings in range(_MAX_HALVINGS if scale * gain > _GAIN_FLOOR * abs(value) else 0):
            trial = vecs + move * 0.5**halvings
            trial /= np.linalg.norm(trial, axis=1, keepdims=True)
            trial_value = evaluate(trial)
            if trial_value < value:
                vecs, value, lowered = trial, trial_value, True
                break
        if not lowered:
            break

    argmin = tuple(BlochVector.from_array(v) for v in vecs)
    return MinimizeResult(value, argmin, ties, len(angles))


def mix_with_identity(pure: PauliCoefficients, epsilon: float) -> PauliCoefficients:
    """Pauli tensor of (1 - eps)/2^N identity + eps * (state behind `pure`)."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    c = epsilon * np.array(pure.coeffs)
    c[(0,) * pure.qubits] = 1.0
    return PauliCoefficients(pure.qubits, c)


def threshold_search(
    pure: PauliCoefficients,
    grid_per_sphere: int = 24,
    refine_iters: int = 3,
) -> float:
    """Largest mixing weight eps keeping the canonical expansion nonnegative.

    With u = (4 pi)^-N, the value of the maximally mixed state's function, and
    c0 the identity coefficient of `pure`, the eps-mixture has the function
    u + eps (w_pure - c0 u).  One minimization of w_pure, with minimum m,
    therefore gives the answer in closed form: 1 when u + m - c0 u >= 0, and
    u / (c0 u - m) otherwise.  The answer is exact whenever the extremal
    configurations lie on the scan grid, which holds for the cat-state
    families; for generic states it is an upper estimate at the given grid
    resolution.
    """
    u = FOUR_PI ** -pure.qubits
    c0 = float(pure.coeffs[(0,) * pure.qubits])
    m = minimize_wcan(pure, grid_per_sphere, refine_iters).value
    if u + m - c0 * u >= 0.0:
        return 1.0
    return u / (c0 * u - m)
