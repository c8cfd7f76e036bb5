"""Deterministic global minimization of the canonical expansion function.

The function is affine in each per-qubit Bloch vector separately, and for the
state families of interest its minima sit at pole or equator configurations.
A uniform (theta, phi) product grid that always contains the poles and, for
even point counts, an equator ring with phi = 0 and phi = pi therefore
evaluates the relevant candidates exactly.  For generic states the best grid
point is then polished by rounds of exact coordinate steps and one Newton step
on the product of spheres: with every qubit but k fixed the function is
a + b . n_k, whose minimum over the unit sphere is a - |b| at n_k = -b/|b|, and
one tensor contraction gives every qubit's b and the second derivatives
at once.  The Newton step makes the
descent converge in a few rounds for every state, where coordinate steps alone
crawl along flat valleys.  The function is affine in the mixing weight with
the identity too, so the separability threshold follows from one
minimization.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .operators import BlochVector, _pauli_rows
from .representations import FOUR_PI, PauliCoefficients, _mode_contract

# cap on the size of the scanned product grid; above it the per-sphere grid
# is thinned (poles and equator survive thinning because they sit on every
# even grid)
SCAN_BUDGET = 8_000_000
# grid values within this of the grid minimum are its ties; at most _TIE_CAP are listed
_TIE_WIDTH = 1e-12
_TIE_CAP = 24
# refinement rounds until one lowers nothing; this only bounds a slow descent
_MAX_SWEEPS = 200
# a Newton step that does not lower the value is halved this many times
_MAX_HALVINGS = 8
# curvatures below this share of the largest are raised to it
_CURVATURE_FLOOR = 1e-12
# Newton steps predicted to gain less than this share of |w| are not tried
_GAIN_FLOOR = 1e-15


def _rings(count: int) -> tuple[int, int]:
    """The m theta intervals and p azimuths of sphere_grid(count); its
    2 + (m - 1) p points are at least count - sqrt(2 count) + 1."""
    m = max(2, 2 * round(math.sqrt(count / 8.0)))
    p = (count - 2) // (m - 1)
    return m, max(2, p - (p % 2))


def sphere_grid(count: int) -> np.ndarray:
    """At most `count` deterministic points as (P, 2) rows of (theta, phi): the
    north pole, rings at m - 1 latitudes of p azimuths each, the south pole;
    m and p are even, so theta = pi/2 and phi in {0, pi} are always present.
    A grid of more than SCAN_BUDGET points is refused before it is built."""
    if count < 6:
        raise ValueError("sphere grids need at least 6 points")
    m, p = _rings(count)
    if (points := 2 + (m - 1) * p) > SCAN_BUDGET:
        raise ValueError(f"a sphere grid of {points} points is above the limit of {SCAN_BUDGET}")
    theta = np.repeat(np.pi * np.arange(1, m) / m, p)
    phi = np.tile(2.0 * np.pi * np.arange(p) / p, m - 1)
    return np.vstack([(0.0, 0.0), np.column_stack([theta, phi]), (np.pi, 0.0)])


def _scan_count(request: int, n: int) -> int:
    """The largest count <= request of its parity and >= 6 whose grid fits
    SCAN_BUDGET over n spheres, else the smallest (6 or 7); a request below 8
    comes back as is, so sphere_grid refuses one below 6.  Sizes are not
    monotone in count (50 gives 50 points, 51 gives 42), so counts are tried
    downward; by _rings' bound none fits from s + 2 sqrt(s) + 8 up, s being the
    least size over budget, and no grid exceeds its count: about sqrt(s) tries."""
    s = int(SCAN_BUDGET ** (1.0 / n)) + 1
    top = int(s + 2.0 * math.sqrt(s)) + 8
    count = min(request, top - (top - request) % 2)
    while count >= 8:
        m, p = _rings(count)
        if (2 + (m - 1) * p) ** n <= SCAN_BUDGET:
            break
        count -= 2
    return count


def _evaluate(c: PauliCoefficients, vecs: np.ndarray) -> float:
    """w at one product point, given as (N, 3) unit vectors: the evaluation
    behind every value the refinement of minimize_wcan reports."""
    return float(c.node_values(vecs[:, None, :]).reshape(()))


class MinimizeResult(NamedTuple):
    value: float
    argmin: tuple[BlochVector, ...]
    grid_ties: tuple[tuple[tuple[float, float], ...], ...]
    grid_used: int  # points per sphere actually scanned, after budget thinning
    tie_gap: float  # from the grid minimum up to the least scanned value that does not tie it


class _Layout(NamedTuple):
    """Where the round's contraction keeps the derivatives of w, for N qubits:
    read-only and cached per N."""

    place: np.ndarray  # flat index of component a of qubit k, rows (k, a)
    same: np.ndarray  # (3N, 3N) mask of the pairs of rows on one qubit
    pairs: np.ndarray  # flat index of each cross entry; 0 on same-qubit pairs
    eye: np.ndarray  # the identity on the 3N rows
    axes: np.ndarray  # (N, 4, 4) identity stack, one contraction matrix per axis


# one entry per qubit count, and a PauliCoefficients has at most 10 qubits
@functools.lru_cache(maxsize=10)
def _layout(n: int) -> _Layout:
    place = (4 ** np.arange(n - 1, -1, -1)[:, None] * np.arange(1, 4)).reshape(-1)
    qubit = np.repeat(np.arange(n), 3)
    same = qubit[:, None] == qubit[None, :]
    pairs = place[:, None] + np.where(same, 0, place[None, :])
    layout = _Layout(place, same, pairs, np.eye(3 * n), np.tile(np.eye(4), (n, 1, 1)))
    for a in layout:
        a.setflags(write=False)
    return layout


def _derivatives(coeffs: np.ndarray, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The slopes b_k of every qubit as 3N rows (k, a), and the (3N, 3N) cross
    blocks, both for w / (3 / 4 pi)^N at vecs, from one contraction.

    Contracting axis j of the tensor with the rows (1/3, n_j), e_x, e_y, e_z
    gives at once the slopes (one index nonzero, the others 0) and, w being
    affine in each n_k, its only second derivatives: the cross blocks (two
    indices nonzero).  The weights (1/3, n_j) are those of node_values.
    """
    layout = _layout(len(vecs))
    mats = layout.axes.copy()
    mats[:, 0] = _pauli_rows(vecs, 1.0 / 3.0)
    flat = _mode_contract(coeffs, mats).reshape(-1)
    return flat[layout.place], np.where(layout.same, 0.0, flat[layout.pairs])


def _newton_move(vecs: np.ndarray, slopes: np.ndarray, cross: np.ndarray) -> tuple[np.ndarray, float]:
    """Newton displacement of every n_k at once, tangent to the spheres, and
    the decrease its linear part predicts, both for w / (3 / 4 pi)^N, from
    the _derivatives at vecs.

    On the unit spheres each qubit adds -(n_k . b_k) on its tangent plane.
    Curvatures enter by absolute value, so the move points downhill near
    saddles too; the normal directions get curvature 1 and no gradient, so
    the move has no normal part.
    """
    n = len(vecs)
    layout = _layout(n)
    normal = np.where(layout.same, np.outer(vecs, vecs), 0.0)
    tangent = layout.eye - normal
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
    minimum.  Every slope and the Newton step's cross blocks come from one
    contraction at the current point, made again only after a kept step.
    Deterministic for fixed parameters; on value ties the lexicographically
    smallest grid multi-index wins.  The result is always an evaluated
    point, so it upper-bounds the true minimum.

    grid_ties lists the grid configurations (as (theta, phi) per qubit) whose
    scanned value ties the grid minimum within 1e-12, capped at 24 entries.
    tie_gap, from the same scan, is how far the least scanned value that does
    not tie lies above the grid minimum, inf when every scanned value ties.
    """
    n = c.qubits
    angles = sphere_grid(_scan_count(grid_per_sphere, n))
    if len(angles) ** n > 4 * SCAN_BUDGET:
        raise ValueError(f"product grid scan is infeasible for {n} qubits")
    theta, phi = angles.T
    nodes = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], 1)
    table = c.node_values([nodes] * n)
    flat = table.reshape(-1)
    best_flat = int(np.argmin(flat))
    value = float(flat[best_flat])

    tie_flats = np.flatnonzero(flat <= value + _TIE_WIDTH)
    shape = table.shape
    # one gather: the (theta, phi) rows of every qubit of every tie
    tie_angles = angles[np.stack(np.unravel_index(tie_flats[:_TIE_CAP], shape), 1)].tolist()
    ties = tuple(tuple(map(tuple, tie)) for tie in tie_angles)
    # the table is this call's own and is not read again, so its ties can go
    # to inf in place: the least value left is the least one that does not tie
    flat[tie_flats] = np.inf
    tie_gap = float(flat.min()) - value

    scale = (3.0 / FOUR_PI) ** n
    vecs = nodes[list(np.unravel_index(best_flat, shape))]
    rounds = _MAX_SWEEPS if refine_iters > 0 else 0
    if rounds:
        slopes, cross = _derivatives(c.coeffs, vecs)
    for _ in range(rounds):
        lowered = False
        for k in range(n):
            b = slopes[3 * k : 3 * k + 3]
            norm = math.sqrt(b @ b)
            if norm == 0.0:
                continue
            trial = vecs.copy()
            trial[k] = -b / norm
            trial_value = _evaluate(c, trial)
            if trial_value < value:
                vecs, value, lowered = trial, trial_value, True
                slopes, cross = _derivatives(c.coeffs, vecs)
        move, gain = _newton_move(vecs, slopes, cross) if n > 1 else (None, 0.0)
        # a step whose predicted gain is below rounding cannot lower w
        for halvings in range(_MAX_HALVINGS if scale * gain > _GAIN_FLOOR * abs(value) else 0):
            trial = vecs + move * 0.5**halvings
            trial /= np.linalg.norm(trial, axis=1, keepdims=True)
            trial_value = _evaluate(c, trial)
            if trial_value < value:
                vecs, value, lowered = trial, trial_value, True
                slopes, cross = _derivatives(c.coeffs, vecs)
                break
        if not lowered:
            break

    argmin = tuple(BlochVector.from_array(v) for v in vecs)
    return MinimizeResult(value, argmin, ties, len(angles), tie_gap)


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
    return _threshold(pure, minimize_wcan(pure, grid_per_sphere, refine_iters).value)


def _threshold(pure: PauliCoefficients, m: float) -> float:
    """threshold_search's closed form from the minimum m of w_pure."""
    u = FOUR_PI ** -pure.qubits
    c0 = float(pure.coeffs[(0,) * pure.qubits])
    if u + m - c0 * u >= 0.0:
        return 1.0
    return u / (c0 * u - m)
