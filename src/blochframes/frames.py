"""Projector frames on the Bloch sphere and their dual operators.

A frame is a finite family of single-qubit pure-state projectors
P_a = (1 + sigma.n_a)/2 that spans the 4-dimensional operator space.
The Gram superoperator G = sum_a |P_a)(P_a| is inverted to obtain duals
Q_a = G^{-1}|P_a).  In Pauli coordinates, with A the real (K, 4) matrix of
rows (1, n_a) = tr(P_a sigma_b), G is (1/2) A^T A and Q_a = sum_b M[a, b] sigma_b
with M = A (A^T A)^{-1}.  The duals satisfy the resolutions of identity

    sum_a |P_a)(Q_a| = sum_a |Q_a)(P_a| = identity superoperator,

so any single-qubit operator X expands as X = sum_a P_a tr(Q_a X).
Vector sets whose centroid vanishes and whose second moments average to
delta_jk/3 ("balanced" sets below) have duals in the closed form
Q_a = (1/K)(1 + 3 sigma.n_a).  A frame's vertices at equal weights 4pi/K are
also a quadrature on the sphere: Frame.is_exact_to_degree says up to which
polynomial degree they integrate exactly (a spherical design of that degree).
The named kinds fix their vectors, one _VERTICES entry each (cardinal6 is the
octahedron's), and take none; frame_from_json reads each vector as three JSON
numbers and refuses any key but kind and vectors.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .operators import BlochVector, DenseOperator, _pauli_matrices, _pauli_rows, _require_unit
from .operators import _json_keys, _json_vector

GRAM_RANK_CUTOFF = 1e-10
BALANCE_TOL = 1e-10  # centroid and moment residual up to which frame_check passes
# worst monomial-moment error up to which a frame's vertices count as exact to a degree
QUADRATURE_TOL = 1e-8
FOUR_PI = 4.0 * math.pi
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def _cyclic_shifts(a: float, b: float) -> list[tuple[float, float, float]]:
    """(0, +-a, +-b) in itertools.product sign order, then shifted right by one and by two."""
    base = [(0.0, s * a, t * b) for s, t in itertools.product((1, -1), repeat=2)]
    return [v[-k:] + v[:-k] for k in range(3) for v in base]


_SIGNED_ONES = list(itertools.product((1, -1), repeat=3))
# each regular polyhedron's unnormalised vertices, in index order; its keys are the
# polyhedra.  The octahedron sits on the coordinate axes, tetrahedron and cube on
# signed-ones vertices, icosahedron and dodecahedron on golden-ratio coordinates.
_VERTICES = {
    "tetrahedron": [v for v in _SIGNED_ONES if math.prod(v) > 0],
    "octahedron": [tuple(s * (j == i) for j in range(3)) for i in range(3) for s in (1, -1)],
    "cube": _SIGNED_ONES,
    "icosahedron": _cyclic_shifts(1.0, GOLDEN),
    "dodecahedron": _SIGNED_ONES + _cyclic_shifts(1.0 / GOLDEN, GOLDEN),
}
# the kinds whose vectors are fixed, so that they take none
_NAMED_KINDS = ("cardinal6", *_VERTICES)
FRAME_KINDS = (*_NAMED_KINDS, "reflected", "custom")


class NonSpanningFrameError(ValueError):
    """The supplied projectors do not span the single-qubit operator space."""


class FrameCheck(NamedTuple):
    passed: bool
    centroid_residual: float
    moment_residual: float


def frame_check(vectors: Sequence[BlochVector]) -> FrameCheck:
    """Test the two balance conditions a vector set needs for closed-form duals.

    centroid_residual is |mean of the vectors| and moment_residual is the
    Frobenius distance between the mean outer-product matrix and I/3.  Both
    must be at most BALANCE_TOL to pass.
    """
    if not vectors:
        raise ValueError("frame_check requires at least one vector")
    arr = _require_unit(vectors)
    centroid = float(np.linalg.norm(arr.mean(axis=0)))
    moments = arr.T @ arr / len(vectors)
    moment = float(np.linalg.norm(moments - np.eye(3) / 3.0))
    return FrameCheck(centroid <= BALANCE_TOL and moment <= BALANCE_TOL, centroid, moment)


def _sphere_monomial_integral(a: int, b: int, c: int) -> float:
    """Exact integral of x^a y^b z^c over the unit sphere."""
    if a % 2 or b % 2 or c % 2:
        return 0.0
    # (a-1)!! (b-1)!! (c-1)!! / (a+b+c+1)!!, in exact integers
    num = math.prod(math.prod(range(k - 1, 1, -2)) for k in (a, b, c))
    return FOUR_PI * num / math.prod(range(a + b + c + 1, 1, -2))


@dataclass(frozen=True, eq=False)
class Frame:
    """A spanning projector family and its duals, all computed from the vectors.

    rows is A (see the module docstring) and is read-only; the projectors and
    duals are built from rows and M on first access, and each degree's
    quadrature residual on its first request.  For the cardinal6
    kind index a is 2*(j-1) + mu, i.e. the order +x, -x, +y, -y, +z, -z.
    """

    kind: str
    vectors: tuple[BlochVector, ...]
    rows: np.ndarray = field(init=False, repr=False)
    _dual_pauli: np.ndarray = field(init=False, repr=False)
    _residuals: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        vectors = tuple(self.vectors)
        rows = _pauli_rows(_require_unit(vectors))
        gram = rows.T @ rows
        lam = np.linalg.eigvalsh(gram)
        # an empty family gives lam = cutoff = 0 and spans 0 dimensions
        cutoff = GRAM_RANK_CUTOFF * float(lam[-1])
        if float(lam[0]) <= cutoff:
            rank = int(np.sum(lam > cutoff))
            raise NonSpanningFrameError(f"projector family spans only {rank} of 4 operator dimensions")
        # an LU solve leaves a smaller residual A^T M - I than an inverse built from eigh
        dual_pauli = np.linalg.solve(gram, rows.T).T
        rows.setflags(write=False)
        dual_pauli.setflags(write=False)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_dual_pauli", dual_pauli)

    @property
    def size(self) -> int:
        return len(self.vectors)

    @functools.cached_property
    def projectors(self) -> tuple[DenseOperator, ...]:
        """The projectors as operators, built on first access."""
        return tuple(DenseOperator(p, 1, hermitian=True) for p in _pauli_matrices(0.5 * self.rows))

    @functools.cached_property
    def duals(self) -> tuple[DenseOperator, ...]:
        """The duals as operators, built on first access."""
        return tuple(DenseOperator(q, 1, hermitian=True) for q in _pauli_matrices(self._dual_pauli))

    def resolution_residual(self) -> float:
        """Frobenius distance of sum_a |P_a)(Q_a| (A^T M in Pauli coordinates) from the identity."""
        return float(np.linalg.norm(self.rows.T @ self._dual_pauli - np.eye(4)))

    def dual_pauli_matrix(self) -> np.ndarray:
        """The read-only (K, 4) matrix M with Q_a = sum_b M[a, b] sigma_b."""
        return self._dual_pauli

    def degree_residual(self, degree: int) -> float:
        """Worst monomial-moment error over all total degrees <= degree of the
        vertices as a quadrature at equal weights 4pi/K."""
        if degree in self._residuals:
            return self._residuals[degree]
        exps = [e for e in itertools.product(range(degree + 1), repeat=3) if sum(e) <= degree]
        exact = [_sphere_monomial_integral(*e) for e in exps]
        monomials = np.prod(self.rows[:, None, 1:] ** np.reshape(exps, (-1, 3)), axis=2)
        approx = np.sum(FOUR_PI / self.size * monomials, axis=0)
        residual = float(np.max(np.abs(approx - exact), initial=0.0))
        self._residuals[degree] = residual
        return residual

    def is_exact_to_degree(self, degree: int) -> bool:
        return self.degree_residual(degree) <= QUADRATURE_TOL


def dual_frame(vectors: Sequence[BlochVector], kind: str = "custom") -> Frame:
    """Build the frame for the given Bloch vectors by inverting the Gram matrix (1/2) A^T A.

    An eigenvalue of A^T A below GRAM_RANK_CUTOFF times the largest one raises
    NonSpanningFrameError.  Duplicate vectors are allowed, they split the weight.
    """
    return Frame(kind, tuple(vectors))


def continuous_dual(n: BlochVector) -> DenseOperator:
    """Dual operator (1/4pi)(1 + 3 sigma.n) of the continuous projector frame."""
    rows = _pauli_rows(_require_unit(n)) * (1.0, 3.0, 3.0, 3.0)
    return DenseOperator(_pauli_matrices(rows)[0] / (4.0 * math.pi), 1, hermitian=True)


def _unit(x: float, y: float, z: float) -> BlochVector:
    r = math.sqrt(x * x + y * y + z * z)
    return BlochVector(float(x / r), float(y / r), float(z / r))


def polyhedron_vectors(kind: str) -> tuple[BlochVector, ...]:
    """Vertices of a regular polyhedron inscribed in the unit sphere: the shared
    vectors of its named frame, built from _VERTICES once per process."""
    if kind not in _VERTICES:
        raise ValueError(f"unknown polyhedron kind {kind!r}; options: {sorted(_VERTICES)}")
    return _named_frame(kind).vectors


def reflect_octant(seed: BlochVector | Sequence[BlochVector]) -> tuple[BlochVector, ...]:
    """Close first-octant unit vectors under all coordinate sign flips.

    Accepts one seed vector or a sequence of them.  Each seed must lie
    strictly inside the first octant; a vector on a boundary plane would
    collide with its own reflection and break the 8-fold count.  Sign
    closure zeroes the centroid and the off-diagonal second moments, so the
    output spans and dual_frame resolves the identity on it.  The diagonal
    moments are the mean squared seed components per axis; they average to
    1/3 but each equals 1/3 (the full frame_check balance) only for suitably
    balanced seeds such as (1,1,1)/sqrt(3).
    """
    if isinstance(seed, BlochVector):
        seed = (seed,)
    seed = tuple(seed)
    if not seed:
        raise ValueError("reflect_octant requires at least one seed vector")
    out = []
    for v in seed:
        _require_unit(v)
        if min(v.x, v.y, v.z) <= 0.0:
            raise ValueError(
                f"seed vector {v} touches an octant boundary; all components must be > 0"
            )
        for sx, sy, sz in itertools.product((1, -1), repeat=3):
            out.append(BlochVector(sx * v.x, sy * v.y, sz * v.z))
    return tuple(out)


def build_frame(kind: str, vectors: Sequence[BlochVector] | None = None) -> Frame:
    """Construct a named frame, or a custom/reflected one from explicit vectors.

    "cardinal6" is the octahedron vertex set in the order +x,-x,+y,-y,+z,-z.
    For "reflected" the vectors argument holds the octant seeds.  Named
    frames take no vectors; each is built once per process and the same
    object is returned.
    """
    if kind in _NAMED_KINDS:
        if vectors is not None:
            raise ValueError(f"the {kind} frame is fixed and takes no vectors")
        return _named_frame(kind)
    if kind == "reflected":
        if not vectors:
            raise ValueError("reflected frames need seed vectors")
        return dual_frame(reflect_octant(vectors), kind="reflected")
    if kind == "custom":
        if not vectors:
            raise ValueError("custom frames need explicit vectors")
        return dual_frame(vectors, kind=kind)
    raise ValueError(f"unknown frame kind {kind!r}; options: {FRAME_KINDS}")


@functools.lru_cache(maxsize=None)
def _named_frame(kind: str) -> Frame:
    """The named frames are immutable, so each is built from _VERTICES, inverted once and shared."""
    vertices = _VERTICES["octahedron" if kind == "cardinal6" else kind]
    return dual_frame([_unit(*v) for v in vertices], kind=kind)


def frame_from_json(obj: object) -> Frame:
    """Frame from {"kind": tag, "vectors": [[x,y,z], ...]}, where only custom and
    reflected kinds take vectors.  A bare string is accepted as a kind shorthand."""
    if isinstance(obj, str):
        return build_frame(obj)
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError('frame JSON must be {"kind": ..., "vectors": [...]} or a kind string')
    _json_keys("frame JSON", obj, ("kind", "vectors"))
    vectors = obj.get("vectors")
    if vectors is not None:
        vectors = [_json_vector("frame vector", v) for v in vectors]
    return build_frame(str(obj["kind"]), vectors)


def frame_to_json(frame: Frame) -> dict:
    """Inverse of frame_from_json.  Named frames serialize their kind alone, and
    reflected frames their seeds (the all-positive vectors), matching what
    build_frame expects back."""
    if frame.kind in _NAMED_KINDS:
        return {"kind": frame.kind}
    vectors = frame.vectors
    if frame.kind == "reflected":
        vectors = tuple(v for v in vectors if min(v) > 0.0)
    return {"kind": frame.kind, "vectors": [list(v) for v in vectors]}
