"""Dense complex operator algebra for small multi-qubit systems.

Everything here is a plain numpy computation on matrices of size 2^N x 2^N.
Qubit ordering is big-endian throughout the package: the first tensor factor
owns the most significant bit of the computational-basis index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

HERMITIAN_FLAG_ATOL = 1e-12
DEFAULT_VALIDATION_TOL = 1e-10
UNIT_NORM_TOL = 1e-12  # |norm - 1| up to which a Bloch vector counts as unit
RECONSTRUCTION_TOL = 1e-10  # deviation of a reconstruction or mixture from its target
SIGN_TOL = 1e-12  # slack on the sign of a weight, eigenvalue or witness value


class BlochVector(NamedTuple):
    """A point of R^3, usually a unit vector labelling a pure-state projector."""

    x: float
    y: float
    z: float

    @classmethod
    def from_array(cls, a: np.ndarray) -> "BlochVector":
        return cls(float(a[0]), float(a[1]), float(a[2]))

    @classmethod
    def from_spherical(cls, theta: float, phi: float) -> "BlochVector":
        """Unit vector at polar angle theta (0 at +z) and azimuth phi."""
        s = math.sin(theta)
        return cls(s * math.cos(phi), s * math.sin(phi), math.cos(theta))

    def as_array(self) -> np.ndarray:
        return np.array(self, dtype=float)

    def norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def negated(self) -> "BlochVector":
        return BlochVector(-self.x, -self.y, -self.z)

    def angles(self) -> tuple[float, float]:
        """Spherical angles (theta, phi) of the direction, phi in [0, 2pi)."""
        n = self.norm()
        theta = math.acos(max(-1.0, min(1.0, self.z / n)))
        phi = math.atan2(self.y, self.x) % (2.0 * math.pi)
        return theta, phi


def _require_unit(vectors: BlochVector | Sequence[BlochVector]) -> np.ndarray:
    """One Bloch vector or a sequence of them as a (K, 3) array; raises unless all are unit."""
    arr = np.array(vectors, dtype=float).reshape(-1, 3)
    norms = np.sqrt((arr * arr).sum(axis=1))
    # written so that a NaN norm fails too
    off = np.flatnonzero(~(np.abs(norms - 1.0) <= UNIT_NORM_TOL))
    if off.size:
        raise ValueError(f"expected a unit Bloch vector, got norm {float(norms[off[0]])!r}")
    return arr


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """A 2^N x 2^N complex matrix together with its declared qubit count.

    The matrix is copied on construction and frozen.  Setting ``hermitian=True``
    asserts Hermiticity within 1e-12 entrywise and raises otherwise.
    """

    matrix: np.ndarray
    qubits: int
    hermitian: bool = False

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {m.shape}")
        if self.qubits < 1:
            raise ValueError("qubit count must be at least 1")
        if m.shape[0] != 2**self.qubits:
            raise ValueError(
                f"matrix dimension {m.shape[0]} does not match 2^{self.qubits}"
            )
        if self.hermitian:
            err = float(np.max(np.abs(m - m.conj().T)))
            # written so that a NaN entry fails the check
            if not err <= HERMITIAN_FLAG_ATOL:
                raise ValueError(f"operator flagged Hermitian but |A - A^dag| = {err:g}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def hermiticity_error(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))


_SIGMA = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)
_SIGMA.setflags(write=False)


def sigma_stack() -> np.ndarray:
    """The four single-qubit basis matrices as one (4, 2, 2) array."""
    return _SIGMA


def pauli(index: int) -> DenseOperator:
    """Single-qubit basis operator: identity for 0, the Pauli matrices for 1..3.

    Conventions put |0> at the north pole, so pauli(3) is diag(1, -1).
    """
    if index not in (0, 1, 2, 3):
        raise ValueError(f"pauli index must be 0..3, got {index}")
    return DenseOperator(_SIGMA[index], 1, hermitian=True)


def bloch_projector(n: BlochVector) -> DenseOperator:
    """Rank-1 projector (1 + n.sigma)/2 onto the pure state along n."""
    return DenseOperator(_projector_stack(_require_unit(n))[0], 1, hermitian=True)


def _pauli_rows(nodes: np.ndarray, first: float = 1.0) -> np.ndarray:
    """Rows (first, n) for (K, 3) Bloch vectors n: the projectors' Pauli coordinates
    tr(P(n) sigma_b) for first = 1, the weights of w on (1, sigma) for first = 1/3."""
    rows = np.empty((len(nodes), 4))
    rows[:, 0] = first
    rows[:, 1:] = nodes
    return rows


def _pauli_matrices(rows: np.ndarray) -> np.ndarray:
    """sum_b rows[:, b] sigma_b for a (K, 4) real array, as a read-only (K, 2, 2) array."""
    out = np.einsum("kb,bij->kij", rows, _SIGMA)
    out.setflags(write=False)
    return out


def _projector_stack(nodes: np.ndarray) -> np.ndarray:
    """Projectors (1 + sigma.n)/2 for (K, 3) Bloch vectors n, as a (K, 2, 2) array."""
    return _pauli_matrices(0.5 * _pauli_rows(nodes))


def tensor(factors: Sequence[DenseOperator]) -> DenseOperator:
    """Kronecker product of the factors, first factor most significant."""
    if not factors:
        raise ValueError("tensor requires at least one factor")
    out = factors[0].matrix
    qubits = factors[0].qubits
    for f in factors[1:]:
        out = np.kron(out, f.matrix)
        qubits += f.qubits
    return DenseOperator(out, qubits, hermitian=all(f.hermitian for f in factors))


def trace_inner(a: DenseOperator, b: DenseOperator) -> complex:
    """Trace inner product (A|B) = tr(A^dag B)."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return complex(np.vdot(a.matrix, b.matrix))


def _deviation(a: DenseOperator, b: DenseOperator) -> float:
    """Frobenius norm of A - B, the deviation RECONSTRUCTION_TOL bounds."""
    return float(np.linalg.norm(a.matrix - b.matrix))


def hermitian_eigenvalues(a: DenseOperator, tol: float = DEFAULT_VALIDATION_TOL) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian operator.

    Raises if the input fails the Hermiticity check at the given tolerance.
    """
    err = a.hermiticity_error()
    if not err <= tol:
        raise ValueError(f"operator is not Hermitian within {tol:g} (|A - A^dag| = {err:g})")
    sym = 0.5 * (a.matrix + a.matrix.conj().T)
    return np.linalg.eigvalsh(sym)


class DensityCheck(NamedTuple):
    passed: bool
    hermiticity_error: float
    trace_error: float
    min_eigenvalue: float
    reason: str | None


def validate_density(a: DenseOperator, tol: float = DEFAULT_VALIDATION_TOL) -> DensityCheck:
    """Check the three density-operator properties and report what failed.

    Passes iff every entry is finite, the matrix is Hermitian within tol, has
    unit trace within tol, and its smallest eigenvalue is at least -tol.
    """
    # a NaN entry would pass every comparison below, since each one is False
    if not np.isfinite(a.matrix).all():
        return DensityCheck(False, math.nan, math.nan, math.nan, "non-finite entries")
    herm = a.hermiticity_error()
    tr_err = abs(a.trace() - 1.0)
    sym = 0.5 * (a.matrix + a.matrix.conj().T)
    lam_min = float(np.linalg.eigvalsh(sym)[0])
    reason = None
    if herm > tol:
        reason = f"not Hermitian: |A - A^dag| = {herm:g}"
    elif tr_err > tol:
        reason = f"trace differs from 1 by {tr_err:g}"
    elif lam_min < -tol:
        reason = f"negative eigenvalue {lam_min:g}"
    return DensityCheck(reason is None, herm, tr_err, lam_min, reason)
