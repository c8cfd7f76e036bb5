"""Dense complex operator algebra for small multi-qubit systems.

Everything here is a plain numpy computation on matrices of size 2^N x 2^N,
and a DenseOperator holds its matrix (a subclass may form it on first read).
Qubit ordering is big-endian throughout the package: the first tensor factor
owns the most significant bit of the computational-basis index.
"Hermitian" is decided once: _hermitian_part measures max |A - A^dag| and forms
the Hermitian part, _hermitian raises on it beyond DEFAULT_VALIDATION_TOL and
validate_density reports it; a DenseOperator flagged hermitian=True holds an
exactly Hermitian matrix.  The package's frozen types keep their arrays read-only,
in a copy or an unpickled instance too (_Frozen).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

DEFAULT_VALIDATION_TOL = 1e-10
UNIT_NORM_TOL = 1e-12  # |norm - 1| up to which a Bloch vector counts as unit
RECONSTRUCTION_TOL = 1e-10  # deviation of a reconstruction or mixture from its target
SIGN_TOL = 1e-12  # slack on the sign of a weight, eigenvalue or witness value
# the most entries a 4^N-entry array (a 2^N x 2^N operator, a Pauli tensor) may hold:
# N <= 10 qubits, 16 MiB of complex entries; a float array may hold as many bytes
MAX_ENTRIES = 4**10
# what _json_number reads: the types json decodes numbers to, and numpy's
_INTEGERS, _REALS = (int, np.integer), (int, float, np.integer, np.floating)


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


def _json_number(name: str, value, kind: type = float):
    """A JSON number as kind (int or float).  A string or a boolean is refused, and
    so is a fraction where kind is int; numpy numbers from library callers pass."""
    if isinstance(value, bool) or not isinstance(value, _INTEGERS if kind is int else _REALS):
        raise ValueError(f"{name} must be {'an integer' if kind is int else 'a number'}, got {value!r}")
    return kind(value)


def _json_vector(name: str, value) -> BlochVector:
    """A JSON list of exactly three numbers as a BlochVector."""
    try:
        x, y, z = value
    except (TypeError, ValueError):
        raise ValueError(f"{name} must hold exactly three numbers, got {value!r}") from None
    return BlochVector(*(_json_number(f"{name} component", c) for c in (x, y, z)))


def _json_keys(name: str, data, keys: tuple[str, ...]) -> None:
    """Refuse data unless it is a JSON object whose keys are all among keys; the
    message names the first stray key and the keys name takes."""
    if not isinstance(data, dict):
        raise ValueError(f"{name} must be a JSON object, got {data!r}")
    for key in data:
        if key not in keys:
            raise ValueError(f"{name} has unknown key {key!r}; it takes {', '.join(keys)}")


def _require_entries(entries: int, what: str, *args) -> None:
    """Refuse a float array of that many entries before it is allocated: it may take
    the bytes of MAX_ENTRIES complex entries, so 2 MAX_ENTRIES floats.  The refusal
    names what % args, formatted only when it is raised."""
    if entries > 2 * MAX_ENTRIES:
        raise ValueError(f"{what % args} is above the limit of {2 * MAX_ENTRIES} entries")


def _require_qubits(n: int, what: str, *args) -> None:
    """Refuse an N-qubit array of 4^N complex entries (a 2^N x 2^N operator, a Pauli
    tensor) before it is allocated, as what % args on n qubits.  n is read as a Python
    int, so a numpy integer cannot wrap the size."""
    n = _json_number("qubit count", n, int)
    if 4 ** min(n, 64) > MAX_ENTRIES:
        what = f"{what % args} on {n} qubits (4^{n} entries)"
        raise ValueError(f"{what} is above the limit of {MAX_ENTRIES} entries")


class _Frozen:
    """Base of the frozen types, whose constructors leave every array read-only: a
    copy or an unpickled instance gets them back read-only too (numpy's copies are
    writeable), with whatever was formed on first read still formed."""

    def __setstate__(self, state: dict) -> None:
        for value in state.values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        vars(self).update(state)


def _hermitian_part(m: np.ndarray) -> tuple[np.ndarray, float]:
    """(m, 0.0) if m = m^dag exactly, else ((m + m^dag)/2, max |m - m^dag|)."""
    h = m.conj().T
    if np.array_equal(m, h):
        return m, 0.0
    return 0.5 * (m + h), float(np.max(np.abs(m - h)))


def _hermitian(m: np.ndarray, what: str = "operator") -> np.ndarray:
    """The Hermitian part of m; raises unless max |m - m^dag| <= DEFAULT_VALIDATION_TOL,
    written so that a NaN entry fails."""
    part, err = _hermitian_part(m)
    if not err <= DEFAULT_VALIDATION_TOL:
        raise ValueError(
            f"{what} is not Hermitian within {DEFAULT_VALIDATION_TOL:g} (|A - A^dag| = {err:g})"
        )
    return part


def _require_unit(vectors: BlochVector | Sequence[BlochVector]) -> np.ndarray:
    """One Bloch vector or a sequence of them as a (K, 3) array; raises unless all are unit."""
    arr = np.array(vectors, dtype=float).reshape(-1, 3)
    norms = np.sqrt((arr * arr).sum(axis=1))
    # written so that a NaN norm fails too
    ok = np.abs(norms - 1.0) <= UNIT_NORM_TOL
    if not ok.all():
        raise ValueError(f"expected a unit Bloch vector, got norm {float(norms[~ok][0])!r}")
    return arr


@dataclass(frozen=True, eq=False)
class DenseOperator(_Frozen):
    """A 2^N x 2^N complex matrix together with its declared qubit count.

    The matrix is copied on construction and frozen.  Setting ``hermitian=True``
    asserts Hermiticity within DEFAULT_VALIDATION_TOL entrywise, raises otherwise,
    and stores an exactly Hermitian matrix: the input itself if it already is one,
    its Hermitian part (A + A^dag)/2 if not.
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
            m = _hermitian(m, "operator flagged Hermitian")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return 2**self.qubits

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))


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
    return DenseOperator(_pauli_matrices(0.5 * _pauli_rows(_require_unit(n)))[0], 1, hermitian=True)


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


def tensor(factors: Sequence[DenseOperator]) -> DenseOperator:
    """Kronecker product of the factors, first factor most significant."""
    if not factors:
        raise ValueError("tensor requires at least one factor")
    _require_qubits(sum(f.qubits for f in factors), "the tensor product")
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


def hermitian_eigenvalues(a: DenseOperator) -> np.ndarray:
    """Ascending real eigenvalues of an operator Hermitian within DEFAULT_VALIDATION_TOL;
    raises for any other."""
    return np.linalg.eigvalsh(_hermitian(a.matrix))


class DensityCheck(NamedTuple):
    passed: bool
    hermiticity_error: float
    trace_error: float
    min_eigenvalue: float
    reason: str | None


def validate_density(a: DenseOperator) -> DensityCheck:
    """Check the three density-operator properties and report what failed.

    Passes iff every entry is finite, the matrix is Hermitian within tol, has
    unit trace within tol, and its smallest eigenvalue is at least -tol, where
    tol is DEFAULT_VALIDATION_TOL.
    """
    tol = DEFAULT_VALIDATION_TOL
    # a NaN entry would pass every comparison below, since each one is False
    if not np.isfinite(a.matrix).all():
        return DensityCheck(False, math.nan, math.nan, math.nan, "non-finite entries")
    sym, herm = _hermitian_part(a.matrix)
    tr_err = abs(a.trace() - 1.0)
    lam_min = float(np.linalg.eigvalsh(sym)[0])
    reason = None
    if herm > tol:
        reason = f"not Hermitian: |A - A^dag| = {herm:g}"
    elif tr_err > tol:
        reason = f"trace differs from 1 by {tr_err:g}"
    elif lam_min < -tol:
        reason = f"negative eigenvalue {lam_min:g}"
    return DensityCheck(reason is None, herm, tr_err, lam_min, reason)
