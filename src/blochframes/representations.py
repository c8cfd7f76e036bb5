"""Expansion coefficients of density operators over product projector frames.

The central object is the canonical expansion function

    w(n_1, ..., n_N) = tr(rho Q(n_1) x ... x Q(n_N)),

evaluated lazily from the Pauli coefficient tensor c, since
w = (3/4pi)^N sum_c c_{a1..aN} (n_1)_{a1} ... (n_N)_{aN} with the convention
(n)_0 = 1/3.  Discrete tables over finite frames come from the same
contraction with the duals' Pauli expansions, and reconstruction contracts
back to a Pauli tensor with the projectors' Pauli rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence, TextIO

import numpy as np

from .operators import (
    DEFAULT_VALIDATION_TOL,
    BlochVector,
    DenseOperator,
    _pauli_rows,
    _require_unit,
    sigma_stack,
)
from .frames import Frame, polyhedron_vectors

FOUR_PI = 4.0 * math.pi
# rows per stream.write in CoefficientTable.write_csv
_CSV_BLOCK_ROWS = 1 << 15


def _mode_contract(tensor: np.ndarray, matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Contract axis k of the tensor with axis 1 of matrices[k].

    Each matrix has shape (M_k, 4) (or (M_k, old axis length)); the result has
    shape (M_1, ..., M_N).  Axes are consumed from the front and appended at
    the back, which keeps the qubit order intact.  This is the package's one
    per-qubit contraction: w is multilinear in the Bloch vectors, so tables,
    Pauli tensors, slopes and reconstructions are all such mode products.
    """
    out = tensor
    for m in matrices:
        out = out.reshape(m.shape[1], -1).T @ m.T
    return out.reshape([m.shape[0] for m in matrices])


@dataclass(frozen=True, eq=False)
class PauliCoefficients:
    """Real tensor c with c[a1, ..., aN] = tr(rho sigma_a1 x ... x sigma_aN)."""

    qubits: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.array(self.coeffs, dtype=float)
        if c.shape != (4,) * self.qubits:
            raise ValueError(f"coefficient tensor must have shape {(4,) * self.qubits}")
        if not np.isfinite(c).all():
            raise ValueError("coefficient tensor has non-finite entries")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def quadrature_degrees(self) -> tuple[int, ...]:
        # per-sphere polynomial degree of w times a projector
        return (2,) * self.qubits

    def node_values(self, nodes_per_qubit: Sequence[np.ndarray]) -> np.ndarray:
        """Canonical expansion values on a product grid of sphere points.

        nodes_per_qubit[k] is an (M_k, 3) array of unit vectors; the result has
        shape (M_1, ..., M_N).
        """
        if len(nodes_per_qubit) != self.qubits:
            raise ValueError("need one node array per qubit")
        mats = [_pauli_rows(nodes, 1.0 / 3.0) for nodes in nodes_per_qubit]
        scale = (3.0 / FOUR_PI) ** self.qubits
        return scale * _mode_contract(self.coeffs, mats)

    def to_dict(self) -> dict:
        """JSON form {"n": N, "coeffs": {"a1...aN": value}} listing nonzeros."""
        entries = {}
        for idx in np.ndindex(*self.coeffs.shape):
            v = float(self.coeffs[idx])
            if v != 0.0:
                entries["".join(str(i) for i in idx)] = v
        return {"n": self.qubits, "coeffs": entries}

    @classmethod
    def from_dict(cls, data: dict) -> "PauliCoefficients":
        n = int(data["n"])
        c = np.zeros((4,) * n)
        for key, value in dict(data.get("coeffs", {})).items():
            if len(key) != n or any(ch not in "0123" for ch in key):
                raise ValueError(f"bad coefficient index {key!r} for {n} qubits")
            c[tuple(int(ch) for ch in key)] = float(value)
        return cls(n, c)


def pauli_coefficients(rho: DenseOperator, tol: float = DEFAULT_VALIDATION_TOL) -> PauliCoefficients:
    """Pauli coefficient tensor of a Hermitian operator.

    Contracts each qubit of rho with the sigma stack, so the cost is
    O(N 4^N) rather than one trace per Pauli string.
    """
    err = rho.hermiticity_error()
    if not err <= tol:
        raise ValueError(f"pauli_coefficients needs a Hermitian input (|A - A^dag| = {err:g})")
    n = rho.qubits
    t = rho.matrix.reshape((2,) * (2 * n))
    # bring axes to (i_1, j_1, i_2, j_2, ...) and merge each pair into one
    perm = [ax for k in range(n) for ax in (k, n + k)]
    t = np.transpose(t, perm).reshape((4,) * n)
    # tr picks up sigma[j, i], so row b of the matrix is sigma_b transposed
    sig = sigma_stack().transpose(0, 2, 1).reshape(4, 4)
    t = _mode_contract(t, [sig] * n)
    imag = float(np.max(np.abs(t.imag)))
    if imag > 1e-12:
        raise ValueError(f"coefficients came out complex (residual {imag:g})")
    return PauliCoefficients(n, t.real)


def pauli_to_operator(c: PauliCoefficients) -> DenseOperator:
    """Inverse of pauli_coefficients: rho = 2^-N sum c sigma x ... x sigma, symmetrised
    so it is exactly Hermitian.  The one route from a Pauli tensor to a matrix."""
    n, d = c.qubits, 2**c.qubits
    # sigma_b as column b of a (4, 4) matrix of its flattened (i, j) entries
    t = _mode_contract(c.coeffs, [sigma_stack().reshape(4, 4).T] * n)
    # axes are now (i_1, j_1, ..., i_N, j_N); interleave into row/column blocks
    perm = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    m = t.reshape((2,) * (2 * n)).transpose(perm).reshape(d, d) / d
    return DenseOperator(0.5 * (m + m.conj().T), n, hermitian=True)


def wcan_continuous(rep: object, n_tuple: Sequence[BlochVector]) -> float:
    """Expansion function at one unit Bloch vector per qubit.

    rep is anything exposing qubits and node_values (PauliCoefficients or SphCoefficients).
    """
    if len(n_tuple) != rep.qubits:
        raise ValueError(f"expected {rep.qubits} vectors, got {len(n_tuple)}")
    # one (1, 3) node array per qubit
    nodes = _require_unit(n_tuple)[:, None, :]
    return float(rep.node_values(nodes).reshape(()))


@dataclass(frozen=True, eq=False)
class CoefficientTable:
    """Expansion coefficients of one density operator over product frames.

    weights is a real tensor over per-qubit frame indices, one frame per
    qubit; entry (a_1, ..., a_N) weighs P_a1 x ... x P_aN.  The continuous
    expansion function is evaluated from PauliCoefficients instead.
    """

    frames: tuple[Frame, ...]
    weights: np.ndarray

    def __post_init__(self) -> None:
        frames = tuple(self.frames)
        w = np.array(self.weights, dtype=float)
        expected = tuple(f.size for f in frames)
        if w.shape != expected:
            raise ValueError(f"weight tensor shape {w.shape} does not match frame sizes {expected}")
        if not np.isfinite(w).all():
            raise ValueError("weight tensor has non-finite entries")
        w.setflags(write=False)
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "weights", w)

    @property
    def qubits(self) -> int:
        return len(self.frames)

    def min_entry(self) -> float:
        return float(self.weights.min())

    def total(self) -> float:
        return float(self.weights.sum())

    def write_csv(self, stream: TextIO, comments: bool = True) -> None:
        """Rows idx_1,...,idx_N,weight in lexicographic index order."""
        n = self.qubits
        if comments:
            stream.write("# discrete expansion table: one row per frame multi-index\n")
            stream.write(
                "# idx_k indexes qubit k's frame (%s); weight = tr(rho Q_idx1 x ... x Q_idxN)\n"
                % ", ".join(f.kind for f in self.frames)
            )
        stream.write(",".join([f"idx_{k + 1}" for k in range(n)] + ["weight"]) + "\n")
        # one write per block: the trailing axes (at least the last one) form a
        # block of about _CSV_BLOCK_ROWS rows whose "i,j," prefixes are built once
        shape = self.weights.shape
        split, rows = n - 1, shape[-1]
        while split > 0 and rows * shape[split - 1] <= _CSV_BLOCK_ROWS:
            split -= 1
            rows *= shape[split]
        prefixes = ["".join(f"{i}," for i in idx) for idx in np.ndindex(*shape[split:])]
        for lead in np.ndindex(*shape[:split]):
            head = "".join(f"{i}," for i in lead)
            weights = map(repr, self.weights[lead].ravel().tolist())
            stream.write(head + ("\n" + head).join(map(str.__add__, prefixes, weights)) + "\n")
        if comments:
            stream.write(f"# min={self.min_entry()!r} sum={self.total()!r}\n")


def wcan_discrete(rho: DenseOperator, frames: Sequence[Frame]) -> CoefficientTable:
    """Expansion coefficients of rho over one finite frame per qubit.

    Entry (a_1, ..., a_N) is tr(rho Q_{a_1} x ... x Q_{a_N}).  For frames
    passing frame_check this equals the canonical expansion function at the
    frame vectors times prod_k 4pi/K_k.
    """
    frames = tuple(frames)
    if len(frames) != rho.qubits:
        raise ValueError(f"expected {rho.qubits} frames, got {len(frames)}")
    c = pauli_coefficients(rho)
    mats = [f.dual_pauli_matrix() for f in frames]
    weights = _mode_contract(c.coeffs, mats)
    return CoefficientTable(frames, weights)


def reconstruct_discrete(table: CoefficientTable) -> DenseOperator:
    """Rebuild sum_idx w(idx) P_idx1 x ... x P_idxN from a discrete table via the frames' rows."""
    c = _mode_contract(table.weights, [f.rows.T for f in table.frames])
    return pauli_to_operator(PauliCoefficients(table.qubits, c))


# --- sphere quadrature ------------------------------------------------------


def _sphere_monomial_integral(a: int, b: int, c: int) -> float:
    """Exact integral of x^a y^b z^c over the unit sphere."""
    if a % 2 or b % 2 or c % 2:
        return 0.0
    num = _double_factorial(a - 1) * _double_factorial(b - 1) * _double_factorial(c - 1)
    return FOUR_PI * num / _double_factorial(a + b + c + 1)


def _double_factorial(k: int) -> float:
    out = 1.0
    while k > 1:
        out *= k
        k -= 2
    return out


@dataclass(frozen=True, eq=False)
class SphereQuadrature:
    """Nodes and weights for integrating functions over one Bloch sphere.

    Nodes and weights are read-only, so degree_residual computes each degree's
    residual once and keeps it.
    """

    nodes: np.ndarray
    weights: np.ndarray
    _residuals: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        nodes = np.array(self.nodes, dtype=float)
        weights = np.array(self.weights, dtype=float)
        if nodes.ndim != 2 or nodes.shape[1] != 3 or weights.shape != (nodes.shape[0],):
            raise ValueError("quadrature needs (K, 3) nodes and K weights")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def degree_residual(self, degree: int) -> float:
        """Worst monomial-moment error over all total degrees <= degree."""
        if degree in self._residuals:
            return self._residuals[degree]
        exps = [
            (a, b, c)
            for a in range(degree + 1)
            for b in range(degree + 1 - a)
            for c in range(degree + 1 - a - b)
        ]
        exact = [_sphere_monomial_integral(*e) for e in exps]
        monomials = np.prod(self.nodes[:, None, :] ** np.reshape(exps, (-1, 3)), axis=2)
        approx = np.sum(self.weights[:, None] * monomials, axis=0)
        residual = float(np.max(np.abs(approx - exact), initial=0.0))
        self._residuals[degree] = residual
        return residual

    def is_exact_to_degree(self, degree: int, tol: float = 1e-8) -> bool:
        return self.degree_residual(degree) <= tol


@functools.lru_cache(maxsize=None)
def sphere_quadrature(kind: str) -> SphereQuadrature:
    """Equal-weight vertex quadratures: octahedron (degree 3), icosahedron (degree 5).

    Each kind is built once per process and the immutable quadrature is shared.
    """
    if kind not in ("octahedron", "icosahedron"):
        raise ValueError(f"no quadrature registered for {kind!r}")
    vectors = polyhedron_vectors(kind)
    nodes = np.array([v.as_array() for v in vectors])
    weights = np.full(len(vectors), FOUR_PI / len(vectors))
    return SphereQuadrature(nodes, weights)


def reconstruct_continuous(
    rep: object, quadrature: SphereQuadrature | Sequence[SphereQuadrature]
) -> DenseOperator:
    """Integrate rho = sum over product nodes of weight * w(nodes) * P(nodes).

    rep is anything exposing qubits, quadrature_degrees and node_values
    (PauliCoefficients, or the spherical-harmonic coefficients from the
    harmonics module).  Each qubit's quadrature must integrate spherical
    polynomials exactly up to that qubit's stated degree; a quadrature that
    cannot is rejected.
    """
    n = rep.qubits
    if isinstance(quadrature, SphereQuadrature):
        quads: Sequence[SphereQuadrature] = (quadrature,) * n
    else:
        quads = tuple(quadrature)
    if len(quads) != n:
        raise ValueError(f"expected {n} quadratures, got {len(quads)}")
    for k, (quad, degree) in enumerate(zip(quads, rep.quadrature_degrees)):
        if not quad.is_exact_to_degree(degree):
            raise ValueError(
                f"quadrature for qubit {k} must integrate degree <= {degree} spherical "
                f"polynomials exactly (residual {quad.degree_residual(degree):g})"
            )
    values = rep.node_values([q.nodes for q in quads])
    c = _mode_contract(values, [(q.weights[:, None] * _pauli_rows(q.nodes)).T for q in quads])
    return pauli_to_operator(PauliCoefficients(n, c))
