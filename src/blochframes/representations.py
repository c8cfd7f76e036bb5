"""Expansion coefficients of density operators over product projector frames.

The central object is the canonical expansion function

    w(n_1, ..., n_N) = tr(rho Q(n_1) x ... x Q(n_N)),

evaluated lazily from the Pauli coefficient tensor c, since
w = (3/4pi)^N sum_c c_{a1..aN} (n_1)_{a1} ... (n_N)_{aN} with the convention
(n)_0 = 1/3.  Discrete tables over finite frames come from the same
contraction with the duals' Pauli expansions, and reconstruction contracts
back to a Pauli tensor with the projectors' Pauli rows.  The continuous
reconstruction integrates w over a frame's own vertices at equal weights
4pi/K, where they form a quadrature exact to the degree w needs.  A table and a
reconstruction check their per-qubit frames by one rule, _table_frames.

pauli_to_operator returns an operator held as its Pauli tensor alone, which
pauli_coefficients gives back as it is; its 2^N x 2^N matrix is formed on the
first read.  A reconstruction is graded on the Pauli tensors too (_deviation).

Every one of these is a mode product by _mode_contract, whose steps run in row
blocks of at most _GEMM_BLOCK multiply-adds each.  On two BLAS threads a wider
product is split across both, and that made the wide steps of big tables about
twice as slow as on one thread; the blocks keep every entry's bits.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

from .operators import (
    BlochVector,
    DenseOperator,
    _Frozen,
    _hermitian,
    _json_keys,
    _json_number,
    _pauli_rows,
    _require_entries,
    _require_qubits,
    _require_unit,
    sigma_stack,
)
from .frames import FOUR_PI, Frame, build_frame

# rows per stream.write in CoefficientTable.write_csv
_CSV_BLOCK_ROWS = 1 << 13
# most multiply-adds per matrix product in a _mode_contract step; a 6 x 4 block's
# output is then 256 KB
_GEMM_BLOCK = 1 << 17


def _mode_contract(tensor: np.ndarray, matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Contract axis k of the tensor with axis 1 of matrices[k].

    Each matrix has shape (M_k, 4) (or (M_k, old axis length)); the result has
    shape (M_1, ..., M_N).  Axes are consumed from the front and appended at
    the back, which keeps the qubit order intact.  This is the package's one
    per-qubit contraction: w is multilinear in the Bloch vectors, so tables,
    Pauli tensors, slopes and reconstructions are all such mode products.

    A step of more than _GEMM_BLOCK multiply-adds (rows x M_k x K) runs in row
    blocks of at most that many, written into one output.  OpenBLAS splits a
    wider product across threads, which made the last step of a 6^7 table
    (46,656 x 6 x 4) about twice as slow on two threads as on one.  A block never
    has one row: that would be a matrix-vector product, computed by another
    kernel in other bits.  A matrix of one row is such a product throughout, and
    its bits depend on where the rows are split, so it runs whole.  Every other
    block splits rows only, so each entry is the same dot product, bit for bit.
    """
    out = tensor
    for m in matrices:
        x = out.reshape(m.shape[1], -1).T
        if len(x) * m.size <= _GEMM_BLOCK or len(m) == 1:
            out = x @ m.T
            continue
        # rows per block, at least two; the last block takes a left-over row and still
        # does at most _GEMM_BLOCK, unless three rows of m already do more
        step = max(_GEMM_BLOCK // m.size - 1, 2)
        edges = [0, *range(step, len(x) - 1, step), len(x)]
        out = np.empty((len(x), len(m)), np.result_type(x, m))
        for a, b in zip(edges, edges[1:]):
            np.matmul(x[a:b], m.T, out=out[a:b])
    return out.reshape([m.shape[0] for m in matrices])


@dataclass(frozen=True, eq=False)
class PauliCoefficients(_Frozen):
    """Real tensor c with c[a1, ..., aN] = tr(rho sigma_a1 x ... x sigma_aN)."""

    qubits: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        if self.qubits < 1:
            raise ValueError("qubit count must be at least 1")
        # refused before the tensor is copied
        _require_qubits(self.qubits, "Pauli coefficients")
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
        # scaled in place: a grid scan then holds one full-size table, not two
        values = _mode_contract(self.coeffs, mats)
        values *= (3.0 / FOUR_PI) ** self.qubits
        return values

    def _matrix(self) -> np.ndarray:
        """The 2^N x 2^N matrix 2^-N sum c sigma x ... x sigma: the one route from a
        Pauli tensor to a matrix, taken by pauli_to_operator's operators on first read."""
        n, d = self.qubits, 2**self.qubits
        # sigma_b as column b of a (4, 4) matrix of its flattened (i, j) entries
        t = _mode_contract(self.coeffs, [sigma_stack().reshape(4, 4).T] * n)
        # axes are now (i_1, j_1, ..., i_N, j_N); interleave into row/column blocks
        perm = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
        return t.reshape((2,) * (2 * n)).transpose(perm).reshape(d, d) / d

    def to_dict(self) -> dict:
        """JSON form {"n": N, "coeffs": {"a1...aN": value}} listing nonzeros."""
        entries = {"".join(map(str, idx)): float(v) for idx, v in np.ndenumerate(self.coeffs) if v}
        return {"n": self.qubits, "coeffs": entries}

    @classmethod
    def from_dict(cls, data: dict) -> "PauliCoefficients":
        _json_keys("coefficient JSON", data, ("n", "coeffs"))
        n = _json_number("qubit count", data["n"], int)
        _require_qubits(n, "Pauli coefficients")
        coeffs = data.get("coeffs", {})
        if not isinstance(coeffs, dict):
            raise ValueError(f'coefficient JSON "coeffs" must be a JSON object, got {coeffs!r}')
        c = np.zeros((4,) * n)
        for key, value in coeffs.items():
            if len(key) != n or any(ch not in "0123" for ch in key):
                raise ValueError(f"bad coefficient index {key!r} for {n} qubits")
            c[tuple(map("0123".index, key))] = _json_number("coefficient", value)
        return cls(n, c)


class _TensorOperator(DenseOperator):
    """An operator held as its Pauli tensor alone: its matrix is formed on the first
    read, through DenseOperator with hermitian=True, and kept; qubits and dim form nothing."""

    def __init__(self, c: PauliCoefficients) -> None:
        vars(self).update(qubits=c.qubits, hermitian=True, _tensor=c)

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        return DenseOperator(self._tensor._matrix(), self.qubits, hermitian=True).matrix


def pauli_coefficients(rho: DenseOperator) -> PauliCoefficients:
    """Pauli coefficient tensor of an operator Hermitian within DEFAULT_VALIDATION_TOL.

    An operator that pauli_to_operator built gives back the tensor it was built
    from, as it is.  Any other is contracted: each qubit of rho with the sigma
    stack, so the cost is O(N 4^N) rather than one trace per Pauli string.
    """
    if isinstance(rho, _TensorOperator):
        return rho._tensor
    n = rho.qubits
    t = _hermitian(rho.matrix, "pauli_coefficients input").reshape((2,) * (2 * n))
    # bring axes to (i_1, j_1, i_2, j_2, ...) and merge each pair into one
    perm = [ax for k in range(n) for ax in (k, n + k)]
    t = np.transpose(t, perm).reshape((4,) * n)
    # tr picks up sigma[j, i], so row b of the matrix is sigma_b transposed
    sig = sigma_stack().transpose(0, 2, 1).reshape(4, 4)
    # an exactly Hermitian input leaves only rounding in the imaginary part
    return PauliCoefficients(n, _mode_contract(t, [sig] * n).real)


def _deviation(a: DenseOperator, b: DenseOperator) -> float:
    """Frobenius norm of A - B, the deviation RECONSTRUCTION_TOL bounds, between a
    representation's operator a and its target b, as 2^(-N/2) |c_A - c_B|_2 over their
    Pauli tensors: no matrix is formed.  NaN, which no bound accepts, where either has
    no real Pauli tensor; raises unless both act on as many qubits."""
    if a.qubits != b.qubits:
        raise ValueError(f"representation acts on {a.qubits} qubits, target on {b.qubits}")
    try:
        d = (pauli_coefficients(a).coeffs - pauli_coefficients(b).coeffs).ravel()
    except ValueError:
        return math.nan
    return math.sqrt(float(d @ d) / 2**a.qubits)


def pauli_to_operator(c: PauliCoefficients) -> DenseOperator:
    """Inverse of pauli_coefficients: the operator rho = 2^-N sum c sigma x ... x
    sigma, holding c alone, which pauli_coefficients then reads back exactly.  Its
    matrix is formed, exactly Hermitian, on the first read of rho.matrix."""
    return _TensorOperator(c)


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
class CoefficientTable(_Frozen):
    """Expansion coefficients of one density operator over product frames.

    weights is a real tensor over per-qubit frame indices, one frame per
    qubit; entry (a_1, ..., a_N) weighs P_a1 x ... x P_aN.  The continuous
    expansion function is evaluated from PauliCoefficients instead.
    """

    frames: tuple[Frame, ...]
    weights: np.ndarray

    def __post_init__(self) -> None:
        # a caller's array is copied, so the table neither aliases nor freezes it
        self._set_checked(self.frames, np.array(self.weights, dtype=float))

    @classmethod
    def _adopt(cls, frames: Sequence[Frame], weights: np.ndarray) -> "CoefficientTable":
        """A table built around a fresh float tensor that nothing else holds:
        checked and frozen like any other, but not copied."""
        table = object.__new__(cls)
        table._set_checked(frames, np.asarray(weights, dtype=float))
        return table

    def _set_checked(self, frames: Sequence[Frame], w: np.ndarray) -> None:
        frames = tuple(frames)
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
        labels = [[f"{i}," for i in range(size)] for size in shape]
        # each row is the four strings head, prefix, weight, newline
        parts = [None, None, None, "\n"] * rows
        parts[1::4] = map("".join, itertools.product(*labels[split:]))
        heads = map("".join, itertools.product(*labels[:split]))
        for head, block in zip(heads, self.weights.reshape(-1, rows).view(np.int64)):
            # tables repeat few values, so each distinct bit pattern (which keeps
            # -0.0 apart from 0.0) is formatted once per block
            bits, inverse = np.unique(block, return_inverse=True)
            texts = np.array(list(map(repr, bits.view(float).tolist())), dtype=object)
            parts[0::4] = [head] * rows
            parts[2::4] = texts[inverse].tolist()
            stream.write("".join(parts))
        if comments:
            stream.write(f"# min={self.min_entry()!r} sum={self.total()!r}\n")


def _table_frames(frames: Sequence[Frame], qubits: int) -> tuple[Frame, ...]:
    """One frame per qubit as a tuple, refused before a table over them passes the limit."""
    frames = tuple(frames)
    if len(frames) != qubits:
        raise ValueError(f"expected {qubits} frames, got {len(frames)}")
    rows = math.prod(f.size for f in frames)
    _require_entries(rows, "a table of %s entries", rows)
    return frames


def wcan_discrete(rho: DenseOperator, frames: Sequence[Frame]) -> CoefficientTable:
    """Expansion coefficients of rho over one finite frame per qubit.

    Entry (a_1, ..., a_N) is tr(rho Q_{a_1} x ... x Q_{a_N}).  For frames
    passing frame_check this equals the canonical expansion function at the
    frame vectors times prod_k 4pi/K_k.
    """
    frames = _table_frames(frames, rho.qubits)
    c = pauli_coefficients(rho)
    mats = [f.dual_pauli_matrix() for f in frames]
    return CoefficientTable._adopt(frames, _mode_contract(c.coeffs, mats))


def reconstruct_discrete(table: CoefficientTable) -> DenseOperator:
    """Rebuild sum_idx w(idx) P_idx1 x ... x P_idxN from a discrete table via the frames' rows."""
    c = _mode_contract(table.weights, [f.rows.T for f in table.frames])
    return pauli_to_operator(PauliCoefficients(table.qubits, c))


# --- sphere quadrature ------------------------------------------------------


def sphere_quadrature(kind: str) -> Frame:
    """build_frame(kind).  A named frame is its own quadrature, at equal weights
    4pi/K and gated by Frame.is_exact_to_degree; the name is kept because
    perfbench's HOSH round trip calls it."""
    return build_frame(kind)


def reconstruct_continuous(rep: object, quadrature: Frame | Sequence[Frame]) -> DenseOperator:
    """Integrate rho = sum over product nodes of weight * w(nodes) * P(nodes).

    rep is anything exposing qubits, quadrature_degrees and node_values
    (PauliCoefficients, or the spherical-harmonic coefficients from the
    harmonics module).  quadrature is one frame, or one per qubit as for a table.
    Each qubit's quadrature is one frame's vertices at equal weights 4pi/K; it
    must integrate spherical polynomials exactly up to that qubit's stated
    degree, and a frame that cannot is rejected.
    """
    n = rep.qubits
    quads = _table_frames((quadrature,) * n if isinstance(quadrature, Frame) else quadrature, n)
    for k, (quad, degree) in enumerate(zip(quads, rep.quadrature_degrees)):
        if not quad.is_exact_to_degree(degree):
            raise ValueError(
                f"quadrature for qubit {k} must integrate degree <= {degree} spherical "
                f"polynomials exactly (residual {quad.degree_residual(degree):g})"
            )
    values = rep.node_values([q.rows[:, 1:] for q in quads])
    c = _mode_contract(values, [(FOUR_PI / q.size * q.rows).T for q in quads])
    return pauli_to_operator(PauliCoefficients(n, c))
