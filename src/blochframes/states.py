"""The state families under study, their explicit product ensembles, and the
closed-form separability bounds.

Every named family except custom_matrix is a point (N, eps) of one set, the
mixtures rho = (1 - eps)/2^N identity + eps |cat_N><cat_N| with the N-qubit cat
state (|0...0> + |1...1>)/sqrt(2), built as its exact Pauli tensor
mix_with_identity(cat, eps).  A family may fix N (werner: 2, eps_ghz: 3)
or eps (maximally_mixed: 0, cat: 1); the spec supplies the rest, and a supplied
eps must lie in [0, 1] even where the family fixes it.  It is separable exactly up
to eps_N = bound_duer(N), where cat_ensemble(N) proves it.  Numbers in state and
ensemble JSON are JSON ints or floats, read by operators._json_number, and a
key that their objects do not take is refused by operators._json_keys.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .operators import BlochVector, DenseOperator, _pauli_rows, _require_unit, validate_density
from .operators import MAX_ENTRIES, _json_keys, _json_number, _json_vector, _require_entries, _require_qubits
from .frames import Frame
from .representations import CoefficientTable, PauliCoefficients, _table_frames, pauli_to_operator

# eps-family -> (qubits it fixes, epsilon it fixes); None where the spec supplies it
_MIXTURES = {
    "maximally_mixed": (None, 0.0),
    "cat": (None, 1.0),
    "eps_cat": (None, None),
    "werner": (2, None),
    "eps_ghz": (3, None),
}
FAMILIES = (*_MIXTURES, "custom_matrix")

_PLUS = {
    1: BlochVector(1.0, 0.0, 0.0),
    2: BlochVector(0.0, 1.0, 0.0),
    3: BlochVector(0.0, 0.0, 1.0),
}
_MINUS = {axis: v.negated() for axis, v in _PLUS.items()}


def _axis(axis: int, sign: int) -> BlochVector:
    return _PLUS[axis] if sign > 0 else _MINUS[axis]


def _matrix_entry(e) -> complex:
    """A JSON matrix entry, a number or an [re, im] pair, as a complex number."""
    if not isinstance(e, (list, tuple)):
        return complex(_json_number("matrix entry", e))
    if len(e) != 2:
        raise ValueError(f"matrix entry must be a number or an [re, im] pair, got {e!r}")
    return complex(_json_number("matrix entry", e[0]), _json_number("matrix entry", e[1]))


@dataclass(frozen=True, eq=False)
class StateSpec:
    """Description of one state: a family name plus its parameters."""

    family: str
    qubits: int | None = None
    epsilon: float | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.family, str):
            raise ValueError(f"family must be a string, got {self.family!r}")
        object.__setattr__(self, "family", self.family.replace("-", "_"))

    @classmethod
    def from_json(cls, data: dict) -> "StateSpec":
        if not isinstance(data, dict) or "family" not in data:
            raise ValueError('state JSON needs a "family" key')
        _json_keys("state JSON", data, ("family", "n", "qubits", "epsilon", "matrix"))
        # "qubits" is another name for "n"; a spec that gives both must give one count
        counts = {_json_number("qubit count", data[k], int)
                  for k in ("n", "qubits") if data.get(k) is not None}
        if len(counts) > 1:
            raise ValueError(f'state JSON gives "n": {data["n"]} and "qubits": {data["qubits"]}; '
                             "they must agree")
        epsilon, matrix = data.get("epsilon"), data.get("matrix")
        return cls(
            family=data["family"],
            qubits=next(iter(counts), None),
            epsilon=None if epsilon is None else _json_number("epsilon", epsilon),
            matrix=None if matrix is None else np.array([[_matrix_entry(e) for e in r] for r in matrix]),
        )

    def to_json(self) -> dict:
        out: dict = {"family": self.family}
        if self.qubits is not None:
            out["n"] = self.qubits
        if self.epsilon is not None:
            out["epsilon"] = self.epsilon
        if self.matrix is not None:
            out["matrix"] = [[[float(e.real), float(e.imag)] for e in row] for row in self.matrix]
        return out


def _cat_strings(n: int):
    """(axes, sign) for each x/y Pauli string with a correlation in the N-qubit
    cat state: axes of 1 (x) and 2 (y) with an even number of 2s, in
    itertools.product order, and that correlation, sign = (-1)^(#y/2)."""
    for axes in itertools.product((1, 2), repeat=n):
        if (ys := axes.count(2)) % 2 == 0:
            yield axes, (-1) ** (ys // 2)


@functools.lru_cache(maxsize=8)
def _cat_coefficients(n: int) -> PauliCoefficients:
    """The N-qubit cat state's Pauli tensor in closed form: 1 on every z-string of
    even weight, the identity included, the sign of _cat_strings on each of its
    x/y strings, and an exact 0 elsewhere.  Kept for the last 8 qubit counts asked
    for; the tensor is read-only, and one entry is 8 MB at N = 10, so all 8 hold
    at most about 11 MB."""
    c = np.zeros((4,) * n)
    for axes in itertools.product((0, 3), repeat=n):
        c[axes] = axes.count(3) % 2 == 0
    for axes, sign in _cat_strings(n):
        c[axes] = sign
    return PauliCoefficients(n, c)


def mix_with_identity(pure: PauliCoefficients, epsilon: float) -> PauliCoefficients:
    """Pauli tensor of (1 - eps)/2^N identity + eps * (state behind `pure`)."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    # a new array, so a kept `pure` is left as it is; eps = 0 times a negative
    # entry is -0.0, and adding 0.0 makes it 0.0
    c = epsilon * pure.coeffs + 0.0
    c[(0,) * pure.qubits] = 1.0
    return PauliCoefficients(pure.qubits, c)


def build_state(spec: StateSpec) -> DenseOperator:
    """Construct the density operator described by a StateSpec; an n or a matrix
    that contradicts the family is refused."""
    family = spec.family
    # written so that a NaN epsilon fails it
    if spec.epsilon is not None and not 0.0 <= spec.epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {spec.epsilon}")
    if family == "custom_matrix":
        if spec.matrix is None:
            raise ValueError("custom_matrix needs an explicit matrix")
        m = np.asarray(spec.matrix)
        n = int(round(math.log2(m.shape[0]))) if m.ndim == 2 else 0
        op = DenseOperator(m, max(n, 1))
        if spec.qubits not in (None, op.qubits):
            raise ValueError(f"n is {spec.qubits}, but the custom matrix is {op.dim}x{op.dim}")
        check = validate_density(op)
        if not check.passed:
            raise ValueError(f"custom matrix is not a density operator: {check.reason}")
        # Hermitian within the validation tolerance; stored exactly so for every later step
        return DenseOperator(op.matrix, op.qubits, hermitian=True)
    if family not in _MIXTURES:
        raise ValueError(f"unknown state family {spec.family!r}; options: {FAMILIES}")
    if spec.matrix is not None:
        raise ValueError(f"only custom_matrix takes a matrix, not {family}")
    n, eps = _MIXTURES[family]
    if n is None:
        n = spec.qubits
        if n is None or n < 1:
            raise ValueError(f"{family} needs a positive qubit count")
    elif spec.qubits not in (None, n):
        raise ValueError(f"the {family} family is defined on exactly {n} qubits")
    eps = spec.epsilon if eps is None else eps
    if eps is None:
        raise ValueError(f"family {spec.family!r} needs an epsilon")
    _require_qubits(n, "the %s state", family)
    return pauli_to_operator(mix_with_identity(_cat_coefficients(n), eps))


# --- closed-form separability bounds ---------------------------------------
# each reads n as a Python int and divides exact integers, so it is correctly
# rounded and finite at every N, a numpy integer n included


def bound_general(n: int) -> float:
    """Every N-qubit state this close to maximally mixed is separable:
    eps <= 1/(1 + 2^(2N-1))."""
    n = _json_number("qubit count", n, int)
    if n < 1:
        raise ValueError("bound_general needs n >= 1")
    return 1 / (1 + 2 ** (2 * n - 1))


def bound_cat(n: int) -> float:
    """Exact nonnegativity threshold of the canonical expansion for eps-cat states.

    The minimum of the expansion function sits either at an all-equator
    configuration (threshold 1/3^N) or at a pole configuration (threshold
    1/(1 +- 2^N + 2^(2N-2)), upper sign for even N); the binding constraint
    is the smaller of the two.  That reproduces 1/9, 1/27, 1/81, 1/243 for
    N = 2..5 and the pole formula for N >= 6.
    """
    n = _json_number("qubit count", n, int)
    if n < 2:
        raise ValueError("bound_cat needs n >= 2")
    sign = 1 if n % 2 == 0 else -1
    pole = 1 / (1 + sign * 2**n + 2 ** (2 * n - 2))
    equator = 1 / 3**n
    return min(pole, equator)


def bound_duer(n: int) -> float:
    """Separability threshold 1/(1 + 2^(N-1)) for the eps-cat family, due to
    Duer, Cirac and Tarrach; sharp for all N."""
    n = _json_number("qubit count", n, int)
    if n < 2:
        raise ValueError("bound_duer needs n >= 2")
    return 1 / (1 + 2 ** (n - 1))


# --- explicit product ensembles ---------------------------------------------


class EnsembleTerm(NamedTuple):
    probability: float
    vectors: tuple[BlochVector, ...]
    label: str = ""


def _require_ensemble(terms: int, qubits: int) -> None:
    """Refuse an ensemble of that many terms before its (terms, qubits, 3) vectors are built."""
    _require_entries(3 * terms * qubits, "an ensemble of %s terms on %s qubits", terms, qubits)


@dataclass(frozen=True, eq=False)
class ProductEnsemble:
    """A finite mixture of pure product states, one Bloch vector per qubit."""

    qubits: int
    terms: tuple[EnsembleTerm, ...]
    # the Bloch vectors as a read-only (terms, qubits, 3) array
    _vectors: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.qubits < 1:
            raise ValueError("qubit count must be at least 1")
        terms = tuple(EnsembleTerm(float(p), tuple(v), str(lab)) for p, v, lab in self.terms)
        # each test is written so that a NaN fails it; the upper bound also keeps
        # the exact sum below from overflowing
        for p, vectors, _ in terms:
            if not -1e-15 <= p <= 1.0 + 1e-14:
                raise ValueError(f"probability {p} lies outside [0, 1]")
            if len(vectors) != self.qubits:
                raise ValueError(f"term has {len(vectors)} vectors, expected {self.qubits}")
        _require_ensemble(len(terms), self.qubits)
        count = 3 * len(terms) * self.qubits
        # an exactly rounded sum, so thousands of terms do not drift past the tolerance
        total = math.fsum(p for p, _, _ in terms)
        flat = [v for _, term_vectors, _ in terms for v in term_vectors]
        for v in flat:
            if len(v) != 3:
                raise ValueError(f"expected a Bloch vector of three components, got {v!r}")
        # fromiter over the components: np.array over the vector tuples is ten times slower
        vectors = _require_unit(np.fromiter(itertools.chain.from_iterable(flat), float, count))
        if not abs(total - 1.0) <= 1e-14:
            raise ValueError(f"probabilities sum to {total!r}, not 1")
        vectors.setflags(write=False)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_vectors", vectors.reshape(len(terms), self.qubits, 3))

    def mixture(self) -> DenseOperator:
        """sum_t p_t P(n_t1) x ... x P(n_tN), through its Pauli tensor.

        P(n) = 2^-1 (1, n).sigma, so the mixture's Pauli tensor is
        sum_t p_t (1, n_t1) x ... x (1, n_tN).  With L the (T, 4^floor(N/2))
        row products over the first floor(N/2) qubits and R the
        (T, 4^ceil(N/2)) ones over the rest, that tensor is (p L)^T R, summed
        over blocks of terms whose L and R hold at most 2 MAX_ENTRIES reals,
        the byte budget; an ensemble of one block is one matrix product.
        """
        n, t = self.qubits, len(self.terms)
        # refused here, before the Pauli tensor of half the operator's bytes is built
        _require_qubits(n, "the mixture")
        rows = _pauli_rows(self._vectors.reshape(-1, 3)).reshape(t, n, 4)
        probabilities = np.array([[p] for p, _, _ in self.terms])
        block = max(1, 2 * MAX_ENTRIES // (4 ** (n // 2) + 4 ** (n - n // 2)))
        c = None
        for start in range(0, t, block):
            part = rows[start : start + block]
            lr = [probabilities[start : start + block], np.ones((len(part), 1))]  # p L and R
            for k in range(n):  # first qubit most significant
                side = int(k >= n // 2)
                lr[side] = (lr[side][:, :, None] * part[:, k, None, :]).reshape(len(part), -1)
            if c is None:
                c = lr[0].T @ lr[1]
            else:
                c += lr[0].T @ lr[1]
        return pauli_to_operator(PauliCoefficients(n, c.reshape((4,) * n)))

    def to_json(self) -> dict:
        return {
            "qubits": self.qubits,
            "terms": [
                {"probability": p, "vectors": [list(v) for v in vectors], "label": lab}
                for p, vectors, lab in self.terms
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "ProductEnsemble":
        _json_keys("ensemble JSON", data, ("qubits", "terms"))
        try:
            qubits = _json_number("qubit count", data["qubits"], int)
            terms = []
            for t in data["terms"]:
                _json_keys("ensemble term", t, ("probability", "vectors", "label"))
                terms.append((_json_number("probability", t["probability"]),
                              [_json_vector("vector", v) for v in t["vectors"]],
                              t.get("label", "")))
        except (KeyError, TypeError, IndexError) as exc:
            raise ValueError(f"malformed ensemble JSON: {exc}") from exc
        return cls(qubits, terms)


def cat_ensemble(n: int) -> ProductEnsemble:
    """The eps-cat state at eps_N = bound_duer(n), the sharp separability bound,
    as 2 + 4^(N-1) pure product terms on the cardinal6 vertices.

    Two pole terms, all +z and all -z, weigh eps_N/2 each and give the
    diagonal.  Every x/y string of _cat_strings(n) takes each sign pattern
    whose product is the string's sign, at weight eps_N/2^(N-1).  Over
    those patterns every lower-order correlation cancels, and the strings' own
    correlations sum to the cat coherence.  The weights sum to eps_N (1 + 2^(N-1)) = 1.
    """
    n = _json_number("qubit count", n, int)  # a Python int, so the count cannot wrap
    eps = bound_duer(n)
    count = 2 + 4 ** (n - 1)
    _require_entries(3 * count * n, "the cat ensemble on %s qubits (%s terms)", n, count)
    terms = [EnsembleTerm(eps / 2, (_axis(3, s),) * n, "poles") for s in (1, -1)]
    for axes, sign in _cat_strings(n):
        label = ",".join("xy"[a - 1] for a in axes)
        for signs in itertools.product((1, -1), repeat=n):
            if math.prod(signs) == sign:
                vectors = tuple(map(_axis, axes, signs))
                terms.append(EnsembleTerm(eps / 2 ** (n - 1), vectors, label))
    return ProductEnsemble(n, tuple(terms))


def dilute_with_mixed(e: ProductEnsemble, weight: float) -> ProductEnsemble:
    """Shrink an ensemble toward the maximally mixed state, which is itself a
    product mixture over +-z on every qubit; weight is the surviving share of e."""
    if not 0.0 <= weight <= 1.0:
        raise ValueError("weight must lie in [0, 1]")
    mixed = 2 ** int(e.qubits)
    _require_ensemble(len(e.terms) + mixed, e.qubits)
    terms = [EnsembleTerm(weight * p, vectors, lab) for p, vectors, lab in e.terms]
    share = (1.0 - weight) / mixed
    for signs in itertools.product((1, -1), repeat=e.qubits):
        vectors = tuple(_axis(3, s) for s in signs)
        terms.append(EnsembleTerm(share, vectors, "mixed"))
    return ProductEnsemble(e.qubits, tuple(terms))


def ensemble_to_table(e: ProductEnsemble, frames: Sequence[Frame]) -> CoefficientTable:
    """Express an ensemble as a nonnegative table over per-qubit frame indices.

    Every ensemble vector must coincide (within 1e-12) with a vertex of the
    corresponding qubit's frame, otherwise the mapping fails.
    """
    frames = _table_frames(frames, e.qubits)
    vectors = e._vectors
    idx = np.empty(vectors.shape[:2], dtype=int)
    off = np.empty(vectors.shape[:2], dtype=bool)
    for k, f in enumerate(frames):
        # (terms, vertices) distances of every term's vector to every vertex
        dist = np.linalg.norm(f.rows[None, :, 1:] - vectors[:, k, None, :], axis=2)
        idx[:, k] = np.argmin(dist, axis=1)
        off[:, k] = ~(dist.min(axis=1) <= 1e-12)
    if off.any():
        t, k = np.argwhere(off)[0]
        raise ValueError(
            f"ensemble vector {tuple(e.terms[t].vectors[k])} is not a vertex of qubit {k}'s frame"
        )
    weights = np.zeros(tuple(f.size for f in frames))
    # unbuffered, in term order: repeated indices add up like a term loop
    np.add.at(weights, tuple(idx.T), [p for p, _, _ in e.terms])
    return CoefficientTable._adopt(frames, weights)
