"""Separability certificates and refutations.

A nonnegative coefficient table over product frames is a constructive proof
of separability: it exhibits the state as a convex mixture of pure product
states.  Refutations come from two independent routes, a correlation witness
evaluated on the Pauli coefficients and (for two qubits) the partial
transpose criterion.  witness_ghz reads the x/y strings cat_ensemble is built
from, and refutes the eps-cat family above the sharp bound eps_N at every N >= 3.
certify grades with the fixed RECONSTRUCTION_TOL and SIGN_TOL; a witness takes
its slack as tol, SIGN_TOL unless a caller such as the CLI's --tol sets another.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .operators import RECONSTRUCTION_TOL, SIGN_TOL, DenseOperator, _hermitian
from .representations import CoefficientTable, PauliCoefficients, _deviation, reconstruct_discrete
from .states import _cat_strings


class CertificateError(ValueError):
    """The offered evidence does not describe the state it claims to."""


@dataclass(frozen=True)
class SeparabilityCertificate:
    representation: CoefficientTable | None
    minimum_coefficient: float
    reconstruction_error: float
    verdict: str  # "separable" | "undetermined"


def certify(rho: DenseOperator, representation) -> SeparabilityCertificate:
    """Check a claimed product representation of rho and grade it.

    `representation` is a CoefficientTable or a ProductEnsemble
    (anything with .mixture() and a frame-indexed table is accepted via
    duck typing).  A representation that fails to reconstruct rho within
    RECONSTRUCTION_TOL raises CertificateError; one that reconstructs it earns
    "separable" when all its weights clear -SIGN_TOL and "undetermined"
    otherwise, since a negative entry in one expansion never rules out a
    positive one elsewhere.
    """
    if hasattr(representation, "mixture"):
        table, recon = None, representation.mixture()
        minimum = min(p for p, _, _ in representation.terms)
    else:
        table, recon = representation, reconstruct_discrete(representation)
        minimum = table.min_entry()
    err = _deviation(recon, rho)
    # written so that a NaN deviation fails too
    if not err <= RECONSTRUCTION_TOL:
        raise CertificateError(
            f"representation reconstructs a different state (deviation {err:.3e})"
        )
    verdict = "separable" if minimum >= -SIGN_TOL else "undetermined"
    return SeparabilityCertificate(
        representation=table,
        minimum_coefficient=float(minimum),
        reconstruction_error=err,
        verdict=verdict,
    )


# --- correlation witnesses ---------------------------------------------------


@dataclass(frozen=True)
class WitnessReport:
    witness: str
    value: float
    threshold: float
    verdict: str  # "nonseparable" | "inconclusive"
    detail: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        # not dataclasses.asdict, which deep-copies detail
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _report(witness: str, value: float, detail: dict, tol: float) -> WitnessReport:
    """Grade a witness value against 1, the most any separable state reaches,
    with tol of slack."""
    verdict = "nonseparable" if value > 1.0 + tol else "inconclusive"
    return WitnessReport(witness, float(value), 1.0, verdict, detail)


def witness_werner(c: PauliCoefficients, tol: float = SIGN_TOL) -> WitnessReport:
    """Sum of |c_jj| over the three axes; separable two-qubit states stay at
    or below 1, the eps-Werner family reaches 3 eps.  "nonseparable" needs a
    value above 1 + tol."""
    if c.qubits != 2:
        raise ValueError("witness_werner needs two-qubit coefficients")
    parts = {f"{j}{j}": float(c.coeffs[j, j]) for j in (1, 2, 3)}
    return _report("werner", sum(abs(v) for v in parts.values()), parts, tol)


def witness_ghz(c: PauliCoefficients, tol: float = SIGN_TOL) -> WitnessReport:
    """|sum_s sign_s c_s + c_330...0| over the cat strings (s, sign_s) of
    states._cat_strings, against 1; at N = 3, |c_111 - c_122 - c_212 - c_221 + c_330|.

    Separable states stay at or below 1.  For a product state c_a = prod_k
    (1, n_k)[a_k], so the string sum is Re prod_k (x_k + i y_k), at most
    sin t_1 sin t_2 in absolute value (t_k the polar angle of n_k), while
    c_330...0 = cos t_1 cos t_2: by Cauchy-Schwarz |value| <= 1, and by
    convexity so on every mixture.  The eps-cat family reaches (1 + 2^(N-1))
    eps, past 1 exactly above eps_N = bound_duer(N).  On other correlation
    structures it stays valid but can be far from tight.  "nonseparable" needs
    a value above 1 + tol.
    """
    n = c.qubits
    if n < 3:
        raise ValueError("witness_ghz needs at least three-qubit coefficients")
    terms = [*_cat_strings(n), ((3, 3) + (0,) * (n - 2), 1)]
    detail = {"".join(map(str, axes)): float(c.coeffs[axes]) for axes, _ in terms}
    # left to right, then the zz term: at N = 3 bit for bit the formula above
    value = abs(sum(sign * v for (_, sign), v in zip(terms, detail.values())))
    return _report("ghz", value, detail, tol)


# --- partial transpose -------------------------------------------------------


def partial_transpose(rho: DenseOperator, transposed_side: int = 1) -> np.ndarray:
    """Transpose one tensor factor of a two-qubit operator."""
    if rho.qubits != 2:
        raise ValueError("partial transpose is implemented for two qubits only")
    if transposed_side not in (0, 1):
        raise ValueError("transposed_side must be 0 or 1")
    t = rho.matrix.reshape(2, 2, 2, 2)  # (row 0, row 1, column 0, column 1)
    return t.swapaxes(transposed_side, 2 + transposed_side).reshape(4, 4)


def ppt_min_eigenvalue(rho: DenseOperator) -> float:
    """Smallest eigenvalue of the partial transpose; negative refutes
    separability, and for two qubits nonnegative confirms it.  Both sides
    have one spectrum, so the second qubit is transposed."""
    return float(np.linalg.eigvalsh(_hermitian(partial_transpose(rho, 1)))[0])
