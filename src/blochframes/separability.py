"""Separability certificates and refutations.

A nonnegative coefficient table over product frames is a constructive proof
of separability: it exhibits the state as a convex mixture of pure product
states.  Refutations come from two independent routes, a correlation witness
evaluated on the Pauli coefficients and (for two qubits) the partial
transpose criterion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .operators import RECONSTRUCTION_TOL, SIGN_TOL, DenseOperator, _deviation, hermitian_eigenvalues
from .representations import CoefficientTable, PauliCoefficients, reconstruct_discrete


class CertificateError(ValueError):
    """The offered evidence does not describe the state it claims to."""


@dataclass(frozen=True)
class SeparabilityCertificate:
    representation: CoefficientTable | None
    minimum_coefficient: float
    reconstruction_error: float
    verdict: str  # "separable" | "undetermined"

    def to_json(self) -> dict:
        return {
            "minimum_coefficient": self.minimum_coefficient,
            "reconstruction_error": self.reconstruction_error,
            "verdict": self.verdict,
        }


def certify(
    rho: DenseOperator,
    representation,
    recon_tol: float = RECONSTRUCTION_TOL,
    coeff_tol: float = SIGN_TOL,
) -> SeparabilityCertificate:
    """Check a claimed product representation of rho and grade it.

    `representation` is a CoefficientTable or a ProductEnsemble
    (anything with .mixture() and a frame-indexed table is accepted via
    duck typing).  A representation that fails to reconstruct rho raises
    CertificateError; one that reconstructs it earns "separable" when all
    its weights clear -coeff_tol and "undetermined" otherwise, since a
    negative entry in one expansion never rules out a positive one elsewhere.
    """
    if hasattr(representation, "mixture"):
        recon = representation.mixture()
        table = None
    else:
        table = representation
        recon = reconstruct_discrete(table)
    err = _deviation(recon, rho)
    # written so that a NaN deviation fails too
    if not err <= recon_tol:
        raise CertificateError(
            f"representation reconstructs a different state (deviation {err:.3e})"
        )
    if table is None:
        minimum = min(p for p, _, _ in representation.terms)
    else:
        minimum = table.min_entry()
    verdict = "separable" if minimum >= -coeff_tol else "undetermined"
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
        return {
            "witness": self.witness,
            "value": self.value,
            "threshold": self.threshold,
            "verdict": self.verdict,
            "detail": self.detail,
        }


def _verdict(value: float, threshold: float) -> str:
    return "nonseparable" if value > threshold + SIGN_TOL else "inconclusive"


def witness_werner(c: PauliCoefficients) -> WitnessReport:
    """Sum of |c_jj| over the three axes; separable two-qubit states stay at
    or below 1, the eps-Werner family reaches 3 eps."""
    if c.qubits != 2:
        raise ValueError("witness_werner needs two-qubit coefficients")
    parts = {f"{j}{j}": float(c.coeffs[j, j]) for j in (1, 2, 3)}
    value = sum(abs(v) for v in parts.values())
    return WitnessReport(
        witness="werner",
        value=float(value),
        threshold=1.0,
        verdict=_verdict(value, 1.0),
        detail=parts,
    )


def witness_ghz(c: PauliCoefficients) -> WitnessReport:
    """|c_111 - c_122 - c_212 - c_221 + c_330| against threshold 1.

    Tuned to the eps-GHZ correlation pattern, where it evaluates to 5 eps;
    on states with a different correlation structure it stays valid but can
    be far from tight.
    """
    if c.qubits != 3:
        raise ValueError("witness_ghz needs three-qubit coefficients")
    parts = {
        "111": float(c.coeffs[1, 1, 1]),
        "122": float(c.coeffs[1, 2, 2]),
        "212": float(c.coeffs[2, 1, 2]),
        "221": float(c.coeffs[2, 2, 1]),
        "330": float(c.coeffs[3, 3, 0]),
    }
    value = abs(parts["111"] - parts["122"] - parts["212"] - parts["221"] + parts["330"])
    return WitnessReport(
        witness="ghz",
        value=float(value),
        threshold=1.0,
        verdict=_verdict(value, 1.0),
        detail=parts,
    )


# --- partial transpose -------------------------------------------------------


def partial_transpose(rho: DenseOperator, transposed_side: int = 1) -> np.ndarray:
    """Transpose one tensor factor of a two-qubit operator."""
    if rho.qubits != 2:
        raise ValueError("partial transpose is implemented for two qubits only")
    if transposed_side not in (0, 1):
        raise ValueError("transposed_side must be 0 or 1")
    t = rho.matrix.reshape(2, 2, 2, 2)
    if transposed_side == 1:
        t = t.transpose(0, 3, 2, 1)
    else:
        t = t.transpose(2, 1, 0, 3)
    return t.reshape(4, 4)


def ppt_min_eigenvalue(rho: DenseOperator, transposed_side: int = 1) -> float:
    """Smallest eigenvalue of the partial transpose; negative refutes
    separability, and for two qubits nonnegative confirms it."""
    pt = partial_transpose(rho, transposed_side)
    return float(hermitian_eigenvalues(DenseOperator(pt, 2, hermitian=True))[0])
