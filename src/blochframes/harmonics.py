"""Spherical-harmonic form of the canonical expansion function.

Over each sphere the canonical expansion function only contains harmonics of
degree l <= 1, and that block is uniquely fixed by the density operator.  Any
term with some l >= 2 (a HOSH term, higher-order spherical harmonic) can be
added freely: it changes the expansion function but integrates to zero
against every projector, so the represented operator stays put.

The l <= 1 block is stored as the Pauli tensor, so PauliCoefficients.node_values
evaluates it and its harmonic coefficients are derived on request; only the
HOSH terms go through sph_y and scipy.special.

Phase convention is Condon-Shortley, e.g. Y_1^{+1} = -sqrt(3/8pi) sin(theta) e^{i phi}.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .operators import _Frozen
from .representations import FOUR_PI, PauliCoefficients, _mode_contract

HoshKey = tuple[tuple[int, int], ...]
HoshTerm = tuple[HoshKey, complex]

# change of basis from (1, sigma_1, sigma_2, sigma_3) to the operator
# harmonics sqrt(4pi) 1, -+ sqrt(2pi/3)(sigma_1 +- i sigma_2), sqrt(4pi/3) sigma_3
_S = math.sqrt(3.0 / (2.0 * math.pi))
_PAULI_TO_SPH = np.array(
    [
        [1.0 / math.sqrt(FOUR_PI), 0.0, 0.0, 0.0],
        [0.0, _S / 2.0, 0.0, -_S / 2.0],
        [0.0, 1j * _S / 2.0, 0.0, 1j * _S / 2.0],
        [0.0, 0.0, math.sqrt(3.0 / FOUR_PI), 0.0],
    ],
    dtype=complex,
)


def sph_y(l, m, theta, phi) -> np.ndarray:
    """Spherical harmonic Y_l^m at polar angle theta, azimuth phi.

    All four arguments broadcast against each other.
    """
    if np.any(np.abs(m) > l):
        ls, ms = (a.ravel() for a in np.broadcast_arrays(l, m))
        i = np.flatnonzero(np.abs(ms) > ls)[0]
        raise ValueError(f"|m| = {abs(ms[i])} exceeds l = {ls[i]}")
    # imported here: scipy.special dominates the package's import time
    from scipy.special import sph_harm_y

    return sph_harm_y(l, m, np.asarray(theta), np.asarray(phi))


def _node_angles(nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    nodes = np.asarray(nodes, dtype=float)
    return np.arccos(np.clip(nodes[:, 2], -1.0, 1.0)), np.arctan2(nodes[:, 1], nodes[:, 0])


@dataclass(frozen=True, eq=False)
class SphCoefficients(_Frozen):
    """Spherical-harmonic coefficients of one expansion function.

    pauli is the canonical (l <= 1) part as a Pauli tensor.  hosh is a sparse
    list of extra terms keyed by ((l_1, m_1), ..., (l_N, m_N)).  Every term
    must contain at least one factor with l >= 2 (an all-l<=1 term would alter
    the represented operator and is rejected), and the merged terms must come
    in conjugate m-mirror pairs so the expansion function stays real:
    coeff(l, -m) = (-1)^(sum m) conj(coeff(l, m)).  Every coefficient must be
    finite.  Equal keys are merged and zero terms dropped.
    """

    pauli: PauliCoefficients
    hosh: tuple[HoshTerm, ...] = ()

    def __post_init__(self) -> None:
        merged: dict[HoshKey, complex] = {}
        for key, coeff in self.hosh:
            key = tuple((int(l), int(m)) for l, m in key)
            if len(key) != self.qubits:
                raise ValueError(f"term {key} does not address {self.qubits} qubits")
            for l, m in key:
                if l < 0 or abs(m) > l:
                    raise ValueError(f"invalid harmonic index (l={l}, m={m})")
            if max(l for l, _m in key) < 2:
                raise ValueError(f"term {key} has all l <= 1 and would change the operator")
            merged[key] = merged.get(key, 0j) + complex(coeff)
            # before numpy sees it: a NaN would pass the pairing check below
            if not cmath.isfinite(merged[key]):
                raise ValueError(f"term {key} has a non-finite coefficient {merged[key]}")
        for key, coeff in merged.items():
            partner = merged.get(_mirror(key), 0j)
            expected = _mirror_parity(key) * coeff.conjugate()
            # |gap| > 1e-12 max(1, |coeff|), quartered (exactly) so that abs()
            # of a finite complex cannot overflow
            gap = partner / 4 - expected / 4
            if abs(gap) > 1e-12 * max(0.25, abs(coeff / 4)):
                raise ValueError(
                    f"term {key} breaks the reality pairing: mirror coefficient is {partner}, "
                    f"needs {expected}"
                )
        object.__setattr__(self, "hosh", tuple((k, v) for k, v in merged.items() if v != 0))

    @property
    def qubits(self) -> int:
        return self.pauli.qubits

    @functools.cached_property
    def canonical(self) -> np.ndarray:
        """The dense l <= 1 block, read-only, with per-qubit columns (l, m) = (0, 0),
        (1, -1), (1, 0), (1, 1)."""
        mats = [np.ascontiguousarray(_PAULI_TO_SPH.T)] * self.qubits
        block = _mode_contract(self.pauli.coeffs.astype(complex), mats)
        block.setflags(write=False)
        return block

    @property
    def quadrature_degrees(self) -> tuple[int, ...]:
        """Quadrature degree needed per sphere to integrate w times a projector."""
        degrees = [2] * self.qubits
        for key, _ in self.hosh:
            for k, (l, _m) in enumerate(key):
                degrees[k] = max(degrees[k], l + 1)
        return tuple(degrees)

    def node_values(self, nodes_per_qubit: Sequence[np.ndarray]) -> np.ndarray:
        """Evaluate the expansion function on a product grid of sphere points."""
        total = self.pauli.node_values(nodes_per_qubit)
        angles = [_node_angles(nodes) for nodes in nodes_per_qubit]
        # a scalar start: with no HOSH terms no zero table is built, and adding
        # 0.0 turns -0.0 into +0.0 just as adding a zero table did
        extra = 0.0
        for key, coeff in self.hosh:
            term = np.array(coeff)
            for (l, mm), (theta, phi) in zip(key, angles):
                term = np.multiply.outer(term, sph_y(l, mm, theta, phi))
            extra += term
        # the mirror pairing makes the sum real up to rounding
        total += extra.real
        return total


def sph_coefficients(c: PauliCoefficients) -> SphCoefficients:
    """The unique l <= 1 spherical-harmonic coefficients of the canonical
    expansion function of c, with no HOSH terms."""
    return SphCoefficients(c)


def _mirror(key: HoshKey) -> HoshKey:
    return tuple((l, -m) for l, m in key)


def _mirror_parity(key: HoshKey) -> float:
    return (-1.0) ** sum(m for _l, m in key)


def add_hosh(
    base: SphCoefficients, extra: Mapping[HoshKey, complex] | Iterable[HoshTerm]
) -> SphCoefficients:
    """Add higher-order terms to an expansion function without changing rho.

    `extra` maps keys ((l, m) per qubit) to coefficients, or lists such
    pairs; the terms must meet SphCoefficients' checks together with base's.
    """
    items = extra.items() if isinstance(extra, Mapping) else extra
    return SphCoefficients(base.pauli, (*base.hosh, *items))
