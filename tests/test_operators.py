import math

import numpy as np
import pytest

from blochframes import (
    BlochVector,
    DenseOperator,
    EnsembleTerm,
    ProductEnsemble,
    StateSpec,
    bloch_projector,
    build_state,
    continuous_dual,
    dual_frame,
    frame_check,
    hermitian_eigenvalues,
    pauli,
    pauli_coefficients,
    polyhedron_vectors,
    reflect_octant,
    sigma_stack,
    tensor,
    trace_inner,
    validate_density,
    wcan_continuous,
)
from blochframes.operators import DEFAULT_VALIDATION_TOL
from conftest import random_density, random_hermitian


def test_pauli_algebra():
    s1, s2, s3 = pauli(1).matrix, pauli(2).matrix, pauli(3).matrix
    assert np.allclose(s1 @ s2, 1j * s3)
    assert np.allclose(s2 @ s3, 1j * s1)
    assert np.allclose(s3 @ s1, 1j * s2)
    for j in range(4):
        assert np.allclose(pauli(j).matrix @ pauli(j).matrix, np.eye(2))


def test_sigma_stack_matches_pauli():
    stack = sigma_stack()
    assert stack.shape == (4, 2, 2)
    for j in range(4):
        assert np.array_equal(stack[j], pauli(j).matrix)


def test_pauli_index_out_of_range():
    with pytest.raises(ValueError):
        pauli(4)
    with pytest.raises(ValueError):
        pauli(-1)


def test_bloch_vector_spherical_roundtrip(rng):
    for _ in range(50):
        theta = rng.uniform(0.01, math.pi - 0.01)
        phi = rng.uniform(0, 2 * math.pi)
        v = BlochVector.from_spherical(theta, phi)
        assert abs(v.norm() - 1.0) < 1e-14
        t2, p2 = v.angles()
        assert abs(t2 - theta) < 1e-12
        assert abs(p2 - phi) < 1e-12


def test_bloch_projector_is_rank_one_projector(rng):
    for _ in range(20):
        raw = rng.normal(size=3)
        v = BlochVector.from_array(raw / np.linalg.norm(raw))
        p = bloch_projector(v)
        m = p.matrix
        assert np.allclose(m, m.conj().T)
        assert np.allclose(m @ m, m, atol=1e-14)
        assert abs(np.trace(m) - 1.0) < 1e-14
        # expectation of sigma recovers the vector
        back = [np.trace(m @ pauli(j).matrix).real for j in (1, 2, 3)]
        assert np.allclose(back, list(v), atol=1e-14)


def test_bloch_projector_rejects_non_unit():
    with pytest.raises(ValueError):
        bloch_projector(BlochVector(0.5, 0.0, 0.0))


def test_cardinal_projectors():
    plus_z = bloch_projector(BlochVector(0.0, 0.0, 1.0))
    assert np.allclose(plus_z.matrix, np.diag([1.0, 0.0]))
    plus_x = bloch_projector(BlochVector(1.0, 0.0, 0.0))
    assert np.allclose(plus_x.matrix, np.full((2, 2), 0.5))


def test_tensor_product_order():
    zero = DenseOperator(np.diag([1.0, 0.0]), 1, hermitian=True)
    one = DenseOperator(np.diag([0.0, 1.0]), 1, hermitian=True)
    zo = tensor([zero, one])
    assert zo.qubits == 2
    # |0><0| x |1><1| puts weight on basis state |01> = index 1
    assert np.allclose(zo.matrix, np.diag([0.0, 1.0, 0.0, 0.0]))


def test_trace_inner_conjugate_linearity(rng):
    a = random_hermitian(rng, 1)
    b = random_hermitian(rng, 1)
    assert abs(trace_inner(a, b) - np.trace(a.matrix.conj().T @ b.matrix)) < 1e-12
    assert abs(trace_inner(a, b) - np.conj(trace_inner(b, a))) < 1e-12


def test_hermitian_eigenvalues_sorted(rng):
    h = random_hermitian(rng, 2)
    evs = hermitian_eigenvalues(h)
    assert np.all(np.diff(evs) >= 0)
    assert np.allclose(sorted(np.linalg.eigvalsh(h.matrix)), evs)


def test_dense_operator_validation():
    with pytest.raises(ValueError):
        DenseOperator(np.eye(3), 1)
    with pytest.raises(ValueError):
        DenseOperator(np.eye(4), 1)
    with pytest.raises(ValueError):
        DenseOperator(np.array([[0.0, 1.0], [0.0, 0.0]]), 1, hermitian=True)
    with pytest.raises(ValueError, match=r"must be square, got shape \(2, 4\)"):
        DenseOperator(np.ones((2, 4)), 1)
    with pytest.raises(ValueError, match="must be square"):
        DenseOperator(np.ones(4), 2)
    with pytest.raises(ValueError, match="qubit count must be at least 1"):
        DenseOperator(np.eye(1), 0)
    with pytest.raises(ValueError, match="tensor requires at least one factor"):
        tensor([])
    with pytest.raises(ValueError, match="dimension mismatch: 2 vs 4"):
        trace_inner(pauli(0), DenseOperator(np.eye(4), 2))


def test_dense_operator_matrix_write_protected():
    op = DenseOperator(np.eye(2), 1, hermitian=True)
    with pytest.raises((ValueError, RuntimeError)):
        op.matrix[0, 0] = 5.0


def test_validate_density(rng):
    rho = random_density(rng, 2)
    check = validate_density(rho)
    assert check.passed
    assert check.min_eigenvalue > 0

    not_normalized = DenseOperator(2 * rho.matrix, 2, hermitian=True)
    check = validate_density(not_normalized)
    assert not check.passed
    assert "trace" in check.reason

    indefinite = DenseOperator(np.diag([1.5, -0.5, 0.0, 0.0]), 2, hermitian=True)
    check = validate_density(indefinite)
    assert not check.passed
    assert check.min_eigenvalue < 0


def test_nan_entries_fail_every_check():
    m = np.diag([math.nan, 0.25, 0.25, 0.25])
    with pytest.raises(ValueError, match="flagged Hermitian"):
        DenseOperator(m, 2, hermitian=True)
    op = DenseOperator(m, 2)
    check = validate_density(op)
    assert not check.passed
    assert check.reason == "non-finite entries"
    assert math.isnan(check.min_eigenvalue)
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eigenvalues(op)
    inf = DenseOperator(np.diag([math.inf, 0.25, 0.25, 0.25]), 2)
    assert validate_density(inf).reason == "non-finite entries"


_NORTH = BlochVector(0.0, 0.0, 1.0)
_UNIT_CHECK_SITES = {
    "bloch_projector": bloch_projector,
    "dual_frame": lambda v: dual_frame([v] + list(polyhedron_vectors("tetrahedron"))),
    "frame_check": lambda v: frame_check([v] + list(polyhedron_vectors("octahedron"))),
    "continuous_dual": continuous_dual,
    "reflect_octant": reflect_octant,
    "ProductEnsemble": lambda v: ProductEnsemble(2, (EnsembleTerm(1.0, (v, _NORTH)),)),
    "wcan_continuous": lambda v: wcan_continuous(
        pauli_coefficients(DenseOperator(np.eye(4) / 4, 2, hermitian=True)), [v, _NORTH]
    ),
}


@pytest.mark.parametrize("site", sorted(_UNIT_CHECK_SITES))
@pytest.mark.parametrize(
    "v", [BlochVector(math.nan, 0.5, 0.5), BlochVector(0.5, 1.0, 1.0)], ids=["nan", "norm1.5"]
)
def test_every_site_rejects_non_unit_vectors(site, v):
    # every component is positive, so reflect_octant's octant check cannot fire first
    with pytest.raises(ValueError, match="unit Bloch vector"):
        _UNIT_CHECK_SITES[site](v)


def _skewed_ghz(scale: float) -> np.ndarray:
    """eps_ghz at 0.2 plus an anti-Hermitian i delta at (0, 7) and (7, 0), so that
    max |A - A^dag| = scale * DEFAULT_VALIDATION_TOL exactly."""
    m = np.array(build_state(StateSpec("eps_ghz", epsilon=0.2)).matrix)
    m[0, 7] += 0.5j * scale * DEFAULT_VALIDATION_TOL
    m[7, 0] += 0.5j * scale * DEFAULT_VALIDATION_TOL
    return m


# each returns False or raises where it refuses the matrix as not Hermitian
_HERMITICITY_SITES = {
    "validate_density": lambda m: validate_density(DenseOperator(m, 3)).passed,
    "DenseOperator": lambda m: DenseOperator(m, 3, hermitian=True),
    "hermitian_eigenvalues": lambda m: hermitian_eigenvalues(DenseOperator(m, 3)),
    "pauli_coefficients": lambda m: pauli_coefficients(DenseOperator(m, 3)),
}


@pytest.mark.parametrize("site", sorted(_HERMITICITY_SITES))
# off the boundary itself, where rounding would decide
@pytest.mark.parametrize("scale", [0.4, 2.0], ids=["0.4tol", "2tol"])
def test_every_site_applies_one_hermiticity_rule(site, scale):
    m = _skewed_ghz(scale)
    assert np.abs(m - m.conj().T).max() == scale * DEFAULT_VALIDATION_TOL
    try:
        accepted = _HERMITICITY_SITES[site](m) is not False
    except ValueError as exc:
        assert "Hermitian" in str(exc)
        accepted = False
    assert accepted == (scale < 1.0)


def test_flagged_operator_is_stored_exactly_hermitian():
    skewed = DenseOperator(_skewed_ghz(0.4), 3, hermitian=True).matrix
    assert np.array_equal(skewed, skewed.conj().T)
    exact = _skewed_ghz(0.0)
    assert DenseOperator(exact, 3, hermitian=True).matrix.tobytes() == exact.tobytes()
    assert hermitian_eigenvalues(DenseOperator(_skewed_ghz(0.8), 3))[0] == pytest.approx(0.1)


def test_the_size_rule_reads_numpy_qubit_counts_as_python_ints():
    from blochframes.operators import _require_qubits

    # 4 ** 40 in int64 and 4 ** 31 in int32 wrap to sizes that would pass
    for n in (np.int64(40), np.int32(31)):
        with pytest.raises(ValueError) as err:
            _require_qubits(n, "x")
        with pytest.raises(ValueError) as python_int:
            _require_qubits(int(n), "x")
        assert str(err.value) == str(python_int.value) == (
            f"x on {int(n)} qubits (4^{int(n)} entries) is above the limit of 1048576 entries"
        )
    _require_qubits(np.int64(3), "x")
