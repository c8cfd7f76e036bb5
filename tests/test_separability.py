import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blochframes import (
    BlochVector,
    CertificateError,
    DenseOperator,
    EnsembleTerm,
    PauliCoefficients,
    ProductEnsemble,
    StateSpec,
    build_frame,
    bound_duer,
    build_state,
    cat_ensemble,
    certify,
    ensemble_to_table,
    partial_transpose,
    pauli_coefficients,
    ppt_min_eigenvalue,
    wcan_discrete,
    witness_ghz,
    witness_werner,
)
from conftest import random_density


def test_certify_werner_ensemble_table():
    target = build_state(StateSpec("werner", epsilon=1 / 3))
    table = ensemble_to_table(cat_ensemble(2), [build_frame("cardinal6")] * 2)
    cert = certify(target, table)
    assert cert.verdict == "separable"
    assert cert.minimum_coefficient >= 0
    assert cert.reconstruction_error < 1e-10


def test_certify_ghz_ensemble_direct():
    target = build_state(StateSpec("eps_ghz", epsilon=1 / 5))
    cert = certify(target, cat_ensemble(3))
    assert cert.verdict == "separable"
    assert cert.representation is None


@pytest.mark.parametrize("n", range(2, 9))
def test_certify_cat_ensemble_at_the_sharp_bound(n):
    target = build_state(StateSpec("eps_cat", qubits=n, epsilon=bound_duer(n)))
    e = cat_ensemble(n)
    table = ensemble_to_table(e, [build_frame("cardinal6")] * n)
    assert table.min_entry() >= 0
    for representation in (e, table):
        assert certify(target, representation).verdict == "separable"


def test_certify_undetermined_on_negative_canonical_table():
    # below the ensemble threshold the state is separable, yet the canonical
    # table still carries negative entries: the verdict must stay undetermined
    rho = build_state(StateSpec("eps_ghz", epsilon=0.15))
    table = wcan_discrete(rho, [build_frame("cardinal6")] * 3)
    cert = certify(rho, table)
    assert table.min_entry() < 0
    assert cert.verdict == "undetermined"


def test_certify_separable_on_nonnegative_canonical_table():
    rho = build_state(StateSpec("eps_cat", qubits=3, epsilon=1 / 33))
    table = wcan_discrete(rho, [build_frame("cardinal6")] * 3)
    cert = certify(rho, table)
    assert cert.verdict == "separable"


def test_certify_rejects_wrong_state():
    rho = build_state(StateSpec("werner", epsilon=0.5))
    table = wcan_discrete(
        build_state(StateSpec("werner", epsilon=0.2)), [build_frame("cardinal6")] * 2
    )
    with pytest.raises(CertificateError):
        certify(rho, table)


def test_certify_refuses_a_representation_on_other_qubits():
    # refused by the deviation rule before the two operators are subtracted
    target = build_state(StateSpec("eps_cat", qubits=3, epsilon=0.1))
    e = cat_ensemble(2)
    for representation in (e, ensemble_to_table(e, [build_frame("cardinal6")] * 2)):
        with pytest.raises(ValueError) as err:
            certify(target, representation)
        assert str(err.value) == "representation acts on 2 qubits, target on 3"


@pytest.mark.parametrize("n", [2, 3, 4])
def test_certify_forms_no_matrix(monkeypatch, n):
    """certify grades on Pauli tensors, so neither a mixture nor a family state
    forms its matrix (PauliCoefficients._matrix is the one route to one)."""
    calls = []
    form = PauliCoefficients._matrix
    monkeypatch.setattr(PauliCoefficients, "_matrix", lambda self: calls.append(self) or form(self))
    e = cat_ensemble(n)
    certify(e.mixture(), ensemble_to_table(e, [build_frame("cardinal6")] * n))
    certify(build_state(StateSpec("eps_cat", n, bound_duer(n))), cat_ensemble(n))
    assert calls == []


def test_certify_rejects_nan_state():
    m = np.eye(4) / 4
    m[0, 0] = math.nan
    rho = DenseOperator(m, 2)
    table = ensemble_to_table(cat_ensemble(2), [build_frame("cardinal6")] * 2)
    for representation in (cat_ensemble(2), table):
        with pytest.raises(CertificateError):
            certify(rho, representation)


def test_witness_werner_values():
    for eps, value, verdict in (
        (0.5, 1.5, "nonseparable"),
        (1 / 3, 1.0, "inconclusive"),
        (0.0, 0.0, "inconclusive"),
    ):
        c = pauli_coefficients(build_state(StateSpec("werner", epsilon=eps)))
        rep = witness_werner(c)
        assert abs(rep.value - value) < 1e-12
        assert rep.verdict == verdict
        assert rep.threshold == 1.0


def test_witness_ghz_values():
    for eps, value, verdict in (
        (0.3, 1.5, "nonseparable"),
        (0.2, 1.0, "inconclusive"),
        (0.0, 0.0, "inconclusive"),
    ):
        c = pauli_coefficients(build_state(StateSpec("eps_ghz", epsilon=eps)))
        rep = witness_ghz(c)
        assert abs(rep.value - value) < 1e-12
        assert rep.verdict == verdict
    # eps-cat reaches (1 + 2^(N-1)) eps, passing 1 exactly where cat_ensemble(n)
    # stops certifying
    for n in range(3, 9):
        for factor, verdict in ((1.0, "inconclusive"), (1.001, "nonseparable")):
            eps = factor * bound_duer(n)
            c = pauli_coefficients(build_state(StateSpec("eps_cat", qubits=n, epsilon=eps)))
            rep = witness_ghz(c)
            assert abs(rep.value - (1 + 2 ** (n - 1)) * eps) < 1e-12
            assert rep.verdict == verdict, (n, factor)
            assert len(rep.detail) == 2 ** (n - 1) + 1


def test_witness_ghz_three_qubit_formula_is_exact(rng):
    for _ in range(20):
        c = pauli_coefficients(random_density(rng, 3))
        rep = witness_ghz(c)
        c111, c122, c212, c221, c330 = (
            float(c.coeffs[a]) for a in ((1, 1, 1), (1, 2, 2), (2, 1, 2), (2, 2, 1), (3, 3, 0))
        )
        assert rep.value == abs(c111 - c122 - c212 - c221 + c330)
        assert list(rep.detail.items()) == [
            ("111", c111), ("122", c122), ("212", c212), ("221", c221), ("330", c330)
        ]


def test_witness_qubit_count_guards(rng):
    c3 = pauli_coefficients(random_density(rng, 3))
    with pytest.raises(ValueError):
        witness_werner(c3)
    c2 = pauli_coefficients(random_density(rng, 2))
    with pytest.raises(ValueError):
        witness_ghz(c2)


def test_witness_report_json():
    c = pauli_coefficients(build_state(StateSpec("werner", epsilon=0.5)))
    data = witness_werner(c).to_json()
    assert list(data) == ["witness", "value", "threshold", "verdict", "detail"]
    assert data["witness"] == "werner"
    assert data["verdict"] == "nonseparable"
    assert set(data["detail"]) == {"11", "22", "33"}


def test_witness_flip_points():
    # bisect each witness verdict flip and pin it to the closed-form thresholds
    def flips(make_report, lo, hi, tol=1e-10):
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if make_report(mid).verdict == "nonseparable":
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    def werner_report(eps):
        return witness_werner(pauli_coefficients(build_state(StateSpec("werner", epsilon=eps))))

    def ghz_report(eps):
        return witness_ghz(pauli_coefficients(build_state(StateSpec("eps_ghz", epsilon=eps))))

    assert abs(flips(werner_report, 0.0, 1.0) - 1 / 3) < 1e-9
    assert abs(flips(ghz_report, 0.0, 1.0) - 1 / 5) < 1e-9


def test_partial_transpose_explicit():
    m = np.arange(16, dtype=float).reshape(4, 4)
    op = DenseOperator(m, 2)
    pt1 = partial_transpose(op, 1)
    expected1 = np.array(
        [[0, 4, 2, 6], [1, 5, 3, 7], [8, 12, 10, 14], [9, 13, 11, 15]], dtype=float
    )
    assert np.array_equal(pt1, expected1)
    pt0 = partial_transpose(op, 0)
    expected0 = np.array(
        [[0, 1, 8, 9], [4, 5, 12, 13], [2, 3, 10, 11], [6, 7, 14, 15]], dtype=float
    )
    assert np.array_equal(pt0, expected0)


def test_partial_transpose_guards(rng):
    with pytest.raises(ValueError):
        partial_transpose(random_density(rng, 1), 1)
    with pytest.raises(ValueError):
        partial_transpose(random_density(rng, 2), 2)


def test_ppt_werner_closed_form():
    for eps in np.arange(0.0, 1.0001, 0.1):
        rho = build_state(StateSpec("werner", epsilon=float(eps)))
        assert abs(ppt_min_eigenvalue(rho) - (1 - 3 * eps) / 4) < 1e-12


def test_ppt_simple_states(rng):
    mixed = build_state(StateSpec("maximally_mixed", qubits=2))
    assert abs(ppt_min_eigenvalue(mixed) - 0.25) < 1e-14
    product = DenseOperator(np.diag([1.0, 0, 0, 0]), 2, hermitian=True)
    assert abs(ppt_min_eigenvalue(product)) < 1e-14
    # both sides give the same spectrum
    rho = random_density(rng, 2)
    spectra = [np.linalg.eigvalsh(partial_transpose(rho, side)) for side in (0, 1)]
    assert np.allclose(spectra[0], spectra[1], rtol=0.0, atol=1e-12)


def test_soundness_werner_sweep():
    # certify never says separable where PPT or the witness refutes it
    frames = [build_frame("cardinal6")] * 2
    for eps in np.arange(0.0, 1.0001, 0.01):
        rho = build_state(StateSpec("werner", epsilon=float(eps)))
        refuted = ppt_min_eigenvalue(rho) < -1e-12
        refuted |= witness_werner(pauli_coefficients(rho)).verdict == "nonseparable"
        cert = certify(rho, wcan_discrete(rho, frames))
        if refuted:
            assert cert.verdict != "separable", eps
        if cert.verdict == "separable":
            assert cert.minimum_coefficient >= -1e-12
            assert cert.reconstruction_error < 1e-10


def test_soundness_ghz_sweep():
    frames = [build_frame("cardinal6")] * 3
    for eps in np.arange(0.0, 1.0001, 0.01):
        rho = build_state(StateSpec("eps_ghz", epsilon=float(eps)))
        refuted = witness_ghz(pauli_coefficients(rho)).verdict == "nonseparable"
        cert = certify(rho, wcan_discrete(rho, frames))
        if refuted:
            assert cert.verdict != "separable", eps


_direction = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: math.hypot(*v) > 0.1)


@st.composite
def _product_ensembles(draw):
    """Random product ensembles on 2 to 4 qubits with 4 to 8 terms."""
    n = draw(st.sampled_from((2, 3, 4)))
    terms = draw(st.integers(4, 8))
    raw = draw(st.lists(st.floats(0.1, 1.0), min_size=terms, max_size=terms))
    probs = np.array(raw) / sum(raw)
    probs[-1] = 1.0 - probs[:-1].sum()
    vectors = []
    for _ in range(n):
        vs = np.array(draw(st.lists(_direction, min_size=terms, max_size=terms)))
        vs /= np.linalg.norm(vs, axis=1, keepdims=True)
        # the qubit's own directions must span the operator space comfortably
        a = np.hstack([np.ones((terms, 1)), vs])
        assume(np.linalg.svd(a, compute_uv=False)[-1] >= 0.1)
        vectors.append(vs)
    return ProductEnsemble(n, tuple(
        EnsembleTerm(float(p), tuple(BlochVector.from_array(vectors[k][t]) for k in range(n)))
        for t, p in enumerate(probs)))


@settings(max_examples=40, deadline=None)
@given(_product_ensembles())
def test_random_product_ensembles_certify_and_pass_every_test(e):
    n = e.qubits
    frames = [build_frame("custom", [t.vectors[k] for t in e.terms]) for k in range(n)]
    rho = e.mixture()
    cert = certify(rho, ensemble_to_table(e, frames))
    assert cert.verdict == "separable"
    assert cert.reconstruction_error <= 1e-10
    c = pauli_coefficients(rho)
    if n == 2:
        assert witness_werner(c).value <= 1 + 1e-12
        assert ppt_min_eigenvalue(rho) >= -1e-12
    else:
        assert witness_ghz(c).value <= 1 + 1e-12
