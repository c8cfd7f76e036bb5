import itertools
import json
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochframes import (
    BlochVector,
    DenseOperator,
    EnsembleTerm,
    ProductEnsemble,
    StateSpec,
    bound_cat,
    bound_duer,
    bound_general,
    build_frame,
    bloch_projector,
    build_state,
    cat_ensemble,
    certify,
    PauliCoefficients,
    dilute_with_mixed,
    ensemble_to_table,
    frame_from_json,
    frame_to_json,
    mix_with_identity,
    pauli_coefficients,
    pauli_to_operator,
    tensor,
    validate_density,
)
import blochframes.states as states
from blochframes.frames import FRAME_KINDS
from blochframes.operators import RECONSTRUCTION_TOL
from conftest import random_density


def test_build_state_families_are_densities():
    specs = [
        StateSpec("maximally_mixed", qubits=2),
        StateSpec("cat", qubits=3),
        StateSpec("eps_cat", qubits=4, epsilon=0.3),
        StateSpec("werner", epsilon=0.5),
        StateSpec("eps_ghz", epsilon=0.1),
    ]
    for spec in specs:
        rho = build_state(spec)
        assert validate_density(rho).passed, spec.family


def test_family_name_normalization():
    rho = build_state(StateSpec("eps-ghz", epsilon=0.2))
    assert rho.qubits == 3


def test_werner_is_two_qubit_cat_mixture():
    a = build_state(StateSpec("werner", epsilon=0.7))
    b = build_state(StateSpec("eps_cat", qubits=2, epsilon=0.7))
    assert np.abs(a.matrix - b.matrix).max() == 0


def test_epsilon_validation():
    with pytest.raises(ValueError):
        build_state(StateSpec("werner", epsilon=1.2))
    with pytest.raises(ValueError):
        build_state(StateSpec("werner", epsilon=-0.1))
    with pytest.raises(ValueError):
        build_state(StateSpec("werner"))
    with pytest.raises(ValueError):
        build_state(StateSpec("eps_ghz", qubits=2, epsilon=0.1))
    with pytest.raises(ValueError):
        build_state(StateSpec("werner", qubits=3, epsilon=0.1))


def test_family_table_matches_formula():
    # family -> (fixed qubit count, fixed epsilon); None where the spec gives it
    table = {
        "maximally_mixed": (None, 0.0),
        "cat": (None, 1.0),
        "eps_cat": (None, 0.3),
        "werner": (2, 0.3),
        "eps_ghz": (3, 0.3),
    }
    for family, (fixed_n, eps) in table.items():
        for n in range(1, 6):
            if fixed_n not in (None, n):
                continue
            rho = build_state(StateSpec(family, qubits=n, epsilon=eps))
            assert rho.qubits == n
            # the closed form written out: 1 at the identity, eps on every other
            # z-string of even weight, +-eps on each x/y string with an even
            # number of y legs, signed (-1)^(#y/2), and 0 elsewhere
            expected = np.zeros((4,) * n)
            for idx in itertools.product(range(4), repeat=n):
                ys = idx.count(2)
                if set(idx) <= {0, 3} and idx.count(3) % 2 == 0:
                    expected[idx] = eps
                elif set(idx) <= {1, 2} and ys % 2 == 0:
                    expected[idx] = eps if ys % 4 == 0 else -eps
            expected[(0,) * n] = 1.0
            c = pauli_coefficients(rho).coeffs
            assert np.array_equal(c, expected), (family, n)
            assert not np.signbit(c[c == 0]).any(), (family, n)
            # the dense formula with the cat state vector, to rounding
            v = np.zeros(2**n)
            v[0] = v[-1] = 1.0 / math.sqrt(2.0)
            dense = (1.0 - eps) * np.eye(2**n) / 2**n + eps * np.outer(v, v)
            assert np.abs(rho.matrix - dense).max() <= 2e-16, (family, n)
    for spec, message in [
        (StateSpec("werner", qubits=3, epsilon=0.1), "the werner family is defined on exactly 2"),
        (StateSpec("eps_ghz", qubits=2, epsilon=0.1), "the eps_ghz family is defined on exactly 3"),
        (StateSpec("cat", qubits=0), "cat needs a positive qubit count"),
        (StateSpec("eps_cat", qubits=2), "needs an epsilon"),
        (StateSpec("bell", qubits=2, epsilon=0.1), "unknown state family"),
        (StateSpec("maximally_mixed", qubits=1, epsilon=math.nan), "epsilon must lie in"),
        (StateSpec("custom_matrix", qubits=2, matrix=np.eye(2) / 2), "n is 2, but the custom matrix"),
        (StateSpec("eps_cat", qubits=1, epsilon=0.1, matrix=np.eye(2) / 2), "only custom_matrix"),
    ]:
        with pytest.raises(ValueError, match=message):
            build_state(spec)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.floats(0.0, 1.0))
def test_family_tensor_is_exact(n, eps):
    c = pauli_coefficients(build_state(StateSpec("eps_cat", qubits=n, epsilon=eps))).coeffs.ravel()
    assert c[0] == 1.0
    rest = c[1:]
    nonzero = rest[rest != 0.0]
    # 2^(N-1) - 1 even-weight z-strings and 2^(N-1) cat x/y strings
    assert len(nonzero) == (2**n - 1 if eps else 0)
    assert np.array_equal(np.abs(nonzero), np.full(len(nonzero), eps))
    assert not np.signbit(c[c == 0.0]).any()


def test_mix_with_identity_writes_positive_zeros():
    pure = pauli_coefficients(build_state(StateSpec("cat", qubits=3)))
    assert np.count_nonzero(pure.coeffs < 0) == 3  # the strings xyy, yxy and yyx
    c = mix_with_identity(pure, 0.0).coeffs
    assert c[0, 0, 0] == 1.0 and np.count_nonzero(c) == 1
    assert not np.signbit(c).any()


def test_unknown_family():
    with pytest.raises(ValueError):
        build_state(StateSpec("bell"))


def test_custom_matrix_roundtrip():
    spec = StateSpec.from_json(
        {"family": "custom_matrix", "matrix": [[0.5, [0, -0.5]], [[0, 0.5], 0.5]]}
    )
    rho = build_state(spec)
    assert rho.qubits == 1
    assert np.allclose(rho.matrix, [[0.5, -0.5j], [0.5j, 0.5]])
    back = spec.to_json()
    spec2 = StateSpec.from_json(back)
    assert np.allclose(spec2.matrix, spec.matrix)


def test_state_json_refuses_disagreeing_qubit_counts():
    # "qubits" is an alias of "n": either alone, or both equal, give the count
    for data in ({"n": 3}, {"qubits": 3}, {"n": 3, "qubits": 3}):
        assert StateSpec.from_json({"family": "eps_cat", "epsilon": 0.4, **data}).qubits == 3
    with pytest.raises(ValueError) as err:
        StateSpec.from_json({"family": "eps_cat", "n": 2, "qubits": 3, "epsilon": 0.4})
    assert str(err.value) == 'state JSON gives "n": 2 and "qubits": 3; they must agree'
    with pytest.raises(ValueError, match="qubit count must be an integer, got '3'"):
        StateSpec.from_json({"family": "eps_cat", "n": 3, "qubits": "3", "epsilon": 0.4})


def test_custom_matrix_rejects_invalid():
    with pytest.raises(ValueError) as err:
        build_state(StateSpec("custom_matrix", matrix=np.diag([1.5, -0.5])))
    assert "density" in str(err.value)


def test_state_json_keys():
    spec = StateSpec.from_json({"family": "eps_cat", "n": 4, "epsilon": 0.01})
    assert spec.qubits == 4 and spec.epsilon == 0.01
    with pytest.raises(ValueError):
        StateSpec.from_json({"epsilon": 0.3})
    for family in (["werner"], True, None, 7):
        with pytest.raises(ValueError, match=f"family must be a string, got {re.escape(repr(family))}$"):
            StateSpec.from_json({"family": family, "epsilon": 0.2})
        # a direct construction is refused alike
        with pytest.raises(ValueError, match=f"^family must be a string, got {re.escape(repr(family))}$"):
            StateSpec(family, epsilon=0.2)


def test_bound_values():
    assert bound_general(1) == 1 / 3
    assert bound_general(2) == 1 / 9
    assert bound_general(3) == 1 / 33
    assert bound_cat(2) == 1 / 9
    assert bound_cat(3) == 1 / 27
    assert bound_cat(4) == 1 / 81
    assert bound_cat(5) == 1 / 243
    assert bound_cat(6) == 1 / 1089
    assert bound_cat(7) == 1 / 3969
    assert bound_duer(2) == 1 / 3
    assert bound_duer(3) == 1 / 5
    assert bound_duer(5) == 1 / 17


def test_bounds_are_correctly_rounded_at_every_n():
    # exact integer division: the former float division raised OverflowError from
    # N = 513 (N = 1025 for bound_duer), and agrees with it wherever the CLI reads
    assert bound_general(1) == 1.0 / (1 + 2**1)
    for n in range(2, 25):
        sign = 1 if n % 2 == 0 else -1
        assert bound_general(n) == 1.0 / (1 + 2 ** (2 * n - 1))
        assert bound_cat(n) == min(1.0 / (1 + sign * 2**n + 2 ** (2 * n - 2)), 1.0 / 3**n)
        assert bound_duer(n) == 1.0 / (1 + 2 ** (n - 1))
    for n in (513, 1025):
        for value in (bound_general(n), bound_cat(n), bound_duer(n)):
            assert math.isfinite(value) and 0.0 <= value < 1e-150
    assert bound_duer(1025) == math.ldexp(1.0, -1024)
    # where the float division first rounded twice, the value is now the nearest double
    assert bound_general(27) == float(Fraction(1, 1 + 2**53))


def test_bounds_read_numpy_integers_as_python_ints():
    # 2 ** (2 n - 1) and 3 ** n in int64 or int32 would wrap
    for bound, low in ((bound_general, 1), (bound_cat, 2), (bound_duer, 2)):
        for n in range(low, 1101):
            exact = bound(n)
            assert bound(np.int64(n)) == exact and bound(np.int32(n)) == exact, (bound, n)
        for bad in (2.5, True, np.float64(3.0)):
            with pytest.raises(ValueError, match=f"^qubit count must be an integer, got {re.escape(repr(bad))}$"):
                bound(bad)


def test_bound_domains():
    with pytest.raises(ValueError):
        bound_general(0)
    with pytest.raises(ValueError):
        bound_cat(1)
    with pytest.raises(ValueError):
        bound_duer(1)


def test_bound_orderings():
    # the ensemble-based bound beats the expansion bound, which beats the
    # generic ball bound from three qubits up
    for n in range(2, 13):
        assert bound_duer(n) > bound_cat(n)
    for n in range(3, 13):
        assert bound_general(n) <= bound_cat(n)
    assert bound_general(2) == bound_cat(2)


def test_werner_ensemble_mixes_exactly():
    e = cat_ensemble(2)
    assert len(e.terms) == 6
    assert abs(sum(p for p, _, _ in e.terms) - 1.0) < 1e-15
    target = build_state(StateSpec("werner", epsilon=1 / 3))
    assert np.abs(e.mixture().matrix - target.matrix).max() < 1e-14


def test_ghz_ensemble_mixes_exactly():
    e = cat_ensemble(3)
    assert len(e.terms) == 18
    target = build_state(StateSpec("eps_ghz", epsilon=1 / 5))
    assert np.abs(e.mixture().matrix - target.matrix).max() < 1e-14


# cat_ensemble(2) as (probability, Bloch vectors), term by term
_WERNER_TERMS = [
    (1 / 6, ((0, 0, 1), (0, 0, 1))),
    (1 / 6, ((0, 0, -1), (0, 0, -1))),
    (1 / 6, ((1, 0, 0), (1, 0, 0))),
    (1 / 6, ((-1, 0, 0), (-1, 0, 0))),
    (1 / 6, ((0, 1, 0), (0, -1, 0))),
    (1 / 6, ((0, -1, 0), (0, 1, 0))),
]


def test_werner_ensemble_terms_pinned():
    e = cat_ensemble(2)
    assert [(p, tuple(map(tuple, vectors))) for p, vectors, _ in e.terms] == _WERNER_TERMS
    assert [t.label for t in e.terms] == ["poles", "poles", "x,x", "x,x", "y,y", "y,y"]


@pytest.mark.parametrize("n", range(2, 9))
def test_cat_ensemble_mixes_to_the_sharp_bound(n):
    e = cat_ensemble(n)
    assert len(e.terms) == 2 + 4 ** (n - 1)
    target = build_state(StateSpec("eps_cat", qubits=n, epsilon=bound_duer(n)))
    assert np.linalg.norm(e.mixture().matrix - target.matrix) <= RECONSTRUCTION_TOL


def test_ensemble_terms_are_valid_densities():
    for e in (cat_ensemble(2), cat_ensemble(3)):
        for _p, vectors, _label in e.terms:
            term = tensor([bloch_projector(v) for v in vectors])
            assert validate_density(term).passed


def test_ghz_ensemble_term_structure():
    e = cat_ensemble(3)
    labels = [t.label for t in e.terms]
    assert labels.count("poles") == 2
    assert labels.count("x,x,x") == 4
    for lab in ("x,y,y", "y,x,y", "y,y,x"):
        assert labels.count(lab) == 4
    for p, vectors, label in e.terms:
        assert p in (1 / 10, 1 / 20)
        for v in vectors:
            assert abs(v.norm() - 1.0) < 1e-15


def test_ensemble_validation():
    z = BlochVector(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        ProductEnsemble(1, (EnsembleTerm(0.5, (z,)),))  # probabilities short of 1
    with pytest.raises(ValueError):
        ProductEnsemble(2, (EnsembleTerm(1.0, (z,)),))  # wrong vector count
    with pytest.raises(ValueError):
        ProductEnsemble(1, (EnsembleTerm(1.0, (BlochVector(0, 0, 0.5),)),))
    with pytest.raises(ValueError, match="sum"):
        ProductEnsemble(1, (EnsembleTerm(0.5, (z,)), EnsembleTerm(0.5 + 1e-13, (z,))))
    with pytest.raises(ValueError):
        ProductEnsemble(1, (EnsembleTerm(1e308, (z,)),) * 2)  # would overflow the sum
    # fewer than one qubit is refused before anything else is read
    for qubits in (0, -1):
        with pytest.raises(ValueError, match="^qubit count must be at least 1$"):
            ProductEnsemble(qubits, (EnsembleTerm(1.0, ()),))
    # the components are read as one flat run, so each vector's count is checked first
    for bad in (((0, 0, 1, 0), (0, 1)), ((0, 0, 1, 0),) * 3):
        with pytest.raises(ValueError, match="three components"):
            ProductEnsemble(len(bad), (EnsembleTerm(1.0, bad),))


@pytest.mark.parametrize("t", [731, 2187, 3000, 6561])
def test_ensemble_accepts_many_equal_terms(t):
    # a plain running sum of t copies of 1/t drifts past 1e-14 for these t
    z = BlochVector(0.0, 0.0, 1.0)
    assert len(ProductEnsemble(1, (EnsembleTerm(1 / t, (z,)),) * t).terms) == t


def test_ensemble_json_roundtrip():
    e = cat_ensemble(2)
    data = e.to_json()
    e2 = ProductEnsemble.from_json(data)
    assert e2.qubits == 2
    assert np.abs(e2.mixture().matrix - e.mixture().matrix).max() < 1e-15
    with pytest.raises(ValueError):
        ProductEnsemble.from_json({"qubits": 2})


def test_ensemble_to_table_nonnegative():
    frames = [build_frame("cardinal6")] * 2
    t = ensemble_to_table(cat_ensemble(2), frames)
    assert t.min_entry() >= 0
    assert abs(t.total() - 1.0) < 1e-14
    # six occupied cells at weight 1/6 each
    assert np.count_nonzero(t.weights) == 6
    assert np.allclose(t.weights[t.weights > 0], 1 / 6)


def test_ensemble_to_table_reconstructs():
    from blochframes import reconstruct_discrete

    frames = [build_frame("cardinal6")] * 3
    t = ensemble_to_table(cat_ensemble(3), frames)
    target = build_state(StateSpec("eps_ghz", epsilon=1 / 5))
    assert np.abs(reconstruct_discrete(t).matrix - target.matrix).max() < 1e-12


def test_ensemble_to_table_rejects_off_frame_vectors():
    tilted = BlochVector.from_spherical(0.3, 0.4)
    e = ProductEnsemble(1, (EnsembleTerm(1.0, (tilted,)),))
    with pytest.raises(ValueError) as err:
        ensemble_to_table(e, [build_frame("cardinal6")])
    assert "vertex" in str(err.value)


def test_dilute_with_mixed_reaches_smaller_epsilon():
    diluted = dilute_with_mixed(cat_ensemble(2), 0.6)
    target = build_state(StateSpec("werner", epsilon=0.2))
    assert np.abs(diluted.mixture().matrix - target.matrix).max() < 1e-14
    assert len(diluted.terms) == 10
    assert min(p for p, _, _ in diluted.terms) >= 0
    diluted = dilute_with_mixed(cat_ensemble(4), 0.5)
    target = build_state(StateSpec("eps_cat", qubits=4, epsilon=bound_duer(4) / 2))
    assert np.linalg.norm(diluted.mixture().matrix - target.matrix) <= RECONSTRUCTION_TOL


def test_dilute_with_mixed_refuses_an_oversized_result_before_building_it():
    e = ProductEnsemble(16, (EnsembleTerm(1.0, (BlochVector(0.0, 0.0, 1.0),) * 16),))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as err:
            dilute_with_mixed(e, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the one term and 2^16 mixed ones, refused before the sign loop
    assert str(err.value) == "an ensemble of 65537 terms on 16 qubits is above the limit of 2097152 entries"
    assert peak < 2**20


def test_ghz_pauli_pattern():
    c = pauli_coefficients(build_state(StateSpec("eps_ghz", epsilon=0.25)))
    nonzero = {}
    it = np.nditer(c.coeffs, flags=["multi_index"])
    for x in it:
        if abs(x) > 1e-12:
            nonzero[it.multi_index] = float(x)
    expected = {
        (0, 0, 0): 1.0,
        (0, 3, 3): 0.25, (3, 0, 3): 0.25, (3, 3, 0): 0.25,
        (1, 1, 1): 0.25,
        (1, 2, 2): -0.25, (2, 1, 2): -0.25, (2, 2, 1): -0.25,
    }
    assert set(nonzero) == set(expected)
    for k, v in expected.items():
        assert abs(nonzero[k] - v) < 1e-12


def _mixture_term_loop(e):
    """The term-by-term mixture: one np.kron product per term, added in order."""
    m = np.zeros((2**e.qubits, 2**e.qubits), dtype=complex)
    for p, vectors, _ in e.terms:
        m += p * tensor([bloch_projector(v) for v in vectors]).matrix
    return m


def _random_ensemble(rng, n, terms):
    probs = rng.dirichlet(np.ones(terms))
    probs[-1] = 1.0 - probs[:-1].sum()
    vectors = rng.normal(size=(terms, n, 3))
    vectors /= np.linalg.norm(vectors, axis=2, keepdims=True)
    return ProductEnsemble(n, tuple(
        EnsembleTerm(float(p), tuple(BlochVector.from_array(v) for v in vs))
        for p, vs in zip(probs, vectors)))


def _test_ensembles(rng):
    out = [cat_ensemble(2), cat_ensemble(3),
           dilute_with_mixed(cat_ensemble(2), 0.6), dilute_with_mixed(cat_ensemble(3), 0.3)]
    out += [_random_ensemble(rng, n, terms) for n in (1, 2, 3, 4) for terms in (1, 5, 17)]
    return out


def test_mixture_matches_term_loop(rng):
    for e in _test_ensembles(rng) + [_random_ensemble(rng, n, 39) for n in (5, 6)]:
        m = e.mixture().matrix
        assert np.abs(m - _mixture_term_loop(e)).max() <= 1e-15
        assert np.array_equal(m, m.conj().T)


def _table_term_loop(e, frames):
    """The term-by-term table: nearest vertex per vector, weights added per term."""
    arrays = [np.array([v.as_array() for v in f.vectors]) for f in frames]
    weights = np.zeros(tuple(f.size for f in frames))
    for p, vectors, _ in e.terms:
        idx = []
        for k, v in enumerate(vectors):
            dist = np.linalg.norm(arrays[k] - v.as_array()[None, :], axis=1)
            a = int(np.argmin(dist))
            if dist[a] > 1e-12:
                raise ValueError(
                    f"ensemble vector {tuple(v)} is not a vertex of qubit {k}'s frame"
                )
            idx.append(a)
        weights[tuple(idx)] += p
    return weights


def test_ensemble_to_table_matches_term_loop(rng):
    cases = [(e, [build_frame("cardinal6")] * e.qubits) for e in _test_ensembles(rng)[:4]]
    for n in (2, 3):
        # repeated directions put several terms on one table entry
        e = _random_ensemble(rng, n, 6)
        terms = e.terms + tuple(EnsembleTerm(0.0, t.vectors) for t in e.terms[:3])
        e = ProductEnsemble(n, terms)
        frames = [build_frame("custom", [t.vectors[k] for t in e.terms[:6]]) for k in range(n)]
        cases.append((e, frames))
    for e, frames in cases:
        assert np.array_equal(ensemble_to_table(e, frames).weights, _table_term_loop(e, frames))


def test_ensemble_to_table_off_vertex_error_matches_term_loop():
    x, z = BlochVector(1.0, 0.0, 0.0), BlochVector(0.0, 0.0, 1.0)
    tilted, other = BlochVector.from_spherical(0.3, 0.4), BlochVector.from_spherical(1.2, 2.0)
    e = ProductEnsemble(2, (
        EnsembleTerm(0.25, (x, z)),
        EnsembleTerm(0.25, (z, tilted)),
        EnsembleTerm(0.5, (other, other)),
    ))
    frames = [build_frame("cardinal6")] * 2
    with pytest.raises(ValueError) as expected:
        _table_term_loop(e, frames)
    with pytest.raises(ValueError) as err:
        ensemble_to_table(e, frames)
    assert str(err.value) == str(expected.value)
    assert "qubit 1's frame" in str(err.value)


def test_ensemble_rejects_nan():
    z = BlochVector(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        ProductEnsemble(1, (EnsembleTerm(1.0, (BlochVector(math.nan, 0.0, 1.0),)),))
    with pytest.raises(ValueError):
        ProductEnsemble(1, (EnsembleTerm(math.nan, (z,)),))
    with pytest.raises(ValueError):
        ProductEnsemble(1, (EnsembleTerm(1.0, (z,)), EnsembleTerm(math.nan, (z,))))


def test_custom_matrix_rejects_nan():
    m = np.diag([math.nan, 0.25, 0.25, 0.25])
    check = validate_density(DenseOperator(m, 2))
    assert not check.passed
    assert check.reason == "non-finite entries"
    with pytest.raises(ValueError, match="non-finite entries"):
        build_state(StateSpec("custom_matrix", matrix=m))


def test_json_readers_read_their_writers_back_bit_identically(rng):
    # through JSON text, as the CLI reads them; repr tells -0.0 from 0.0
    def again(obj):
        return json.loads(json.dumps(obj))

    rho = random_density(rng, 2).matrix
    for spec in (StateSpec("eps_cat", qubits=4, epsilon=0.1),
                 StateSpec("custom_matrix", qubits=2, epsilon=0.3, matrix=rho)):
        back = StateSpec.from_json(again(spec.to_json()))
        assert (back.family, back.qubits, back.epsilon) == (spec.family, spec.qubits, spec.epsilon)
        assert repr(back.matrix) == repr(spec.matrix)
    e = cat_ensemble(4)
    assert repr(ProductEnsemble.from_json(again(e.to_json())).terms) == repr(e.terms)
    seeds, custom = (
        [BlochVector.from_array(v / np.linalg.norm(v)) for v in raw]
        for raw in (rng.uniform(0.1, 1.0, size=(2, 3)), rng.normal(size=(6, 3)))
    )
    for kind in FRAME_KINDS:
        f = build_frame(kind, {"reflected": seeds, "custom": custom}.get(kind))
        g = frame_from_json(again(frame_to_json(f)))
        assert g.kind == f.kind and repr(g.vectors) == repr(f.vectors)
    # the writer lists nonzero entries only, so a -0.0 entry reads back as 0.0
    c = pauli_coefficients(DenseOperator(random_density(rng, 3).matrix, 3, hermitian=True))
    back = PauliCoefficients.from_dict(again(c.to_dict()))
    assert back.qubits == c.qubits and np.array_equal(back.coeffs, c.coeffs)
    assert back.to_dict() == c.to_dict()


_TERM = {"probability": 1.0, "vectors": [[0.0, 0.0, 1.0]]}


@pytest.mark.parametrize(
    "read, data, message",
    [
        (StateSpec.from_json, {"family": "werner", "epsilon": 0.2, "qubit": 3},
         "state JSON has unknown key 'qubit'; it takes family, n, qubits, epsilon, matrix"),
        (ProductEnsemble.from_json, {"qubits": 1, "qbits": 1, "terms": [_TERM]},
         "ensemble JSON has unknown key 'qbits'; it takes qubits, terms"),
        (ProductEnsemble.from_json, {"qubits": 1, "terms": [{**_TERM, "weight": 1.0}]},
         "ensemble term has unknown key 'weight'; it takes probability, vectors, label"),
        (ProductEnsemble.from_json, {"qubits": 1, "terms": [[1.0, [[0.0, 0.0, 1.0]]]]},
         r"ensemble term must be a JSON object, got \[1.0, \[\[0.0, 0.0, 1.0\]\]\]"),
        (frame_from_json, {"kind": "cube", "vector": [[0, 0, 1]]},
         "frame JSON has unknown key 'vector'; it takes kind, vectors"),
        (PauliCoefficients.from_dict, {"n": 1, "coeffs": {"0": 1.0}, "coefs": {"3": 0.5}},
         "coefficient JSON has unknown key 'coefs'; it takes n, coeffs"),
    ],
    ids=["state", "ensemble", "ensemble-term", "ensemble-term-list", "frame", "coefficients"],
)
def test_json_readers_refuse_unknown_keys(read, data, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        read(data)


def test_ensemble_to_table_refuses_an_oversized_table():
    def north_table(n):
        e = ProductEnsemble(n, (EnsembleTerm(1.0, (BlochVector(0.0, 0.0, 1.0),) * n),))
        return ensemble_to_table(e, [build_frame("cardinal6")] * n)

    with pytest.raises(ValueError, match="table of 10077696 entries is above the limit of 2097152"):
        north_table(9)
    assert north_table(8).total() == 1.0


def test_ensemble_vectors_read_as_the_vector_tuples_do():
    e = cat_ensemble(4)
    expected = np.array([t.vectors for t in e.terms], dtype=float)
    assert e._vectors.tobytes() == expected.tobytes()
    assert e._vectors.shape == (len(e.terms), 4, 3) and not e._vectors.flags.writeable


def _peak_bytes(call):
    """The ValueError call raises and the tracemalloc peak it reached."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as err:
            call()
        return str(err.value), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cat_ensemble_mixes_within_the_byte_budget():
    # 16,386 terms on 8 qubits: their row products in one piece held 67 MB
    e = cat_ensemble(8)
    tracemalloc.start()
    try:
        e.mixture()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6
    target = build_state(StateSpec("eps_cat", qubits=8, epsilon=bound_duer(8)))
    assert certify(target, e).verdict == "separable"


def test_mixture_blocks_sum_to_the_one_product(monkeypatch):
    e = cat_ensemble(5)
    # the 258 terms in one block: the Pauli tensor is (p L)^T R itself
    rows = np.array([[(1.0, *v) for v in vectors] for _, vectors, _ in e.terms])
    left = np.array([p for p, _, _ in e.terms])[:, None]
    right = np.ones((len(e.terms), 1))
    for k in range(2):
        left = (left[:, :, None] * rows[:, k, None, :]).reshape(len(e.terms), -1)
    for k in range(2, 5):
        right = (right[:, :, None] * rows[:, k, None, :]).reshape(len(e.terms), -1)
    one = pauli_to_operator(PauliCoefficients(5, (left.T @ right).reshape((4,) * 5))).matrix
    assert np.array_equal(e.mixture().matrix, one)
    # 4^2 + 4^3 reals per term: a budget of 2 x 320 reals is blocks of 8 terms
    monkeypatch.setattr(states, "MAX_ENTRIES", 320)
    assert np.abs(e.mixture().matrix - one).max() <= 1e-15


def test_eleven_qubit_operators_are_refused_before_they_are_built():
    # a 2048 x 2048 complex matrix is 64 MiB; the refusal allocates next to nothing
    north = ProductEnsemble(11, (EnsembleTerm(1.0, (BlochVector(0.0, 0.0, 1.0),) * 11),))
    message, peak = _peak_bytes(north.mixture)
    assert message == "the mixture on 11 qubits (4^11 entries) is above the limit of 1048576 entries"
    assert peak < 1 << 20
    # pauli_to_operator's one input: refused before its 32 MiB tensor is copied
    coeffs = np.zeros((4,) * 11)
    message, peak = _peak_bytes(lambda: PauliCoefficients(11, coeffs))
    assert message == "Pauli coefficients on 11 qubits (4^11 entries) is above the limit of 1048576 entries"
    assert peak < 1 << 20
    message, peak = _peak_bytes(lambda: build_state(StateSpec("eps_cat", 11, 0.1)))
    assert message == "the eps_cat state on 11 qubits (4^11 entries) is above the limit of 1048576 entries"
    assert peak < 1 << 20
    # eleven one-qubit factors: without the check their product is a 64 MiB matrix
    up = bloch_projector(BlochVector(0.0, 0.0, 1.0))
    message, peak = _peak_bytes(lambda: tensor([up] * 11))
    assert message == "the tensor product on 11 qubits (4^11 entries) is above the limit of 1048576 entries"
    assert peak < 1 << 20


def test_ensembles_beyond_the_size_budget_are_refused():
    # 3 T N floats: cat_ensemble(10) would hold 7,864,380, refused before its loops
    message, peak = _peak_bytes(lambda: cat_ensemble(10))
    assert message == (
        "the cat ensemble on 10 qubits (262146 terms) is above the limit of 2097152 entries"
    )
    assert peak < 1 << 20
    with pytest.raises(ValueError, match="ensemble of 1 terms on 699051 qubits is above the limit"):
        ProductEnsemble(699051, (EnsembleTerm(1.0, (BlochVector(0.0, 0.0, 1.0),) * 699051),))
    # 1,769,526 floats fit
    assert len(cat_ensemble(9).terms) == 2 + 4**8


def test_cat_ensemble_reads_a_numpy_qubit_count_as_a_python_int(monkeypatch):
    import blochframes.states as states

    # 2 + 4 ** 39 wraps to 2 in int64, which would pass the size check; a term
    # built fails the test at once instead of running on to 4^39 terms
    def no_term(*args):
        raise AssertionError("a term was built")

    monkeypatch.setattr(states, "EnsembleTerm", no_term)
    with pytest.raises(ValueError) as err:
        cat_ensemble(np.int64(40))
    assert str(err.value) == (
        f"the cat ensemble on 40 qubits ({2 + 4**39} terms) is above the limit of 2097152 entries"
    )


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: build_state(StateSpec("custom_matrix", qubits=2)), "custom_matrix needs an explicit matrix"),
        (lambda: dilute_with_mixed(cat_ensemble(2), 1.5), r"weight must lie in \[0, 1\]"),
        (lambda: dilute_with_mixed(cat_ensemble(2), math.nan), r"weight must lie in \[0, 1\]"),
        (lambda: ensemble_to_table(cat_ensemble(2), [build_frame("cardinal6")]),
         "expected 2 frames, got 1"),
    ],
    ids=["custom-without-matrix", "dilution-1.5", "dilution-nan", "frame-count"],
)
def test_states_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()
