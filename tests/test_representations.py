import copy
import io
import json
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochframes import (
    BlochVector,
    CoefficientTable,
    DenseOperator,
    PauliCoefficients,
    ProductEnsemble,
    StateSpec,
    bloch_projector,
    build_frame,
    build_state,
    continuous_dual,
    dual_frame,
    mix_with_identity,
    pauli,
    pauli_coefficients,
    pauli_to_operator,
    reconstruct_continuous,
    reconstruct_discrete,
    sigma_stack,
    sph_coefficients,
    sphere_grid,
    sphere_quadrature,
    tensor,
    trace_inner,
    wcan_continuous,
    wcan_discrete,
)
from blochframes.cli import main
from blochframes.operators import _pauli_rows
from blochframes import representations
from blochframes.representations import _CSV_BLOCK_ROWS, _deviation, _mode_contract
from blochframes.states import _cat_coefficients
from conftest import random_density, random_hermitian

FOUR_PI = 4 * math.pi


def random_direction(rng):
    raw = rng.normal(size=3)
    return BlochVector.from_array(raw / np.linalg.norm(raw))


def test_pauli_coefficients_single_qubit():
    zero = DenseOperator(np.diag([1.0, 0.0]), 1, hermitian=True)
    c = pauli_coefficients(zero)
    assert np.allclose(c.coeffs, [1.0, 0.0, 0.0, 1.0], atol=1e-15)


def test_pauli_coefficients_two_qubit_product(rng):
    a = random_density(rng, 1)
    b = random_density(rng, 1)
    c = pauli_coefficients(tensor([a, b]))
    ca = pauli_coefficients(a)
    cb = pauli_coefficients(b)
    assert np.abs(c.coeffs - np.outer(ca.coeffs, cb.coeffs)).max() < 1e-12


def test_pauli_roundtrip(rng):
    for n in (1, 2, 3):
        rho = random_density(rng, n)
        back = pauli_to_operator(pauli_coefficients(rho))
        assert np.abs(back.matrix - rho.matrix).max() < 1e-12


def test_operator_built_from_a_tensor_gives_that_tensor_back(rng):
    c = pauli_coefficients(random_density(rng, 3))
    rho = pauli_to_operator(c)
    assert pauli_coefficients(rho) is c
    # the same matrix on an operator of its own is contracted afresh, to rounding
    again = pauli_coefficients(DenseOperator(rho.matrix, 3))
    assert again is not c
    assert np.abs(again.coeffs - c.coeffs).max() < 1e-15


def eager_matrix(c: PauliCoefficients) -> np.ndarray:
    """The matrix of pauli_to_operator(c) as it was once formed at construction:
    the reference its first read must match bit for bit."""
    n, d = c.qubits, 2**c.qubits
    t = _mode_contract(c.coeffs, [sigma_stack().reshape(4, 4).T] * n)
    perm = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    m = t.reshape((2,) * (2 * n)).transpose(perm).reshape(d, d) / d
    return DenseOperator(m, n, hermitian=True).matrix


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 5), family=st.booleans(), seed=st.integers(0, 2**32 - 1),
       eps=st.floats(0.0, 1.0), formed=st.booleans())
def test_tensor_built_operator_forms_the_eager_matrix_on_first_read(n, family, seed, eps, formed):
    if family:
        c = mix_with_identity(_cat_coefficients(n), eps)
    else:
        c = PauliCoefficients(n, np.random.default_rng(seed).normal(size=(4,) * n))
    expected = eager_matrix(c)
    rho = pauli_to_operator(c)
    # qubits and dim form nothing
    assert (rho.qubits, rho.dim, rho.hermitian) == (n, 2**n, True)
    assert "matrix" not in vars(rho)
    if formed:
        m = rho.matrix
        assert _same_bits(m, expected)
        assert not m.flags.writeable
        assert rho.matrix is m
        assert np.array_equal(m, m.conj().T)
    assert pauli_coefficients(rho) is c
    for twin in (copy.deepcopy(rho), pickle.loads(pickle.dumps(rho))):
        assert ("matrix" in vars(twin)) == formed
        assert np.array_equal(pauli_coefficients(twin).coeffs, c.coeffs)
        assert _same_bits(twin.matrix, expected)
        assert twin.matrix is twin.matrix
    if not formed:
        assert _same_bits(rho.matrix, expected)
        assert not rho.matrix.flags.writeable


def _arrays(obj):
    """Every array an object holds: its own attributes', and those of the tuples
    and package objects among them."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, tuple):
        for item in obj:
            yield from _arrays(item)
    elif type(obj).__module__.startswith("blochframes."):
        for value in vars(obj).values():
            yield from _arrays(value)


def _read(obj, *names):
    # the attributes formed on first read, formed before the copy
    for name in names:
        getattr(obj, name)
    return obj


_FROZEN = {
    "operator": lambda: DenseOperator(np.eye(4) / 4, 2),
    "tensor-operator": lambda: _read(pauli_to_operator(mix_with_identity(_cat_coefficients(3), 0.3)), "matrix"),
    "pauli-coefficients": lambda: _cat_coefficients(2),
    "table": lambda: wcan_discrete(build_state(StateSpec("werner", epsilon=0.2)), [build_frame("cube")] * 2),
    "frame": lambda: _read(dual_frame([BlochVector(0.0, 0.0, 1.0), BlochVector(1.0, 0.0, 0.0),
                                       BlochVector(0.0, 1.0, 0.0), BlochVector(-0.6, -0.8, 0.0)]),
                           "projectors", "duals"),
    "ensemble": lambda: ProductEnsemble(1, [(0.5, [BlochVector(0.0, 0.0, 1.0)], "up"),
                                            (0.5, [BlochVector(0.0, 0.0, -1.0)], "down")]),
    "sph-coefficients": lambda: _read(sph_coefficients(_cat_coefficients(2)), "canonical"),
}


@pytest.mark.parametrize("copier", [copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))],
                         ids=["deepcopy", "pickle"])
@pytest.mark.parametrize("make", list(_FROZEN.values()), ids=list(_FROZEN))
def test_copies_keep_every_array_read_only(make, copier):
    obj = make()
    assert not any(a.flags.writeable for a in _arrays(obj))
    twin = copier(obj)
    arrays = list(_arrays(twin))
    assert arrays and not any(a.flags.writeable for a in arrays)
    # what was formed before the copy comes back formed
    assert vars(twin).keys() == vars(obj).keys()


def _random_ensemble(rng, n: int) -> ProductEnsemble:
    p = rng.random(int(rng.integers(1, 9)))
    vectors = rng.normal(size=(len(p), n, 3))
    vectors /= np.linalg.norm(vectors, axis=2, keepdims=True)
    terms = [(q, [BlochVector.from_array(v) for v in term], "") for q, term in zip(p / p.sum(), vectors)]
    return ProductEnsemble(n, terms)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["hermitian", "family", "matrix"]))
def test_deviation_is_the_frobenius_norm_of_the_difference(n, seed, kind):
    rng = np.random.default_rng(seed)
    if kind == "hermitian":
        a, b = random_hermitian(rng, n), random_hermitian(rng, n)
    else:
        # an ensemble's mixture against a family state, or against a matrix-held density
        a = _random_ensemble(rng, n).mixture()
        b = (build_state(StateSpec("eps_cat", n, float(rng.random()))) if kind == "family"
             else random_density(rng, n))
    value = _deviation(a, b)
    assert abs(value - np.linalg.norm(a.matrix - b.matrix)) <= 1e-15 * (1 + value)
    assert _deviation(b, a) == value


def test_pauli_coefficients_reject_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        pauli_coefficients(DenseOperator(m, 1))


def test_pauli_dict_roundtrip():
    rho = build_state(StateSpec("eps_ghz", epsilon=0.25))
    c = pauli_coefficients(rho)
    d = c.to_dict()
    assert d["n"] == 3
    assert abs(d["coeffs"]["000"] - 1.0) < 1e-15
    assert abs(d["coeffs"]["111"] - 0.25) < 1e-12
    assert "001" not in d["coeffs"]  # zeros dropped
    c2 = PauliCoefficients.from_dict(d)
    assert np.abs(c2.coeffs - c.coeffs).max() < 1e-12


def test_wcan_continuous_is_dual_probability(rng):
    # w(n) equals tr(rho Q_n1 x ... x Q_nN) with the continuous duals
    for n in (1, 2, 3):
        for _ in range(33):
            rho = random_density(rng, n)
            c = pauli_coefficients(rho)
            dirs = [random_direction(rng) for _ in range(n)]
            duals = tensor([continuous_dual(v) for v in dirs])
            expected = trace_inner(duals, rho).real
            assert abs(wcan_continuous(c, dirs) - expected) < 1e-12


def test_wcan_continuous_checks_input(rng):
    rho = random_density(rng, 2)
    c = pauli_coefficients(rho)
    with pytest.raises(ValueError):
        wcan_continuous(c, (BlochVector(0, 0, 1),))
    with pytest.raises(ValueError):
        wcan_continuous(c, (BlochVector(0, 0, 1), BlochVector(0, 0, 0.5)))


def test_eps_cat_closed_form(rng):
    # w(n1..nN) for the eps-cat family, direct trigonometric form
    for n in (2, 3, 4):
        eps = float(rng.uniform(0.0, 1.0))
        rho = build_state(StateSpec("eps_cat", qubits=n, epsilon=eps))
        c = pauli_coefficients(rho)
        for _ in range(334):
            thetas = rng.uniform(0.0, math.pi, size=n)
            phis = rng.uniform(0.0, 2 * math.pi, size=n)
            dirs = [BlochVector.from_spherical(t, p) for t, p in zip(thetas, phis)]
            cos = np.cos(thetas)
            sin = np.sin(thetas)
            closed = (1.0 / FOUR_PI) ** n * (
                (1 - eps)
                + eps / 2 * np.prod(1 + 3 * cos)
                + eps / 2 * np.prod(1 - 3 * cos)
                + eps * 3**n * np.prod(sin) * math.cos(phis.sum())
            )
            assert abs(wcan_continuous(c, dirs) - closed) < 1e-12


def test_eps_cat_equator_value():
    # all-equatorial configuration with aligned phases summing to pi
    for n, eps in ((2, 0.2), (3, 0.05)):
        rho = build_state(StateSpec("eps_cat", qubits=n, epsilon=eps))
        c = pauli_coefficients(rho)
        dirs = [BlochVector.from_spherical(math.pi / 2, 0.0) for _ in range(n - 1)]
        dirs.append(BlochVector.from_spherical(math.pi / 2, math.pi))
        expected = (1.0 / FOUR_PI) ** n * (1 - 3**n * eps)
        assert abs(wcan_continuous(c, dirs) - expected) < 1e-12


def test_wcan_discrete_zero_state_cardinal6():
    zero = DenseOperator(np.diag([1.0, 0.0]), 1, hermitian=True)
    t = wcan_discrete(zero, [build_frame("cardinal6")])
    # +-x, +-y carry 1/6; +z carries 2/3; -z carries -1/3
    assert np.allclose(t.weights, [1 / 6, 1 / 6, 1 / 6, 1 / 6, 2 / 3, -1 / 3], atol=1e-12)


def test_wcan_discrete_maximally_mixed():
    rho = build_state(StateSpec("maximally_mixed", qubits=2))
    t = wcan_discrete(rho, [build_frame("cardinal6")] * 2)
    assert np.allclose(t.weights, np.full((6, 6), 1 / 36), atol=1e-14)


def test_table_sums_to_one(rng):
    frames = [build_frame("tetrahedron"), build_frame("icosahedron")]
    for _ in range(10):
        rho = random_density(rng, 2)
        t = wcan_discrete(rho, frames)
        assert abs(t.total() - 1.0) < 1e-12


def test_discrete_roundtrip_mixed_frames(rng):
    frames = [build_frame("cardinal6"), build_frame("dodecahedron"), build_frame("cube")]
    for _ in range(5):
        rho = random_density(rng, 3)
        back = reconstruct_discrete(wcan_discrete(rho, frames))
        assert np.abs(back.matrix - rho.matrix).max() < 1e-10


def test_discrete_entries_are_scaled_vertex_values(rng):
    # for balanced frames, entries = prod(4pi/K_i) * w at the vertex tuple
    frames = [build_frame("octahedron"), build_frame("icosahedron")]
    scale = (FOUR_PI / 6) * (FOUR_PI / 12)
    rho = random_density(rng, 2)
    c = pauli_coefficients(rho)
    t = wcan_discrete(rho, frames)
    for i in (0, 3, 5):
        for j in (0, 7, 11):
            w = wcan_continuous(c, (frames[0].vectors[i], frames[1].vectors[j]))
            assert abs(t.weights[i, j] - scale * w) < 1e-12


def test_wcan_discrete_frame_count_mismatch(rng):
    rho = random_density(rng, 2)
    with pytest.raises(ValueError):
        wcan_discrete(rho, [build_frame("cardinal6")])


def test_min_entry_bound_cardinal6(rng):
    # -2^(2N-1)/6^N at N = 1, 2
    for n, bound in ((1, -1 / 3), (2, -2 / 9)):
        frames = [build_frame("cardinal6")] * n
        for _ in range(50):
            t = wcan_discrete(random_density(rng, n), frames)
            assert t.min_entry() >= bound - 1e-12


def test_csv_output_format():
    rho = build_state(StateSpec("maximally_mixed", qubits=1))
    t = wcan_discrete(rho, [build_frame("tetrahedron")])
    buf = io.StringIO()
    t.write_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == "idx_1,weight"
    assert len(data) == 5
    assert data[1] == "0,0.25"
    assert lines[-1].startswith("# min=")


def reference_csv(table, comments=True):
    """The CSV format, written one row at a time."""
    n = table.qubits
    out = []
    if comments:
        out.append("# discrete expansion table: one row per frame multi-index\n")
        out.append(
            "# idx_k indexes qubit k's frame (%s); weight = tr(rho Q_idx1 x ... x Q_idxN)\n"
            % ", ".join(f.kind for f in table.frames)
        )
    out.append(",".join([f"idx_{k + 1}" for k in range(n)] + ["weight"]) + "\n")
    for idx in np.ndindex(*table.weights.shape):
        row = [str(i) for i in idx] + [repr(float(table.weights[idx]))]
        out.append(",".join(row) + "\n")
    if comments:
        out.append(f"# min={table.min_entry()!r} sum={table.total()!r}\n")
    return "".join(out)


MIXED_FRAMES = ["cardinal6", "tetrahedron", "icosahedron"]


def csv_tables(rng):
    mixed = wcan_discrete(random_density(rng, 3), [build_frame(k) for k in MIXED_FRAMES])
    reprs = [repr(w) for w in mixed.weights.ravel().tolist()]
    assert any(r.startswith("-") for r in reprs) and any("e-" in r for r in reprs)
    # 6^6 rows span several write blocks
    big = wcan_discrete(
        build_state(StateSpec("eps_cat", qubits=6, epsilon=0.3)),
        [build_frame("cardinal6")] * 6,
    )
    assert big.weights.size > 2**15
    single = wcan_discrete(random_density(rng, 1), [build_frame("icosahedron")])
    hand_built = [_hand_built_table(rng), _five_frame_table(rng), _wide_frame_table(rng)]
    return [mixed, big, single, *hand_built]


def _hand_built_table(rng):
    """Few distinct weights, with the cases a per-block formatter could mix up."""
    frames = [build_frame("icosahedron")] * 3 + [build_frame("cardinal6")]
    # each write block is the last three axes, so block boundaries lie 864 rows apart
    block = 12 * 12 * 6
    assert block <= _CSV_BLOCK_ROWS < 12 * block
    values = [0.0, -0.0, 5e-324, 2.5e-310, 1e16, 1.25e17, -3e300, 0.1, 1 / 3]
    w = rng.choice(values, size=(12,) * 3 + (6,))
    w[0, 0, 0, :2] = 0.0, -0.0
    # 1/7 occurs only at the last row of the first block and the first of the second
    w.flat[block - 1] = w.flat[block] = 1 / 7
    reprs = {repr(v) for v in w.ravel().tolist()}
    assert {"0.0", "-0.0", "5e-324", "2.5e-310", "1e+16", "1.25e+17"} <= reprs
    return CoefficientTable(frames, w)


def _five_frame_table(rng):
    """A different frame size on each qubit, written in blocks of the last three axes."""
    kinds = ["tetrahedron", "cube", "icosahedron", "dodecahedron", "cardinal6"]
    assert 12 * 20 * 6 <= _CSV_BLOCK_ROWS < 8 * 12 * 20 * 6
    return wcan_discrete(random_density(rng, 5), [build_frame(k) for k in kinds])


def _wide_frame_table(rng):
    """A last frame larger than a write block, so each block is one frame's worth."""
    vectors = rng.normal(size=(_CSV_BLOCK_ROWS + 808, 3))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    wide = build_frame("custom", [BlochVector(*v) for v in vectors.tolist()])
    w = rng.choice([0.25, 0.0, -0.0, 1e-7], size=(4, wide.size))
    return CoefficientTable([build_frame("tetrahedron"), wide], w)


@pytest.mark.parametrize("comments", [True, False])
def test_csv_bytes_match_row_by_row_reference(rng, comments):
    for table in csv_tables(rng):
        buf = io.StringIO()
        table.write_csv(buf, comments=comments)
        assert buf.getvalue() == reference_csv(table, comments=comments)


def test_coeffs_csv_bytes_match_reference(capsys, tmp_path):
    spec = {"family": "eps_ghz", "epsilon": 0.1}
    frames = json.dumps(MIXED_FRAMES)
    table = wcan_discrete(
        build_state(StateSpec.from_json(spec)), [build_frame(k) for k in MIXED_FRAMES]
    )
    expected = reference_csv(table)
    assert main(["coeffs", "--state", json.dumps(spec), "--frames", frames]) == 0
    assert capsys.readouterr().out == expected
    out_file = tmp_path / "table.csv"
    argv = ["coeffs", "--state", json.dumps(spec), "--frames", frames, "--out", str(out_file)]
    assert main(argv) == 0
    assert out_file.read_text() == expected


def test_continuous_reconstruction_quadratures(rng):
    for n in (1, 2):
        rho = random_density(rng, n)
        c = pauli_coefficients(rho)
        for kind in ("octahedron", "icosahedron"):
            quad = sphere_quadrature(kind)
            back = reconstruct_continuous(c, quad)
            assert np.abs(back.matrix - rho.matrix).max() < 1e-12


@pytest.mark.parametrize("kind", ["tetrahedron", "cube", "cardinal6", "dodecahedron"])
def test_continuous_reconstruction_over_any_degree_2_frame(rng, kind):
    # a Pauli tensor needs degree 2, which every named frame integrates
    rho = random_density(rng, 2)
    back = reconstruct_continuous(pauli_coefficients(rho), build_frame(kind))
    assert np.abs(back.matrix - rho.matrix).max() < 1e-12


def projector_stack_sum(values, stacks):
    """sum over product indices of values * stack_1[i_1] x ... x stack_N[i_N], term by term."""
    out = 0.0
    for idx in np.ndindex(*values.shape):
        term = np.ones((1, 1))
        for stack, i in zip(stacks, idx):
            term = np.kron(term, stack[i])
        out = out + values[idx] * term
    return out


def test_reconstructions_match_projector_stack_assembly(rng):
    custom = build_frame("custom", [random_direction(rng) for _ in range(5)])
    for n in (1, 2, 3):
        rho = random_density(rng, n)
        frames = [build_frame(k) for k in ("cardinal6", "dodecahedron")[: n - 1]] + [custom]
        table = wcan_discrete(rho, frames)
        stacks = [np.array([p.matrix for p in f.projectors]) for f in frames]
        expected = projector_stack_sum(table.weights, stacks)
        back = reconstruct_discrete(table).matrix
        assert np.abs(back - expected).max() <= 1e-14
        # pauli_to_operator symmetrises, so the result is exactly Hermitian
        assert np.array_equal(back, back.conj().T)
        c = pauli_coefficients(rho)
        quads = [sphere_quadrature(k) for k in ("icosahedron", "octahedron", "icosahedron")[:n]]
        stacks = [
            np.array([bloch_projector(BlochVector.from_array(v)).matrix for v in q.rows[:, 1:]])
            * (FOUR_PI / q.size)
            for q in quads
        ]
        expected = projector_stack_sum(c.node_values([q.rows[:, 1:] for q in quads]), stacks)
        assert np.abs(reconstruct_continuous(c, quads).matrix - expected).max() <= 1e-14


def test_quadrature_normalization(rng):
    # integral of w over the product of spheres is 1 for unit-trace rho
    rho = random_density(rng, 2)
    c = pauli_coefficients(rho)
    quad = sphere_quadrature("octahedron")
    weights = np.full(quad.size, FOUR_PI / quad.size)
    vals = c.node_values([quad.rows[:, 1:]] * 2)
    total = float(np.einsum("ij,i,j->", vals, weights, weights))
    assert abs(total - 1.0) < 1e-12


# the degree up to which each named frame integrates exactly at weights 4pi/K
_EXACT_DEGREE = {"tetrahedron": 2, "octahedron": 3, "cardinal6": 3, "cube": 3,
                 "icosahedron": 5, "dodecahedron": 5}


def test_quadrature_degrees():
    for kind, degree in _EXACT_DEGREE.items():
        quad = sphere_quadrature(kind)
        assert quad is build_frame(kind)
        assert quad.is_exact_to_degree(degree)
        assert not quad.is_exact_to_degree(degree + 1)
    # the failing monomial for the octahedron is x^4: 4pi/3 vs 4pi/5
    assert sphere_quadrature("octahedron").degree_residual(4) > 1.0


def test_reconstruct_continuous_rejects_weak_quadrature(rng):
    from blochframes import add_hosh, sph_coefficients

    rho = random_density(rng, 1)
    s = sph_coefficients(pauli_coefficients(rho))
    # an l = 5 term needs quadrature degree 6, beyond every named frame
    aug = add_hosh(s, {((5, 0),): 0.05})
    with pytest.raises(ValueError):
        reconstruct_continuous(aug, sphere_quadrature("icosahedron"))
    # sign closure zeroes every odd moment, but these second moments are not I/3
    seed = np.array([0.2, 0.3, 0.9])
    frame = build_frame("reflected", [BlochVector.from_array(seed / np.linalg.norm(seed))])
    assert frame.is_exact_to_degree(1)
    assert not frame.is_exact_to_degree(2)
    with pytest.raises(ValueError) as err:
        reconstruct_continuous(_WERNER, [build_frame("octahedron"), frame])
    assert str(err.value) == (
        "quadrature for qubit 1 must integrate degree <= 2 spherical polynomials exactly "
        f"(residual {frame.degree_residual(2):g})"
    )


def test_reconstruct_continuous_refuses_a_node_table_above_the_limit():
    c = pauli_coefficients(build_state(StateSpec("eps_cat", qubits=6, epsilon=0.1)))
    quad = sphere_quadrature("icosahedron")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as err:
            reconstruct_continuous(c, quad)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 12^6 nodes, refused before one value is computed
    assert str(err.value) == "a table of 2985984 entries is above the limit of 2097152 entries"
    assert peak < 2**20


def test_degree_residual_matches_monomial_loop():
    def double_factorial(k):
        return math.prod(range(k, 0, -2))

    def integral(a, b, c):
        if a % 2 or b % 2 or c % 2:
            return 0.0
        num = double_factorial(a - 1) * double_factorial(b - 1) * double_factorial(c - 1)
        return 4 * math.pi * num / double_factorial(a + b + c + 1)

    for kind in ("octahedron", "icosahedron"):
        q = sphere_quadrature(kind)
        x, y, z = q.rows[:, 1:].T
        weights = np.full(q.size, FOUR_PI / q.size)
        for degree in range(8):
            worst = max(
                abs(float(np.sum(weights * x**a * y**b * z**c)) - integral(a, b, c))
                for a in range(degree + 1)
                for b in range(degree + 1 - a)
                for c in range(degree + 1 - a - b)
            )
            assert abs(q.degree_residual(degree) - worst) <= 1e-13


def test_shared_quadrature_still_checks_exactness(rng):
    from blochframes import add_hosh, sph_coefficients

    oct_q = sphere_quadrature("octahedron")
    assert sphere_quadrature("octahedron") is oct_q
    assert oct_q.is_exact_to_degree(3)
    # the same shared object, checked again at a higher degree, still fails
    assert not sphere_quadrature("octahedron").is_exact_to_degree(4)
    rho = random_density(rng, 1)
    s = sph_coefficients(pauli_coefficients(rho))
    back = reconstruct_continuous(s, oct_q)
    assert np.abs(back.matrix - rho.matrix).max() < 1e-12
    # an l = 3 term needs degree 4: the octahedron is refused after it was accepted
    aug = add_hosh(s, {((3, 0),): 0.05})
    with pytest.raises(ValueError, match="degree <= 4"):
        reconstruct_continuous(aug, sphere_quadrature("octahedron"))
    back = reconstruct_continuous(aug, sphere_quadrature("icosahedron"))
    assert np.abs(back.matrix - rho.matrix).max() < 1e-12


def test_table_validation():
    frames = [build_frame("cardinal6")]
    with pytest.raises(ValueError):
        CoefficientTable(frames, np.zeros((5,)))
    with pytest.raises(ValueError):
        CoefficientTable(frames, np.zeros((6, 6)))
    for bad in (math.nan, math.inf):
        weights = np.full(6, 1 / 6)
        weights[2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            CoefficientTable(frames, weights)


def test_table_copies_a_callers_weights(rng):
    frames = [build_frame("cardinal6")] * 2
    mine = np.full((6, 6), 1 / 36)
    t = CoefficientTable(frames, mine)
    assert not np.shares_memory(t.weights, mine)
    assert mine.flags.writeable and not t.weights.flags.writeable
    mine[0, 0] = 1.0
    assert t.weights[0, 0] == 1 / 36
    # a Fortran-ordered array is written in the same row order
    columns = np.asfortranarray(rng.normal(size=(6, 6)))
    t = CoefficientTable(frames, columns)
    buf = io.StringIO()
    t.write_csv(buf)
    assert buf.getvalue() == reference_csv(t)


def test_fresh_tables_adopt_their_weights(monkeypatch):
    made = []

    def contract(tensor, matrices):
        made.append(_mode_contract(tensor, matrices))
        return made[-1]

    monkeypatch.setattr(representations, "_mode_contract", contract)
    rho = build_state(StateSpec("eps_cat", qubits=3, epsilon=0.2))
    t = wcan_discrete(rho, [build_frame("cardinal6")] * 3)
    assert t.weights is made[-1] and not t.weights.flags.writeable
    frames = [build_frame("cardinal6")]
    with pytest.raises(ValueError, match="non-finite"):
        CoefficientTable._adopt(frames, np.array([0.5, math.nan, 0.5, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="does not match"):
        CoefficientTable._adopt(frames, np.zeros(5))


def test_reconstruct_discrete_uniform_octahedron():
    f = build_frame("octahedron")
    t = CoefficientTable([f], np.full(6, 1 / 6))
    back = reconstruct_discrete(t)
    assert np.abs(back.matrix - np.eye(2) / 2).max() < 1e-14


def test_star_import_exposes_expansions():
    namespace = {}
    exec("from blochframes import *", namespace)
    assert "wcan_discrete" in namespace
    assert "wcan_continuous" in namespace


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 7), min_size=1, max_size=5),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_mode_contract_matches_einsum(sizes, complex_input, seed):
    rng = np.random.default_rng(seed)
    n = len(sizes)
    tensor = rng.normal(size=(4,) * n)
    if complex_input:
        tensor = tensor + 1j * rng.normal(size=(4,) * n)
    mats = [rng.normal(size=(m, 4)) for m in sizes]
    # axis k of the tensor meets axis 1 of matrix k; the result keeps qubit order
    axes, outs = "abcde"[:n], "ABCDE"[:n]
    spec = ",".join([axes] + [o + a for o, a in zip(outs, axes)]) + "->" + outs
    expected = np.einsum(spec, tensor, *mats)
    out = _mode_contract(tensor, mats)
    assert out.shape == tuple(sizes)
    assert np.abs(out - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())


def test_pauli_coefficients_reject_non_finite():
    for bad in (math.nan, math.inf):
        c = np.zeros((4, 4))
        c[0, 0], c[1, 1] = 1.0, bad
        with pytest.raises(ValueError, match="non-finite"):
            PauliCoefficients(2, c)


def _grid_nodes(count):
    theta, phi = sphere_grid(count).T
    return np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], 1)


def test_grid_scan_holds_one_full_size_table(rng):
    # the scaling is done in place, so the contraction's result is the only table
    c = pauli_coefficients(random_density(rng, 4))
    nodes = _grid_nodes(24)
    assert len(nodes) == 20
    c.node_values([nodes] * 4)
    tracemalloc.start()
    try:
        values = c.node_values([nodes] * 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values.shape == (20,) * 4
    assert peak <= 1.5 * values.nbytes


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_node_values_match_scaled_copy_bit_for_bit(rng, n):
    # node_values as it was: a scaled copy of the contraction
    c = pauli_coefficients(random_density(rng, n))
    nodes = [_grid_nodes(count) for count in (6, 7, 12, 25)[:n]]
    mats = [_pauli_rows(x, 1.0 / 3.0) for x in nodes]
    former = (3.0 / FOUR_PI) ** n * _mode_contract(c.coeffs, mats)
    assert c.node_values(nodes).tobytes() == former.tobytes()


_WERNER = pauli_coefficients(build_state(StateSpec("werner", epsilon=0.2)))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: PauliCoefficients(2, np.zeros((4, 4, 4))), r"must have shape \(4, 4\)"),
        (lambda: _WERNER.node_values([np.eye(3)]), "need one node array per qubit"),
        (lambda: PauliCoefficients.from_dict({"n": 2, "coeffs": {"04": 1.0}}),
         "bad coefficient index '04' for 2 qubits"),
        (lambda: PauliCoefficients.from_dict({"n": 2, "coeffs": {"000": 1.0}}),
         "bad coefficient index '000' for 2 qubits"),
        (lambda: reconstruct_continuous(_WERNER, [sphere_quadrature("icosahedron")] * 3),
         "^expected 2 frames, got 3$"),
        (lambda: wcan_discrete(build_state(StateSpec("werner", epsilon=0.2)), [build_frame("cardinal6")]),
         "^expected 2 frames, got 1$"),
    ],
    ids=["tensor-shape", "node-arrays", "index-digit", "index-length", "quadrature-count",
         "frame-count"],
)
def test_representations_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()
