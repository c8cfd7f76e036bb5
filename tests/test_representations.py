import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochframes import (
    BlochVector,
    CoefficientTable,
    DenseOperator,
    PauliCoefficients,
    StateSpec,
    bloch_projector,
    build_frame,
    build_state,
    continuous_dual,
    pauli,
    pauli_coefficients,
    pauli_to_operator,
    reconstruct_continuous,
    reconstruct_discrete,
    sphere_quadrature,
    tensor,
    trace_inner,
    wcan_continuous,
    wcan_discrete,
)
from blochframes.cli import main
from blochframes.representations import _mode_contract
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
    return [mixed, big, single]


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
        expected = projector_stack_sum(table.weights, [f.projector_stack for f in frames])
        back = reconstruct_discrete(table).matrix
        assert np.abs(back - expected).max() <= 1e-14
        # pauli_to_operator symmetrises, so the result is exactly Hermitian
        assert np.array_equal(back, back.conj().T)
        c = pauli_coefficients(rho)
        quads = [sphere_quadrature(k) for k in ("icosahedron", "octahedron", "icosahedron")[:n]]
        stacks = [
            np.array([bloch_projector(BlochVector.from_array(v)).matrix for v in q.nodes])
            * q.weights[:, None, None]
            for q in quads
        ]
        expected = projector_stack_sum(c.node_values([q.nodes for q in quads]), stacks)
        assert np.abs(reconstruct_continuous(c, quads).matrix - expected).max() <= 1e-14


def test_quadrature_normalization(rng):
    # integral of w over the product of spheres is 1 for unit-trace rho
    rho = random_density(rng, 2)
    c = pauli_coefficients(rho)
    quad = sphere_quadrature("octahedron")
    vals = c.node_values([quad.nodes, quad.nodes])
    total = float(np.einsum("ij,i,j->", vals, quad.weights, quad.weights))
    assert abs(total - 1.0) < 1e-12


def test_quadrature_degrees():
    oct_q = sphere_quadrature("octahedron")
    ico_q = sphere_quadrature("icosahedron")
    assert oct_q.is_exact_to_degree(3)
    assert not oct_q.is_exact_to_degree(4)
    assert ico_q.is_exact_to_degree(5)
    assert not ico_q.is_exact_to_degree(6)
    # the failing monomial for the octahedron is x^4: 4pi/3 vs 4pi/5
    assert oct_q.degree_residual(4) > 1.0


def test_reconstruct_continuous_rejects_weak_quadrature(rng):
    from blochframes import add_hosh, sph_coefficients

    rho = random_density(rng, 1)
    s = sph_coefficients(pauli_coefficients(rho))
    # an l = 5 term needs quadrature degree 6, beyond both shipped node sets
    aug = add_hosh(s, {((5, 0),): 0.05})
    with pytest.raises(ValueError):
        reconstruct_continuous(aug, sphere_quadrature("icosahedron"))


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
        x, y, z = q.nodes.T
        for degree in range(8):
            worst = max(
                abs(float(np.sum(q.weights * x**a * y**b * z**c)) - integral(a, b, c))
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
