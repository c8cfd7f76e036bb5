import math
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from blochframes import (
    BlochVector,
    DenseOperator,
    PauliCoefficients,
    SphCoefficients,
    StateSpec,
    add_hosh,
    build_frame,
    build_state,
    pauli_coefficients,
    reconstruct_continuous,
    sph_coefficients,
    sph_y,
    sphere_grid,
    sphere_quadrature,
    wcan_continuous,
)
from conftest import random_density

FOUR_PI = 4 * math.pi


def test_sph_y_low_order_closed_forms(rng):
    for _ in range(25):
        theta = rng.uniform(0, math.pi)
        phi = rng.uniform(0, 2 * math.pi)
        assert abs(sph_y(0, 0, theta, phi) - 1 / math.sqrt(FOUR_PI)) < 1e-14
        assert abs(sph_y(1, 0, theta, phi) - math.sqrt(3 / FOUR_PI) * math.cos(theta)) < 1e-14
        expected_p = -math.sqrt(3 / (8 * math.pi)) * math.sin(theta) * np.exp(1j * phi)
        assert abs(sph_y(1, 1, theta, phi) - expected_p) < 1e-14
        expected_m = math.sqrt(3 / (8 * math.pi)) * math.sin(theta) * np.exp(-1j * phi)
        assert abs(sph_y(1, -1, theta, phi) - expected_m) < 1e-14


def test_sph_y_rejects_bad_m():
    with pytest.raises(ValueError):
        sph_y(1, 2, 0.3, 0.4)


def test_sph_coefficients_identity_and_pole():
    half = DenseOperator(np.eye(2) / 2, 1, hermitian=True)
    s = sph_coefficients(pauli_coefficients(half))
    assert abs(s.canonical[0] - 1 / math.sqrt(FOUR_PI)) < 1e-14
    assert np.abs(s.canonical[1:]).max() < 1e-14

    zero = DenseOperator(np.diag([1.0, 0.0]), 1, hermitian=True)
    s0 = sph_coefficients(pauli_coefficients(zero))
    # canonical order is (0,0), (1,-1), (1,0), (1,1)
    assert abs(s0.canonical[2] - math.sqrt(3 / FOUR_PI)) < 1e-14


def test_sph_evaluation_matches_wcan(rng):
    for n in (1, 2):
        rho = random_density(rng, n)
        c = pauli_coefficients(rho)
        s = sph_coefficients(c)
        for _ in range(50):
            dirs = []
            for _k in range(n):
                raw = rng.normal(size=3)
                dirs.append(BlochVector.from_array(raw / np.linalg.norm(raw)))
            assert abs(wcan_continuous(s, dirs) - wcan_continuous(c, dirs)) < 1e-12
        # both representations refuse a non-unit direction
        dirs = [BlochVector(2.0, 0.0, 0.0)] + [BlochVector(0.0, 0.0, 1.0)] * (n - 1)
        for rep in (s, c):
            with pytest.raises(ValueError, match="unit Bloch vector"):
                wcan_continuous(rep, dirs)


def test_canonical_pauli_roundtrip(rng):
    for n in (1, 2, 3):
        rho = random_density(rng, n)
        c = pauli_coefficients(rho)
        back = sph_coefficients(c).pauli
        assert np.abs(back.coeffs - c.coeffs).max() < 1e-12


def test_canonical_pauli_roundtrip_is_exact(rng):
    for n in (1, 2, 3):
        c = pauli_coefficients(random_density(rng, n))
        assert np.array_equal(sph_coefficients(c).pauli.coeffs, c.coeffs)


def test_add_hosh_preserves_operator(rng):
    rho = random_density(rng, 1)
    s = sph_coefficients(pauli_coefficients(rho))
    aug = add_hosh(s, {((2, 0),): 0.4, ((3, 2),): 0.1 + 0.2j, ((3, -2),): 0.1 - 0.2j})
    quad = sphere_quadrature("icosahedron")
    # icosahedron integrates degree 5; l = 3 terms need degree 4
    back = reconstruct_continuous(aug, quad)
    assert np.abs(back.matrix - rho.matrix).max() < 1e-10
    assert aug.pauli.coeffs == pytest.approx(pauli_coefficients(rho).coeffs, abs=1e-12)


def test_add_hosh_changes_pointwise_values(rng):
    rho = random_density(rng, 1)
    s = sph_coefficients(pauli_coefficients(rho))
    aug = add_hosh(s, {((2, 0),): 0.4})
    v = BlochVector.from_spherical(0.9, 0.7)
    assert abs(wcan_continuous(aug, [v]) - wcan_continuous(s, [v])) > 1e-3


def test_add_hosh_rejects_low_order_terms(rng):
    s = sph_coefficients(pauli_coefficients(random_density(rng, 1)))
    with pytest.raises(ValueError):
        add_hosh(s, {((1, 0),): 0.1})
    with pytest.raises(ValueError):
        add_hosh(s, {((0, 0),): 0.1})


def test_add_hosh_rejects_reality_violation(rng):
    s = sph_coefficients(pauli_coefficients(random_density(rng, 1)))
    with pytest.raises(ValueError):
        add_hosh(s, {((2, 1),): 0.3})
    # correct mirror has a (-1)^m factor; the naive conjugate is wrong
    with pytest.raises(ValueError):
        add_hosh(s, {((2, 1),): 0.3 - 0.2j, ((2, -1),): 0.3 + 0.2j})
    ok = add_hosh(s, {((2, 1),): 0.3 - 0.2j, ((2, -1),): -0.3 - 0.2j})
    assert len(ok.hosh) == 2


_KEY = ((2, 0), (0, 0))


@pytest.mark.parametrize(
    "terms",
    [
        [(_KEY, complex(math.nan))],
        [(_KEY, complex(math.inf))],
        [(_KEY, complex(0.0, -math.inf))],
        # two finite terms under one key whose sum overflows
        [(_KEY, 1e308), (_KEY, 1e308)],
    ],
    ids=["nan", "inf", "-inf_j", "overflow"],
)
def test_add_hosh_rejects_non_finite_coefficients(terms):
    c = pauli_coefficients(build_state(StateSpec("werner", epsilon=0.3)))
    # a NaN fails every comparison, so the reality pairing alone would let it through
    with pytest.raises(ValueError, match=r"\(\(2, 0\), \(0, 0\)\) has a non-finite coefficient"):
        add_hosh(sph_coefficients(c), terms)


def test_reality_pairing_of_huge_coefficients():
    # the pairing check runs in Python complex arithmetic, which overflows to inf
    # quietly, where numpy scalars warn before refusing
    s = sph_coefficients(pauli_coefficients(build_state(StateSpec("werner", epsilon=0.3))))
    key, mirror = ((2, 1), (0, 0)), ((2, -1), (0, 0))
    with pytest.raises(ValueError, match="breaks the reality pairing"):
        add_hosh(s, {key: 1e308 + 1e308j, mirror: 1e308 + 1e308j})
    assert len(add_hosh(s, {key: 1e308 + 1e308j, mirror: -1e308 + 1e308j}).hosh) == 2


@pytest.mark.parametrize(
    "mirror_coeff", [1.5e308 + 1.5e308j, 0j], ids=["same-size mismatch", "missing mirror"]
)
def test_pairing_tolerance_of_coefficients_beyond_the_float_modulus(mirror_coeff):
    # |1.5e308 + 1.5e308j| is above the float range, so abs() of it overflows
    s = sph_coefficients(pauli_coefficients(build_state(StateSpec("werner", epsilon=0.3))))
    key, mirror = ((2, 1), (0, 0)), ((2, -1), (0, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        paired = add_hosh(s, {key: 1.5e308 + 1.5e308j, mirror: -1.5e308 + 1.5e308j})
        assert dict(paired.hosh) == {key: 1.5e308 + 1.5e308j, mirror: -1.5e308 + 1.5e308j}
        with pytest.raises(ValueError, match="breaks the reality pairing"):
            add_hosh(s, {key: 1.5e308 + 1.5e308j, mirror: mirror_coeff})


@pytest.mark.parametrize(
    "coeff, gap, accepted",
    [
        # the gap is measured by its modulus: 0.9e-12 (1 + 1j) is 1.27e-12
        (1.0 + 0j, 0.9e-12 * (1 + 1j), False),
        (1.0 + 0j, 0.7e-12 * (1 + 1j), True),
        # and so is the scale: |0.6 + 0.8j| = 1, not its largest component 0.8
        (1e6 * (0.6 + 0.8j), 0.9e-6 + 0j, True),
        (1e6 * (0.6 + 0.8j), 1.1e-6 + 0j, False),
        (1e300 * (0.6 + 0.8j), 0.9e288 + 0j, True),
        (1e300 * (0.6 + 0.8j), 0.9e288 * (1 + 1j), False),
    ],
)
def test_pairing_tolerance_near_its_boundary(coeff, gap, accepted):
    # refused when |gap| > 1e-12 max(1, |coeff|)
    s = sph_coefficients(pauli_coefficients(build_state(StateSpec("werner", epsilon=0.3))))
    key, mirror = ((2, 1), (0, 0)), ((2, -1), (0, 0))
    terms = {key: coeff, mirror: -coeff.conjugate() + gap}
    if accepted:
        assert len(add_hosh(s, terms).hosh) == 2
    else:
        with pytest.raises(ValueError, match="breaks the reality pairing"):
            add_hosh(s, terms)


def test_constructor_enforces_hosh_terms():
    # one qubit, maximally mixed: an l = 1 term would move the operator it represents
    c = pauli_coefficients(build_state(StateSpec("maximally_mixed", qubits=1)))
    with pytest.raises(ValueError, match="all l <= 1"):
        SphCoefficients(c, ((((1, 0),), 1.0),))
    with pytest.raises(ValueError, match="reality pairing"):
        SphCoefficients(c, ((((2, 1),), 0.3),))
    for l, m in ((-1, 0), (2, 3), (2, -3)):
        with pytest.raises(ValueError, match=rf"invalid harmonic index \(l={l}, m={m}\)"):
            SphCoefficients(c, ((((l, m),), 0.3),))
    s = SphCoefficients(c, ((((2, 0),), 0.25), (((2, 0),), 0.25), (((3, 0),), 0.0)))
    assert s.hosh == ((((2, 0),), 0.5 + 0j),)


def test_add_hosh_rejects_wrong_key_length(rng):
    s = sph_coefficients(pauli_coefficients(random_density(rng, 2)))
    with pytest.raises(ValueError):
        add_hosh(s, {((2, 0),): 0.1})


def test_add_hosh_two_qubit_mixed_terms(rng):
    rho = random_density(rng, 2)
    s = sph_coefficients(pauli_coefficients(rho))
    # total m is zero, so the mirror pairing is a plain conjugate
    extra = {
        ((2, 1), (1, -1)): 0.05 + 0.02j,
        ((2, -1), (1, 1)): 0.05 - 0.02j,
    }
    aug = add_hosh(s, extra)
    back = reconstruct_continuous(aug, [sphere_quadrature("icosahedron")] * 2)
    assert np.abs(back.matrix - rho.matrix).max() < 1e-10


def test_point_mass_table_has_canonical_low_order_content():
    # viewing the cardinal6 table as point masses, its l <= 1 moments against
    # the quadrature must match the canonical expansion's moments
    rho = build_state(StateSpec("werner", epsilon=0.4))
    c = pauli_coefficients(rho)
    from blochframes import wcan_discrete

    frame = build_frame("cardinal6")
    table = wcan_discrete(rho, [frame] * 2)
    quad = sphere_quadrature("icosahedron")
    nodes, weights = quad.rows[:, 1:], np.full(quad.size, 4 * math.pi / quad.size)

    # canonical moments: integrate w(n1, n2) Ybar_lm(n1) Ybar_l'm'(n2)
    vals = c.node_values([nodes, nodes])

    def y_matrix(nodes):
        out = np.empty((len(nodes), 4), dtype=complex)
        thetas = np.arccos(np.clip(nodes[:, 2], -1, 1))
        phis = np.arctan2(nodes[:, 1], nodes[:, 0])
        for col, (l, m) in enumerate(((0, 0), (1, -1), (1, 0), (1, 1))):
            out[:, col] = np.conj([sph_y(l, m, t, p) for t, p in zip(thetas, phis)])
        return out

    yq = y_matrix(nodes)
    canon = np.einsum("ab,a,b,ai,bj->ij", vals, weights, weights, yq, yq)

    vertices = np.array([list(v) for v in frame.vectors])
    yv = y_matrix(vertices)
    point = np.einsum("ab,ai,bj->ij", table.weights, yv, yv)

    assert np.abs(canon - point).max() < 1e-10


def test_mirror_symmetry_of_hosh_terms(rng):
    # a hosh set closed under the reality pairing gives real values everywhere
    s = sph_coefficients(pauli_coefficients(random_density(rng, 1)))
    aug = add_hosh(s, {((3, 1),): 0.2 + 0.1j, ((3, -1),): -0.2 + 0.1j})
    for _ in range(20):
        theta = rng.uniform(0, math.pi)
        phi = rng.uniform(0, 2 * math.pi)
        value = wcan_continuous(aug, [BlochVector.from_spherical(theta, phi)])
        assert isinstance(value, float)


def test_package_import_leaves_scipy_special_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, blochframes; print('scipy.special' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_hosh_free_round_trip_leaves_scipy_special_unloaded():
    script = (
        "import sys, numpy as np\n"
        "import blochframes as bf\n"
        "rho = bf.build_state(bf.StateSpec('werner', epsilon=0.3))\n"
        "s = bf.sph_coefficients(bf.pauli_coefficients(rho))\n"
        "back = bf.reconstruct_continuous(s, bf.sphere_quadrature('octahedron'))\n"
        "assert np.abs(back.matrix - rho.matrix).max() < 1e-12\n"
        "bf.wcan_continuous(s, [bf.BlochVector(0.0, 0.0, 1.0)] * 2)\n"
        "print('scipy.special' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _node_values_column_loop(s, nodes_per_qubit):
    """SphCoefficients.node_values, its canonical matrix filled one sph_y column at a time."""
    from blochframes.representations import _mode_contract

    angles = [
        (np.arccos(np.clip(nodes[:, 2], -1.0, 1.0)), np.arctan2(nodes[:, 1], nodes[:, 0]))
        for nodes in nodes_per_qubit
    ]
    mats = []
    for theta, phi in angles:
        m = np.empty((theta.size, 4), dtype=complex)
        for col, (l, mm) in enumerate(((0, 0), (1, -1), (1, 0), (1, 1))):
            m[:, col] = sph_y(l, mm, theta, phi)
        mats.append(m)
    total = _mode_contract(s.canonical, mats)
    for key, coeff in s.hosh:
        term = np.array(coeff)
        for (l, mm), (theta, phi) in zip(key, angles):
            term = np.multiply.outer(term, sph_y(l, mm, theta, phi))
        total = total + term
    return total.real


def test_node_values_match_column_loop(rng):
    for n in (1, 2, 3):
        c = pauli_coefficients(random_density(rng, n))
        s = sph_coefficients(c)
        key = ((3, 2),) + ((1, 0),) * (n - 1)
        mirror = tuple((l, -m) for l, m in key)
        # the m values of key sum to 2, so the mirror coefficient is the plain conjugate
        aug = add_hosh(s, {key: 0.3 + 0.2j, mirror: 0.3 - 0.2j})
        for size in (1, 5, 12):
            nodes = [rng.normal(size=(size, 3)) for _ in range(n)]
            nodes = [v / np.linalg.norm(v, axis=1, keepdims=True) for v in nodes]
            for coeffs in (s, aug):
                expected = _node_values_column_loop(coeffs, nodes)
                assert np.abs(coeffs.node_values(nodes) - expected).max() <= 1e-15
            # without HOSH terms the Pauli tensor is the one evaluator
            assert np.array_equal(s.node_values(nodes), c.node_values(nodes))


def _node_values_from_zero_table(s, nodes_per_qubit):
    """SphCoefficients.node_values as it was: the HOSH sum starts from a complex zero table."""
    from blochframes.harmonics import _node_angles

    total = s.pauli.node_values(nodes_per_qubit)
    angles = [_node_angles(nodes) for nodes in nodes_per_qubit]
    extra = np.zeros(total.shape, dtype=complex)
    for key, coeff in s.hosh:
        term = np.array(coeff)
        for (l, mm), (theta, phi) in zip(key, angles):
            term = np.multiply.outer(term, sph_y(l, mm, theta, phi))
        extra += term
    total += extra.real
    return total


def test_node_values_match_zero_table_start_bit_for_bit():
    # c_0 / 3 is the least negative subnormal, and the (3/4pi) scale rounds it
    # to -0.0 wherever z = 0
    c = PauliCoefficients(1, np.array([-3 * 5e-324, 0.0, 0.0, 0.5]))
    nodes = [np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.6, 0.8], [0.0, 0.0, -1.0]])]
    pauli_values = c.node_values(nodes)
    assert pauli_values[0] == 0.0 and np.signbit(pauli_values[:2]).all()
    s = sph_coefficients(c)
    aug = add_hosh(s, {((2, 1),): 0.3 + 0.2j, ((2, -1),): -0.3 + 0.2j})
    for coeffs in (s, aug):
        former = _node_values_from_zero_table(coeffs, nodes)
        assert coeffs.node_values(nodes).tobytes() == former.tobytes()
    # adding 0.0 turns -0.0 into +0.0, as the zero table did
    assert not np.signbit(s.node_values(nodes)[:2]).any()


def test_node_values_without_hosh_hold_one_table():
    rho = build_state(StateSpec("eps_cat", qubits=4, epsilon=0.2))
    s = sph_coefficients(pauli_coefficients(rho))
    theta, phi = sphere_grid(24).T
    nodes = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], 1)
    assert len(nodes) == 20
    s.node_values([nodes] * 4)
    tracemalloc.start()
    try:
        values = s.node_values([nodes] * 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert values.shape == (20,) * 4
    assert peak <= 1.5 * values.nbytes


def test_sph_y_broadcasts_and_checks_every_m():
    ls, ms = np.array([0, 1, 1, 1]), np.array([0, -1, 0, 1])
    theta, phi = np.array([0.2, 1.1, 2.9]), np.array([0.4, 3.0, 5.5])
    grid = sph_y(ls, ms, theta[:, None], phi[:, None])
    assert grid.shape == (3, 4)
    for col, (l, m) in enumerate(zip(ls, ms)):
        assert np.array_equal(grid[:, col], sph_y(int(l), int(m), theta, phi))
    with pytest.raises(ValueError, match=r"\|m\| = 3 exceeds l = 2"):
        sph_y(np.array([1, 2]), np.array([1, -3]), 0.3, 0.4)


def test_quadrature_residual_kept_per_degree():
    from blochframes import Frame
    from blochframes.frames import QUADRATURE_TOL

    shared = sphere_quadrature("octahedron")
    fresh = Frame("custom", shared.vectors)
    for degree in range(6):
        first = fresh.degree_residual(degree)
        assert fresh.degree_residual(degree) == first == shared.degree_residual(degree)
    # the kept residual, against the named tolerance, decides
    for degree in range(6):
        assert fresh.is_exact_to_degree(degree) == (fresh.degree_residual(degree) <= QUADRATURE_TOL)
    assert fresh.is_exact_to_degree(3)
    assert not fresh.is_exact_to_degree(4)
