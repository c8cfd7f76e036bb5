import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blochframes import (
    BlochVector,
    Frame,
    NonSpanningFrameError,
    bloch_projector,
    build_frame,
    cardinal6,
    continuous_dual,
    dual_frame,
    frame_check,
    frame_from_json,
    frame_to_json,
    pauli,
    polyhedron_vectors,
    reflect_octant,
    sigma_stack,
    trace_inner,
)
from conftest import random_hermitian


def unit(x, y, z):
    r = math.sqrt(x * x + y * y + z * z)
    return BlochVector(x / r, y / r, z / r)


def test_cardinal6_order_and_duals():
    f = cardinal6()
    assert f.kind == "cardinal6"
    assert f.size == 6
    expected_vectors = [
        (1, 0, 0), (-1, 0, 0),
        (0, 1, 0), (0, -1, 0),
        (0, 0, 1), (0, 0, -1),
    ]
    for v, e in zip(f.vectors, expected_vectors):
        assert np.allclose(list(v), e, atol=1e-15)
    # dual of direction n is (1 + 3 sigma.n)/6
    for v, q in zip(f.vectors, f.duals):
        sig = sum(c * pauli(j + 1).matrix for j, c in enumerate(v))
        assert np.allclose(q.matrix, (np.eye(2) + 3 * sig) / 6, atol=1e-12)


def gram_eigenvalues(f):
    """Ascending eigenvalues of the Gram superoperator sum_a |P_a)(P_a|."""
    vecs = f.projector_stack.transpose(0, 2, 1).reshape(f.size, 4)
    g = vecs.T @ vecs.conj()
    return np.linalg.eigvalsh(0.5 * (g + g.conj().T))


def test_cardinal6_gram_spectrum():
    evs = gram_eigenvalues(cardinal6())
    assert np.allclose(evs, [1.0, 1.0, 1.0, 3.0], atol=1e-12)


def test_tetrahedron_gram_spectrum():
    evs = gram_eigenvalues(build_frame("tetrahedron"))
    assert np.allclose(evs, [2 / 3, 2 / 3, 2 / 3, 2.0], atol=1e-12)


def test_dual_eigenvalues_balanced_frames():
    # duals of a balanced K-frame are (1 + 3 sigma.n)/K: eigenvalues 4/K and -2/K
    for kind in ("octahedron", "tetrahedron", "cube", "icosahedron", "dodecahedron"):
        f = build_frame(kind)
        k = f.size
        for q in f.duals:
            evs = np.sort(np.linalg.eigvalsh(q.matrix))
            assert np.allclose(evs, [-2 / k, 4 / k], atol=1e-12), kind


def test_resolution_of_identity_all_named_frames():
    for kind in ("cardinal6", "tetrahedron", "octahedron", "cube", "icosahedron", "dodecahedron"):
        f = build_frame(kind)
        assert f.resolution_residual() < 1e-10, kind


def test_expansion_roundtrip_both_directions(rng):
    f = build_frame("icosahedron")
    for _ in range(100):
        a = random_hermitian(rng, 1)
        via_duals = sum(
            p.matrix * trace_inner(q, a).real for p, q in zip(f.projectors, f.duals)
        )
        via_projectors = sum(
            q.matrix * trace_inner(p, a).real for p, q in zip(f.projectors, f.duals)
        )
        assert np.abs(via_duals - a.matrix).max() < 1e-10
        assert np.abs(via_projectors - a.matrix).max() < 1e-10


def test_frame_check_polyhedra():
    for kind in ("tetrahedron", "octahedron", "cube", "icosahedron", "dodecahedron"):
        chk = frame_check(polyhedron_vectors(kind))
        assert chk.passed, kind
        assert chk.centroid_residual < 1e-14
        assert chk.moment_residual < 1e-14


def test_frame_check_catches_unbalanced_axes():
    vectors = [
        BlochVector(0, 0, 1), BlochVector(0, 0, -1),
        BlochVector(1, 0, 0), BlochVector(-1, 0, 0),
    ]
    chk = frame_check(vectors)
    assert not chk.passed
    # the yy moment is 0 instead of 1/3
    assert chk.moment_residual > 0.3


def test_closed_form_duals_require_balance(rng):
    # for balanced frames the Gram-inverse duals collapse to (1 + 3 sigma.n)/K
    vs = polyhedron_vectors("icosahedron")
    f = dual_frame(vs)
    for v, q in zip(f.vectors, f.duals):
        sig = sum(c * pauli(j + 1).matrix for j, c in enumerate(v))
        closed = (np.eye(2) + 3 * sig) / len(vs)
        assert np.abs(q.matrix - closed).max() < 1e-12


def test_tetrahedron_coefficients_unique(rng):
    # K = 4 projectors are linearly independent, so the dual-frame expansion
    # must agree with an independent least-squares solve
    f = build_frame("tetrahedron")
    basis = np.stack([p.matrix.reshape(-1, order="F") for p in f.projectors], axis=1)
    for _ in range(20):
        a = random_hermitian(rng, 1)
        coeff_dual = np.array([trace_inner(q, a).real for q in f.duals])
        coeff_lstsq, *_ = np.linalg.lstsq(basis, a.matrix.reshape(-1, order="F"), rcond=None)
        assert np.abs(coeff_dual - coeff_lstsq.real).max() < 1e-12
        assert np.abs(coeff_lstsq.imag).max() < 1e-12


def test_non_spanning_frame_raises():
    coplanar = [
        BlochVector(1, 0, 0),
        BlochVector(-0.5, math.sqrt(3) / 2, 0),
        BlochVector(-0.5, -math.sqrt(3) / 2, 0),
        BlochVector(0, 1, 0),
    ]
    with pytest.raises(NonSpanningFrameError):
        dual_frame(coplanar)


def test_too_few_vectors_raise():
    with pytest.raises(NonSpanningFrameError):
        dual_frame([BlochVector(0, 0, 1), BlochVector(0, 0, -1), BlochVector(1, 0, 0)])


def test_continuous_dual_spectrum():
    q = continuous_dual(unit(0.3, -0.4, 0.86))
    evs = np.sort(np.linalg.eigvalsh(q.matrix))
    assert np.allclose(evs, [-1 / (2 * math.pi), 1 / math.pi], atol=1e-12)
    assert abs(np.trace(q.matrix).real - 1 / (2 * math.pi)) < 1e-14


def test_reflect_octant_count_and_moments(rng):
    seeds = []
    while len(seeds) < 3:
        raw = rng.uniform(0.05, 1.0, size=3)
        seeds.append(BlochVector.from_array(raw / np.linalg.norm(raw)))
    out = reflect_octant(seeds)
    assert len(out) == 24
    arr = np.array([list(v) for v in out])
    # sign closure kills the centroid and the off-diagonal moments
    assert np.abs(arr.sum(axis=0)).max() < 1e-14
    moments = arr.T @ arr / len(out)
    off = moments - np.diag(np.diag(moments))
    assert np.abs(off).max() < 1e-14
    # diagonal moments are the mean squared seed components and trace to 1
    expected_diag = np.mean([np.array(list(s)) ** 2 for s in seeds], axis=0)
    assert np.allclose(np.diag(moments), expected_diag, atol=1e-14)
    assert abs(np.trace(moments) - 1.0) < 1e-12


def test_reflect_octant_cube_seed_is_balanced():
    out = reflect_octant(unit(1, 1, 1))
    assert len(out) == 8
    chk = frame_check(out)
    assert chk.passed
    assert sorted(tuple(np.round(v, 12)) for v in out) == sorted(
        tuple(np.round(list(v), 12)) for v in polyhedron_vectors("cube")
    )


def test_reflect_octant_resolution_residual(rng):
    for _ in range(10):
        raw = rng.uniform(0.05, 1.0, size=3)
        seed = BlochVector.from_array(raw / np.linalg.norm(raw))
        f = build_frame("reflected", vectors=[seed])
        assert f.size == 8
        assert f.resolution_residual() < 1e-10


def test_reflected_frame_json_roundtrip(rng):
    raw = rng.uniform(0.05, 1.0, size=(2, 3))
    seeds = [BlochVector.from_array(r / np.linalg.norm(r)) for r in raw]
    f = build_frame("reflected", vectors=seeds)
    obj = frame_to_json(f)
    assert obj["kind"] == "reflected"
    assert len(obj["vectors"]) == 2  # seeds only
    g = frame_from_json(obj)
    assert g.size == f.size == 16
    for a, b in zip(f.vectors, g.vectors):
        assert np.allclose(list(a), list(b), atol=1e-15)


def test_reflect_octant_rejects_boundary():
    with pytest.raises(ValueError):
        reflect_octant(BlochVector(0.0, 0.6, 0.8))
    with pytest.raises(ValueError):
        reflect_octant(unit(-1, 1, 1))
    with pytest.raises(ValueError):
        reflect_octant(BlochVector(0.6, 0.6, 0.8))  # not unit


def test_duplicate_vectors_allowed(rng):
    # exact duplicates split weight but still resolve the identity
    vs = list(polyhedron_vectors("octahedron")) + [BlochVector(0, 0, 1)]
    f = dual_frame(vs)
    assert f.resolution_residual() < 1e-10


def test_frame_json_roundtrip():
    f = build_frame("tetrahedron")
    obj = frame_to_json(f)
    assert obj["kind"] == "tetrahedron"
    g = frame_from_json(obj)
    assert g.kind == f.kind
    for a, b in zip(f.vectors, g.vectors):
        assert np.allclose(list(a), list(b), atol=1e-15)
    # bare string names a polyhedron
    h = frame_from_json("icosahedron")
    assert h.size == 12


def test_frame_json_custom_requires_vectors():
    with pytest.raises(ValueError):
        frame_from_json({"kind": "custom"})


def test_projector_invariants():
    for kind in ("cardinal6", "dodecahedron"):
        f = build_frame(kind)
        for p in f.projectors:
            m = p.matrix
            assert np.abs(m - m.conj().T).max() < 1e-12
            assert np.abs(m @ m - m).max() < 1e-12
            assert abs(np.trace(m).real - 1.0) < 1e-12


def test_named_frames_are_shared_and_read_only():
    cube = build_frame("cube")
    assert build_frame("cube") is cube
    assert frame_from_json({"kind": "cube"}) is cube
    assert cardinal6() is build_frame("cardinal6")
    assert polyhedron_vectors("icosahedron") is polyhedron_vectors("icosahedron")
    with pytest.raises(ValueError):
        cube.projectors[0].matrix[0, 0] = 0.0
    with pytest.raises(ValueError):
        cube.duals[0].matrix[0, 0] = 0.0
    # custom frames are still built per call
    vs = list(polyhedron_vectors("tetrahedron"))
    assert build_frame("custom", vs) is not build_frame("custom", vs)


_direction = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: math.hypot(*v) > 0.1)


@settings(max_examples=60, deadline=None)
@given(st.lists(_direction, min_size=4, max_size=12))
def test_random_spanning_frames(raw):
    vs = [unit(*v) for v in raw]
    # keep frames whose projectors span with a well-conditioned Gram matrix
    a = np.hstack([np.ones((len(vs), 1)), np.array(vs)])
    assume(np.linalg.svd(a, compute_uv=False)[-1] >= 0.1)
    f = dual_frame(vs)
    assert f.resolution_residual() < 1e-10
    sig = sigma_stack()
    per_dual = np.array(
        [[0.5 * np.real(np.trace(q.matrix @ sig[b])) for b in range(4)] for q in f.duals]
    )
    assert np.abs(f.dual_pauli_matrix() - per_dual).max() <= 1e-14


def _every_frame_kind(rng):
    """Every named frame plus seeded reflected and custom frames."""
    frames = [build_frame(kind) for kind in
              ("cardinal6", "tetrahedron", "octahedron", "cube", "icosahedron", "dodecahedron")]
    for size in (1, 2, 3):
        seeds = [unit(*(np.abs(rng.normal(size=3)) + 0.05)) for _ in range(size)]
        frames.append(build_frame("reflected", seeds))
    for size in (4, 5, 8, 12):
        while True:
            vs = [unit(*rng.normal(size=3)) for _ in range(size)]
            a = np.hstack([np.ones((size, 1)), np.array(vs)])
            if np.linalg.svd(a, compute_uv=False)[-1] >= 0.1:
                break
        frames.append(build_frame("custom", vs))
    return frames


def _pauli_sum(m):
    """sum_b m[:, b] sigma_b for a (K, 4) array, term by term."""
    sig = sigma_stack()
    return sum(m[:, b, None, None] * sig[b] for b in range(4))


def test_stacks_match_operator_views(rng):
    sig = sigma_stack()
    for f in _every_frame_kind(rng):
        assert f.projector_stack.shape == f.dual_stack.shape == (f.size, 2, 2)
        assert np.array_equal(f.projector_stack, np.array([p.matrix for p in f.projectors]))
        assert np.array_equal(f.dual_stack, np.array([q.matrix for q in f.duals]))
        # the projectors as bloch_projector builds them one by one
        one_by_one = np.array([bloch_projector(v).matrix for v in f.vectors])
        assert np.array_equal(f.projector_stack, one_by_one)
        # the duals are built from dual_pauli_matrix, and give it back via the trace
        assert np.array_equal(f.dual_stack, _pauli_sum(f.dual_pauli_matrix()))
        per_dual = 0.5 * np.einsum("aij,bji->ab", np.array([q.matrix for q in f.duals]), sig).real
        assert np.abs(f.dual_pauli_matrix() - per_dual).max() <= 1e-14


def test_dual_pauli_matrix_is_computed_once(rng):
    for f in _every_frame_kind(rng):
        m = f.dual_pauli_matrix()
        assert f.dual_pauli_matrix() is m
        assert not m.flags.writeable
        assert f.dual_stack is f.dual_stack
        assert np.array_equal(f.dual_stack, _pauli_sum(m))


def test_balanced_named_frames_have_closed_form_duals():
    # (1/K)(1, 3 n_a): exact on the axis vectors, within rounding elsewhere
    for kind in ("cardinal6", "octahedron", "tetrahedron", "cube", "icosahedron", "dodecahedron"):
        f = build_frame(kind)
        closed = np.hstack([np.ones((f.size, 1)), 3.0 * np.array(f.vectors)]) / f.size
        if kind in ("cardinal6", "octahedron"):
            assert np.array_equal(f.dual_pauli_matrix(), closed), kind
        else:
            assert np.abs(f.dual_pauli_matrix() - closed).max() <= 1e-15, kind


def superoperator_residual(f):
    """|sum_a |P_a)(Q_a| - 1|_F on column-stacked 2x2 matrices."""
    vp = f.projector_stack.transpose(0, 2, 1).reshape(f.size, 4)
    vq = f.dual_stack.transpose(0, 2, 1).reshape(f.size, 4)
    return float(np.linalg.norm(vp.T @ vq.conj() - np.eye(4)))


def test_resolution_residual_matches_superoperator_form(rng):
    for f in _every_frame_kind(rng):
        assert abs(f.resolution_residual() - superoperator_residual(f)) <= 1e-14, f.kind
    # a frame whose duals are off by 1%, so that the residual is far from zero
    f = dual_frame(polyhedron_vectors("icosahedron"))
    object.__setattr__(f, "_dual_pauli", 1.01 * f.dual_pauli_matrix())
    assert abs(f.resolution_residual() / superoperator_residual(f) - 1.0) <= 1e-12


def test_frame_is_built_from_its_vectors():
    vs = polyhedron_vectors("cube")
    f = Frame("custom", list(vs))
    assert f.vectors == vs
    assert np.array_equal(f.rows, np.hstack([np.ones((8, 1)), np.array(vs)]))
    assert not f.rows.flags.writeable
    assert np.array_equal(f.dual_pauli_matrix(), dual_frame(vs).dual_pauli_matrix())
    with pytest.raises(TypeError):
        Frame("custom", vs, f.projector_stack, f.dual_stack)
    with pytest.raises(NonSpanningFrameError, match="spans only 0 of 4"):
        Frame("custom", ())


def test_operator_views_are_built_once():
    f = build_frame("custom", list(polyhedron_vectors("cube")))
    assert f.projectors is f.projectors
    assert f.duals is f.duals
    assert all(p.hermitian and q.hermitian for p, q in zip(f.projectors, f.duals))


def test_named_frame_stacks_are_read_only():
    for kind in ("cardinal6", "tetrahedron", "octahedron", "cube", "icosahedron", "dodecahedron"):
        f = build_frame(kind)
        for stack in (f.projector_stack, f.dual_stack):
            assert not stack.flags.writeable
            with pytest.raises(ValueError):
                stack[0, 0, 0] = 0.0


def test_dual_frame_rejects_nan_vector():
    with pytest.raises(ValueError, match="unit Bloch vector"):
        dual_frame([BlochVector(math.nan, 0.0, 0.0)] + list(polyhedron_vectors("tetrahedron")))
