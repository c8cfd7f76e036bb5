"""End-to-end checks for the package's headline guarantees.

Each test prints a single `acceptance NN <label>: PASS/FAIL` line so the
whole gate can be read off a terminal run.  Tolerances are pinned here and
must not be loosened to make a run green.
"""

import json
import time

import numpy as np

from blochframes import (
    BlochVector,
    DenseOperator,
    StateSpec,
    add_hosh,
    build_frame,
    build_state,
    cat_ensemble,
    ensemble_to_table,
    pauli_coefficients,
    ppt_min_eigenvalue,
    reconstruct_continuous,
    reconstruct_discrete,
    sigma_stack,
    sph_coefficients,
    sphere_quadrature,
    threshold_search,
    wcan_discrete,
    witness_ghz,
    witness_werner,
)
from blochframes.cli import main as cli_main

from conftest import random_density


def report(capsys, number, label, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"acceptance {number:02d} {label}: {verdict}")
    assert ok, f"criterion {number} ({label}) failed {detail}"


def test_01_cardinal6_duals_closed_form(capsys):
    start = time.perf_counter()
    frame = build_frame("cardinal6")
    elapsed = time.perf_counter() - start
    sig = sigma_stack()
    worst = 0.0
    for a, v in enumerate(frame.vectors):
        axis = v[0] * sig[1] + v[1] * sig[2] + v[2] * sig[3]
        expected = (np.eye(2) + 3.0 * axis) / 6.0
        worst = max(worst, float(np.max(np.abs(frame.duals[a].matrix - expected))))
    report(capsys, 1, "cardinal6 dual closed form", worst < 1e-12 and elapsed < 1.0,
           f"(worst entry error {worst:.3e}, build time {elapsed:.3f}s)")


def test_02_resolution_of_identity(capsys, rng):
    residuals = []
    for kind in ("cardinal6", "tetrahedron", "icosahedron"):
        residuals.append(build_frame(kind).resolution_residual())
    for _ in range(10):
        while True:
            seed = np.abs(rng.normal(size=3))
            if seed.min() >= 1e-3:
                break
        seed /= np.linalg.norm(seed)
        frame = build_frame("reflected", vectors=[BlochVector.from_array(seed)])
        residuals.append(frame.resolution_residual())
    worst = max(residuals)
    report(capsys, 2, "resolution of identity", worst < 1e-10,
           f"(worst residual {worst:.3e})")


def test_03_reconstruction_roundtrips(capsys, rng):
    quad = sphere_quadrature("octahedron")
    worst_discrete = 0.0
    worst_continuous = 0.0
    for n in (1, 2, 3):
        frames = [build_frame("cardinal6")] * n
        for _ in range(100):
            rho = random_density(rng, n)
            back = reconstruct_discrete(wcan_discrete(rho, frames))
            worst_discrete = max(
                worst_discrete, float(np.max(np.abs(back.matrix - rho.matrix)))
            )
            cont = reconstruct_continuous(pauli_coefficients(rho), quad)
            worst_continuous = max(
                worst_continuous, float(np.max(np.abs(cont.matrix - rho.matrix)))
            )
    ok = worst_discrete < 1e-10 and worst_continuous < 1e-12
    report(capsys, 3, "reconstruction roundtrips", ok,
           f"(discrete {worst_discrete:.3e}, continuous {worst_continuous:.3e})")


def test_04_table_entry_lower_bound(capsys, rng):
    frames = [build_frame("cardinal6")] * 2
    lowest = 0.0
    for _ in range(500):
        rho = random_density(rng, 2)
        lowest = min(lowest, wcan_discrete(rho, frames).min_entry())
    bound_ok = lowest >= -2 / 9 - 1e-12
    # |01><01| saturates the bound: its worst table cell pairs the most
    # negative dual eigenvalue on one side with the largest on the other.
    # Found by direct search over computational product states, then frozen.
    fixture = DenseOperator(np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex), 2,
                            hermitian=True)
    attained = wcan_discrete(fixture, frames).min_entry()
    attain_ok = abs(attained - (-2 / 9)) < 1e-9
    report(capsys, 4, "table entry lower bound", bound_ok and attain_ok,
           f"(lowest seen {lowest:.12f}, fixture min {attained:.12f})")


def test_05_bound_table_values(capsys):
    code = cli_main(["--format", "json", "bounds", "--n-min", "1", "--n-max", "6"])
    out = capsys.readouterr().out
    rows = {row["N"]: row for row in json.loads(out)}
    ok = code == 0
    ok &= rows[1]["general"] == 1 / 3
    ok &= rows[2]["general"] == 1 / 9
    ok &= rows[3]["general"] == 1 / 33
    ok &= rows[2]["cat"] == 1 / 9
    ok &= rows[3]["cat"] == 1 / 27
    ok &= rows[4]["cat"] == 1 / 81
    ok &= rows[5]["cat"] == 1 / 243
    ok &= rows[6]["cat"] == 1 / 1089
    ok &= rows[2]["duer"] == 1 / 3
    ok &= rows[3]["duer"] == 1 / 5
    report(capsys, 5, "bound table exact values", bool(ok))


def test_06_cat_thresholds_by_search(capsys):
    expectations = {2: 1 / 9, 3: 1 / 27, 4: 1 / 81}
    ok = True
    details = []
    for n, expected in expectations.items():
        pure = pauli_coefficients(build_state(StateSpec("cat", qubits=n)))
        start = time.perf_counter()
        found = threshold_search(pure, grid_per_sphere=48, refine_iters=3)
        elapsed = time.perf_counter() - start
        details.append(f"N={n}: {found:.9f} in {elapsed:.1f}s")
        ok &= abs(found - expected) < 1e-6 and elapsed < 60.0
    report(capsys, 6, "cat thresholds by search", ok, "(" + "; ".join(details) + ")")


def test_07_ensemble_mixtures(capsys):
    werner_dev = float(np.max(np.abs(
        cat_ensemble(2).mixture().matrix
        - build_state(StateSpec("werner", epsilon=1 / 3)).matrix
    )))
    ghz_dev = float(np.max(np.abs(
        cat_ensemble(3).mixture().matrix
        - build_state(StateSpec("eps_ghz", epsilon=1 / 5)).matrix
    )))
    ok = werner_dev < 1e-14 and ghz_dev < 1e-14
    report(capsys, 7, "ensemble mixtures", ok,
           f"(werner {werner_dev:.3e}, ghz {ghz_dev:.3e})")


def _witness_flip(family, witness):
    """Bisect the epsilon where the witness verdict changes."""
    def refuted(eps):
        rho = build_state(StateSpec(family, epsilon=eps))
        return witness(pauli_coefficients(rho)).verdict == "nonseparable"

    lo, hi = 0.0, 1.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if refuted(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_08_witness_and_ppt(capsys):
    werner_flip = _witness_flip("werner", witness_werner)
    ghz_flip = _witness_flip("eps_ghz", witness_ghz)
    flips_ok = abs(werner_flip - 1 / 3) < 1e-9 and abs(ghz_flip - 1 / 5) < 1e-9
    ppt_worst = 0.0
    for eps in np.arange(0.0, 1.0 + 1e-12, 0.1):
        rho = build_state(StateSpec("werner", epsilon=float(eps)))
        ppt_worst = max(
            ppt_worst, abs(ppt_min_eigenvalue(rho) - (1 - 3 * eps) / 4)
        )
    ok = flips_ok and ppt_worst < 1e-12
    report(capsys, 8, "witness flips and PPT", ok,
           f"(flips {werner_flip:.10f}, {ghz_flip:.10f}; ppt dev {ppt_worst:.3e})")


def test_09_canonical_vs_optimal_gap(capsys):
    frames = [build_frame("octahedron")] * 3
    rho = build_state(StateSpec("eps_ghz", epsilon=1 / 5))
    canonical_min = wcan_discrete(rho, frames).min_entry()
    ensemble_min = ensemble_to_table(cat_ensemble(3), frames).min_entry()
    ok = canonical_min < -1e-6 and ensemble_min >= 0.0
    report(capsys, 9, "canonical vs optimal gap", ok,
           f"(canonical min {canonical_min:.6f}, ensemble min {ensemble_min:.3e})")


def _random_hosh_terms(rng, qubits, draws):
    """Random conjugate-paired terms with per-factor degree <= 3, one >= 2.

    Each draw adds a term and its reality partner; repeated keys accumulate
    (a single qubit only has 12 distinct l = 2,3 keys to draw from).
    """
    terms = {}
    for _ in range(draws):
        key = []
        for k in range(qubits):
            l = int(rng.integers(2, 4)) if k == 0 else int(rng.integers(0, 4))
            m = int(rng.integers(-l, l + 1))
            key.append((l, m))
        key = tuple(key)
        coeff = complex(rng.normal(), rng.normal()) * 0.1
        total_m = sum(m for _l, m in key)
        mirror = tuple((l, -m) for l, m in key)
        if mirror == key:
            coeff = complex(coeff.real, 0.0)
        terms[key] = terms.get(key, 0j) + coeff
        terms[mirror] = terms.get(mirror, 0j) + (-1.0) ** total_m * np.conj(coeff)
    return terms


def test_10_hosh_invariance(capsys, rng):
    quad = sphere_quadrature("icosahedron")
    worst = 0.0
    for i in range(20):
        n = 1 if i < 10 else 2
        rho = random_density(rng, n)
        base = sph_coefficients(pauli_coefficients(rho))
        padded = add_hosh(base, _random_hosh_terms(rng, n, 20))
        plain = reconstruct_continuous(base, quad)
        shifted = reconstruct_continuous(padded, quad)
        worst = max(worst, float(np.max(np.abs(shifted.matrix - plain.matrix))))
    report(capsys, 10, "higher-order term invariance", worst < 1e-10,
           f"(worst reconstruction change {worst:.3e})")
