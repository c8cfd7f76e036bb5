import contextlib
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochframes import (
    PauliCoefficients,
    StateSpec,
    build_frame,
    build_state,
    pauli_coefficients,
    wcan_continuous,
    wcan_discrete,
)
from blochframes.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_csv(capsys):
    code, out, err = run_cli(capsys, ["bounds", "--n-min", "1", "--n-max", "3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "N,general,cat,duer"
    assert lines[1].split(",") == ["1", repr(1 / 3), "", "1.0"]
    assert lines[2].split(",") == ["2", repr(1 / 9), repr(1 / 9), repr(1 / 3)]
    assert lines[3].split(",") == ["3", repr(1 / 33), repr(1 / 27), repr(1 / 5)]


def test_bounds_json(capsys):
    code, out, err = run_cli(capsys, ["--format", "json", "bounds", "--n-min", "2", "--n-max", "2"])
    assert code == 0
    rows = json.loads(out)
    assert rows == [{"N": 2, "general": 1 / 9, "cat": 1 / 9, "duer": 1 / 3}]


def test_bounds_bad_range(capsys):
    code, out, err = run_cli(capsys, ["bounds", "--n-min", "4", "--n-max", "2"])
    assert code == 2
    assert "n-min" in err
    code, out, err = run_cli(capsys, ["bounds", "--n-min", "1", "--n-max", "30"])
    assert code == 2


def test_coeffs_stdout_csv(capsys):
    code, out, err = run_cli(
        capsys,
        ["coeffs", "--state", '{"family": "maximally_mixed", "n": 1}',
         "--frames", '{"kind": "tetrahedron"}'],
    )
    assert code == 0
    data = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert data[0] == "idx_1,weight"
    assert data[1:] == ["0,0.25", "1,0.25", "2,0.25", "3,0.25"]
    # an empty --out names no file: the table still goes to stdout
    code, empty_out, err = run_cli(
        capsys,
        ["coeffs", "--state", '{"family": "maximally_mixed", "n": 1}',
         "--frames", '{"kind": "tetrahedron"}', "--out", ""],
    )
    assert code == 0 and empty_out == out


def test_coeffs_file_output(capsys, tmp_path):
    out_file = tmp_path / "table.csv"
    code, out, err = run_cli(
        capsys,
        ["coeffs", "--state", '{"family": "eps_ghz", "epsilon": 0.1}',
         "--frames", '{"kind": "octahedron"}', "--out", str(out_file)],
    )
    assert code == 0
    report = json.loads(out)
    assert report["rows"] == 216
    assert abs(report["sum"] - 1.0) < 1e-10
    assert report["out"] == str(out_file)
    rows = [l for l in out_file.read_text().splitlines() if l and not l.startswith("#")]
    assert rows[0] == "idx_1,idx_2,idx_3,weight"
    assert len(rows) == 217
    total = sum(float(r.split(",")[-1]) for r in rows[1:])
    assert abs(total - 1.0) < 1e-10


def test_coeffs_file_output_default_summary_bytes(capsys, tmp_path):
    out_file = tmp_path / "table.csv"
    state = '{"family": "werner", "epsilon": 0.2}'
    code, out, err = run_cli(capsys, ["coeffs", "--state", state, "--out", str(out_file)])
    assert code == 0
    rho = build_state(StateSpec("werner", epsilon=0.2))
    table = wcan_discrete(rho, [build_frame("cardinal6")] * 2)
    expected = {"rows": 36, "min": table.min_entry(), "sum": table.total(), "out": str(out_file)}
    assert out == json.dumps(expected, indent=2) + "\n"
    # an empty --out writes no file, so the JSON report names none
    code, out, err = run_cli(capsys, ["--format", "json", "coeffs", "--state", state, "--out", ""])
    assert code == 0
    del expected["out"]
    assert out == json.dumps(expected, indent=2) + "\n"


def test_coeffs_file_output_csv_summary(capsys, tmp_path):
    out_file = tmp_path / "table.csv"
    state = '{"family": "werner", "epsilon": 0.2}'
    code, out, err = run_cli(
        capsys, ["--format", "csv", "coeffs", "--state", state, "--out", str(out_file)]
    )
    assert code == 0
    rho = build_state(StateSpec("werner", epsilon=0.2))
    table = wcan_discrete(rho, [build_frame("cardinal6")] * 2)
    assert out.splitlines() == [
        "rows,min,sum,out",
        f"36,{table.min_entry()!r},{table.total()!r},{out_file}",
    ]
    rows = [l for l in out_file.read_text().splitlines() if l and not l.startswith("#")]
    assert len(rows) == 37


def test_coeffs_min_matches_vertex_expansion(capsys):
    code, out, err = run_cli(
        capsys,
        ["--format", "json", "coeffs",
         "--state", json.dumps({"family": "werner", "epsilon": 1 / 3}),
         "--frames", '["octahedron", "octahedron"]'],
    )
    assert code == 0
    report = json.loads(out)
    rho = build_state(StateSpec("werner", epsilon=1 / 3))
    c = pauli_coefficients(rho)
    f = build_frame("octahedron")
    scale = (4 * math.pi / 6) ** 2
    worst = min(
        scale * wcan_continuous(c, (f.vectors[i], f.vectors[j]))
        for i in range(6)
        for j in range(6)
    )
    assert abs(report["min"] - worst) < 1e-12


def test_coeffs_broadcasts_single_frame(capsys):
    code, out, err = run_cli(
        capsys,
        ["--format", "json", "coeffs",
         "--state", '{"family": "maximally_mixed", "n": 2}',
         "--frames", '"tetrahedron"'],
    )
    assert code == 0
    assert json.loads(out)["rows"] == 16


def test_coeffs_state_from_file(capsys, tmp_path):
    state_file = tmp_path / "state.json"
    state_file.write_text('{"family": "werner", "epsilon": 0.2}')
    code, out, err = run_cli(capsys, ["--format", "json", "coeffs", "--state", str(state_file)])
    assert code == 0
    assert json.loads(out)["rows"] == 36


def test_coeffs_unwritable_output(capsys):
    code, out, err = run_cli(
        capsys,
        ["coeffs", "--state", '{"family": "maximally_mixed", "n": 1}',
         "--out", "/nonexistent-dir/table.csv"],
    )
    assert code == 2
    assert "/nonexistent-dir/table.csv" in err


def test_verify_ensemble_named(capsys):
    for name in ("werner", "ghz"):
        code, out, err = run_cli(capsys, ["verify-ensemble", "--name", name])
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "match"
        assert report["deviation"] < 1e-14


def test_verify_ensemble_wrong_target(capsys):
    code, out, err = run_cli(
        capsys,
        ["verify-ensemble", "--name", "ghz", "--state", '{"family": "eps_ghz", "epsilon": 0.3}'],
    )
    assert code == 4
    report = json.loads(out)
    assert report["verdict"] == "mismatch"
    assert report["deviation"] > 1e-3


def test_verify_ensemble_measures_deviation_like_certify(capsys):
    from blochframes import CertificateError, cat_ensemble, certify

    # max-abs deviation 9e-11 but Frobenius 1.8e-10, beyond RECONSTRUCTION_TOL
    d = 9e-11
    m = cat_ensemble(2).mixture().matrix + np.diag([d, -d, d, -d])
    state = {"family": "custom_matrix", "matrix": [[[e.real, e.imag] for e in row] for row in m]}
    with pytest.raises(CertificateError):
        certify(build_state(StateSpec.from_json(state)), cat_ensemble(2))
    code, out, err = run_cli(
        capsys, ["verify-ensemble", "--name", "werner", "--state", json.dumps(state)]
    )
    assert code == 4
    report = json.loads(out)
    assert report["verdict"] == "mismatch"
    assert abs(report["deviation"] - 2 * d) < 1e-15


def test_verify_ensemble_from_file(capsys, tmp_path):
    from blochframes import cat_ensemble

    path = tmp_path / "ensemble.json"
    path.write_text(json.dumps(cat_ensemble(2).to_json()))
    code, out, err = run_cli(
        capsys,
        ["verify-ensemble", "--file", str(path),
         "--state", '{"family": "werner", "epsilon": 0.3333333333333333}'],
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "match"


def test_verify_ensemble_file_needs_state(capsys, tmp_path):
    from blochframes import cat_ensemble

    path = tmp_path / "ensemble.json"
    path.write_text(json.dumps(cat_ensemble(2).to_json()))
    code, out, err = run_cli(capsys, ["verify-ensemble", "--file", str(path)])
    assert code == 2


def test_min_wcan_report(capsys):
    code, out, err = run_cli(
        capsys,
        ["min-wcan", "--state", '{"family": "eps_cat", "n": 2, "epsilon": 0.2}',
         "--grid", "12", "--refine", "1"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["min"] < 0
    assert len(report["argmin"]) == 2
    for entry in report["argmin"]:
        v = np.array(entry["vector"])
        assert abs(np.linalg.norm(v) - 1.0) < 1e-9
    assert report["grid"] == 12
    assert report["grid_used"] == 12


def test_min_wcan_threshold_search(capsys):
    code, out, err = run_cli(
        capsys,
        ["min-wcan", "--state", '{"family": "eps_cat", "n": 2, "epsilon": 0.5}',
         "--grid", "12", "--refine", "1", "--threshold-search"],
    )
    assert code == 0
    report = json.loads(out)
    assert abs(report["threshold"] - 1 / 9) < 1e-5
    # the target is the family at epsilon = 1; a custom matrix is its own target,
    # so the Werner state at 1/2 given as a matrix reaches twice the Werner threshold
    werner_half = [[0.375, 0, 0, 0.25], [0, 0.125, 0, 0], [0, 0, 0.125, 0], [0.25, 0, 0, 0.375]]
    for state, expected in [
        ({"family": "maximally_mixed", "n": 2}, 1.0),
        ({"family": "maximally_mixed", "n": 2, "epsilon": 0.4}, 1.0),
        ({"family": "cat", "n": 2}, 1 / 9),
        ({"family": "werner", "epsilon": 0.5}, 1 / 9),
        ({"family": "eps_ghz", "epsilon": 0.5}, 1 / 27),
        ({"family": "custom_matrix", "matrix": werner_half}, 2 / 9),
        ({"family": "custom_matrix", "epsilon": 0.3, "matrix": werner_half}, 2 / 9),
    ]:
        code, out, err = run_cli(
            capsys,
            ["min-wcan", "--state", json.dumps(state), "--grid", "12", "--refine", "1",
             "--threshold-search"],
        )
        assert code == 0, state
        assert abs(json.loads(out)["threshold"] - expected) < 1e-12, state


def _count_minimizations(monkeypatch) -> list:
    """The Pauli tensors that each later minimize_wcan call, from cli or from
    threshold_search, minimizes."""
    import blochframes.cli as cli
    import blochframes.minimize as minimize

    calls = []
    minimize_wcan = minimize.minimize_wcan
    for module in (cli, minimize):
        monkeypatch.setattr(module, "minimize_wcan", lambda c, *a, **k: calls.append(c) or minimize_wcan(c, *a, **k))
    return calls


def _cat_tensor(n: int) -> np.ndarray:
    return pauli_coefficients(build_state(StateSpec("cat", n))).coeffs


def _count_grid_scans(monkeypatch) -> list:
    """The Pauli tensors that each later full-grid node_values call scans; the
    single-point evaluations of refinement and of a kept argmin are not counted."""
    calls = []
    node_values = PauliCoefficients.node_values

    def counted(self, nodes_per_qubit):
        if len(nodes_per_qubit[0]) > 1:
            calls.append(self)
        return node_values(self, nodes_per_qubit)

    monkeypatch.setattr(PauliCoefficients, "node_values", counted)
    return calls


_FAMILY_STATES = [
    {"family": "eps_cat", "n": 3, "epsilon": 0.3},
    {"family": "werner", "epsilon": 0.4},
    {"family": "maximally_mixed", "n": 2},
    {"family": "cat", "n": 4},
]


@pytest.mark.parametrize("state", _FAMILY_STATES)
def test_family_requests_make_no_pauli_contraction(capsys, monkeypatch, state):
    import blochframes.cli as cli
    import blochframes.representations as representations

    # pauli_coefficients' contraction, and nothing else in representations, first
    # reads its operator's Hermitian part
    calls = []
    hermitian = representations._hermitian
    monkeypatch.setattr(representations, "_hermitian", lambda m, *a: calls.append(m) or hermitian(m, *a))
    cli._cat_minimum.cache_clear()
    text = json.dumps(state)
    name = "werner" if state.get("n", 2) == 2 else "ghz"
    for argv in (["min-wcan", "--state", text, "--grid", "12", "--threshold-search"],
                 ["witness", "--name", name, "--state", text],
                 ["coeffs", "--state", text]):
        code, out, err = run_cli(capsys, argv)
        assert (code, calls) == (0, []), argv
    # the patch counts a contraction where one is made
    pauli_coefficients(build_state(StateSpec("custom_matrix", matrix=np.eye(4) / 4)))
    assert len(calls) == 1


def _count_formations(monkeypatch) -> list:
    """The Pauli tensors whose operator's matrix is formed from then on: an operator
    that pauli_to_operator built forms it through PauliCoefficients._matrix."""
    calls = []
    form = PauliCoefficients._matrix
    monkeypatch.setattr(PauliCoefficients, "_matrix", lambda self: calls.append(self) or form(self))
    return calls


@pytest.mark.parametrize("state", _FAMILY_STATES)
def test_family_requests_form_no_matrix(capsys, monkeypatch, tmp_path, state):
    import blochframes.cli as cli

    calls = _count_formations(monkeypatch)
    cli._cat_minimum.cache_clear()
    text = json.dumps(state)
    name = "werner" if state.get("n", 2) == 2 else "ghz"
    for argv in (["min-wcan", "--state", text, "--grid", "12", "--threshold-search"],
                 ["witness", "--name", name, "--state", text],
                 ["coeffs", "--state", text],
                 ["coeffs", "--state", text, "--out", str(tmp_path / "table.csv")],
                 ["--format", "json", "coeffs", "--state", text]):
        code, out, err = run_cli(capsys, argv)
        assert (code, calls) == (0, []), argv


@pytest.mark.parametrize("argv, formed", [
    (["ppt", "--state", '{"family": "werner", "epsilon": 0.2}'], 1),
    # the deviation is measured on the mixture's and the target's Pauli tensors
    (["verify-ensemble", "--name", "ghz"], 0),
    (["verify-ensemble", "--name", "werner"], 0),
    # a custom matrix is held as given, so there is nothing to form
    (["ppt", "--state", '{"family": "custom_matrix", "matrix": [[0.25, 0, 0, 0], [0, 0.25, 0, 0], '
                        '[0, 0, 0.25, 0], [0, 0, 0, 0.25]]}'], 0),
])
def test_matrix_readers_form_each_tensor_built_matrix_once(capsys, monkeypatch, argv, formed):
    calls = _count_formations(monkeypatch)
    code, out, err = run_cli(capsys, argv)
    assert code == 0
    assert len(calls) == len({id(c) for c in calls}) == formed


def test_min_wcan_threshold_search_minimizes_its_own_target_once(capsys, monkeypatch):
    import blochframes.cli as cli
    import blochframes.minimize as minimize

    # an earlier request may have left a cat minimization in the memo
    cli._cat_minimum.cache_clear()
    calls = _count_minimizations(monkeypatch)
    scans = _count_grid_scans(monkeypatch)
    werner_half = [[0.375, 0, 0, 0.25], [0, 0.125, 0, 0], [0, 0, 0.125, 0], [0.25, 0, 0, 0.375]]
    thresholds = {}
    # the first request of a cat family minimizes the N-qubit cat state twice, for
    # its threshold and for its argmin, and both are kept: every later request of
    # the cat families on N qubits minimizes nothing; every other state is its
    # own target and is minimized once.  Each minimization scans its grid once,
    # and the tie gap comes from that scan
    for state, minimizations, on_cat in [
        ({"family": "custom_matrix", "matrix": werner_half}, 1, False),
        ({"family": "custom_matrix", "epsilon": 0.3, "matrix": werner_half}, 1, False),
        ({"family": "cat", "n": 3}, 2, True),
        ({"family": "cat", "n": 3, "epsilon": 0.4}, 0, True),
        ({"family": "maximally_mixed", "n": 2}, 1, False),
        ({"family": "eps_cat", "n": 3, "epsilon": 0.2}, 0, True),
        ({"family": "eps_cat", "n": 3, "epsilon": 0.6}, 0, True),
        ({"family": "eps_cat", "n": 3, "epsilon": 1.0}, 0, True),
    ]:
        calls.clear()
        scans.clear()
        argv = ["min-wcan", "--state", json.dumps(state), "--grid", "12", "--threshold-search"]
        code, out, err = run_cli(capsys, argv)
        assert code == 0, state
        assert len(calls) == minimizations, state
        assert all(np.array_equal(c.coeffs, _cat_tensor(3)) == on_cat for c in calls), state
        assert len(scans) == minimizations, state
        assert all(np.array_equal(c.coeffs, _cat_tensor(3)) == on_cat for c in scans), state
        # the threshold is the one a fresh minimization of the target gives
        report = json.loads(out)
        pure = state if state["family"] == "custom_matrix" else {**state, "epsilon": 1.0}
        c = pauli_coefficients(build_state(StateSpec.from_json(pure)))
        assert report["threshold"] == minimize.threshold_search(c, grid_per_sphere=12, refine_iters=3)
        line = next(line for line in out.splitlines() if '"threshold"' in line)
        # the same bytes at every eps of one family
        assert thresholds.setdefault(json.dumps(pure), line) == line, state


def _parent_report(state: dict, grid: int, refine: int) -> str:
    """The min-wcan --threshold-search stdout computed as it was before the cat
    minimization was kept: a full search of the state and a fresh
    threshold_search of its eps = 1 target."""
    from blochframes.minimize import minimize_wcan, threshold_search

    spec = StateSpec.from_json(state)
    rho = build_state(spec)
    result = minimize_wcan(pauli_coefficients(rho), grid_per_sphere=grid, refine_iters=refine)
    argmin = []
    for v in result.argmin:
        theta, phi = v.angles()
        argmin.append({"theta": theta, "phi": phi, "vector": [v.x, v.y, v.z]})
    payload = {
        "qubits": rho.qubits,
        "min": result.value,
        "argmin": argmin,
        "grid_ties": result.grid_ties,
        "grid": grid,
        "grid_used": result.grid_used,
        "refine": refine,
    }
    pure = pauli_coefficients(build_state(StateSpec.from_json({**state, "epsilon": 1.0})))
    payload["threshold"] = threshold_search(pure, grid_per_sphere=grid, refine_iters=refine)
    return json.dumps(payload, indent=2) + "\n"


def _check_family_report(out: str, state: dict, grid: int, refine: int) -> None:
    """An eps-family report read off the kept cat minimization against the full
    search's: every key but min and argmin has the same bytes, min is the value
    of w at the reported argmin, and it is within 1e-14 of the full search's,
    relative to that or to u = (4 pi)^-N, whichever is larger: near the
    threshold w_eps = (1 - eps) u + eps w_cat cancels to about 0, so both values
    keep only the digits of u."""
    from blochframes import BlochVector

    report = json.loads(out)
    assert out == json.dumps(report, indent=2) + "\n", state
    parent = json.loads(_parent_report(state, grid, refine))
    assert list(report) == list(parent), state
    full = parent.pop("min")
    del parent["argmin"]
    rest = {key: value for key, value in report.items() if key in parent}
    assert json.dumps(rest, indent=2) == json.dumps(parent, indent=2), state
    c = pauli_coefficients(build_state(StateSpec.from_json(state)))
    argmin = [BlochVector(*entry["vector"]) for entry in report["argmin"]]
    assert report["min"] == wcan_continuous(c, argmin), state
    assert abs(report["min"] - full) <= 1e-14 * max(abs(full), (4 * math.pi) ** -c.qubits), state


def _min_wcan_text(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0, argv
    return buf.getvalue()


_FAMILY_STATES = st.one_of(
    st.just({"family": "werner"}),
    st.just({"family": "eps_ghz"}),
    st.builds(lambda n: {"family": "eps_cat", "n": n}, st.integers(1, 4)),
)


@settings(max_examples=60, deadline=None)
@given(
    state=_FAMILY_STATES,
    eps=st.floats(0.0, 1.0, exclude_min=True),
    grid_refine=st.sampled_from([(6, 0), (12, 1), (24, 3)]),
)
def test_min_wcan_reads_an_eps_family_off_the_kept_cat_minimization(state, eps, grid_refine):
    grid, refine = grid_refine
    given = {**state, "epsilon": eps}
    argv = ["min-wcan", "--state", json.dumps(given), "--grid", str(grid), "--refine", str(refine),
            "--threshold-search"]
    _check_family_report(_min_wcan_text(argv), given, grid, refine)


def test_min_wcan_searches_an_eps_below_the_tie_guard_in_full(capsys, monkeypatch):
    import blochframes.cli as cli

    # at eps = 1e-12 the cat state's non-tied grid values fall within the tie width,
    # so the kept cat ties would not be the state's: the state is searched in full
    state = {"family": "eps_cat", "n": 3, "epsilon": 1e-12}
    run_cli(capsys, ["min-wcan", "--state", json.dumps(state), "--threshold-search"])
    calls = _count_minimizations(monkeypatch)
    code, out, err = run_cli(capsys, ["min-wcan", "--state", json.dumps(state), "--threshold-search"])
    assert code == 0
    assert len(calls) == 1 and not np.array_equal(calls[0].coeffs, _cat_tensor(3))
    assert cli._cat_minimum(3, 24, True)[1].tie_gap * 1e-12 < 2e-12
    assert out == _parent_report(state, 24, 3)


@pytest.mark.parametrize("grid, refine", [(6, 0), (12, 1), (24, 3)])
@pytest.mark.parametrize(
    "state",
    [{"family": "eps_cat", "n": n} for n in (2, 3, 4, 5)] + [{"family": "werner"}, {"family": "eps_ghz"}],
    ids=lambda state: "-".join(str(v) for v in state.values()),
)
def test_min_wcan_kept_target_threshold_gives_the_fresh_report(capsys, state, grid, refine):
    import blochframes.cli as cli

    cli._cat_minimum.cache_clear()
    # the first request minimizes the cat state, the second reads it back
    for eps in (0.3, 0.05):
        given = {**state, "epsilon": eps}
        argv = ["min-wcan", "--state", json.dumps(given), "--grid", str(grid), "--refine", str(refine),
                "--threshold-search"]
        code, out, err = run_cli(capsys, argv)
        assert code == 0, given
        _check_family_report(out, given, grid, refine)
    assert cli._cat_minimum.cache_info().hits == 1


def test_min_wcan_eps_families_share_the_cat_target_threshold(capsys, monkeypatch):
    import blochframes.cli as cli

    cli._cat_minimum.cache_clear()
    calls = _count_minimizations(monkeypatch)
    # every eps-family's eps = 1 target is the N-qubit cat state, and every positive
    # --refine refines alike, so the cat state is minimized once per N, for its
    # threshold and its argmin: the request that first needs it minimizes twice,
    # every later one not at all
    for state, refine, minimizations in [
        ({"family": "werner", "epsilon": 0.3}, 3, 2),
        ({"family": "eps_cat", "n": 2, "epsilon": 0.05}, 3, 0),
        ({"family": "eps_cat", "n": 2, "epsilon": 0.2}, 1, 0),
        ({"family": "eps_ghz", "epsilon": 0.3}, 3, 2),
        ({"family": "eps_cat", "n": 3, "epsilon": 0.05}, 3, 0),
    ]:
        calls.clear()
        argv = ["min-wcan", "--state", json.dumps(state), "--grid", "12", "--refine", str(refine),
                "--threshold-search"]
        code, out, err = run_cli(capsys, argv)
        assert code == 0, state
        assert len(calls) == minimizations, state
        _check_family_report(out, state, 12, refine)
    assert cli._cat_minimum.cache_info().currsize == 2


def _full_rendering(report: dict, state: dict, grid: int, refine: int, fmt: str) -> str:
    """The stdout of an eps-family report at its min, rendered in full from the
    kept cat minimization's plain values: json.dumps for the JSON formats, and
    for CSV one header row and one row of fields, nested values as JSON."""
    import csv

    import blochframes.cli as cli

    threshold, cat = cli._cat_minimum(report["qubits"], grid, refine > 0)[:2]
    argmin = []
    for v in cat.argmin:
        theta, phi = v.angles()
        argmin.append({"theta": theta, "phi": phi, "vector": [v.x, v.y, v.z]})
    payload = {
        "qubits": report["qubits"],
        "min": report["min"],
        "argmin": argmin,
        "grid_ties": cat.grid_ties,
        "grid": grid,
        "grid_used": cat.grid_used,
        "refine": refine,
        "threshold": threshold,
    }
    if fmt != "csv":
        return json.dumps(payload, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(payload)
    writer.writerow(
        json.dumps(v) if isinstance(v, (list, tuple)) else repr(v) if isinstance(v, float) else str(v)
        for v in payload.values()
    )
    return buf.getvalue()


@pytest.mark.parametrize("grid, refine", [(6, 0), (12, 1), (24, 3)])
@pytest.mark.parametrize(
    "state",
    [{"family": "eps_cat", "n": n} for n in (2, 3, 4)] + [{"family": "werner"}, {"family": "eps_ghz"}],
    ids=lambda state: "-".join(str(v) for v in state.values()),
)
def test_min_wcan_warm_report_gives_the_bytes_of_a_full_rendering(capsys, state, grid, refine):
    import blochframes.cli as cli

    cli._cat_minimum.cache_clear()
    argv = ["min-wcan", "--grid", str(grid), "--refine", str(refine), "--threshold-search", "--state"]
    run_cli(capsys, [*argv, json.dumps({**state, "epsilon": 0.3})])
    given = json.dumps({**state, "epsilon": 0.05})
    outs = {}
    for fmt in (None, "json", "csv"):
        code, outs[fmt], err = run_cli(capsys, [*argv, given] if fmt is None else ["--format", fmt, *argv, given])
        assert code == 0 and err == "", fmt
    # every request but the first read the kept cat minimization
    assert cli._cat_minimum.cache_info().hits == 3
    report = json.loads(outs[None])
    for fmt, out in outs.items():
        assert out == _full_rendering(report, state, grid, refine, fmt or "json"), fmt


def test_min_wcan_warm_report_formats_no_kept_angles(capsys, monkeypatch):
    import blochframes.cli as cli
    from blochframes import BlochVector

    cli._cat_minimum.cache_clear()
    calls = []
    angles = BlochVector.angles
    monkeypatch.setattr(BlochVector, "angles", lambda v: calls.append(v) or angles(v))
    # a cold eps-family key formats the cat's argmin once, N = 3 directions, with
    # its minimization; a warm request writes it from the kept text in every
    # format, and a full search formats its own argmin
    for state, fmt, count in [
        ({"family": "eps_cat", "n": 3, "epsilon": 0.3}, None, 3),
        ({"family": "eps_cat", "n": 3, "epsilon": 0.05}, None, 0),
        ({"family": "cat", "n": 3}, "json", 0),
        ({"family": "eps_cat", "n": 3, "epsilon": 0.6}, "csv", 0),
        ({"family": "maximally_mixed", "n": 3}, None, 3),
        ({"family": "eps_cat", "n": 3, "epsilon": 1e-12}, None, 3),
        ({"family": "eps_cat", "n": 3, "epsilon": 0.2}, None, 0),
    ]:
        calls.clear()
        argv = ["min-wcan", "--state", json.dumps(state), "--grid", "12", "--threshold-search"]
        code, out, err = run_cli(capsys, argv if fmt is None else ["--format", fmt, *argv])
        assert code == 0, state
        assert len(calls) == count, state


def test_min_wcan_threshold_search_seven_qubits(capsys):
    # the scan self-thins to stay within budget; poles and the anti-phased
    # equator configurations survive, so the threshold stays exact
    code, out, err = run_cli(
        capsys,
        ["min-wcan", "--state", '{"family": "eps_cat", "n": 7, "epsilon": 0.001}',
         "--grid", "24", "--refine", "1", "--threshold-search"],
    )
    assert code == 0
    assert abs(json.loads(out)["threshold"] - 1 / 3969) < 1e-6


def test_min_wcan_thins_a_huge_grid_at_once(capsys):
    # the largest even count whose grid squared fits 8,000,000 points
    code, out, err = run_cli(
        capsys,
        ["min-wcan", "--state", '{"family": "werner", "epsilon": 0.2}',
         "--grid", "1000000", "--refine", "0"],
    )
    assert code == 0
    report = json.loads(out)
    assert (report["grid"], report["grid_used"]) == (1000000, 2814)


def test_min_wcan_refuses_negative_refine(capsys):
    code, out, err = run_cli(
        capsys,
        ["min-wcan", "--state", '{"family": "werner", "epsilon": 0.2}', "--refine", "-4"],
    )
    assert (code, out) == (2, "")
    assert err == "error: --refine must be >= 0, got -4\n"


@pytest.mark.parametrize("grid", ["5", "0", "-3"])
def test_min_wcan_refuses_a_grid_below_six(capsys, grid):
    # a usage error like --refine, not the library's own refusal (exit 3)
    code, out, err = run_cli(
        capsys,
        ["min-wcan", "--state", '{"family": "werner", "epsilon": 0.2}', "--grid", grid],
    )
    assert (code, out) == (2, "")
    assert err == f"error: --grid must be >= 6, got {grid}\n"


def test_refusals_of_mismatched_or_missing_arguments(capsys, tmp_path):
    from blochframes import cat_ensemble

    cardinal = '{"kind": "cardinal6"}'
    code, out, err = run_cli(
        capsys,
        ["coeffs", "--state", '{"family": "werner", "epsilon": 0.2}',
         "--frames", f"[{cardinal}, {cardinal}, {cardinal}]"],
    )
    assert (code, out, err) == (3, "", "error: expected 2 frames, got 3\n")

    path = tmp_path / "ensemble.json"
    path.write_text(json.dumps(cat_ensemble(2).to_json()))
    code, out, err = run_cli(
        capsys,
        ["verify-ensemble", "--file", str(path),
         "--state", '{"family": "eps_cat", "n": 3, "epsilon": 0.1}'],
    )
    assert (code, out, err) == (3, "", "error: representation acts on 2 qubits, target on 3\n")

    code, out, err = run_cli(capsys, ["witness", "--name", "werner"])
    assert (code, out, err) == (2, "", "error: witness needs --state or --coeffs\n")

    # one source only: a state and a coefficient table are refused together
    code, out, err = run_cli(
        capsys,
        ["witness", "--name", "werner", "--state", '{"family": "werner", "epsilon": 0.4}',
         "--coeffs", '{"n": 2, "coeffs": {"00": 1.0}}'],
    )
    assert (code, out) == (2, "")
    assert "argument --coeffs: not allowed with argument --state" in err

    # "n" and "qubits" that disagree are refused, not read as the first
    code, out, err = run_cli(
        capsys,
        ["witness", "--name", "werner",
         "--state", '{"family": "eps_cat", "n": 2, "qubits": 3, "epsilon": 0.4}'],
    )
    assert (code, out, err) == (
        2, "", 'error: --state: state JSON gives "n": 2 and "qubits": 3; they must agree\n'
    )


def test_witness_subcommand(capsys):
    code, out, err = run_cli(
        capsys, ["witness", "--name", "werner", "--state", '{"family": "werner", "epsilon": 0.5}']
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "nonseparable"
    assert abs(report["value"] - 1.5) < 1e-12
    # the GHZ witness reads any N >= 3: (1 + 2^4) * 0.06 on five qubits
    code, out, err = run_cli(
        capsys, ["witness", "--name", "ghz", "--state", '{"family": "eps_cat", "n": 5, "epsilon": 0.06}']
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "nonseparable"
    assert abs(report["value"] - 1.02) < 1e-12


@pytest.mark.parametrize(
    "argv, nested",
    [
        (["min-wcan", "--state", '{"family": "werner", "epsilon": 0.2}', "--grid", "8", "--refine", "0"],
         ("argmin", "grid_ties")),
        (["witness", "--name", "ghz", "--state", '{"family": "eps_ghz", "epsilon": 0.5}'], ("detail",)),
    ],
)
def test_csv_row_holds_nested_values_as_json(capsys, argv, nested):
    import csv

    code, out, err = run_cli(capsys, ["--format", "csv", *argv])
    assert code == 0
    header, *rows = list(csv.reader(out.splitlines()))
    assert len(rows) == 1 and len(rows[0]) == len(header)
    record = dict(zip(header, rows[0]))
    code, out, err = run_cli(capsys, ["--format", "json", *argv])
    report = json.loads(out)
    assert header == list(report)
    for key in nested:
        assert json.loads(record[key]) == report[key]


def test_witness_from_coefficients(capsys):
    coeffs = {"n": 2, "coeffs": {"00": 1.0, "11": 0.6, "22": -0.6, "33": 0.6}}
    code, out, err = run_cli(
        capsys, ["witness", "--name", "werner", "--coeffs", json.dumps(coeffs)]
    )
    assert code == 0
    assert abs(json.loads(out)["value"] - 1.8) < 1e-12


def test_witness_wrong_qubit_count_is_domain_error(capsys):
    code, out, err = run_cli(
        capsys, ["witness", "--name", "ghz", "--state", '{"family": "werner", "epsilon": 0.5}']
    )
    assert code == 3
    assert "three-qubit" in err


def test_ppt_subcommand(capsys):
    code, out, err = run_cli(
        capsys, ["ppt", "--state", '{"family": "werner", "epsilon": 0.4}']
    )
    assert code == 0
    report = json.loads(out)
    assert abs(report["min_eigenvalue"] - (1 - 1.2) / 4) < 1e-12
    assert report["verdict"] == "nonseparable"


def test_ppt_separable_werner(capsys):
    code, out, err = run_cli(
        capsys, ["ppt", "--state", '{"family": "werner", "epsilon": 0.2}']
    )
    assert code == 0
    report = json.loads(out)
    assert abs(report["min_eigenvalue"] - (1 - 0.6) / 4) < 1e-12
    assert report["verdict"] == "separable"


def test_ppt_honours_global_tol(capsys):
    # lambda_min = (1 - 3 * 0.34) / 4 = -0.005
    state = '{"family": "werner", "epsilon": 0.34}'
    code, out, err = run_cli(capsys, ["ppt", "--state", state])
    assert code == 0
    report = json.loads(out)
    assert abs(report["min_eigenvalue"] + 0.005) < 1e-12
    assert report["verdict"] == "nonseparable"
    code, out, err = run_cli(capsys, ["--tol", "0.01", "ppt", "--state", state])
    assert code == 0
    assert json.loads(out)["verdict"] == "separable"


_TOL_COMMANDS = {
    "ppt": ["ppt", "--state", '{"family": "werner", "epsilon": 0.4}'],
    "witness": ["witness", "--name", "werner", "--state", '{"family": "werner", "epsilon": 0.5}'],
    "verify-ensemble": ["verify-ensemble", "--name", "werner"],
    "bounds": ["bounds"],
    "coeffs": ["coeffs", "--state", '{"family": "werner", "epsilon": 0.2}'],
    "min-wcan": ["min-wcan", "--state", '{"family": "werner", "epsilon": 0.2}', "--grid", "8"],
}


@pytest.mark.parametrize(
    "argv, verdict",
    [
        # value 1.5, and 1.02 for the eps-cat state: within the slack, so not refuted
        (["--tol", "5", *_TOL_COMMANDS["witness"]], "inconclusive"),
        (["--tol", "0.05", "witness", "--name", "ghz", "--state",
          '{"family": "eps_cat", "n": 5, "epsilon": 0.06}'], "inconclusive"),
        # a tolerance is a finite number >= 0
        *((["--tol", tol, *_TOL_COMMANDS[command]], None)
          for tol in ("nan", "inf", "-1") for command in ("ppt", "witness", "verify-ensemble")),
        # and only a subcommand that grades a verdict takes one
        *((["--tol", "1e-3", *_TOL_COMMANDS[command]], None)
          for command in ("bounds", "coeffs", "min-wcan")),
    ],
)
def test_tol_grades_every_verdict(capsys, argv, verdict):
    code, out, err = run_cli(capsys, argv)
    if verdict is not None:
        assert code == 0
        assert json.loads(out)["verdict"] == verdict
        return
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: --tol")


def test_ppt_wrong_qubits_domain_error(capsys):
    code, out, err = run_cli(
        capsys, ["ppt", "--state", '{"family": "eps_ghz", "epsilon": 0.2}']
    )
    assert code == 3


def test_malformed_state_json(capsys):
    code, out, err = run_cli(capsys, ["ppt", "--state", '{"family": '])
    assert code == 2
    code, out, err = run_cli(capsys, ["ppt", "--state", "/tmp/no-such-state.json"])
    assert code == 2


def test_epsilon_out_of_range_domain_error(capsys):
    code, out, err = run_cli(
        capsys, ["ppt", "--state", '{"family": "werner", "epsilon": 1.5}']
    )
    assert code == 3


_WERNER = '{"family": "werner", "epsilon": 0.2}'


def _ensemble_json(qubits=2, probability=1.0, first=(0.0, 0.0, 1.0)) -> str:
    """A one-term two-qubit ensemble file, inline, with one field replaced."""
    term = {"probability": probability, "vectors": [first, [0.0, 0.0, 1.0]]}
    return json.dumps({"qubits": qubits, "terms": [term]})


def _frame_json(kind: str, first) -> str:
    """A spanning custom frame (the octahedron) or a reflected frame (two octant
    seeds) whose first vector is replaced; the rest read as given."""
    rest = {"custom": [[-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
            "reflected": [[0.48, 0.6, 0.64]]}[kind]
    return json.dumps({"kind": kind, "vectors": [first, *rest]})


def _coeffs_json(n=2, value=0.5) -> str:
    return json.dumps({"n": n, "coeffs": {"00": 1.0, "11": value, "22": -0.5, "33": 0.5}})


def _matrix_state(first) -> str:
    """The one-qubit state |0><0| as a custom matrix, with its first entry replaced."""
    return json.dumps({"family": "custom_matrix", "matrix": [[first, 0], [0, 0]]})


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["coeffs", "--state", '{"family":"werner","epsilon":[1]}'], "--state"),
        (["coeffs", "--state", '{"family":"custom_matrix","matrix":[[[1]]]}'], "--state"),
        (["coeffs", "--state", '{"family":"custom_matrix","matrix":5}'], "--state"),
        (["coeffs", "--state", '{"family":"eps_cat","n":[2],"epsilon":0.1}'], "--state"),
        (["coeffs", "--state", _WERNER, "--frames", '{"kind":"custom","vectors":[[1,0]]}'],
         "--frames"),
        (["coeffs", "--state", _WERNER, "--frames", '{"kind":"custom","vectors":5}'], "--frames"),
        (["witness", "--name", "werner", "--coeffs", '{"n": 2, "coeffs": [1,2]}'], "--coeffs"),
        (["coeffs", "--state", _WERNER, "--frames",
          '{"kind":"custom","vectors":[[1,0,0],[0,1,0]]}'], "--frames"),
        (["coeffs", "--state", _WERNER, "--frames",
          '{"kind":"reflected","vectors":[[2,0.1,0.1]]}'], "--frames"),
        (["coeffs", "--state", _WERNER, "--frames", '"nope"'], "--frames"),
        (["coeffs", "--state", _WERNER, "--frames", "[1]"], "--frames"),
        # a count must be a JSON integer, and neither key a boolean
        (["coeffs", "--state", '{"family":"eps_cat","n":2.7,"epsilon":0.1}'], "--state"),
        (["coeffs", "--state", '{"family":"werner","epsilon":true}'], "--state"),
        (["coeffs", "--state", '{"family":"maximally_mixed","n":true}'], "--state"),
        # and so in an ensemble file, where a probability or a vector component
        # may not be a boolean either, and a vector has exactly three components
        (["verify-ensemble", "--state", _WERNER, "--file", _ensemble_json(qubits=2.7)], "--file"),
        (["verify-ensemble", "--state", _WERNER, "--file", _ensemble_json(probability=True)],
         "--file"),
        (["verify-ensemble", "--state", _WERNER, "--file", _ensemble_json(first=[0.0, 0.0, True])], "--file"),
        (["verify-ensemble", "--state", _WERNER, "--file", _ensemble_json(first=[0.0, 0.0, 1.0, 7.0])],
         "--file"),
        # a number is a JSON number: never a string, and never a boolean
        (["coeffs", "--state", '{"family":"werner","epsilon":"0.5"}'], "--state"),
        # an integer beyond the float range does not read as a number either
        (["coeffs", "--state", '{"family":"werner","epsilon":1%s}' % ("0" * 400)], "--state"),
        (["coeffs", "--state", _WERNER, "--frames", _frame_json("custom", ["1", 0, 0])], "--frames"),
        (["coeffs", "--state", _WERNER, "--frames", _frame_json("custom", [True, 0, 0])], "--frames"),
        (["coeffs", "--state", _WERNER, "--frames", _frame_json("custom", [1, 0, 0, 7])], "--frames"),
        (["coeffs", "--state", _WERNER, "--frames", _frame_json("reflected", ["0.48", 0.6, 0.64])],
         "--frames"),
        # unit within 1e-12 and inside the octant: only the boolean is wrong
        (["coeffs", "--state", _WERNER, "--frames", _frame_json("reflected", [True, 1e-7, 1e-7])],
         "--frames"),
        (["coeffs", "--state", _WERNER, "--frames", _frame_json("reflected", [0.48, 0.6, 0.64, 7])],
         "--frames"),
        (["witness", "--name", "werner", "--coeffs", _coeffs_json(n="2")], "--coeffs"),
        (["witness", "--name", "werner", "--coeffs", _coeffs_json(n=2.7)], "--coeffs"),
        (["witness", "--name", "werner", "--coeffs", '{"n": true, "coeffs": {"0": 1.0}}'], "--coeffs"),
        (["witness", "--name", "werner", "--coeffs", _coeffs_json(value="0.9")], "--coeffs"),
        (["witness", "--name", "werner", "--coeffs", _coeffs_json(value=True)], "--coeffs"),
        (["coeffs", "--state", _matrix_state("1")], "--state"),
        (["coeffs", "--state", _matrix_state([True, 0])], "--state"),
        (["coeffs", "--state", _matrix_state([1, 0, 5])], "--state"),
        (["verify-ensemble", "--state", _WERNER, "--file", _ensemble_json(probability="1")], "--file"),
        (["verify-ensemble", "--state", _WERNER, "--file", _ensemble_json(first=[0.0, "0", 1.0])],
         "--file"),
        # a named frame fixes its vectors and takes none
        (["coeffs", "--state", _WERNER, "--frames", '{"kind": "cube", "vectors": [[0, 0, 1]]}'],
         "--frames"),
        # a qubit count is at least 1, and its 4^N coefficients must fit the entry budget
        (["witness", "--name", "ghz", "--coeffs", '{"n": 0, "coeffs": {}}'], "--coeffs"),
        (["witness", "--name", "ghz", "--coeffs", '{"n": 20, "coeffs": {}}'], "--coeffs"),
        # a family is a JSON string, not its str() of a list, a boolean or null
        (["ppt", "--state", '{"family": ["werner"], "epsilon": 0.2}'], "--state"),
        (["ppt", "--state", '{"family": true, "epsilon": 0.2}'], "--state"),
        (["coeffs", "--state", '{"family": null, "n": 1}'], "--state"),
        # an ensemble acts on at least one qubit, refused before its terms are read
        (["verify-ensemble", "--state", _WERNER, "--file",
          '{"qubits": 0, "terms": [{"probability": 1, "vectors": []}]}'], "--file"),
        # a JSON object takes only its own keys; each of these read past the typo
        (["ppt", "--state", '{"family": "werner", "epsilon": 0.2, "qubit": 3}'], "--state"),
        (["coeffs", "--state", _WERNER, "--frames", '{"kind": "cube", "vector": [[0, 0, 1]]}'],
         "--frames"),
        (["witness", "--name", "werner", "--coeffs",
          '{"n": 2, "coeffs": {"00": 1.0}, "coefs": {"11": 0.5, "22": -0.5, "33": 0.5}}'], "--coeffs"),
        (["verify-ensemble", "--state", _WERNER, "--file",
          '{"qubits": 2, "qbits": 2, "terms": [{"probability": 1, "vectors": [[0, 0, 1], [0, 0, 1]]}]}'],
         "--file"),
        (["verify-ensemble", "--state", _WERNER, "--file",
          '{"qubits": 2, "terms": [{"probability": 1, "weight": 1, "vectors": [[0, 0, 1], [0, 0, 1]]}]}'],
         "--file"),
        # "coeffs" is a JSON object and a term's "label" a JSON string, not what dict() or str() makes of them
        (["witness", "--name", "ghz", "--coeffs", '{"n": 3, "coeffs": [["000", 1], ["111", 2]]}'], "--coeffs"),
        (["verify-ensemble", "--state", _WERNER, "--file",
          '{"qubits": 2, "terms": [{"probability": 1, "vectors": [[0, 0, 1], [0, 0, 1]], "label": null}]}'],
         "--file"),
    ],
)
def test_unreadable_argument_is_input_error(capsys, argv, flag):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:") and flag in lines[0]
    assert "Traceback" not in err


@pytest.mark.parametrize("skew, code", [(5e-11, 0), (2e-10, 3)])
def test_custom_matrix_within_validation_tolerance_reaches_every_subcommand(capsys, skew, code):
    # build_state accepts a matrix Hermitian within 1e-10; each subcommand must
    # take what it accepts, and the one it refuses says why
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = 1j * skew
    state = json.dumps(
        {"family": "custom_matrix", "matrix": [[[e.real, e.imag] for e in row] for row in m]}
    )
    for argv in (
        ["ppt", "--state", state],
        ["coeffs", "--state", state],
        ["witness", "--name", "werner", "--state", state],
        ["min-wcan", "--state", state, "--grid", "8", "--refine", "0"],
    ):
        got, out, err = run_cli(capsys, argv)
        assert got == code, (argv[0], err)
        if code:
            assert "not Hermitian" in err


def test_unknown_subcommand_usage(capsys):
    code, out, err = run_cli(capsys, ["frobnicate"])
    assert code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "blochframes", "bounds", "--n-min", "2", "--n-max", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1].startswith("2,")


def test_closed_stdout_exits_quietly():
    # 46,656 rows overflow the 64 KiB pipe buffer, so writing after the close must fail
    proc = subprocess.Popen(
        [sys.executable, "-m", "blochframes", "coeffs", "--state",
         '{"family": "eps_cat", "n": 6, "epsilon": 0.2}'],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().startswith(b"# discrete expansion table")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_parser_reused_after_usage_error_and_help(capsys):
    from blochframes.cli import _parser, build_parser

    assert build_parser() is not build_parser()
    code, out, err = run_cli(capsys, ["coeffs"])
    assert code == 2
    assert "--state" in err
    code, out, err = run_cli(capsys, ["--help"])
    assert code == 0
    assert "usage: blochframes" in out
    assert _parser() is _parser()
    code, out, err = run_cli(capsys, ["bounds", "--n-min", "2", "--n-max", "2"])
    assert code == 0
    assert out.splitlines()[1].split(",")[0] == "2"


def test_repeated_calls_identical_output(capsys):
    argv = ["--format", "json", "min-wcan", "--state", '{"family": "werner", "epsilon": 0.3}',
            "--grid", "12", "--refine", "1"]
    first = run_cli(capsys, argv)
    # another subcommand in between must leave no state behind in the parser
    assert run_cli(capsys, ["ppt", "--state", '{"family": "werner", "epsilon": 0.3}'])[0] == 0
    second = run_cli(capsys, argv)
    assert first[0] == second[0] == 0
    assert first[1] == second[1]


_NAN_STATE = (
    '{"family":"custom_matrix","matrix":'
    "[[NaN,0,0,0],[0,0.25,0,0],[0,0,0.25,0],[0,0,0,0.25]]}"
)


# state argument -> the domain error it must report
_DOMAIN_ERRORS = {
    _NAN_STATE: "non-finite entries",
    # a supplied epsilon is checked even where the family fixes it
    '{"family": "maximally_mixed", "n": 1, "epsilon": 7}': "epsilon must lie in [0, 1], got 7",
    '{"family": "cat", "n": 2, "epsilon": -3}': "epsilon must lie in [0, 1], got -3",
    # and an n or a matrix that contradicts the family is refused, not dropped
    '{"family": "custom_matrix", "n": 3, "matrix": [[0.5, 0], [0, 0.5]]}':
        "n is 3, but the custom matrix is 2x2",
    '{"family": "werner", "epsilon": 0.2, "matrix": [[0.5, 0], [0, 0.5]]}':
        "only custom_matrix takes a matrix",
    # a state whose 4^N-entry operator would exceed the entry budget is refused unbuilt
    '{"family": "eps_cat", "n": 40, "epsilon": 0.1}': "above the limit of",
    # and so is a table of more rows than the budget holds as floats: 6^9 on cardinal6
    '{"family": "eps_cat", "n": 9, "epsilon": 0.1}': "above the limit of 2097152 entries",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["ppt", "--state", _NAN_STATE],
        ["--format", "json", "coeffs", "--state", _NAN_STATE],
        ["witness", "--name", "werner", "--state", _NAN_STATE],
        *(["--format", "json", "coeffs", "--state", state] for state in list(_DOMAIN_ERRORS)[1:]),
    ],
)
def test_nan_state_is_domain_error(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 3
    assert out == ""
    assert _DOMAIN_ERRORS[argv[-1]] in err


def test_oversized_table_opens_no_file(capsys, tmp_path):
    # 12^6 rows on the icosahedron, like 6^9 on cardinal6, are refused before the
    # table is built or its file opened
    out_file = tmp_path / "table.csv"
    state = '{"family": "eps_cat", "n": 6, "epsilon": 0.1}'
    argv = ["coeffs", "--state", state, "--frames", '"icosahedron"', "--out", str(out_file)]
    code, out, err = run_cli(capsys, argv)
    assert code == 3
    assert out == ""
    assert err == "error: a table of 2985984 entries is above the limit of 2097152 entries\n"
    assert not out_file.exists()


def test_nan_coefficient_is_input_error(capsys):
    code, out, err = run_cli(
        capsys,
        ["witness", "--name", "werner", "--coeffs", '{"n": 2, "coeffs": {"00": 1, "11": NaN}}'],
    )
    assert code == 2
    assert out == ""
    assert "non-finite" in err


_SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16]
_PLAIN_LEAVES = (
    st.floats()
    | st.sampled_from(_SPECIAL_FLOATS)
    | st.booleans()
    | st.none()
    | st.integers()
    | st.integers(min_value=2**63, max_value=2**200)
    | st.integers(min_value=-(2**200), max_value=-(2**63))
    # non-ASCII, control characters and lone surrogates
    | st.text(st.characters(exclude_categories=()))
    # float subclasses, which json writes as floats
    | st.floats().map(np.float64)
    | st.sampled_from(_SPECIAL_FLOATS).map(np.float64)
)
_PLAIN_VALUES = st.recursive(
    _PLAIN_LEAVES,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=5),
    max_leaves=30,
)


@settings(max_examples=150, deadline=None)
@given(value=_PLAIN_VALUES)
def test_json_report_text_is_json_dumps_indent_2(value):
    from blochframes.cli import _json_text

    # both zeros in one payload, in both orders, beside whatever was drawn
    payload = {"zeros": [0.0, -0.0, -0.0, 0.0], "value": value, "again": [value]}
    assert _json_text(payload) == json.dumps(payload, indent=2)
    assert _json_text(value) == json.dumps(value, indent=2)


@settings(max_examples=60, deadline=None)
@given(value=_PLAIN_VALUES)
def test_json_report_writes_a_kept_text_at_a_top_level_key(value):
    from blochframes.cli import _json_text, _KeptJson

    payload = {"before": [1.5, {"a": None}], "value": value, "after": -0.0}
    kept = {**payload, "value": _KeptJson.of(value)}
    assert _json_text(kept) == json.dumps(payload, indent=2)


@pytest.mark.parametrize(
    "place",
    [
        lambda kept: {"a": [kept]},
        lambda kept: {"a": {"b": kept}},
        lambda kept: [kept],
        lambda kept: [{"a": kept}],
        lambda kept: kept,
    ],
    ids=["in-a-list", "in-a-nested-dict", "in-a-top-level-list", "in-a-listed-dict", "alone"],
)
def test_json_report_refuses_a_kept_text_off_a_top_level_key(place):
    from blochframes.cli import _json_text, _KeptJson

    # the text was made at a top-level key's indent, so anywhere else it would
    # be misindented
    with pytest.raises(TypeError, match="valid only as the value of a top-level key"):
        _json_text(place(_KeptJson.of([0.25, {"x": [1, 2]}])))


@pytest.mark.parametrize("odd", [object(), np.int64(1)], ids=["object", "int64"])
def test_json_report_leaves_unknown_values_to_json(capsys, odd):
    import argparse

    from blochframes.cli import _emit

    payload = {"a": [1.5, {"b": odd}]}
    with pytest.raises(TypeError) as expected:
        json.dumps(payload, indent=2)
    with pytest.raises(TypeError) as got:
        _emit(argparse.Namespace(format=None), payload)
    assert str(got.value) == str(expected.value)
    assert capsys.readouterr().out == ""


def test_json_report_writes_a_float_subclass_as_json_does():
    from blochframes.cli import _json_text

    payload = {"top": np.float64(0.1), "nested": [np.float64(-0.0), {"x": np.float64(math.nan)}]}
    assert _json_text(payload) == json.dumps(payload, indent=2)


def test_json_report_refuses_a_non_str_top_level_key(capsys):
    import argparse

    from blochframes.cli import _emit

    with pytest.raises(TypeError):
        _emit(argparse.Namespace(format=None), {"a": 1.5, 2: 0.5})
    assert capsys.readouterr().out == ""


def test_emit_prints_a_list_as_csv_by_default(capsys):
    import argparse

    from blochframes.cli import _emit

    _emit(argparse.Namespace(format=None), [{"N": 2, "x": 0.5, "y": None}, {"N": 3, "x": 0.25, "y": [1]}])
    assert capsys.readouterr().out == "N,x,y\n2,0.5,\n3,0.25,[1]\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["min-wcan", "--state", '{"family": "eps_cat", "n": 3, "epsilon": 0.3}', "--threshold-search"],
        ["ppt", "--state", '{"family": "werner", "epsilon": 0.2}'],
        ["verify-ensemble", "--name", "werner"],
        ["--format", "json", "coeffs", "--state", '{"family": "werner", "epsilon": 0.2}'],
    ],
    ids=lambda argv: argv[0] if argv[0] != "--format" else argv[2],
)
def test_json_reports_skip_json_pure_python_encoder(capsys, monkeypatch, argv):
    import json.encoder

    def refuse(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder ran")

    # json writes a cold min-wcan key's kept fragments, once per key; the
    # request after it is warm
    run_cli(capsys, argv)
    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    assert json.loads(out)
