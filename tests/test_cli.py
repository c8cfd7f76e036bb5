import json
import math
import subprocess
import sys

import numpy as np
import pytest

from blochframes import (
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
    from blochframes import CertificateError, certify, werner_ensemble

    # max-abs deviation 9e-11 but Frobenius 1.8e-10, beyond RECONSTRUCTION_TOL
    d = 9e-11
    m = werner_ensemble().mixture().matrix + np.diag([d, -d, d, -d])
    state = {"family": "custom_matrix", "matrix": [[[e.real, e.imag] for e in row] for row in m]}
    with pytest.raises(CertificateError):
        certify(build_state(StateSpec.from_json(state)), werner_ensemble())
    code, out, err = run_cli(
        capsys, ["verify-ensemble", "--name", "werner", "--state", json.dumps(state)]
    )
    assert code == 4
    report = json.loads(out)
    assert report["verdict"] == "mismatch"
    assert abs(report["deviation"] - 2 * d) < 1e-15


def test_verify_ensemble_from_file(capsys, tmp_path):
    from blochframes import werner_ensemble

    path = tmp_path / "ensemble.json"
    path.write_text(json.dumps(werner_ensemble().to_json()))
    code, out, err = run_cli(
        capsys,
        ["verify-ensemble", "--file", str(path),
         "--state", '{"family": "werner", "epsilon": 0.3333333333333333}'],
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "match"


def test_verify_ensemble_file_needs_state(capsys, tmp_path):
    from blochframes import werner_ensemble

    path = tmp_path / "ensemble.json"
    path.write_text(json.dumps(werner_ensemble().to_json()))
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


def test_witness_subcommand(capsys):
    code, out, err = run_cli(
        capsys, ["witness", "--name", "werner", "--state", '{"family": "werner", "epsilon": 0.5}']
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "nonseparable"
    assert abs(report["value"] - 1.5) < 1e-12


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


@pytest.mark.parametrize(
    "argv",
    [
        ["ppt", "--state", _NAN_STATE],
        ["--format", "json", "coeffs", "--state", _NAN_STATE],
        ["witness", "--name", "werner", "--state", _NAN_STATE],
    ],
)
def test_nan_state_is_domain_error(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 3
    assert out == ""
    assert "non-finite entries" in err


def test_nan_coefficient_is_input_error(capsys):
    code, out, err = run_cli(
        capsys,
        ["witness", "--name", "werner", "--coeffs", '{"n": 2, "coeffs": {"00": 1, "11": NaN}}'],
    )
    assert code == 2
    assert out == ""
    assert "non-finite" in err
