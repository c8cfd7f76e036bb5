"""Tests of the benchmark itself: correct outputs pass, corrupted ones fail the run.

Kept out of the package's test collection on purpose; run from the root of a
checkout with

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import io
import json
import shutil
from pathlib import Path

import pytest

import calibrate
import run
import tracing
import workloads

bf = run.load_blochframes()


@pytest.fixture
def tmpdir_in_checkout():
    path = run.OUT / "selftest"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def run_main(argv, capsys):
    code = run.main(argv)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, result


def test_every_request_kind_passes_its_check(tmpdir_in_checkout):
    requests = workloads.Builder(bf, 7, "verdict-mix", tmpdir_in_checkout).probes(set())
    assert {r.kind for r in requests} >= {"threshold", "min-wcan", "export", "coeffs-json", "witness",
                                         "ppt", "verify", "bounds", "certify", "hosh"}
    runner = run.Runner(requests)
    runner.one_pass()
    assert runner.failures == []
    assert runner.attempted == len(requests)


def test_calibrated_pass_scales_every_latency_by_a_block_factor(tmpdir_in_checkout, monkeypatch):
    requests = workloads.Builder(bf, 7, "verdict-mix", tmpdir_in_checkout).probes({"threshold", "min-wcan"})
    runner = run.Runner(requests)
    # a host running at half the reference speed
    monkeypatch.setattr(calibrate, "reference_unit", lambda: 2 * calibrate.REFERENCE_UNIT_S)
    runner.calibrator = calibrate.Calibrator()
    wall, latencies, scaled = runner.one_pass()
    assert runner.failures == []
    assert scaled == pytest.approx([t / 2 for t in latencies], rel=1e-12)
    # the reference's own time is not in the pass's wall
    assert wall == pytest.approx(sum(latencies), rel=0.05)


def test_threshold_off_by_1e3_fails_the_run(monkeypatch, capsys):
    original = bf.cli.threshold_search
    monkeypatch.setattr(bf.cli, "threshold_search", lambda *a, **k: original(*a, **k) + 1e-3)
    code, result = run_main(["--workload", "threshold", "--seed", "3", "--seconds", "0", "--trace", "0"], capsys)
    assert code == 1
    assert result["correct"] is False
    # three solves in the core and none among the probes, over the warm-up and one timed pass
    assert result["failed"] == 6
    assert result["attempted"] > result["failed"]


def test_truncated_csv_fails_the_run(monkeypatch, capsys):
    original = bf.CoefficientTable.write_csv

    def truncated(self, stream, comments=True):
        buf = io.StringIO()
        original(self, stream=buf, comments=comments)
        lines = buf.getvalue().splitlines(keepends=True)
        stream.write("".join(lines[: len(lines) // 2]))

    monkeypatch.setattr(bf.CoefficientTable, "write_csv", truncated)
    code, result = run_main(["--workload", "table-export", "--seed", "3", "--seconds", "0", "--trace", "0"], capsys)
    assert code == 1
    assert result["correct"] is False
    # two exports in the core over the warm-up and one timed pass; the fresh
    # set-up processes run the unpatched library
    assert result["failed"] == 4


def test_bit_flip_in_an_exported_weight_is_caught(tmpdir_in_checkout):
    req = workloads.Builder(bf, 5, "table-export", tmpdir_in_checkout).export(
        {"family": "eps_cat", "n": 3, "epsilon": 0.25}, "cardinal6")
    out = req.run()
    assert req.check(out) is None
    path = Path(json.loads(out[1])["out"])
    lines = path.read_text().splitlines(keepends=True)
    first_row = 3  # two comment lines and the header come first
    idx, weight = lines[first_row].rsplit(",", 1)
    lines[first_row] = f"{idx},{float(weight) + 2**-60 + abs(float(weight)) * 2**-52!r}\n"
    path.write_text("".join(lines))
    assert "differs from the library's" in req.check(out)


def test_tracer_rebinds_every_imported_name_and_restores_it():
    original = bf.minimize.minimize_wcan
    tracer = tracing.Tracer()
    tracer.install(bf)
    try:
        for module in (bf, bf.cli, bf.minimize):
            assert module.minimize_wcan is not original
            assert module.minimize_wcan.__wrapped__ is original
        c = bf.pauli_coefficients(bf.build_state(bf.StateSpec("eps_cat", qubits=2, epsilon=0.5)))
        tracer.active = True
        bf.threshold_search(c, grid_per_sphere=6, refine_iters=1)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert bf.cli.minimize_wcan is original and bf.minimize_wcan is original
    assert tracer.calls[tracing.THRESHOLD] == 1
    assert tracer.counts["bisect_steps"] == tracer.calls[tracing.MINIMIZE]
    assert tracer.counts["refine_evals"] > 0
    # self times add up to the root span's duration
    total = sum(tracer.self_time.values())
    assert total == pytest.approx(tracer.total[tracing.THRESHOLD], rel=1e-9)
