"""blochframes benchmark: three workloads driven in process through the CLI and
the public library, by one single-threaded client in a closed loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <threshold|table-export|verdict-mix> \
        --seed <n> --seconds <s> --trace <0|1>

A run builds the workload's fixed request list from the seed, times a few
fresh processes that import blochframes and serve one request (set-up), runs
one warm-up pass, then repeats passes over the list for the given number of
seconds.  Every output is checked after its pass; a wrong output or an
exception counts as a failure, and any failure makes the run exit with 1.

The end-to-end timings are host-speed-scaled: a fixed reference computation
(calibrate.py) runs between blocks of requests, and every request's time is
multiplied by REFERENCE_UNIT_S over the reference's time around it; each
set-up process is likewise scaled by a fresh reference process before and
after it.  They read as seconds on a host where the references take their
nominal times, and load from other tenants of the machine, which slows the
program and the references alike, drops out.  The unscaled medians are
printed for reference.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced and traced passes (see tracing.py) for two thirds of the
time, then repeats the traced passes in a child process limited to one BLAS
thread for the last third, and reports the per-layer metrics: per-pass means
of the traced passes, the tracing overhead as the median difference between
each traced pass and the untraced pass before it, and the one-thread self
times under the prefix "blas1.".

Human-readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  Spans of the
traced run and a result file with the environment go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
# requests of a calibrated pass are timed in blocks of at least this many
# seconds, each followed by the reference
CALIBRATION_BLOCK_S = 0.1
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 150
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or specification)."""


def load_blochframes():
    """Import blochframes from this checkout's src/ and nowhere else."""
    if not (SRC / "blochframes" / "__init__.py").is_file():
        raise BenchError(f"no blochframes sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import blochframes
    import blochframes.cli  # noqa: F401  (the CLI module is driven directly)

    if Path(blochframes.__file__).resolve().parent != (SRC / "blochframes").resolve():
        raise BenchError(f"imported blochframes from {blochframes.__file__}, not from {SRC}")
    return blochframes


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def child_env(**extra) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update(extra)
    return env


# --- environment ---------------------------------------------------------------


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        vendor = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": openblas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def openblas_threads():
    """Thread count reported by the OpenBLAS this process loaded, if any."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line.split()[-1]})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


# --- set-up in fresh processes ----------------------------------------------------


def setup_request(bf, workload: str, seed: int, tmpdir: Path):
    """One small request of the workload, from a random stream of its own so
    that it does not shift the workload's inputs."""
    b = workloads.Builder(bf, seed + 1_000_003, workload, tmpdir)
    if workload == "threshold":
        return b.threshold(2, grid=6, refine=0)
    if workload == "table-export":
        return b.export({"family": "eps_cat", "n": 3, "epsilon": b.eps()}, "cardinal6")
    return b.ppt()


def measure_setup(req, repeats: int):
    """Host-speed-scaled and unscaled wall times of fresh `python -m
    blochframes` processes serving `req`, each between two reference processes."""
    times, raw, failures = [], [], []
    before = calibrate.reference_process()
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "blochframes", *req.argv], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True, timeout=120)
        raw.append(time.perf_counter() - start)
        after = calibrate.reference_process()
        times.append(raw[-1] * calibrate.REFERENCE_PROCESS_S / (0.5 * (before + after)))
        before = after
        reason = req.check((proc.returncode, proc.stdout))
        if reason is not None:
            failures.append(f"set-up request: {reason} {proc.stderr.strip()[-200:]}")
    return times, raw, failures


_IMPORT_LINE = re.compile(r"^import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")


def measure_imports(req, repeats: int) -> dict:
    """Cumulative import times (s) from `-X importtime` in the set-up process."""
    samples: dict[str, list[float]] = {}
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "blochframes", *req.argv],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120)
        seen = {}
        for line in proc.stderr.splitlines():
            match = _IMPORT_LINE.match(line)
            if match and match.group(2) in ("blochframes", "blochframes.harmonics", "scipy.special", "numpy", "scipy"):
                seen.setdefault(match.group(2), int(match.group(1)) / 1e6)
        for name, value in seen.items():
            samples.setdefault(name, []).append(value)
    return {name: statistics.median(v) for name, v in samples.items()}


# --- passes -------------------------------------------------------------------------


class Runner:
    """One closed-loop client.  With a tracer set, each pass is traced and its
    per-layer snapshot kept; with a calibrator set, each pass's requests are
    also timed host-speed-scaled.  Outputs are checked after the pass,
    untraced."""

    def __init__(self, requests):
        self.requests = requests
        self.tracer = None
        self.calibrator: calibrate.Calibrator | None = None
        self.snapshots: list[dict] = []
        self.attempted = 0
        self.failures: list[str] = []

    def one_pass(self):
        """Run every request once, then check the outputs; returns
        (wall seconds, per-request latencies, scaled per-request latencies or
        None without a calibrator).  The wall excludes the reference's time."""
        outputs, latencies = [], []
        clock = time.perf_counter
        tracer = self.tracer
        calibrator = self.calibrator
        blocks = []  # (start, end, first request, end request) of calibrated blocks
        reference_s = 0.0
        if tracer is not None:
            tracer.reset()
            tracer.active = True
        start = clock()
        if calibrator is not None:
            calibrator.forget_before(start)
        block_start, block_first = start, 0
        for req in self.requests:
            t0 = clock()
            try:
                if tracer is None:
                    out = req.run()
                else:
                    tracer.request_id += 1
                    out = tracer.call(tracing.ROOT, req.run)
                err = None
            except Exception as exc:  # a failed request is counted, and the run goes on
                out, err = None, f"{type(exc).__name__}: {exc}"
            latencies.append(clock() - t0)
            outputs.append((out, err))
            if calibrator is not None:
                block_end = clock()
                if block_end - block_start >= CALIBRATION_BLOCK_S or len(latencies) == len(self.requests):
                    blocks.append((block_start, block_end, block_first, len(latencies)))
                    calibrator.after_block(block_end - block_start)
                    block_start, block_first = clock(), len(latencies)
                    reference_s += block_start - block_end
        wall = clock() - start - reference_s
        scaled = None
        if calibrator is not None:
            scaled = []
            for block_start, block_end, first, end in blocks:
                factor = calibrator.factor(block_start, block_end)
                scaled += [t * factor for t in latencies[first:end]]
        if tracer is not None:
            tracer.active = False
            self.snapshots.append(layer_snapshot(tracer, wall))
        for req, (out, err) in zip(self.requests, outputs):
            self.attempted += 1
            if err is None:
                try:
                    err = req.check(out)
                except Exception as exc:  # an unreadable output is a wrong output
                    err = f"unreadable output: {type(exc).__name__}: {exc}"
            if err is not None:
                self.failures.append(f"{req.kind}: {err}")
        return wall, latencies, scaled

    def passes(self, seconds: float):
        out = []
        deadline = time.perf_counter() + seconds
        while not out or time.perf_counter() < deadline:
            out.append(self.one_pass())
        return out


def end_to_end(requests, passes, setup_times) -> tuple[dict, dict]:
    """Metric values and the samples behind each, from the host-speed-scaled
    timings: each request's median over the run's passes, and the median of
    the fresh set-up processes."""
    typical = [statistics.median(scaled[i] for _, _, scaled in passes) for i in range(len(requests))]
    solves = [t for r, t in zip(requests, typical) if r.kind == "threshold"]
    exports = [t for r, t in zip(requests, typical) if r.rows]
    wall = sum(typical)
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "req_per_s": len(requests) / wall,
        "req_p50_ms": 1e3 * statistics.median(typical),
        "req_p99_ms": 1e3 * statistics.quantiles(typical, n=100)[98],
        "threshold_solve_s": statistics.fmean(solves),
        "rows_per_s": sum(r.rows for r in requests) / sum(exports),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    per_request = f"median of {len(passes)} passes per request, scaled"
    counts = {
        "setup_s": f"median of {len(setup_times)} fresh processes, scaled",
        "wall_s": f"sum over {len(typical)} requests, {per_request}",
        "req_per_s": f"{len(typical)} requests over wall_s",
        "req_p50_ms": f"median of {len(typical)} requests, {per_request}",
        "req_p99_ms": f"p99 of {len(typical)} requests, {sum(t * 1e3 > values['req_p99_ms'] for t in typical)} beyond",
        "threshold_solve_s": f"mean of {len(solves)} solves, {per_request}",
        "rows_per_s": f"{len(exports)} exports, {per_request}",
        "peak_rss_mb": "this process",
    }
    return values, counts


def medians_for_reference(passes, setup_raw) -> str:
    """The unscaled figures, as measured on this host."""
    pooled = [t for _, lat, _ in passes for t in lat]
    p99 = statistics.quantiles(pooled, n=100)[98] if len(pooled) > 1 else pooled[0]
    return (f"unscaled: set-up median {statistics.median(setup_raw):.4f} s; "
            f"median pass {statistics.median(w for w, _, _ in passes):.4f} s over {len(passes)} passes; "
            f"pooled request p50 {1e3 * statistics.median(pooled):.4f} ms, "
            f"p99 {1e3 * p99:.4f} ms over {len(pooled)} requests")


# --- per-layer metrics ----------------------------------------------------------------


def layer_snapshot(tracer: tracing.Tracer, wall: float) -> dict:
    m = {}
    for name, calls in tracer.calls.items():
        m[f"{name}.calls"] = calls
    for name, value in tracer.self_time.items():
        m[f"{name}.self_s"] = value
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in tracer.self_time.items() if k.startswith(layer + "."))
    c = tracer.counts
    solves = tracer.calls.get(tracing.THRESHOLD, 0)
    scans = c.get("scans", 0)
    minimize_s = tracer.total.get(tracing.MINIMIZE, 0.0)
    m["minimize.bisect_steps"] = c.get("bisect_steps", 0) / solves if solves else 0.0
    m["minimize.scan_points"] = c.get("scan_points", 0) / scans if scans else 0.0
    m["minimize.scan_grid_per_sphere"] = c.get("scan_grid_per_sphere", 0) / scans if scans else 0.0
    m["minimize.refine_evals"] = c.get("refine_evals", 0)
    m["minimize.refine_share"] = c.get("refine_s", 0.0) / minimize_s if minimize_s else 0.0
    m["representations.contract_flops"] = c.get("contract_flops", 0)
    m["representations.rows_written"] = c.get("rows_written", 0)
    m["representations.bytes_written"] = c.get("bytes_written", 0)
    m["trace.traced_wall_s"] = wall
    m["trace.self_sum_s"] = sum(v for k, v in tracer.self_time.items() if k != tracing.ROOT)
    return m


def mean_of(snapshots: list[dict]) -> dict:
    keys = {k for s in snapshots for k in s}
    return {k: sum(s.get(k, 0.0) for s in snapshots) / len(snapshots) for k in keys}


def traced_passes(bf, runner: Runner, seconds: float, spans_path: Path | None, untraced: list | None):
    """Traced passes for `seconds`, each preceded by an untraced pass when
    `untraced` is a list to fill, so that both see the same machine load.
    Returns the mean per-layer snapshot and the traced pass walls."""
    tracer = tracing.Tracer()
    traced = []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        if untraced is not None:
            untraced.append(runner.one_pass()[0])
        tracer.install(bf)
        runner.tracer = tracer
        try:
            traced.append(runner.one_pass()[0])
        finally:
            tracer.uninstall()
            runner.tracer = None
    if spans_path is not None:
        tracer.write_spans(spans_path)
    return mean_of(runner.snapshots), traced


def one_thread_layers(args) -> tuple[dict, int, list[str]]:
    """The traced passes again in a child process limited to one BLAS thread."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds / 3.0), "--trace", "1", "--traced-only"]
    env = child_env(**{k: "1" for k in BLAS_THREAD_VARS})
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {}, 1, ["one-thread traced run timed out"]
    sys.stderr.write(proc.stderr)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {}, 1, [f"one-thread traced run printed no result (exit {proc.returncode})"]
    layers = {f"blas1.{k}": v for k, v in result["metrics"].items()
              if k.endswith(".self_s") or k == "trace.traced_wall_s"}
    return layers, result["attempted"], result["failures"]


# --- main ----------------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--traced-only", action="store_true",
                   help="run only the traced passes and print all their layer metrics "
                        "(the one-BLAS-thread repeat of --trace 1)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = load_spec()
        bf = load_blochframes()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tmpdir = OUT / f"tmp-{os.getpid()}"
    tmpdir.mkdir()
    try:
        return run(args, spec, bf, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def run(args, spec, bf, tmpdir: Path) -> int:
    env = environment()
    requests = workloads.build(bf, args.workload, args.seed, tmpdir)
    runner = Runner(requests)

    if args.traced_only:
        runner.one_pass()
        layers, _ = traced_passes(bf, runner, args.seconds, None, None)
        print(json.dumps({"attempted": runner.attempted, "failures": runner.failures, "metrics": layers}))
        return 0

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"requests per pass: {len(requests)}  {workloads.describe_shares(requests)}")
    print(f"env: {json.dumps(env)}")

    probe = setup_request(bf, args.workload, args.seed, tmpdir)
    imports = measure_imports(probe, IMPORT_REPEATS if args.trace else 1)
    attempted = 0
    failures: list[str] = []
    if args.trace == 0:
        setup_times, setup_raw, setup_failures = measure_setup(probe, SETUP_REPEATS)
        attempted += len(setup_times)
        failures += setup_failures

    runner.one_pass()  # warm-up: lazy imports and first-call costs
    if args.trace == 0:
        runner.calibrator = calibrate.Calibrator()
        passes = runner.passes(args.seconds)
        values, counts = end_to_end(requests, passes, setup_times)
        table = spec["end_to_end"]
    else:
        untraced = []
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        values, traced = traced_passes(bf, runner, args.seconds * 2.0 / 3.0, spans_path, untraced)
        values["trace.untraced_wall_s"] = statistics.fmean(untraced)
        values["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced, untraced))
        values["harmonics.import_s"] = imports.get("blochframes.harmonics", 0.0)
        blas1, child_attempted, child_failures = one_thread_layers(args)
        values.update(blas1)
        attempted += child_attempted
        failures += child_failures
        counts = {}
        table = spec["per_layer"]

    attempted += runner.attempted
    failures += runner.failures
    fail_ratio = len(failures) / attempted if attempted else 1.0

    metrics = {}
    for entry in table:
        name = entry["name"]
        if name not in values:
            print(f"perfbench: no measurement for {name}; reporting 0", file=sys.stderr)
        metrics[name] = {"value": float(values.get(name, 0.0)), "unit": entry["unit"]}
        note = f"  ({counts[name]})" if name in counts else ""
        print(f"  {name:<58} {metrics[name]['value']:>16.6g} {entry['unit']}{note}")
    print(f"  {'fail_ratio':<58} {fail_ratio:>16.6g} ratio  ({len(failures)} of {attempted} requests)")
    if args.trace == 0:
        print(f"  for reference: {medians_for_reference(passes, setup_raw)}")
    print("  set-up imports (cumulative s): " + ", ".join(f"{k} {v:.4f}" for k, v in sorted(imports.items())))
    for reason in failures[:20]:
        print(f"perfbench: wrong output: {reason}", file=sys.stderr)

    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  env=env, imports=imports, fail_ratio=fail_ratio, failures=failures[:100],
                  passes=passes if args.trace == 0 else None, kinds=[r.kind for r in requests])
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
