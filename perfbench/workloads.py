"""Seeded request lists for the three benchmark workloads, and their output checks.

Every request is either one ``blochframes.cli.main`` call or one short chain of
public library calls.  A request's ``run`` is what the benchmark times; its
``check`` runs afterwards, outside the timed region, and returns None for a
correct output or a short reason otherwise.

Each workload has a fixed core list: the request kinds, their sizes and their
counts never change with the seed, only the states, mixing weights, frame
directions and order do, so a pass costs about the same on every seed.  Each
pass also ends with a few small probes of every request kind the core lacks, so
that every layer runs on every workload and a layer that barely runs on one
workload is still measured there, where its prediction is "no change".
"""

from __future__ import annotations

import contextlib
import io
import json
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

WORKLOADS = ("threshold", "table-export", "verdict-mix")

# tolerances of the output checks
THRESHOLD_TOL = 2e-7
MIN_TOL = 1e-12
SUM_TOL = 1e-9
VALUE_TOL = 1e-12
ROUNDTRIP_TOL = 1e-10
EXPORT_SAMPLES = 64
# probes of one kind per pass; several, so that a probe's figures do not rest
# on a single request
PROBE_REPEATS = 10


@dataclass
class Request:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], "str | None"]
    rows: int = 0  # table rows the request writes
    argv: "list[str] | None" = None  # CLI arguments, for CLI requests


class Builder:
    """Makes the requests of one workload from one seed."""

    def __init__(self, bf, seed: int, workload: str, tmpdir: Path):
        self.bf = bf
        self.rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
        self.tmpdir = tmpdir
        self._exports = 0

    # --- random inputs --------------------------------------------------------

    def eps(self) -> float:
        return float(self.rng.uniform(0.02, 0.5))

    def density(self, n: int) -> np.ndarray:
        """Full-rank random density matrix (Ginibre)."""
        d = 2**n
        g = self.rng.normal(size=(d, d)) + 1j * self.rng.normal(size=(d, d))
        m = g @ g.conj().T
        return m / np.trace(m).real

    def unit(self) -> np.ndarray:
        v = self.rng.normal(size=3)
        return v / np.linalg.norm(v)

    def spanning_vectors(self, k: int) -> np.ndarray:
        """k random unit vectors whose projectors span with a well-conditioned Gram matrix."""
        while True:
            vs = np.array([self.unit() for _ in range(k)])
            a = np.hstack([np.ones((k, 1)), vs])
            if np.linalg.svd(a, compute_uv=False)[-1] >= 0.3:
                return vs

    def octant_seed(self) -> list[float]:
        v = np.abs(self.unit())
        while v.min() < 0.1:
            v = np.abs(self.unit())
        return v.tolist()

    def frame_spec(self, kind: str, size: int = 0):
        if kind == "reflected":
            return {"kind": "reflected", "vectors": [self.octant_seed() for _ in range(size)]}
        if kind == "custom":
            return {"kind": "custom", "vectors": self.spanning_vectors(size).tolist()}
        return kind

    # --- CLI requests ---------------------------------------------------------

    def cli(self, kind: str, argv: list[str], check, rows: int = 0) -> Request:
        bf = self.bf

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = bf.cli.main(argv)
            return code, buf.getvalue()

        def checked(out):
            code, text = out
            if code != 0:
                return f"exit code {code}"
            return check(text)

        return Request(kind, run, checked, rows, argv)

    def threshold(self, n: int, grid: int = 24, refine: int = 3) -> Request:
        state = {"family": "eps_cat", "n": n, "epsilon": self.eps()}
        argv = ["min-wcan", "--state", json.dumps(state), "--threshold-search",
                "--grid", str(grid), "--refine", str(refine)]
        expected = self.bf.bound_cat(n)

        def check(text):
            payload = json.loads(text)
            err = abs(payload["threshold"] - expected)
            if not err <= THRESHOLD_TOL:
                return f"threshold {payload['threshold']!r} is {err:.3g} from bound_cat({n})"
            return self._check_min(state, payload)

        return self.cli("threshold", argv, check)

    def min_wcan(self, n: int, extra: tuple[str, ...] = ()) -> Request:
        state = {"family": "custom_matrix", "matrix": _matrix_json(self.density(n))}
        argv = ["min-wcan", "--state", json.dumps(state), *extra]
        return self.cli("min-wcan", argv, lambda text: self._check_min(state, json.loads(text)))

    def _check_min(self, state: dict, payload: dict):
        """The reported minimum must be the function's value at the reported
        argmin, so that it is an evaluated upper bound on the true minimum."""
        bf = self.bf
        c = bf.pauli_coefficients(bf.build_state(bf.StateSpec.from_json(state)))
        vectors = [bf.BlochVector(*a["vector"]) for a in payload["argmin"]]
        value = bf.wcan_continuous(c, vectors)
        if not abs(value - payload["min"]) <= MIN_TOL:
            return f"min {payload['min']!r} differs from the value {value!r} at its argmin"
        return None

    def export(self, state: dict, frame) -> Request:
        """coeffs --out: the CSV must hold every row, the trailer sum must be 1,
        and seeded sample rows must read back bit-exactly as the library's weights."""
        bf = self.bf
        path = self.tmpdir / f"export-{self._exports}.csv"
        self._exports += 1
        rho = bf.build_state(bf.StateSpec.from_json(state))
        weights = bf.wcan_discrete(rho, [bf.frame_from_json(frame)] * rho.qubits).weights
        rows = weights.size
        sample = {0, rows - 1, *self.rng.integers(0, rows, size=EXPORT_SAMPLES).tolist()}
        argv = ["coeffs", "--state", json.dumps(state), "--frames", json.dumps(frame), "--out", str(path)]

        def check(text):
            payload = json.loads(text)
            if payload.get("rows") != rows:
                return f"payload reports {payload.get('rows')} rows, expected {rows}"
            return check_export_csv(path, weights, sample)

        return self.cli("export", argv, check, rows)

    def coeffs_json(self, state: dict, frame) -> Request:
        bf = self.bf
        n = bf.build_state(bf.StateSpec.from_json(state)).qubits
        rows = bf.frame_from_json(frame).size ** n
        argv = ["--format", "json", "coeffs", "--state", json.dumps(state), "--frames", json.dumps(frame)]

        def check(text):
            payload = json.loads(text)
            if payload["rows"] != rows:
                return f"payload reports {payload['rows']} rows, expected {rows}"
            if not abs(payload["sum"] - 1.0) <= SUM_TOL:
                return f"table sum {payload['sum']!r} is not 1"
            return None

        return self.cli("coeffs-json", argv, check)

    def witness(self, name: str) -> Request:
        eps = self.eps()
        family, factor = ("werner", 3.0) if name == "werner" else ("eps_ghz", 5.0)
        argv = ["witness", "--name", name, "--state", json.dumps({"family": family, "epsilon": eps})]

        def check(text):
            value = json.loads(text)["value"]
            if not abs(value - factor * eps) <= VALUE_TOL:
                return f"{name} witness {value!r}, expected {factor:g} eps = {factor * eps!r}"
            return None

        return self.cli("witness", argv, check)

    def ppt(self) -> Request:
        eps = self.eps()
        argv = ["ppt", "--state", json.dumps({"family": "werner", "epsilon": eps})]

        def check(text):
            value = json.loads(text)["min_eigenvalue"]
            expected = (1.0 - 3.0 * eps) / 4.0
            if not abs(value - expected) <= VALUE_TOL:
                return f"PPT minimum eigenvalue {value!r}, expected {expected!r}"
            return None

        return self.cli("ppt", argv, check)

    def verify_named(self, name: str) -> Request:
        return self.cli("verify", ["verify-ensemble", "--name", name], _expect_match)

    def verify_inline(self, n: int, terms: int) -> Request:
        ensemble = self.ensemble(n, terms)
        target = {"family": "custom_matrix", "matrix": _matrix_json(ensemble.mixture().matrix)}
        argv = ["verify-ensemble", "--file", json.dumps(ensemble.to_json()), "--state", json.dumps(target)]
        return self.cli("verify", argv, _expect_match)

    def bounds(self) -> Request:
        lo = int(self.rng.integers(1, 12))
        hi = int(self.rng.integers(lo, 25))
        bf = self.bf

        def check(text):
            lines = text.strip().splitlines()
            if lines[0] != "N,general,cat,duer" or len(lines) != hi - lo + 2:
                return "bounds table has the wrong header or row count"
            for n, line in zip(range(lo, hi + 1), lines[1:]):
                cat = repr(bf.bound_cat(n)) if n >= 2 else ""
                duer = repr(bf.bound_duer(n)) if n >= 2 else repr(1.0)
                if line != f"{n},{bf.bound_general(n)!r},{cat},{duer}":
                    return f"bounds row {line!r} is wrong"
            return None

        return self.cli("bounds", ["bounds", "--n-min", str(lo), "--n-max", str(hi)], check)

    # --- library requests -----------------------------------------------------

    def ensemble(self, n: int, terms: int):
        bf = self.bf
        probs = self.rng.dirichlet(np.ones(terms))
        probs[-1] = 1.0 - probs[:-1].sum()
        vectors = [self.spanning_vectors(terms) for _ in range(n)]
        return bf.ProductEnsemble(n, tuple(
            bf.EnsembleTerm(float(p), tuple(bf.BlochVector(*vectors[k][t]) for k in range(n)))
            for t, p in enumerate(probs)))

    def certify(self, n: int, terms: int) -> Request:
        """ensemble_to_table + certify on a random product ensemble, whose
        per-qubit frames are the ensemble's own directions."""
        bf = self.bf
        ensemble = self.ensemble(n, terms)
        directions = [[term.vectors[k] for term in ensemble.terms] for k in range(n)]

        def run():
            frames = [bf.build_frame("custom", d) for d in directions]
            table = bf.ensemble_to_table(ensemble, frames)
            return bf.certify(ensemble.mixture(), table)

        def check(cert):
            return None if cert.verdict == "separable" else f"certify says {cert.verdict!r}"

        return Request("certify", run, check)

    def hosh(self, n: int) -> Request:
        """HOSH round trip: spherical-harmonic form plus a mirror-paired higher
        term, integrated back on icosahedron quadrature, must give rho again."""
        bf = self.bf
        rho = bf.DenseOperator(self.density(n), n, hermitian=True)
        key = [(int(l), int(self.rng.integers(-l, l + 1))) for l in self.rng.integers(0, 2, size=n)]
        slot = int(self.rng.integers(0, n))
        high = int(self.rng.integers(2, 5))
        key[slot] = (high, int(self.rng.integers(1, high + 1)))
        key = tuple(key)
        coeff = complex(*self.rng.uniform(0.1, 1.0, size=2))
        mirror = tuple((l, -m) for l, m in key)
        extra = {key: coeff, mirror: (-1.0) ** sum(m for _l, m in key) * coeff.conjugate()}

        def run():
            c = bf.pauli_coefficients(rho)
            sph = bf.add_hosh(bf.sph_coefficients(c), extra)
            return bf.reconstruct_continuous(sph, bf.sphere_quadrature("icosahedron"))

        def check(out):
            err = float(np.max(np.abs(out.matrix - rho.matrix)))
            return None if err <= ROUNDTRIP_TOL else f"HOSH round trip is off by {err:.3g}"

        return Request("hosh", run, check)

    # --- probes ---------------------------------------------------------------

    def probes(self, exclude: set[str]) -> list[Request]:
        """PROBE_REPEATS small requests of every kind not in `exclude`."""
        makers = {
            "threshold": lambda: [self.threshold(2, grid=6, refine=0)],
            "min-wcan": lambda: [self.min_wcan(2, ("--grid", "12", "--refine", "1"))],
            "export": lambda: [self.export(_eps_cat(2, self.eps()), "cardinal6")],
            "coeffs-json": lambda: [self.coeffs_json(_eps_cat(2, self.eps()), "tetrahedron")],
            "witness": lambda: [self.witness("werner"), self.witness("ghz")],
            "ppt": lambda: [self.ppt()],
            "verify": lambda: [self.verify_named("werner")],
            "bounds": lambda: [self.bounds()],
            "certify": lambda: [self.certify(2, 4)],
            "hosh": lambda: [self.hosh(2)],
        }
        return [r for kind, make in makers.items() if kind not in exclude
                for _ in range(PROBE_REPEATS) for r in make()]


def build(bf, workload: str, seed: int, tmpdir: Path) -> list[Request]:
    """The fixed request list of one pass over `workload`."""
    b = Builder(bf, seed, workload, tmpdir)
    if workload == "threshold":
        core = [b.threshold(n) for n in (2, 3, 4)]
        core += [b.min_wcan(n) for n in (3, 3, 4, 4)]
    elif workload == "table-export":
        core = [
            b.export(_eps_cat(7, b.eps()), "cardinal6"),
            b.export({"family": "custom_matrix", "matrix": _matrix_json(b.density(5))}, "icosahedron"),
        ]
    elif workload == "verdict-mix":
        core = _verdict_mix(b)
    else:
        raise ValueError(f"unknown workload {workload!r}; options: {WORKLOADS}")
    return core + b.probes({r.kind for r in core})


# coeffs --format json requests per qubit count: (frame kind, size, count);
# sizes keep every table at or below 6^7 rows
_COEFF_FRAMES = {
    2: (("cardinal6", 0, 10), ("dodecahedron", 0, 10), ("reflected", 2, 10), ("custom", 10, 10)),
    3: (("cardinal6", 0, 10), ("icosahedron", 0, 10), ("reflected", 1, 10), ("custom", 8, 10)),
    4: (("cardinal6", 0, 10), ("cube", 0, 10), ("reflected", 1, 10), ("custom", 6, 10)),
    5: (("cardinal6", 0, 10), ("icosahedron", 0, 10), ("tetrahedron", 0, 10), ("custom", 5, 10)),
    6: (("cardinal6", 0, 10), ("cube", 0, 10), ("tetrahedron", 0, 10), ("custom", 4, 10)),
    7: (("cardinal6", 0, 20), ("tetrahedron", 0, 10), ("custom", 4, 10)),
}


def _verdict_mix(b: Builder) -> list[Request]:
    """1000 short requests with fixed class shares, in seeded order; 1000 so
    that ten requests lie beyond the p99."""
    reqs = []
    reqs += [b.witness(name) for name in ("werner", "ghz") for _ in range(75)]
    reqs += [b.ppt() for _ in range(100)]
    reqs += [b.verify_named(name) for name in ("werner", "ghz") for _ in range(20)]
    reqs += [b.verify_inline(n, 6) for n in (2, 3) for _ in range(20)]
    reqs += [b.bounds() for _ in range(50)]
    for n, frames in _COEFF_FRAMES.items():
        for kind, size, count in frames:
            for _ in range(count):
                reqs.append(b.coeffs_json(_state_for(b, n), b.frame_spec(kind, size)))
    # a coarse grid and one refinement sweep keep minimize a small share here
    reqs += [b.min_wcan(n, ("--grid", "12", "--refine", "1")) for n in (2, 3) for _ in range(20)]
    reqs += [b.certify(n, terms) for n in (2, 3) for terms in (4, 6, 8) for _ in range(25)]
    reqs += [b.hosh(n) for n in (2, 3) for _ in range(95)]
    order = b.rng.permutation(len(reqs))
    return [reqs[i] for i in order]


def _state_for(b: Builder, n: int) -> dict:
    if n == 2 and b.rng.random() < 0.5:
        return {"family": "werner", "epsilon": b.eps()}
    if n == 3 and b.rng.random() < 0.5:
        return {"family": "eps_ghz", "epsilon": b.eps()}
    return _eps_cat(n, b.eps())


def _eps_cat(n: int, eps: float) -> dict:
    return {"family": "eps_cat", "n": n, "epsilon": eps}


def _matrix_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _expect_match(text: str):
    verdict = json.loads(text)["verdict"]
    return None if verdict == "match" else f"verify-ensemble says {verdict!r}"


_TRAILER = re.compile(r"^# min=(\S+) sum=(\S+)$")


def check_export_csv(path: Path, weights: np.ndarray, sample: set[int]):
    """Stream the CSV once: row count, trailer sum and bit-exact sample rows."""
    header = trailer = None
    row = 0
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                trailer = line
                continue
            if header is None:
                header = line
                continue
            if row in sample:
                fields = line.rstrip("\n").split(",")
                idx = tuple(int(f) for f in fields[:-1])
                if idx != tuple(int(i) for i in np.unravel_index(row, weights.shape)):
                    return f"row {row} has index {idx}"
                if fields[-1] != repr(float(weights.flat[row])):
                    return f"row {row} weight {fields[-1]} differs from the library's"
            row += 1
    if row != weights.size:
        return f"CSV has {row} rows, expected {weights.size}"
    match = _TRAILER.match((trailer or "").rstrip("\n"))
    if match is None:
        return "CSV trailer is missing"
    total = float(match.group(2))
    if not abs(total - 1.0) <= SUM_TOL:
        return f"trailer sum {total!r} is not 1"
    return None


def describe_shares(requests: list[Request]) -> dict[str, int]:
    return dict(sorted(Counter(r.kind for r in requests).items()))
