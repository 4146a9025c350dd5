"""Benchmark of meanfield: per-iteration latency, throughput, memory and set-up.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Each run fits one seeded problem of the workload several times,
each time in a fresh interpreter, one process at a time, with BLAS threads
pinned to 1.  The repeat count comes from ``--seconds`` alone, so two
commits do the same work for the same arguments.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of an outside-in span trace (see ``spans.py``).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Every repeat is checked for correctness; a repeat that crashes, times out,
fails its check or disagrees with the first repeat counts as failed.

Times are calibrated: on a shared machine other tenants slow the CPU by
up to about two times, for tenths of a second to minutes, so every
iteration and every set-up is timed next to a fixed calibration unit and
scaled by CALIBRATION_REF_S / (that unit's time).  See README.md for the
metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Wall seconds of one repeat of each workload at the baseline commit;
# --seconds / this = repeats, so the work of a run depends on its arguments only.
REPEAT_NOMINAL_S = {
    "gmm2_cavi": 5.0,
    "matfac_ppca_cavi": 5.0,
    "logitnormal_svi": 5.0,
    "cli_two_level": 1.25,
}
WORKLOADS = tuple(REPEAT_NOMINAL_S)
MIN_REPEATS = 2
TRACE_REPEATS = 2
# Set-up-only jobs per untraced run, spread over the repeats; a set-up is
# short, so its median needs more samples than the fits give.
SETUP_SAMPLES = 8
# No job starts after this many seconds, so that a run ends within 180 s.
START_BUDGET_S = 120.0
RUN_LIMIT_S = 170.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Seconds of one worker.calibration_unit on the reference box (an Intel
# Xeon VM with 2 vCPUs) while no other tenant slows it; calibrated times
# read as times on that box.
CALIBRATION_REF_S = 200e-6


class Run:
    """Jobs of one benchmark run, their results and their failures."""

    def __init__(self, args):
        self.args = args
        self.t0 = time.perf_counter()
        self.attempted = 0
        self.failures: list[str] = []
        self.failed: set[int] = set()
        self.setup_samples: list[float] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), self.env.get("PYTHONPATH", "")) if p
        )
        for var in BLAS_VARS:
            self.env[var] = "1"

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def job(self, spec: dict, cwd: Path | None = None, counted: bool = True) -> dict | None:
        """Run one worker job; its result gets the job's wall time and index.

        ``counted`` jobs are operations under test, counted in ``attempted``.
        """
        cmd = [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)]
        timeout = max(RUN_LIMIT_S - self.elapsed(), 1.0)
        idx = self.attempted if counted else -1
        self.attempted += counted
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=cwd, env=self.env, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            self.fail(idx, f"{spec['job']} job timed out after {timeout:.0f} s")
            return None
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.fail(idx, f"{spec['job']} job exited with {proc.returncode}: {tail[0]}")
            return None
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for message in result.get("failures", ()):
            self.fail(idx, message)
        result.update(wall_s=wall, idx=idx)
        return result

    def fail(self, idx: int, message: str) -> None:
        self.failed.add(idx)
        self.failures.append(message)

    def repeats(self) -> int:
        if self.args.trace:
            return TRACE_REPEATS
        return max(MIN_REPEATS, round(self.args.seconds / REPEAT_NOMINAL_S[self.args.workload]))

    def setups(self, done: int, cwd: Path | None = None) -> None:
        """Set-up jobs due after repeat number ``done`` (counting from 1)."""
        if self.args.trace:
            return
        r = self.repeats()
        for _ in range(SETUP_SAMPLES * done // r - SETUP_SAMPLES * (done - 1) // r):
            res = self.job(spec_for(self.args, "setup"), cwd)
            if res is not None:
                self.setup_samples.append(res["setup_s"] * CALIBRATION_REF_S / res["cal_s"])

    def go_on(self, results: list[dict]) -> bool:
        if len(results) < MIN_REPEATS:
            return True
        last = results[-1]["wall_s"]
        return len(results) < self.repeats() and self.elapsed() + last < START_BUDGET_S


def spec_for(args, job: str, **extra) -> dict:
    return {
        "job": job,
        "workload": args.workload,
        "seed": args.seed,
        "size": "smoke" if args.smoke else "full",
        "trace": bool(args.trace),
        **extra,
    }


def run_library(run: Run) -> list[dict]:
    spans = str(OUT / "spans" / f"{run.args.workload}.bin")
    results: list[dict] = []
    while run.go_on(results):
        res = run.job(spec_for(run.args, "fit", spans_path="" if results else spans))
        if res is None:
            break
        results.append(res)
        run.setups(len(results))
    return results


def run_cli(run: Run) -> list[dict]:
    """Write the CSV and config once, then run the CLI process repeatedly.

    The trace file's digest stands in for lambda: the trace holds every
    lambda and mu, so repeats must write byte-identical files.
    """
    work = OUT / "tmp" / f"{run.args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    spans = str(OUT / "spans" / f"{run.args.workload}.bin")
    results: list[dict] = []
    try:
        if run.job(spec_for(run.args, "prepare", dir=str(work)), counted=False) is None:
            return results
        while run.go_on(results):
            res = run.job(spec_for(run.args, "cli", spans_path="" if results else spans), work)
            if res is None:
                break
            trace_file = (work / "trace.txt").read_bytes()
            if res["exit_code"] != 0:
                run.fail(res["idx"], f"meanfield fit exited with {res['exit_code']}")
            elif b"converged=true" not in trace_file:
                run.fail(res["idx"], "trace file does not say converged=true")
            res["lam_digest"] = hashlib.sha256(trace_file).hexdigest()
            results.append(res)
            run.setups(len(results), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return results


def quantile(xs: list[float], q: float) -> float:
    """Linear-interpolation quantile, as numpy.quantile's default."""
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def calibrated_deltas(res: dict) -> list[float]:
    """Iteration times scaled by the calibration units run next to them.

    Unit t runs after iteration t and inside iteration t+1's delta, see
    worker.calibrated_iterations.
    """
    d, c = res["deltas"], res["cal_units"]
    out = [d[0] * CALIBRATION_REF_S / c[0]]
    for t in range(1, len(d)):
        out.append((d[t] - c[t - 1]) * 2 * CALIBRATION_REF_S / (c[t - 1] + c[t]))
    return out


def check_repeats(run: Run, results: list[dict], counts: set[str]) -> None:
    """Every repeat must reproduce the first one exactly, counts included."""
    first = results[0]
    for res in results[1:]:
        if res["iters"] != first["iters"] or res["lam_digest"] != first["lam_digest"]:
            run.fail(res["idx"], "a repeat did not reproduce the first one's iterations and lambda")
        if "layers" in res:
            names = counts & set(first["layers"])
            diff = sorted(k for k in names if res["layers"][k] != first["layers"][k])
            if diff:
                run.fail(res["idx"], f"count metrics differ between repeats: {', '.join(diff)}")


def end_to_end(results: list[dict], setup_samples: list[float]) -> dict[str, float]:
    scaled = [calibrated_deltas(r) for r in results]
    iters = [x for deltas in scaled for x in deltas[1:]]
    return {
        "iter_ms_p50": 1e3 * statistics.median(iters),
        "iter_ms_p90": 1e3 * quantile(iters, 0.9),
        "node_updates_per_s": sum(r["node_updates"] for r in results) / sum(map(sum, scaled)),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "setup_s": statistics.median(setup_samples),
    }


def per_layer(results: list[dict], counts: set[str], is_cli: bool) -> dict[str, float]:
    """Counts from the first traced repeat (all repeats agree), times as medians."""
    first = results[0]
    out = {}
    for name, value in first["layers"].items():
        out[name] = value if name in counts else statistics.median(r["layers"][name] for r in results)
    out["fit_s"] = statistics.median(r["fit_wall_s"] for r in results)
    out["fit_cpu_s"] = statistics.median(r["fit_cpu_s"] for r in results)
    out["iters"] = first["iters"]
    out["cli.wall_s"] = (
        statistics.median(r["wall_s"] - sum(r["cal_units"]) - r["after_main_s"] for r in results)
        if is_cli
        else 0.0
    )
    for name in ("cli.import_s", "cli.load_csv.bytes", "cli.write_trace.bytes"):
        out.setdefault(name, 0)
    return out


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "meanfield").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu
            )
    except OSError:
        pass

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas_threads": 1,
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "meanfield" / "__init__.py").is_file():
        print(f"error: the meanfield sources are missing under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    counts = {m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "bytes")}
    print("env " + json.dumps(environment()), flush=True)
    run = Run(args)
    is_cli = args.workload == "cli_two_level"
    results = run_cli(run) if is_cli else run_library(run)
    if not results:
        print("error: no job produced a result: " + "; ".join(run.failures), file=sys.stderr)
        return 1
    check_repeats(run, results, counts)
    if args.trace:
        metrics = per_layer(results, counts, is_cli)
    else:
        metrics = end_to_end(results, run.setup_samples)
    print(
        "run "
        + json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "repeats": len(results),
                "iters": results[0]["iters"],
                "iter_samples": sum(len(r["deltas"]) - 1 for r in results),
                "elapsed_s": round(run.elapsed(), 3),
                "failures": run.failures,
            }
        )
    )
    failed = len(run.failed)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": run.attempted,
                "failed": failed,
                "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
