"""Self-tests of the benchmark.  Run from the repository root:

    python3 bench/selftest.py

1. A smoke run (tiny sizes) of every workload, untraced and traced, prints
   every metric BENCHMARK.json names, with its unit, and passes its checks.
2. Traced and untraced fits give bit-identical lambda, and the recorder
   restores every function it wrapped.
3. Count metrics repeat exactly across two traced runs on one seed.
4. Without the program next to it, the benchmark exits non-zero and
   prints no result.

Exits 0 when every test passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 5


def run_bench(workload: str, trace: int, root: Path = ROOT):
    cmd = [
        sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
        "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--smoke",
    ]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


def last_json(proc):
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def test_smoke_prints_every_metric(spec, failures):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for wl in (w["name"] for w in spec["workloads"]):
            out = last_json(run_bench(wl, trace))
            if out is None:
                failures.append(f"{wl} trace={trace}: no result")
                continue
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            if got != want:
                failures.append(f"{wl} trace={trace}: metrics {sorted(set(got) ^ set(want))} differ")
            if not out["correct"] or out["failed"] or out["attempted"] < 1:
                failures.append(f"{wl} trace={trace}: not correct: {out}")
            print(f"smoke {wl} trace={trace}: {len(got)} metrics, correct={out['correct']}")


def test_traced_fit_is_bit_identical(failures):
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import numpy as np
    from meanfield import engine, expfam

    import worker
    from spans import SpanRecorder

    originals = (engine.fit, engine.nat_to_mean, expfam.NaturalParam.__post_init__)
    for wl in ("gmm2_cavi", "matfac_ppca_cavi", "logitnormal_svi"):
        spec = {"workload": wl, "seed": SEED, "size": "smoke"}
        _, _, (data, model, schedule, tol, max_iter) = worker.library_setup(spec)
        plain = engine.fit(model, data, schedule, tol=tol, max_iter=max_iter)
        with SpanRecorder() as rec:
            worker.install_layer_trace(rec, with_cli=True)
            traced = engine.fit(model, data, schedule, tol=tol, max_iter=max_iter)
        same = all(
            np.array_equal(plain.state[k].lam.values, traced.state[k].lam.values)
            for k in plain.state
        ) and list(plain.elbos) == list(traced.elbos)
        if not same:
            failures.append(f"{wl}: traced fit differs from the untraced fit")
        if len(rec.start) == 0:
            failures.append(f"{wl}: the recorder saw no spans")
        print(f"bit-identical {wl}: {same}, {len(rec.start)} spans")
    now = (engine.fit, engine.nat_to_mean, expfam.NaturalParam.__post_init__)
    if now != originals:
        failures.append("the recorder did not restore the wrapped functions")


def test_counts_repeat(spec, failures):
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "bytes")]
    for wl in (w["name"] for w in spec["workloads"]):
        a, b = (last_json(run_bench(wl, 1)) for _ in range(2))
        if a is None or b is None:
            failures.append(f"{wl}: traced run gave no result")
            continue
        diff = [k for k in counts if a["metrics"][k]["value"] != b["metrics"][k]["value"]]
        if diff:
            failures.append(f"{wl}: counts differ between runs: {diff}")
        print(f"counts repeat {wl}: {not diff}")


def test_fails_without_program(failures):
    bare = ROOT / ".bench_out" / "tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("gmm2_cavi", 0, root=bare)
        if proc.returncode == 0 or last_json(proc) is not None:
            failures.append("benchmark without the program did not fail cleanly")
        print(f"without program: exit {proc.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []
    test_smoke_prints_every_metric(spec, failures)
    test_traced_fit_is_bit_identical(failures)
    test_counts_repeat(spec, failures)
    test_fails_without_program(failures)
    for f in failures:
        print("FAIL " + f)
    print("selftest " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
