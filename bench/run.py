"""Run one disq benchmark workload and print its metrics.

    python3 bench/run.py --workload codebook_fit --seed 20230 --seconds 10 --trace 0

Set-up (data generation plus the workload's own preparation) runs three
times; setup_s is its median. After each set-up the timed body repeats for a
third of --seconds (at least once, and at least twice in all), so the
samples spread over the whole run. Every repetition's outputs are checked
and their digest must repeat. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json; with --trace 1 the body
alternates untraced and traced repetitions and the metrics are the
per-layer ones, from the traced repetitions. The line before it is the full
record (provenance, per-repetition timings, output digests); --record
appends that record to a JSONL file for bench/compare.py.

Times are host-speed normalized: two probes (probe_s) run before and two
after every set-up and every repetition, and setup_s and run_s are median
wall times times NOMINAL_PROBE_S over the run's median probe. Raw wall
times and every probe are in the record.

BLAS is pinned to one thread, so that the sweep's two workers times the BLAS
threads stay within two cores.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
MIN_REPS = 2
DEFAULT_SEED = 20230
# Typical probe_s() on the 2-core Intel Xeon (2.1 GHz, OpenBLAS 0.3.31, one
# thread) this benchmark was defined on; times are rescaled to the host
# speed at which the probe takes this long.
NOMINAL_PROBE_S = 0.05

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "ops_per_min": "1/min",
    "peak_rss_mb": "MiB",
    "success_rate": "ratio",
}


def import_disq():
    """Import disq from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "disq" / "__init__.py").is_file():
        raise SystemExit(f"error: no disq sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import disq

    if Path(disq.__file__).resolve().parent != (src / "disq").resolve():
        raise SystemExit(f"error: imported disq from {disq.__file__}, not from {src}")


def probe_s() -> float:
    """Seconds a fixed numpy/interpreter kernel takes now: the host's current speed.

    The probe mixes what the workloads spend their time on: a distance
    matrix with argmin as in k-means, layer-norm style math over a
    (16, 24, 48, 32) batch as in the head, and interpreter-bound dict
    updates. It does not use disq, so a change to disq cannot move it.
    """
    import numpy as np

    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    x, c, y = rng.standard_normal((5000, 32)), rng.standard_normal((256, 32)), rng.standard_normal((16, 24, 48, 32))
    for _ in range(4):
        d = x @ c.T
        d *= -2.0
        d += (c * c).sum(axis=1)
        np.argmin(d, axis=1)
    for _ in range(2):
        m = y.mean(axis=-1, keepdims=True)
        z = (y - m) / np.sqrt(((y - m) ** 2).mean(axis=-1, keepdims=True) + 1e-5)
        np.einsum("bntd,bntd->nd", z, y)
    acc: dict[int, int] = {}
    for i in range(100_000):
        acc[i % 97] = acc.get(i % 97, 0) + i
    return time.perf_counter() - t0


def timed(fn, *args):
    """Run fn(*args) between two probes on each side; returns (result, wall s, CPU s, probes)."""
    probes = [probe_s(), probe_s()]
    c0, t0 = time.process_time(), time.perf_counter()
    result = fn(*args)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return result, wall, cpu, probes + [probe_s(), probe_s()]


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith(".bytes"):
        return "B"
    return "count"


def provenance(seed: int, spec) -> dict:
    import numpy as np

    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except Exception:  # numpy builds without the dicts mode
        blas = {"name": "unknown", "version": "unknown"}
    try:
        git = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=30,
        )
        describe = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        describe = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {**blas, "threads": BLAS_THREADS},
        "git_describe": describe,
        "workload_seed": seed,
        "spec_digest": hashlib.sha256(json.dumps(spec.to_json(), sort_keys=True).encode()).hexdigest(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale=None, workroot: Path | None = None) -> dict:
    """One run: set-ups, each followed by its share of `seconds` of body repetitions."""
    from tracing import Tracer, layer_metrics
    from workloads import REFERENCE, WORKLOADS, SetupError

    scale = scale or REFERENCE
    workload = WORKLOADS[name]()
    spec = replace(scale.spec, seed=seed)
    workdir = (workroot or ROOT / ".bench_work") / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    setups, reps, layer_reps, problems, probes = [], [], [], [], []
    attempted = failed = 0
    digest, quality = None, {}
    try:
        # Body repetitions follow each set-up in turn, so the samples of one
        # run spread over its whole length instead of its last seconds.
        for i in range(scale.setup_reps):
            setup_dir = workdir / f"setup{i}"
            try:
                state, wall, _, probed = timed(workload.setup, setup_dir, spec, scale)
            except (RuntimeError, ValueError, OSError) as exc:
                raise SetupError(f"{type(exc).__name__}: {exc}") from exc
            setups.append(wall)
            probes += probed
            last = i == scale.setup_reps - 1
            phase_end = time.perf_counter() + seconds / scale.setup_reps
            first = len(reps)
            while len(reps) == first or time.perf_counter() < phase_end or (last and len(reps) < MIN_REPS):
                traced = trace and len(reps) % 2 == 1
                rep_dir = workdir / f"rep{len(reps)}"
                rep_dir.mkdir(parents=True)
                tracer = Tracer() if traced else None
                with tracer or contextlib.nullcontext():
                    outputs, wall, cpu, probed = timed(workload.body, state, rep_dir)
                probes += probed
                check = workload.check(state, outputs)
                del outputs
                shutil.rmtree(rep_dir)
                attempted += check.ops
                failed += check.failed
                problems += check.problems
                if digest is None:
                    digest, quality = check.digest, check.quality
                elif check.digest != digest:
                    failed += check.ops - check.failed
                    problems.append(f"repetition {len(reps)}: output digest differs from repetition 0")
                reps.append({"wall_s": wall, "cpu_s": cpu, "ops": check.ops, "traced": traced})
                if tracer:
                    layer_reps.append(layer_metrics(tracer.spans, wall, state.get("workers", 1)))
            state = None
            shutil.rmtree(setup_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Other tenants of a shared host slow its cores, at times by a third for
    # minutes on end, which moves every time of a run together. One factor
    # per run, the nominal probe over the run's median probe, takes that out.
    speed = NOMINAL_PROBE_S / statistics.median(probes)
    untraced = [r for r in reps if not r["traced"]]
    run_s = statistics.median(r["wall_s"] for r in untraced) * speed
    if trace:
        metrics = {key: statistics.median(rep[key] for rep in layer_reps) for key in layer_reps[0]}
        traced_s = statistics.median(r["wall_s"] for r in reps if r["traced"]) * speed
        metrics["trace.untraced_run_s"] = run_s
        metrics["trace.traced_run_s"] = traced_s
        metrics["trace.overhead_s"] = traced_s - run_s
        units = {key: per_layer_unit(key) for key in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(setups) * speed,
            "run_s": run_s,
            "ops_per_min": 60.0 * untraced[0]["ops"] / run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": 1.0 - failed / attempted,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "provenance": provenance(seed, spec),
        "setup_wall_s": setups,
        "reps": reps,
        "probe_s": probes,
        "speed_factor": speed,
        "outputs": {"digest": digest, "quality": quality},
        "problems": problems,
        "result": result,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="synthetic spec seed")
    parser.add_argument("--seconds", type=float, default=10.0, help="how long the body repeats")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the full record to this JSONL file")
    args = parser.parse_args(argv)

    import_disq()
    from workloads import WORKLOADS, SetupError

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    try:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 3
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
