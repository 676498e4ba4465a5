"""Benchmark of the lpwp toolkit: three seeded batch workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {prep,score,solve} --seed N \\
        --seconds S --trace {0,1} [--smoke]

The run generates the workload's input files from the seed (gen.py), times
a fresh interpreter's ``import lpwp.cli`` several times (``setup_s``), and
then runs the workload in a child process (worker.py) that repeats whole
passes over the corpus for about ``--seconds``. With ``--trace 0`` it
reports the end-to-end metrics, with ``--trace 1`` the per-layer ones from
a traced run; BENCHMARK.json at the root lists both. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. ``--smoke`` uses the smallest corpora, for the smoke test.

Generated files live under ``.perfbench_work/`` in the checkout and are
removed after the run, except the span file of the last traced run of each
workload (``trace-<workload>.jsonl``).
"""

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_STARTS = 16
SMOKE_SETUP_STARTS = 4
START_TIMEOUT_S = 60
# Start of ``python3 -c pass`` on an uncontended 2.1 GHz Xeon vCPU.
BARE_START_NOMINAL_S = 0.033
# Time the worker may take beyond --seconds: its last pass, the checks and
# interpreter start-up.
WORKER_GRACE_S = 120
# The prep workload's noisy file must not depend on str hashing: the worker
# and a second interpreter that rebuilds the file use different hash seeds.
WORKER_HASH_SEED = "1"
RECHECK_HASH_SEED = "2"
RECHECK_TIMEOUT_S = 60


def units(kind):
    """Unit of every ``end_to_end`` or ``per_layer`` metric in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def _seconds_to_ready(env, statement):
    """Seconds from spawning a fresh interpreter to ``statement`` done.

    The child reports on a pipe that the parent blocks on, so the time
    excludes interpreter shutdown and the polling of a timed ``wait``,
    which rounds to 50 ms.
    """
    began = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", f"{statement}; print('ready', flush=True)"],
                            env=env, cwd=ROOT, stdout=subprocess.PIPE)
    try:
        readable, _, _ = select.select([proc.stdout], [], [], START_TIMEOUT_S)
        line = proc.stdout.readline() if readable else b""
        elapsed = time.perf_counter() - began
        if line.strip() != b"ready":
            raise RuntimeError(f"a fresh interpreter failed to run {statement!r}")
        return elapsed
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()


def setup_times(env, starts):
    """Start-up to ``import lpwp.cli`` done, in seconds at nominal host load.

    Start-up speed follows the host's load for minutes at a time (medians
    of a dozen starts drift by 15%), and the speed probe does not track it.
    A bare interpreter start right after each start does (2%), so each
    start is taken relative to its bare start and scaled by the bare
    start's duration on an uncontended vCPU.
    """
    return [
        BARE_START_NOMINAL_S
        * _seconds_to_ready(env, "import lpwp.cli") / _seconds_to_ready(env, "pass")
        for _ in range(starts)
    ]


def run_worker(workload, work_dir, seconds, trace, env):
    trace_file = work_dir.parent / f"trace-{workload}.jsonl"
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(work_dir), str(seconds),
         "1" if trace else "0", str(trace_file)],
        env=dict(env, PYTHONHASHSEED=WORKER_HASH_SEED), cwd=ROOT,
        stdout=subprocess.PIPE, text=True, timeout=seconds + WORKER_GRACE_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def noisy_file_errors(work_dir, result, env):
    """The noisy file rebuilt in another interpreter must have the same bytes."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--noisy-digest", str(work_dir),
         str(work_dir / "noisy-recheck.jsonl")],
        env=dict(env, PYTHONHASHSEED=RECHECK_HASH_SEED), cwd=ROOT,
        stdout=subprocess.PIPE, text=True, timeout=RECHECK_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"noisy-file rebuild exited with code {proc.returncode}")
    digest = proc.stdout.strip()
    if any(p["counters"].get("noisy_sha256") != digest for p in result["passes"]):
        return ["noisy file differs between interpreters with other hash seeds"]
    return []


def summarize(workload, result, setup_s, trace):
    """The result line: correctness, problem counts and the metrics."""
    passes = result["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if trace:
        # Layers the workload does not run read 0.
        values = result["layers"]
        kind = "per_layer"
    else:
        rates = [(p["attempted"] - p["failed"]) / p["nominal_seconds"] for p in passes]
        values = {"problems_per_s": statistics.median(rates),
                  "setup_s": setup_s,
                  "peak_rss_mb": result["peak_rss_mb"],
                  "completed_frac": (attempted - failed) / attempted}
        kind = "end_to_end"
    metrics = {name: {"value": values.get(name, 0), "unit": unit}
               for name, unit in units(kind).items()}
    seconds = [p["seconds"] for p in passes]
    speeds = [p["speed"] for p in passes]
    wall_rate = statistics.median((p["attempted"] - p["failed"]) / p["seconds"] for p in passes)
    print(f"{workload}: {len(passes)} passes, wall seconds per pass "
          f"min {min(seconds):.3f} median {statistics.median(seconds):.3f} "
          f"max {max(seconds):.3f}; wall-clock problems/s {wall_rate:.1f}; "
          f"CPU speed vs nominal min {min(speeds):.3f} max {max(speeds):.3f}; "
          f"failures by type {result['failure_types']}", file=sys.stderr)
    for message in result["errors"]:
        print(f"check failed: {message}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    return {"correct": result["n_errors"] == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.SIZES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="smallest corpora, for the smoke test")
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "lpwp" / "__init__.py").is_file():
        print(f"error: no lpwp sources under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    sizes = gen.SMOKE_SIZES if args.smoke else gen.SIZES
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-", dir=work_root) as tmp:
        work_dir = Path(tmp)
        gen.write_corpus(args.workload, args.seed, sizes[args.workload], work_dir)
        # Start-up speed drifts with the host's load for seconds at a time,
        # so half the starts come before the workload and half after it.
        starts = 0 if args.trace else SMOKE_SETUP_STARTS if args.smoke else SETUP_STARTS
        times = setup_times(env, starts // 2)
        result = run_worker(args.workload, work_dir, args.seconds, args.trace, env)
        if args.workload == "prep":
            errors = noisy_file_errors(work_dir, result, env)
            result["errors"] += errors
            result["n_errors"] += len(errors)
        times += setup_times(env, starts - starts // 2)
        setup_s = statistics.median(times) if times else None
    summary = summarize(args.workload, result, setup_s, args.trace)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
