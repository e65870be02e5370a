"""Benchmark entry point for resotrim.

    python3 perfbench/run.py --workload characterize --seed 1 --seconds 18 --trace 0

Run from the root of a checkout. Untraced (``--trace 0``), it times the
named workload and prints its end-to-end metrics; traced (``--trace 1``),
it runs one round of every workload with spans around resotrim's public
functions and prints the per-layer metrics. Either way the last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are for people (host-speed probe, rounds).
Every metric and workload named in BENCHMARK.json must be produced, or the
run fails without a result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 3  # set-up is timed this many times per run; the median is reported
# one operation at a time: no BLAS or OpenMP worker threads in any process
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def load_spec(root=ROOT):
    path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def check_workload(spec, workload):
    """Every workload BENCHMARK.json names must exist here, and the named one in it."""
    named = [w["name"] for w in spec["workloads"]]
    missing = [w for w in named if w not in WORKLOADS]
    if missing:
        raise BenchError(f"BENCHMARK.json names workloads this benchmark lacks: {missing}")
    if workload not in named:
        raise BenchError(f"unknown workload {workload!r}; BENCHMARK.json has {named}")


def check_metrics(spec, metrics, trace):
    """Every metric BENCHMARK.json names for this mode must be in the output, same unit."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics named in BENCHMARK.json missing from the output: {missing}")
    wrong = [m["name"] for m in wanted if metrics[m["name"]]["unit"] != m["unit"]]
    if wrong:
        raise BenchError(f"metrics with a unit other than BENCHMARK.json's: {wrong}")
    return {m["name"]: metrics[m["name"]] for m in wanted}


def host_probe_ms(repeats=5):
    """Median time of a fixed pure-Python loop; tracks host speed, not resotrim."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def start_worker(args, out_dir, setup_only):
    """Start a worker and wait for READY; returns (process, seconds to READY)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--out", out_dir]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                            env=dict(os.environ, **SINGLE_THREAD), cwd=ROOT)
    try:
        for line in proc.stdout:
            if line.strip() == "READY":
                return proc, time.perf_counter() - t0
        raise BenchError(f"worker exited with {proc.wait()} before set-up finished")
    except BaseException:
        stop(proc)
        raise


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def measure(args, out_dir):
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            proc, ready_s = start_worker(args, out_dir, setup_only=True)
            try:
                proc.communicate(timeout=60)
            finally:
                stop(proc)
            setups.append(ready_s)
    proc, ready_s = start_worker(args, out_dir, setup_only=False)
    setups.append(ready_s)
    try:
        out, _ = proc.communicate("GO\n", timeout=175)
    finally:
        stop(proc)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed with exit code {proc.returncode}")
    result = json.loads(lines[-1])
    return result, setups


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=18)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        spec = load_spec()
        check_workload(spec, args.workload)
        if not os.path.isfile(os.path.join(ROOT, "src", "resotrim", "__init__.py")):
            raise BenchError(f"no resotrim source tree under {ROOT}/src")
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        probe_start = host_probe_ms()
        result, setups = measure(args, out_dir)
        probe_end = host_probe_ms()
        metrics = dict(result["metrics"])
        if not args.trace:
            metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics = check_metrics(spec, metrics, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    info = dict(result["info"], setup_s=setups, host_probe_ms=[probe_start, probe_end])
    final = {k: result[k] for k in ("correct", "attempted", "failed")}
    final["metrics"] = metrics
    with open(os.path.join(out_dir, "runs.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "seconds": args.seconds, "trace": args.trace,
                             "time": time.time(), "info": info, **final}) + "\n")
    print(f"host_probe_ms start={probe_start:.4f} end={probe_end:.4f}")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={info['rounds']} setup_s={[round(s, 4) for s in setups]}")
    for name, walls in info["round_s"].items():
        print(f"round_s {name}: {' '.join(f'{w:.4f}' for w in walls)}")
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
