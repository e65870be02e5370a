"""One benchmark process: set up a workload, report READY, run it, print JSON.

Started by ``run.py``; not meant to be run by hand. After set-up it prints
``READY`` and waits for a line on stdin before the timed part, so the
parent can time set-up from process start. With ``--setup-only`` it exits
after READY. The last stdout line is a JSON object with the operation
counts, the check verdict and the metrics.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from inputs import FEEDLINE_SIZES

HERE = os.path.dirname(os.path.abspath(__file__))

# per-layer metrics and the span names they are read from
CLI_KINDS = ("fit", "plan_pair", "apply", "fit_nu_rho", "plan_crowding", "report", "bad_input")
BUSY = ("fitting.fit_pair", "fitting.initial_guess", "fitting.correct_baseline",
        "pairmodel.eigenmodes", "planner.plan_match_all",
        "transmon.invert_spectroscopy", "transmon.transmon_spectrum", "transmon.rj_target",
        "transmon.anneal_closed_loop", "readout.assignment_fidelity",
        "registry.load_registry", "registry.save_registry", "registry.load_trace")
CALLS = ("fitting.fit_pair", "pairmodel.eigenmodes", "transmon.transmon_spectrum")


class Context:
    """What workloads share: output directory, CLI launcher, current op id."""

    def __init__(self, root, out_dir, tracer=None):
        self.out_dir, self.tracer = out_dir, tracer
        self._dirs = []
        self.child_spans = []
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.op = ""

    @property
    def op(self):
        return self._op

    @op.setter
    def op(self, value):
        self._op = value
        if self.tracer is not None:
            self.tracer.op = value

    def workdir(self, name):
        d = tempfile.mkdtemp(prefix=f"work-{name}-", dir=self.out_dir)
        self._dirs.append(d)
        return d

    def run_cli(self, args, cwd):
        """Run one resotrim command in a fresh interpreter, traced if tracing."""
        env = self.env
        if self.tracer is not None:
            spans = os.path.join(self.out_dir, f"child-{os.getpid()}-{len(self.child_spans):03d}.jsonl")
            self.child_spans.append(spans)
            env = dict(env, PERFBENCH_SPANS=spans, PERFBENCH_OP=self.op)
            cmd = [sys.executable, os.path.join(HERE, "trace_cli.py"), *args]
        else:
            cmd = [sys.executable, "-m", "resotrim.cli", *args]
        return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=170)

    def close(self):
        for d in self._dirs:
            shutil.rmtree(d, ignore_errors=True)
        for path in self.child_spans:
            if os.path.exists(path):
                os.unlink(path)


def fresh_import_s(ctx, code, repeats=3):
    """Median wall time of a fresh interpreter that runs ``code``."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=ctx.env, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def end_to_end(workload, rounds):
    ops = [op for r in rounds for op in r["ops"]]
    who = resource.RUSAGE_CHILDREN if workload == "cli-two-cycle" else resource.RUSAGE_SELF
    return {
        "wall_s": {"value": statistics.median(r["wall"] for r in rounds), "unit": "s"},
        "op_p50_ms": {"value": 1e3 * statistics.median(op.latency for op in ops), "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(who).ru_maxrss / 1024.0, "unit": "MB"},
    }


def per_layer(span_lists, truth, cli_ops, registry_bytes, import_s, floor_s):
    import tracing

    calls, self_s, infos, under_crowding = tracing.layer_totals(span_lists)
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for name in CALLS:
        put(f"{name}.calls", calls.get(name, 0), "count")
    for name in BUSY:
        put(f"{name}.busy_s", self_s.get(name, 0.0), "s")
    fits = infos.get("fitting.fit_pair", [])
    put("fitting.fit_pair.iterations", sum(f["iterations"] for f in fits), "count")
    recovered = 0
    for f in fits:
        f_r, f_p, tol = truth[os.path.basename(f["source"])]
        recovered += f["converged"] and abs(f["f_r"] - f_r) <= tol and abs(f["f_p"] - f_p) <= tol
    put("fitting.fit_pair.recovered_ratio", recovered / max(len(fits), 1), "ratio")
    plans = [name for name in calls if name.startswith("planner.plan_crowding.n")]
    n_plans = sum(calls[name] for name in plans)
    for size in FEEDLINE_SIZES:
        put(f"planner.plan_crowding.n{size}.busy_s",
            self_s.get(f"planner.plan_crowding.n{size}", 0.0), "s")
    put("planner.plan_crowding.eigenmodes_per_plan",
        under_crowding.get("pairmodel.eigenmodes", 0) / max(n_plans, 1), "count")
    feasible = [i["feasible"] for name in plans for i in infos[name]]
    put("planner.plan_crowding.feasible_ratio", sum(feasible) / max(n_plans, 1), "ratio")
    put("registry.bytes", registry_bytes, "bytes")
    put("cli.import_s", import_s, "s")
    put("cli.floor_s", floor_s, "s")
    for kind in CLI_KINDS:
        lat = [op.latency for op in cli_ops if op.kind == kind]
        put(f"cli.{kind}.p50_ms", 1e3 * statistics.median(lat), "ms")
    return m


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    # the in-process workloads import resotrim from the checkout; the CLI
    # children get the same tree first on PYTHONPATH
    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import workloads

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    ctx = Context(args.root, args.out, tracer)
    try:
        return run(args, ctx, tracer, workloads)
    finally:
        ctx.close()


def run(args, ctx, tracer, workloads):
    # a traced run does one round of every workload, so that each per-layer
    # metric is measured whichever workload is named
    names = workloads.WORKLOADS if tracer else (args.workload,)
    wls = {name: workloads.WORKLOADS[name](args.seed, ctx) for name in names}
    for wl in wls.values():
        wl.warm_up()
    resotrim = sys.modules.get("resotrim")
    src = os.path.join(os.path.abspath(args.root), "src", "")
    if resotrim is not None and not resotrim.__file__.startswith(src):
        sys.exit(f"resotrim was imported from {resotrim.__file__}, not from {src}")
    print("READY", flush=True)
    if args.setup_only:
        return 0
    sys.stdin.readline()

    rounds = {name: [] for name in names}
    if tracer is None:
        wl = wls[args.workload]
        start = time.perf_counter()
        while not rounds[args.workload] or time.perf_counter() - start < args.seconds:
            if rounds[args.workload] and hasattr(wl, "prepare"):
                wl.prepare()
            t0 = time.perf_counter()
            ops = wl.round(ctx)
            rounds[args.workload].append({"wall": time.perf_counter() - t0, "ops": ops})
    else:
        tracer.install(resotrim)
        for name, wl in wls.items():
            t0 = time.perf_counter()
            ops = wl.round(ctx)
            rounds[name].append({"wall": time.perf_counter() - t0, "ops": ops})

    failure = None
    try:
        for name, wl in wls.items():
            for r in rounds[name]:
                wl.check(r["ops"])
    except workloads.CheckFailure as exc:
        failure = str(exc)
        sys.stderr.write(f"check failed: {failure}\n")

    own = [op for r in rounds[args.workload] for op in r["ops"]]
    info = {"rounds": len(rounds[args.workload]),
            "round_s": {name: [r["wall"] for r in rs] for name, rs in rounds.items()}}
    if tracer is None:
        metrics = end_to_end(args.workload, rounds[args.workload])
    else:
        import tracing

        truth = {s["id"]: (s["f_r"], s["f_p"], s["tol"])
                 for s, _ in (op.out for op in rounds["characterize"][0]["ops"])}
        cli = wls["cli-two-cycle"]
        truth.update({f"trace_{p['id']}.csv": (p["f_r"], p["f_p"], p["tol"]) for p in cli.pairs})
        span_lists = [tracer.spans] + [tracing.load_spans(p) for p in ctx.child_spans
                                       if os.path.exists(p)]
        import_s = fresh_import_s(ctx, "import resotrim.cli")
        floor_s = fresh_import_s(ctx, "import numpy, click")
        metrics = per_layer(span_lists, truth, rounds["cli-two-cycle"][0]["ops"],
                            cli.last_registry_bytes, import_s, floor_s)
        dump = os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.jsonl")
        with open(dump, "w", encoding="utf-8") as fh:
            for k, spans in enumerate(span_lists):
                fh.write(json.dumps({"process": k, "spans": spans}) + "\n")
        info["span_dump"] = os.path.relpath(dump, args.root)
    print(json.dumps({
        "correct": failure is None,
        "attempted": len(own),
        "failed": sum(op.failed for op in own),
        "metrics": metrics,
        "info": info,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
