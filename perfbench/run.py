#!/usr/bin/env python3
"""Pipeline benchmark for interfrac: one closed-loop client per workload.

    python3 perfbench/run.py --workload {sigma0_sweep,delta_warm,delta_cold,all}
                             --seed N --seconds S --trace {0,1}

'all' runs the two timed workloads of BENCHMARK.json; delta_cold (one
~20 s cold call per run) is for traced runs and correctness checks only.
Run from the repository root. Each run starts fresh worker processes with
BLAS/OpenMP pools pinned to one thread: first SETUP_REPEATS set-up-only
processes (import and phase table), then the measuring one. With --trace 0
the last stdout line is a JSON object with the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run, whose spans are
written to perfbench/out/. Lines before it, prefixed '#', give the same
numbers with their units, the sample counts and the software versions.
See perfbench/README.md for the metric definitions.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sigma0_sweep", "delta_warm")
UNTIMED = ("delta_cold",)
SETUP_REPEATS = 2
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

PER_CALL = "/solve"
PER_LAYER = {
    "numerics.integrate_err.calls": "count" + PER_CALL,
    "numerics.integrate_err.s": "s" + PER_CALL,
    "numerics.integrand_nodes": "count" + PER_CALL,
    "numerics.integrate_err.refine_rounds": "count" + PER_CALL,
    "numerics.tail.calls": "count" + PER_CALL,
    "numerics.nonconvergence": "count" + PER_CALL,
    "kernels.log_gamma_raw.points": "count" + PER_CALL,
    "kernels.log_gamma_raw.s": "s" + PER_CALL,
    "kernels.ln_xi_star.points": "count" + PER_CALL,
    "kernels.ln_xi_star.s": "s" + PER_CALL,
    "kernels.pv_cauchy_batch.points": "count" + PER_CALL,
    "kernels.pv_cauchy_batch.s": "s" + PER_CALL,
    "kernel.phase_table_s": "s",
    "kernel.KernelFactors.builds": "count" + PER_CALL,
    "kernel.factor_points": "count" + PER_CALL,
    "kernel.factor_s": "s" + PER_CALL,
    "model.load_transform_points": "count" + PER_CALL,
    "weightfn.sigma0.calls": "count" + PER_CALL,
    "weightfn.sigma0.s": "s" + PER_CALL,
    "weightfn.sigma0.self_s": "s" + PER_CALL,
    "unperturbed.phi_plus_load.calls": "count" + PER_CALL,
    "unperturbed.phi_plus_load.s": "s" + PER_CALL,
    "unperturbed.phi_table.builds": "count" + PER_CALL,
    "unperturbed.phi_table.nodes": "count" + PER_CALL,
    "unperturbed.phi_table.s": "s" + PER_CALL,
    "unperturbed.phi_table.setup_s": "s",
    "unperturbed.grad_u0.calls": "count" + PER_CALL,
    "unperturbed.grad_u0.s": "s" + PER_CALL,
    "unperturbed.grad_u0.self_s": "s" + PER_CALL,
    "perturbation.delta_sigma0.calls": "count" + PER_CALL,
    "perturbation.delta_sigma0.self_s": "s" + PER_CALL,
    "perturbation.betti2.s": "s" + PER_CALL,
    "trace.overhead_frac": "frac",
    "trace.uncovered_frac": "frac",
    "trace.spans": "count" + PER_CALL,
}


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), HERE]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def spawn(args, deadline):
    """Run one worker; returns (seconds from spawn to its ready line,
    its ready payload, its result payload or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py")] + args
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    ready_s, ready, result = None, None, None
    try:
        for line in proc.stdout:
            if not line.startswith("{"):
                continue  # anything the library itself prints
            msg = json.loads(line)
            if "ready" in msg:
                ready_s, ready = time.perf_counter() - t0, msg["ready"]
            elif "result" in msg:
                result = msg["result"]
        code = proc.wait()
    finally:
        timer.cancel()
        proc.kill()
        proc.wait()
    if code != 0 or ready is None:
        raise BenchError(f"worker {' '.join(args)} exited with code {code}")
    return ready_s, ready, result


def measure(workload, seed, seconds, trace):
    deadline = time.monotonic() + DEADLINE_S
    base = [str(a) for a in ("--workload", workload, "--seed", seed,
                             "--seconds", seconds)]
    setups = []
    if not trace:
        for _ in range(SETUP_REPEATS):
            setups.append(spawn(base + ["--setup-only"], deadline)[0])
    ready_s, ready, out = spawn(base + (["--trace"] if trace else []), deadline)
    if out is None:
        raise BenchError("worker printed no result")
    setups.append(ready_s - ready["prepare_s"])
    samples = np.asarray(out["samples_s"])
    attempted = len(samples)
    failed = len(out["failures"])
    if trace:
        metrics = {k: (out["layers"][k], u) for k, u in PER_LAYER.items()}
    else:
        metrics = {
            "setup_s": (statistics.median(setups) + ready["prepare_s"], "s"),
            "solves_per_s": (attempted / float(samples.sum()), "1/s"),
            "solve_p50_ms": (1e3 * float(np.percentile(samples, 50)), "ms"),
            "solve_p90_ms": (1e3 * float(np.percentile(samples, 90)), "ms"),
            "max_rel_dev": (max(out["devs"]) if out["devs"] else float("nan"), "rel"),
        }
    lines = [f"# env {json.dumps(out['env'], sort_keys=True)}",
             f"# {workload} seed={seed} trace={int(trace)} attempted={attempted} "
             f"failed={failed} fail_frac={failed / attempted:.4g} "
             f"samples={attempted} panel={out['panel']} "
             f"devs={len(out['devs'])} setup_samples_s="
             f"{','.join(f'{x:.4f}' for x in setups)}"]
    lines += [f"# failure: {why}" for why in out["failures"][:10]]
    lines += [f"# {k} = {v:.6g} {u}" for k, (v, u) in metrics.items()]
    correct = failed == 0 and all(np.isfinite(v) for v, _ in metrics.values())
    summary = {"correct": bool(correct), "attempted": attempted, "failed": failed,
               "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return lines, summary


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + UNTIMED + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run unwinds through spawn(), which kills and reaps its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not os.path.isfile(os.path.join(ROOT, "src", "interfrac", "__init__.py")):
        print(f"error: no interfrac sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        try:
            lines, summary = measure(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines))
        print(json.dumps(summary), flush=True)
        ok = ok and summary["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
