"""One benchmark process: set up, then run one workload as a closed loop.

Started by run.py in a fresh process, so the process-global phase table is
cold and the set-up is what a command-line user pays. Writes JSON lines to
stdout: ``{"ready": ...}`` when set-up is done (run.py times the process
from spawn to this line), then ``{"result": ...}``.

    PYTHONPATH=src:perfbench python3 perfbench/worker.py \
        --workload NAME --seed N --seconds S [--trace] [--setup-only]
"""

import argparse
import itertools
import json
import math
import os
import struct
import sys
import time

import numpy as np
import scipy

import interfrac.cli  # noqa: F401  (the import a command-line user pays)
from interfrac import _kernels
from interfrac.kernel import KernelFactors

import workloads

REL_TOL = 1e-4  # the acceptance-anchor tolerance
POOL = 2048     # seeded cases drawn per run (a power of two, for the Sobol design)
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def emit(**kv):
    print(json.dumps(kv), flush=True)


def load_references(name):
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "references.json")
    with open(path) as fh:
        return json.load(fh)[name]


def plan(workload, seed):
    """(panel, seeded cases); every panel case carries its 'ref'."""
    refs = load_references(workload.name)
    panel = [dict(workload.anchor)]
    size = workloads.PANEL_SIZE[workload.name]
    for case, ref in zip(workload.cases(workloads.DEFAULT_SEED, size), refs):
        panel.append(dict(case, ref=ref))
    if len(panel) != size + 1:
        raise RuntimeError(f"references.json holds {len(refs)} references for "
                           f"{workload.name}, the panel needs {size}")
    return panel, workload.cases(seed, POOL)


def call(workload, case, tracer, call_id):
    """(value, est_error) as exact bit patterns, or the exception raised."""
    try:
        if tracer is None:
            value, est = workload.call(case)
        else:
            tracer.install()
            try:
                value, est = tracer.timed_call(call_id, workload.call, case)
            finally:
                tracer.uninstall()
    except Exception as exc:  # a failed call is counted, not fatal
        return exc
    return struct.pack("<dd", value, est)


def check(case, result):
    """None if the call passed, else why it failed."""
    if isinstance(result, Exception):
        return f"{type(result).__name__}: {result}"
    value, est = struct.unpack("<dd", result)
    if not (math.isfinite(value) and math.isfinite(est)):
        return f"non-finite value {value!r} or est_error {est!r}"
    if "ref" in case:
        dev = abs(value - case["ref"]) / abs(case["ref"])
        if dev > REL_TOL:
            return f"deviates {dev:.3e} from its reference"
    return None


def run(workload, panel, seeded, seconds, tracer):
    """Closed loop: the panel, then seeded cases until `seconds` have passed
    since the start. Under a tracer, panel cases run untraced and traced, in
    alternating order, and must agree bitwise; seeded cases run traced."""
    samples, devs, failures = [], [], []
    pair_s = {False: 0.0, True: 0.0}  # untraced/traced seconds of panel pairs
    t_start = time.perf_counter()
    cases = itertools.chain(panel, itertools.cycle(seeded))
    for i, case in enumerate(cases):
        if i >= len(panel) and time.perf_counter() - t_start >= seconds:
            break
        if tracer is None:
            modes = (False,)
        elif i >= len(panel):
            modes = (True,)
        else:
            modes = (False, True) if i % 2 == 0 else (True, False)
        outcome = {}
        for traced in modes:
            t0 = time.perf_counter()
            outcome[traced] = call(workload, case, tracer if traced else None,
                                   len(samples))
            dt = time.perf_counter() - t0
            if len(modes) == 2:
                pair_s[traced] += dt
            if traced == (tracer is not None):
                samples.append(dt)
        result = outcome[tracer is not None]
        why = check(case, result)
        if why is None and len(modes) == 2 and outcome[False] != result:
            why = "traced and untraced values differ"
        if why is not None:
            failures.append(why)
        elif "ref" in case:
            value = struct.unpack("<dd", result)[0]
            devs.append(abs(value - case["ref"]) / abs(case["ref"]))
    return {"samples_s": samples, "devs": devs, "failures": failures,
            "pair_s": [pair_s[False], pair_s[True]], "panel": len(panel)}


def layer_metrics(tracer, setup_counts, counts, out):
    """Per-layer metrics of the timed calls, per call, plus set-up costs."""
    samples = np.asarray(out["samples_s"])
    n = len(samples)
    times, root_dur, root_self = tracer.self_times()
    per = {k: v / n for k, v in counts.items()}

    def c(key):
        return per.get(key, 0.0)

    def incl_s(name):
        return times.get(name, (0.0, 0.0))[0] / n

    def self_s(name):
        return times.get(name, (0.0, 0.0))[1] / n

    # time inside the wrapped layers, per call; the rest of its measured wall
    # time (the root span's self time, plus installing and removing the
    # wrappers around it) is uncovered
    covered = root_dur - root_self
    if len(covered) != n or np.any(covered > samples):
        raise RuntimeError("traced spans do not match the timed calls")
    uncovered = samples - covered
    untraced_s, traced_s = out["pair_s"]
    return {
        "numerics.integrate_err.calls": c("numerics.integrate_err.calls"),
        "numerics.integrate_err.s": c("numerics.integrate_err.s"),
        "numerics.integrand_nodes": c("numerics.integrand_nodes"),
        "numerics.integrate_err.refine_rounds": c("numerics.integrate_err.refine_rounds"),
        "numerics.tail.calls": c("numerics.tail.calls"),
        "numerics.nonconvergence": c("numerics.nonconvergence"),
        "kernels.log_gamma_raw.points": c("_kernels.log_gamma_raw.points"),
        "kernels.log_gamma_raw.s": c("_kernels.log_gamma_raw.s"),
        "kernels.ln_xi_star.points": c("_kernels.ln_xi_star.points"),
        "kernels.ln_xi_star.s": c("_kernels.ln_xi_star.s"),
        "kernels.pv_cauchy_batch.points": c("_kernels.pv_cauchy_batch.points"),
        "kernels.pv_cauchy_batch.s": c("_kernels.pv_cauchy_batch.s"),
        "kernel.phase_table_s": setup_counts.get("kernel.phase_table.s", 0.0),
        "kernel.KernelFactors.builds": c("kernel.KernelFactors.builds"),
        "kernel.factor_points": c("kernel.factor.points"),
        "kernel.factor_s": c("kernel.factor.s"),
        "model.load_transform_points": c("model.load_transform.points"),
        "weightfn.sigma0.calls": c("weightfn.sigma0.calls"),
        "weightfn.sigma0.s": c("weightfn.sigma0.s"),
        "weightfn.sigma0.self_s": self_s("weightfn.sigma0"),
        "unperturbed.phi_plus_load.calls": c("unperturbed.phi_plus_load.calls"),
        "unperturbed.phi_plus_load.s": c("unperturbed.phi_plus_load.s"),
        "unperturbed.phi_table.builds": c("unperturbed.phi_table.builds"),
        "unperturbed.phi_table.nodes": c("unperturbed.phi_table.nodes"),
        "unperturbed.phi_table.s": c("unperturbed.phi_table.s"),
        "unperturbed.phi_table.setup_s": setup_counts.get("unperturbed.phi_table.s", 0.0),
        "unperturbed.grad_u0.calls": c("unperturbed.grad_u0.calls"),
        "unperturbed.grad_u0.s": incl_s("unperturbed.grad_u0"),
        "unperturbed.grad_u0.self_s": self_s("unperturbed.grad_u0"),
        "perturbation.delta_sigma0.calls": c("perturbation.delta_sigma0.calls"),
        "perturbation.delta_sigma0.self_s": self_s("perturbation.delta_sigma0"),
        "perturbation.betti2.s": c("perturbation.betti2.s"),
        "trace.overhead_frac": (untraced_s / traced_s - 1.0) if traced_s else 0.0,
        "trace.uncovered_frac": float(uncovered.sum() / samples.sum()),
        "trace.spans": float(np.sum(np.asarray(tracer.call) >= 0)) / n,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    KernelFactors(1.0)  # the process-global phase table
    if args.setup_only:
        emit(ready={"prepare_s": 0.0})
        return 0
    t1 = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload]()
    panel, seeded = plan(workload, args.seed)
    workload.prepare(panel + seeded)
    prepare_s = time.perf_counter() - t1
    setup_counts = None
    if tracer is not None:
        tracer.uninstall()
        setup_counts = tracer.take_counts()
    emit(ready={"prepare_s": prepare_s})

    out = run(workload, panel, seeded, args.seconds, tracer)
    if tracer is not None:
        counts = tracer.take_counts()
        out["layers"] = layer_metrics(tracer, setup_counts, counts, out)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.save(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz"))
    out["env"] = {"nproc": len(os.sched_getaffinity(0)),
                  "python": sys.version.split()[0],
                  "numpy": np.__version__, "scipy": scipy.__version__,
                  "backend": _kernels.BACKEND}
    emit(result=out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
