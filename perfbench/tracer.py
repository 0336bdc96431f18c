"""Span tracing of the interfrac layers, installed from outside the package.

``Tracer.install()`` replaces the functions at each layer boundary with
wrappers by patching every module binding the library calls through (a
function imported by name into three modules is patched in all three), and
``uninstall()`` puts the originals back, so untraced calls run unmodified
code. Spans (name, start, end, parent, call id) are kept in flat arrays in
memory; ``summary()`` derives per-layer totals and self times from them and
``save()`` writes them out.

Counters kept at the same boundaries:

* ``integrate_err``: calls, integrand nodes (the summed lengths of the
  arrays passed to the integrand), refinement rounds ((batches - 3) / 2 per
  call: one coarse and two half-panel batches, then two batches per round)
  and NonConvergence raised;
* ``_kernels`` entry points and the kernel factors: points evaluated;
* the crack-load transforms: points evaluated;
* ``UnperturbedSolution._phi_table``: builds and grid nodes.
"""

import json
import time
from array import array
from collections import defaultdict

import numpy as np

import interfrac
from interfrac import (_kernels, cli, kernel, model, numerics, perturbation,
                       unperturbed, weightfn)
from interfrac.errors import NonConvergence

ROOT = "call"
FACTORS = ("b_plus", "b_minus", "xi_star_plus", "xi_star_minus",
           "xi0_plus", "xi0_minus")


class Tracer:
    def __init__(self):
        self.names = [ROOT]
        self._ids = {ROOT: 0}
        self.name = array("l")
        self.parent = array("l")
        self.call = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.call_id = -1
        self.counts = defaultdict(float)
        self.depth = defaultdict(int)
        self._saved = []

    # -- spans -----------------------------------------------------------------

    def _nid(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid):
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.call.append(self.call_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i):
        t = time.perf_counter()
        self.end[i] = t
        self.stack.pop()
        return t - self.start[i]

    def timed_call(self, call_id, fn, *args):
        """Run one timed call under a root span."""
        self.call_id = call_id
        i = self.open(0)
        try:
            return fn(*args)
        finally:
            self.close(i)
            self.call_id = -1

    # -- wrappers --------------------------------------------------------------

    def _span(self, name, fn, group=None, points=None, extra=None):
        """Wrap fn in a span; `group` accumulates outermost inclusive time
        and, with `points`, the size of the argument that `points` picks."""
        nid = self._nid(name)
        counts = self.counts
        depth = self.depth

        def wrapper(*args, **kwargs):
            outer = group is not None and depth[group] == 0
            if group is not None:
                depth[group] += 1
            if outer and points is not None:
                counts[group + ".points"] += np.size(args[points])
            i = self.open(nid)
            try:
                if extra is not None:
                    return extra(fn, *args, **kwargs)
                return fn(*args, **kwargs)
            finally:
                dt = self.close(i)
                if group is not None:
                    depth[group] -= 1
                    if outer:
                        counts[group + ".s"] += dt
        return wrapper

    def _integrate(self, fn, f, lo, hi, spec, breakpoints=None):
        seen = [0, 0]

        def counted(x):
            seen[0] += 1
            seen[1] += np.size(x)
            return f(x)

        c = self.counts
        c["numerics.integrate_err.calls"] += 1
        try:
            return fn(counted, lo, hi, spec, breakpoints)
        except NonConvergence:
            c["numerics.nonconvergence"] += 1
            raise
        finally:
            c["numerics.integrand_nodes"] += seen[1]
            if seen[0] >= 3:
                c["numerics.integrate_err.refine_rounds"] += (seen[0] - 3) // 2

    def _tail(self, fn, *args, **kwargs):
        self.counts["numerics.tail.calls"] += 1
        return fn(*args, **kwargs)

    def _phi_table(self, fn, solution, hi_needed):
        before = solution._phi_interp
        out = fn(solution, hi_needed)
        if solution._phi_interp is not before:
            self.counts["unperturbed.phi_table.builds"] += 1
            self.counts["unperturbed.phi_table.nodes"] += len(out[0].x)
        return out

    def _count(self, key):
        def counting(fn, *args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return counting

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        S = self._span
        integrate = S("numerics.integrate_err", numerics.integrate_err,
                      group="numerics.integrate_err", extra=self._integrate)
        for mod in (numerics, weightfn, unperturbed, perturbation):
            self._patch(mod, "integrate_err", integrate)
        for tail_name in ("oscillatory_tail", "algebraic_tail"):
            tail = S("numerics." + tail_name, getattr(numerics, tail_name),
                     extra=self._tail)
            for mod in (numerics, weightfn, unperturbed):
                if hasattr(mod, tail_name):
                    self._patch(mod, tail_name, tail)
        for k in ("log_gamma_raw", "ln_xi_star", "pv_cauchy_batch"):
            self._patch(_kernels, k, S("_kernels." + k, getattr(_kernels, k),
                                       group="_kernels." + k, points=0))
        self._patch(kernel, "_phase_table",
                    S("kernel._phase_table", kernel._phase_table,
                      group="kernel.phase_table"))
        kf = kernel.KernelFactors
        self._patch(kf, "__init__", S("kernel.KernelFactors", kf.__init__,
                                      extra=self._count("kernel.KernelFactors.builds")))
        for f in FACTORS:
            self._patch(kf, f, S("kernel." + f, getattr(kf, f),
                                 group="kernel.factor", points=1))
        for f in ("point_load_transforms", "smooth_load_transforms"):
            pos = 3 if f == "point_load_transforms" else 0
            self._patch(model, f, S("model." + f, getattr(model, f),
                                    group="model.load_transform", points=pos))
        sig = S("weightfn.sigma0", weightfn.sigma0, group="weightfn.sigma0",
                extra=self._count("weightfn.sigma0.calls"))
        for owner, attr in ((weightfn, "sigma0"), (perturbation, "_sigma0"),
                            (interfrac, "sigma0"), (cli, "sigma0")):
            self._patch(owner, attr, sig)
        us = unperturbed.UnperturbedSolution
        self._patch(us, "phi_plus_load",
                    S("unperturbed.phi_plus_load", us.phi_plus_load,
                      group="unperturbed.phi_plus_load",
                      extra=self._count("unperturbed.phi_plus_load.calls")))
        self._patch(us, "_phi_table",
                    S("unperturbed.phi_table", us._phi_table,
                      group="unperturbed.phi_table", extra=self._phi_table))
        self._patch(us, "grad_u0",
                    S("unperturbed.grad_u0", us.grad_u0,
                      extra=self._count("unperturbed.grad_u0.calls")))
        dsig = S("perturbation.delta_sigma0", perturbation.delta_sigma0,
                 extra=self._count("perturbation.delta_sigma0.calls"))
        for owner in (perturbation, interfrac, cli):
            self._patch(owner, "delta_sigma0", dsig)
        self._patch(perturbation, "_delta_from_v",
                    S("perturbation.betti2", perturbation._delta_from_v,
                      group="perturbation.betti2"))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take_counts(self):
        """Counters since the last take, then reset."""
        out = dict(self.counts)
        self.counts.clear()
        return out

    # -- analysis --------------------------------------------------------------

    def arrays(self):
        return {"name": np.frombuffer(self.name, dtype=np.int_),
                "parent": np.frombuffer(self.parent, dtype=np.int_),
                "call": np.frombuffer(self.call, dtype=np.int_),
                "start": np.frombuffer(self.start, dtype=float),
                "end": np.frombuffer(self.end, dtype=float)}

    def self_times(self):
        """Per-name (inclusive, self) seconds over spans of timed calls, and
        for each timed call, in order, its root span's duration and self
        time (the part spent in no wrapped layer)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        own = dur - child
        timed = a["call"] >= 0
        n = len(self.names)
        incl = np.bincount(a["name"][timed], weights=dur[timed], minlength=n)
        self_s = np.bincount(a["name"][timed], weights=own[timed], minlength=n)
        roots = timed & (a["name"] == 0)
        order = np.argsort(a["call"][roots], kind="stable")
        return ({nm: (float(incl[i]), float(self_s[i]))
                 for i, nm in enumerate(self.names)},
                dur[roots][order], own[roots][order])

    def save(self, path):
        np.savez_compressed(path, names=np.array(json.dumps(self.names)),
                            **self.arrays())
