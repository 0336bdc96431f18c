"""Exactness of the benchmark's trace counters.

    PYTHONPATH=src:perfbench python3 -m pytest perfbench -q

integrate_err evaluates one coarse GL12 batch and two half-panel batches
(12 nodes per panel each), then, per refinement round, splits the worst
floor(n/4) + 1 of its n panels and evaluates the halves' two quarter
batches. On the single panel [0, 1]:

* x^3 is integrated exactly by GL12: 3 * 12 = 36 nodes, 0 rounds;
* x^40 (degree > 23) misses the tolerance on the coarse panel but not on
  the halves: one round splitting 1 panel, 36 + 2 * 2 * 12 = 84 nodes;
* x^60 needs a second round on [0.5, 1] (n = 2 panels, 1 split):
  84 + 2 * 2 * 12 = 132 nodes.
"""

import math
import time

import numpy as np
import pytest

from interfrac import numerics, perturbation, unperturbed, weightfn
from interfrac.errors import NonConvergence
from interfrac.model import Bimaterial, point_triple
from interfrac.numerics import QuadratureSpec

from tracer import Tracer


def counted(*args, **kwargs):
    """Counters of one traced numerics.integrate_err call."""
    t = Tracer()
    t.install()
    try:
        numerics.integrate_err(*args, **kwargs)
    finally:
        t.uninstall()
    return t.take_counts()


@pytest.mark.parametrize("power, nodes, rounds", [(3, 36, 0), (40, 84, 1),
                                                  (60, 132, 2)])
def test_integrate_err_counts(power, nodes, rounds):
    c = counted(lambda x: x ** power, 0.0, 1.0, QuadratureSpec())
    assert c["numerics.integrate_err.calls"] == 1
    assert c["numerics.integrand_nodes"] == nodes
    assert c["numerics.integrate_err.refine_rounds"] == rounds


def test_breakpoints_batch_all_panels():
    # two panels share each batch: 3 batches of 2 * 12 nodes, no round
    c = counted(lambda x: x ** 3, 0.0, 1.0, QuadratureSpec(), [0.5])
    assert c["numerics.integrand_nodes"] == 72
    assert c["numerics.integrate_err.refine_rounds"] == 0


def test_nonconvergence_counted():
    t = Tracer()
    t.install()
    with pytest.raises(NonConvergence):
        numerics.integrate_err(np.sqrt, 0.0, 1.0, QuadratureSpec(max_subdivisions=1))
    t.uninstall()
    c = t.take_counts()
    assert c["numerics.nonconvergence"] == 1
    # one round of the single panel, then the budget is spent
    assert c["numerics.integrand_nodes"] == 84


def test_uninstall_restores_every_binding():
    before = (numerics.integrate_err, weightfn.integrate_err,
              unperturbed.UnperturbedSolution.grad_u0,
              perturbation._sigma0, perturbation._delta_from_v)
    t = Tracer()
    t.install()
    assert weightfn.integrate_err is not before[1]
    t.uninstall()
    assert (numerics.integrate_err, weightfn.integrate_err,
            unperturbed.UnperturbedSolution.grad_u0,
            perturbation._sigma0, perturbation._delta_from_v) == before


def test_sigma0_traced_matches_untraced_and_spans_cover_the_call():
    load = point_triple(1.0, 1.0, 0.75)
    material = Bimaterial(1.0, 1.0, 0.5)
    plain = weightfn.sigma0(load, material)
    t = Tracer()
    t.install()
    try:
        t0 = time.perf_counter()
        r = t.timed_call(0, weightfn.sigma0, load, material)
        wall = time.perf_counter() - t0
    finally:
        t.uninstall()
    assert (r.sigma0, r.est_error) == (plain.sigma0, plain.est_error)
    times, root_dur, root_self = t.self_times()
    assert root_dur.size == 1
    assert 0.0 < root_self[0] < root_dur[0] <= wall
    # the layer spans directly under the root cover the rest of the call
    assert math.isclose(times["weightfn.sigma0"][0] + root_self[0], root_dur[0],
                        rel_tol=1e-9)
    c = t.take_counts()
    assert c["weightfn.sigma0.calls"] == 1
    assert c["kernel.KernelFactors.builds"] == 1
    # per half-line: a head and a mid integral, and one IBP tail for each
    # of the three oscillation shifts of the point triple
    assert c["numerics.integrate_err.calls"] == 4
    assert c["numerics.tail.calls"] == 6
