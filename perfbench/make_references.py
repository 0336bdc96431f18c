"""Recompute references.json: dense-oracle values for each workload's panel.

The panel is PANEL_SIZE[name] cases drawn from DEFAULT_SEED. References
use the spec that froze the acceptance anchors: rel_tol 1e-9, abs_tol
1e-13 and twice the default truncation radius. The anchors themselves are
recomputed too and printed next to their frozen values as a check.

    PYTHONPATH=src python3 perfbench/make_references.py
"""

import json
import os

from interfrac.numerics import QuadratureSpec
from interfrac.perturbation import delta_sigma0
from interfrac.unperturbed import UnperturbedSolution
from interfrac.weightfn import WeightField, sigma0

import workloads as W

DENSE = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-13, truncation_radius=2e4)


def sigma0_ref(case):
    return sigma0(W.build_load(case["load"]), W.build_material(case["material"]),
                  DENSE).sigma0


def delta_refs(cases):
    """Cases sharing one (load, material) pair share the dense solution,
    whose phi^+ table is filled once, for the smallest |y| among them, so
    that no case rebuilds it."""
    out = []
    pair = None
    for i, case in enumerate(cases):
        key = (json.dumps(case["load"], sort_keys=True),
               json.dumps(case["material"], sort_keys=True))
        if pair is None or pair[0] != key:
            load = W.build_load(case["load"])
            material = W.build_material(case["material"])
            solution = UnperturbedSolution(load, material, spec=DENSE)
            field = WeightField(material, a=load.reference_length, spec=DENSE,
                                kernel=solution.kernel)
            pair = (key, load, material, solution, field)
            y_min = min(abs(W.inclusion_centre(W.build_inclusion(c["inclusion"]))[1])
                        for c in cases[i:]
                        if (json.dumps(c["load"], sort_keys=True),
                            json.dumps(c["material"], sort_keys=True)) == key)
            solution.grad_u0((0.0, 0.99 * y_min))
        _, load, material, solution, field = pair
        out.append(delta_sigma0(load, material, W.build_inclusion(case["inclusion"]),
                                spec=DENSE, solution=solution,
                                field=field).delta_sigma0)
    return out


def main():
    refs = {}
    for name, cls in W.WORKLOADS.items():
        if not W.PANEL_SIZE[name]:
            refs[name] = []  # its anchor is another workload's too
            continue
        wl = cls()
        cases = [wl.anchor] + wl.cases(W.DEFAULT_SEED, W.PANEL_SIZE[name])
        vals = ([sigma0_ref(c) for c in cases] if name == "sigma0_sweep"
                else delta_refs(cases))
        print(f"{name}: anchor {vals[0]!r} (frozen {wl.anchor['ref']!r}, rel "
              f"{abs(vals[0] - wl.anchor['ref']) / abs(wl.anchor['ref']):.2e})",
              flush=True)
        refs[name] = vals[1:]
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "references.json")
    with open(path, "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
