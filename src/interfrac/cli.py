"""Config-driven command line: sigma0 spot values, parameter sweeps, the
perfect-interface comparison ratio, and the inclusion sign map.

Every artifact embeds the resolved configuration: JSON outputs carry it
under "config", CSV outputs as a single '#'-prefixed JSON metadata line.
Exit codes: 0 ok, 2 configuration error, 3 numerical failure.
"""

import argparse
import json
import math
import sys

import numpy as np

from .errors import ConfigError, InterfracError
from .model import (Bimaterial, InclusionSpec, derive_params, point_triple,
                    smooth_exponential)
from .numerics import QuadratureSpec
from .perturbation import delta_sigma0, sign_map
from .weightfn import ratio_r, sigma0

_LOAD_KINDS = ("point-triple", "smooth-exponential")


def _need(table, key, kind, path):
    if key not in table:
        raise ConfigError(f"missing config key {path}.{key}")
    value = table[key]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"config key {path}.{key} must be a number")
        return float(value)
    return value


def _parse_material(cfg):
    t = cfg.get("material", {"mu1": 1.0, "mu2": 1.0, "kappa": 0.5})
    mu1 = _need(t, "mu1", float, "material")
    mu2 = _need(t, "mu2", float, "material")
    kappa = _need(t, "kappa", float, "material")
    if mu1 <= 0:
        raise ConfigError("material.mu1 must be positive")
    if mu2 <= 0:
        raise ConfigError("material.mu2 must be positive")
    if kappa <= 0:
        raise ConfigError("material.kappa must be positive")
    return Bimaterial(mu1=mu1, mu2=mu2, kappa=kappa)


def _parse_load(cfg):
    t = cfg.get("load", {"kind": "smooth-exponential"})
    kind = t.get("kind", "point-triple")
    if kind not in _LOAD_KINDS:
        raise ConfigError(f"load.kind must be one of {_LOAD_KINDS}, got {kind!r}")
    if kind == "point-triple":
        F = float(t.get("F", 1.0))
        a = _need(t, "a", float, "load")
        b = _need(t, "b", float, "load")
        if not (0 < b < a):
            raise ConfigError("load requires 0 < b < a")
        return point_triple(F, a, b)
    return smooth_exponential(reference_length=float(t.get("a", 1.0)))


def _parse_inclusion(cfg):
    t = cfg.get("inclusion")
    if t is None:
        return None
    d = _need(t, "d", float, "inclusion")
    phi = _need(t, "phi", float, "inclusion")
    alpha = float(t.get("alpha", 0.0))
    ell_a = _need(t, "ell_a", float, "inclusion")
    ell_b = _need(t, "ell_b", float, "inclusion")
    rigid = bool(t.get("rigid", False))
    nu_star = t.get("nu_star")
    if not rigid and nu_star is None:
        raise ConfigError("inclusion needs nu_star (or rigid: true)")
    try:
        return InclusionSpec(d=d, phi=phi, alpha=alpha, ell_a=ell_a,
                             ell_b=ell_b,
                             nu_star=None if rigid else float(nu_star),
                             rigid=rigid)
    except InterfracError as exc:
        raise ConfigError(f"inclusion: {exc}") from exc


def _parse_numerics(cfg):
    t = cfg.get("numerics", {})
    try:
        return QuadratureSpec(
            rel_tol=float(t.get("rel_tol", 1e-8)),
            abs_tol=float(t.get("abs_tol", 1e-12)),
            max_subdivisions=int(t.get("max_subdivisions", 4000)),
            truncation_radius=float(t.get("truncation_radius", 1e4)))
    except InterfracError as exc:
        raise ConfigError(f"numerics: {exc}") from exc


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def _open_out(path):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w"), True


def _write_csv(path, meta, header, rows):
    fh, close = _open_out(path)
    try:
        fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(c) for c in row) + "\n")
    finally:
        if close:
            fh.close()


def _fmt(cell):
    if isinstance(cell, float):
        return format(cell, ".12g")
    return str(cell)


def cmd_sigma0(args):
    cfg = _load_config(args.config)
    material = _parse_material(cfg)
    load = _parse_load(cfg)
    spec = _parse_numerics(cfg)
    params = derive_params(material, load.reference_length)
    result = sigma0(load, material, spec)
    payload = {
        "sigma0": result.sigma0,
        "est_error": result.est_error,
        "mu0": params.mu0,
        "mu_star": params.mu_star,
        "kappa_star": params.kappa_star,
        "config": cfg,
    }
    if args.format == "csv":
        _write_csv(args.out, {"command": "sigma0", "config": cfg},
                   ("kappa_star", "mu_star", "mu0", "sigma0", "est_error"),
                   [(params.kappa_star, params.mu_star, params.mu0,
                     result.sigma0, result.est_error)])
        return 0
    fh, close = _open_out(args.out)
    try:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")
    finally:
        if close:
            fh.close()
    return 0


def _sweep_values(args):
    if args.points < 1:
        raise ConfigError("--points must be >= 1")
    if not args.from_value < args.to_value and args.points > 1:
        raise ConfigError("--from must be below --to")
    if args.log:
        if args.from_value <= 0:
            raise ConfigError("--log sweep needs positive bounds")
        return np.geomspace(args.from_value, args.to_value, args.points)
    return np.linspace(args.from_value, args.to_value, args.points)


def cmd_sweep(args):
    cfg = _load_config(args.config)
    material = _parse_material(cfg)
    load = _parse_load(cfg)
    spec = _parse_numerics(cfg)
    a = load.reference_length
    grid = _sweep_values(args)
    mu_sum = material.mu1 + material.mu2
    rows = []
    for value in grid:
        if args.axis == "kappa_star":
            if value <= 0:
                raise ConfigError("kappa_star values must be positive")
            m = Bimaterial(material.mu1, material.mu2, value * a / mu_sum)
        else:
            if not -1.0 < value < 1.0:
                raise ConfigError("mu_star values must lie in (-1, 1)")
            m = Bimaterial(0.5 * mu_sum * (1.0 + value),
                           0.5 * mu_sum * (1.0 - value), material.kappa)
        params = derive_params(m, a)
        result = sigma0(load, m, spec)
        rows.append((params.kappa_star, params.mu_star,
                     load.b if load.b is not None else float("nan"),
                     result.sigma0, result.est_error))
    meta = {"command": "sweep", "axis": args.axis, "log": bool(args.log),
            "config": cfg}
    _write_csv(args.out, meta, ("kappa_star", "mu_star", "b", "sigma0",
                                "est_error"), rows)
    return 0


def cmd_ratio(args):
    cfg = _load_config(args.config)
    load = _parse_load(cfg)
    spec = _parse_numerics(cfg)
    rcfg = cfg.get("ratio", {})
    mu_star_1 = float(rcfg.get("mu_star_1", 0.0))
    mu_star_2 = args.mu_star_2 if args.mu_star_2 is not None else rcfg.get("mu_star_2")
    if mu_star_2 is None:
        raise ConfigError("ratio needs mu_star_2 (config ratio.mu_star_2 or --mu-star-2)")
    mu_star_2 = float(mu_star_2)
    for name, ms in (("mu_star_1", mu_star_1), ("mu_star_2", mu_star_2)):
        if not -1.0 < ms < 1.0:
            raise ConfigError(f"ratio.{name} must lie in (-1, 1)")
    rows = []
    for value in _sweep_values(args):
        if value <= 0:
            raise ConfigError("kappa_star values must be positive")
        rows.append((value, ratio_r(value, mu_star_1, mu_star_2, load, spec)))
    meta = {"command": "ratio", "mu_star_1": mu_star_1, "mu_star_2": mu_star_2,
            "log": bool(args.log), "config": cfg}
    _write_csv(args.out, meta, ("kappa_star", "r"), rows)
    return 0


def cmd_map(args):
    cfg = _load_config(args.config)
    material = _parse_material(cfg)
    load = _parse_load(cfg)
    spec = _parse_numerics(cfg)
    inc = cfg.get("inclusion", {})
    d = float(inc.get("d", 1.0))
    nu_star = float(inc.get("nu_star", 5.0))
    ell_a = float(inc.get("ell_a", 0.1 * d))
    ell_b = float(inc.get("ell_b", ell_a * 0.5))
    rigid = bool(inc.get("rigid", False))
    if d <= 0 or ell_a <= 0 or not ell_b <= ell_a:
        raise ConfigError("inclusion map needs d > 0 and ell_a >= ell_b > 0")
    e = ell_b / ell_a
    phi = np.linspace(math.radians(5.0), math.radians(175.0), args.phi_steps)
    alpha = np.linspace(0.0, math.pi, args.alpha_steps, endpoint=False)
    result = sign_map(load, material, d, nu_star, e, ell_a, phi, alpha,
                      spec=spec, rigid=rigid)
    rows = []
    for i, p in enumerate(result.phi):
        for j, al in enumerate(result.alpha):
            rows.append((math.degrees(p), math.degrees(al),
                         result.delta[i, j], str(result.sign[i, j])))
    meta = {"command": "map", "d": d, "nu_star": nu_star, "e": e,
            "ell_a": ell_a, "rigid": rigid, "config": cfg}
    _write_csv(args.out, meta, ("phi_deg", "alpha_deg", "delta_sigma0",
                                "sign"), rows)
    if args.pgm:
        _write_pgm(args.pgm, result)
    return 0


def _write_pgm(path, result):
    levels = {"shielding": 0, "neutral": 128, "amplifying": 255}
    with open(path, "w") as fh:
        fh.write(f"P2\n{result.alpha.size} {result.phi.size}\n255\n")
        for i in range(result.phi.size):
            fh.write(" ".join(str(levels[str(s)]) for s in result.sign[i]) + "\n")


def cmd_residual(args):
    """Factorization-identity diagnostic |pi mu0 B+ B-/Xi - 1| on a log grid."""
    from .kernel import KernelFactors

    cfg = _load_config(args.config)
    material = _parse_material(cfg)
    load = _parse_load(cfg)
    kernel = KernelFactors(derive_params(material, load.reference_length).mu0)
    half = np.geomspace(1e-3 * kernel.mu0, 1e3 * kernel.mu0, max(2, args.points // 2))
    grid = np.concatenate([-half[::-1], half])
    res = kernel.factorization_residual(grid)
    meta = {"command": "kernel-residual", "mu0": kernel.mu0, "config": cfg}
    _write_csv(args.out, meta, ("xi", "residual"),
               [(float(x), float(r)) for x, r in zip(grid, res)])
    return 0


def cmd_field(args):
    """Unperturbed displacement and gradient samples off the interface."""
    from .unperturbed import UnperturbedSolution

    cfg = _load_config(args.config)
    material = _parse_material(cfg)
    load = _parse_load(cfg)
    spec = _parse_numerics(cfg)
    solution = UnperturbedSolution(load, material, spec=spec)
    rows = []
    for spec_at in args.at:
        try:
            x, y = (float(p) for p in spec_at.split(","))
        except ValueError:
            raise ConfigError(f"--at expects 'x,y', got {spec_at!r}")
        if not (math.isfinite(x) and math.isfinite(y)) or y == 0.0:
            raise ConfigError(f"--at needs finite x and y != 0, got {spec_at!r}")
        sample = solution.field_sample(x, y, min_angle_deg=args.min_angle)
        rows.append((sample.x, sample.y, sample.u, sample.gx, sample.gy))
    meta = {"command": "field", "config": cfg}
    _write_csv(args.out, meta, ("x", "y", "u", "gx", "gy"), rows)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="interfrac",
        description="Crack-tip traction constants on a soft imperfect "
                    "interface, and their small-inclusion perturbation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sigma0", help="single sigma0 evaluation (JSON or CSV)")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_sigma0)

    p = sub.add_parser("sweep", help="sigma0 sweep over kappa_star or mu_star (CSV)")
    p.add_argument("--config", required=True)
    p.add_argument("--axis", choices=("kappa_star", "mu_star"), required=True)
    p.add_argument("--from", dest="from_value", type=float, required=True)
    p.add_argument("--to", dest="to_value", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--log", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("ratio", help="perfect-interface comparison ratio r(kappa_star) (CSV)")
    p.add_argument("--config", required=True)
    p.add_argument("--from", dest="from_value", type=float, required=True)
    p.add_argument("--to", dest="to_value", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--log", action="store_true")
    p.add_argument("--mu-star-2", dest="mu_star_2", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("map", help="delta_sigma0 sign over (phi, alpha) (CSV, optional PGM)")
    p.add_argument("--config", required=True)
    p.add_argument("--phi-steps", type=int, default=60)
    p.add_argument("--alpha-steps", type=int, default=60)
    p.add_argument("--out", default=None)
    p.add_argument("--pgm", default=None)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("kernel-residual",
                       help="factorization-identity residual table (CSV)")
    p.add_argument("--config", required=True)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_residual)

    p = sub.add_parser("field", help="unperturbed field samples (CSV)")
    p.add_argument("--config", required=True)
    p.add_argument("--at", action="append", required=True,
                   metavar="X,Y", help="sample position (repeatable)")
    p.add_argument("--min-angle", type=float, default=5.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_field)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InterfracError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
