"""Config-driven command line: sigma0 spot values, parameter sweeps, the
perfect-interface comparison ratio, one inclusion's delta_sigma0, and the
inclusion sign map.

Every artifact embeds the resolved configuration: JSON outputs carry it
under "config", CSV outputs as a single '#'-prefixed JSON metadata line.
Exit codes: 0 ok, 2 configuration error, 3 numerical failure.
"""

import argparse
import json
import math
import sys
from contextlib import contextmanager

import numpy as np

from .errors import ConfigError, DomainError, GeometryError, InterfracError
from .kernel import KernelFactors
from .model import (Bimaterial, InclusionSpec, bimaterial_from_dimensionless,
                    derive_params, point_triple, smooth_exponential)
from .numerics import QuadratureSpec
from .perturbation import delta_sigma0, sign_map
from .unperturbed import UnperturbedSolution
from .weightfn import ratio_r, sigma0

_LOAD_KINDS = ("point-triple", "smooth-exponential")


@contextmanager
def _building():
    """Turns a DomainError raised by the constructors that own the range
    rules into a ConfigError (exit 2); one raised by a solve stays exit 3."""
    try:
        yield
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def _section(cfg, name, default):
    """The config table cfg[name], or `default` when it is absent."""
    table = cfg.get(name, default)
    if not isinstance(table, dict):
        raise ConfigError(f"config key {name} must be a JSON object")
    return table


def _number(table, path, key, default=None):
    """table[key] as a float; it must be a finite JSON number. An absent key
    gives `default`, or an error when there is none."""
    if key not in table:
        if default is None:
            raise ConfigError(f"missing config key {path}.{key}")
        return float(default)
    value = table[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {path}.{key} must be a number")
    try:
        out = float(value)
    except OverflowError:  # a JSON integer beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise ConfigError(f"config key {path}.{key} must be finite")
    return out


def _positive_int(table, path, key, default):
    """table[key]; it must be a JSON integer >= 1. An absent key gives
    `default`."""
    value = table.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"config key {path}.{key} must be an integer >= 1")
    return value


def _boolean(table, path, key, default):
    """table[key]; it must be a JSON boolean. An absent key gives `default`."""
    value = table.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"config key {path}.{key} must be true or false")
    return value


def _parse_material(cfg):
    t = _section(cfg, "material", {"mu1": 1.0, "mu2": 1.0, "kappa": 0.5})
    mu1 = _number(t, "material", "mu1")
    mu2 = _number(t, "material", "mu2")
    kappa = _number(t, "material", "kappa")
    return Bimaterial(mu1=mu1, mu2=mu2, kappa=kappa)


def _parse_load(cfg):
    t = _section(cfg, "load", {"kind": "smooth-exponential"})
    kind = t.get("kind", "point-triple")
    if kind not in _LOAD_KINDS:
        raise ConfigError(f"unknown load kind {kind!r}, expected one of "
                          f"{_LOAD_KINDS}")
    if kind == "point-triple":
        F = _number(t, "load", "F", 1.0)
        a = _number(t, "load", "a")
        b = _number(t, "load", "b")
        return point_triple(F, a, b)
    return smooth_exponential(reference_length=_number(t, "load", "a", 1.0))


def _parse_numerics(cfg):
    t = _section(cfg, "numerics", {})
    default = QuadratureSpec()
    return QuadratureSpec(
        rel_tol=_number(t, "numerics", "rel_tol", default.rel_tol),
        abs_tol=_number(t, "numerics", "abs_tol", default.abs_tol),
        max_subdivisions=_positive_int(t, "numerics", "max_subdivisions",
                                       default.max_subdivisions),
        truncation_radius=_number(t, "numerics", "truncation_radius",
                                  default.truncation_radius))


def _load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return cfg


def _read_run(path):
    """The config at path and the material, load and numerics it gives."""
    cfg = _load_config(path)
    with _building():
        return cfg, _parse_material(cfg), _parse_load(cfg), _parse_numerics(cfg)


@contextmanager
def _open_out(path):
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _write_csv(path, meta, header, rows):
    with _open_out(path) as fh:
        fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(c) for c in row) + "\n")


def _fmt(cell):
    if isinstance(cell, float):
        return format(cell, ".12g")
    return str(cell)


def cmd_sigma0(args):
    cfg, material, load, spec = _read_run(args.config)
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
    with _open_out(args.out) as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")
    return 0


def _sweep_values(args):
    if not args.from_value < args.to_value and args.points > 1:
        raise ConfigError("--from must be below --to")
    if args.log:
        if args.from_value <= 0:
            raise ConfigError("--log sweep needs positive bounds")
        return np.geomspace(args.from_value, args.to_value, args.points)
    return np.linspace(args.from_value, args.to_value, args.points)


def cmd_sweep(args):
    cfg, material, load, spec = _read_run(args.config)
    a = load.reference_length
    total_mu = material.mu1 + material.mu2
    with _building():
        if args.axis == "kappa_star":
            grid = [Bimaterial(material.mu1, material.mu2, value * a / total_mu)
                    for value in _sweep_values(args)]
        else:
            grid = [Bimaterial(0.5 * total_mu * (1.0 + value),
                               0.5 * total_mu * (1.0 - value), material.kappa)
                    for value in _sweep_values(args)]
    rows = []
    for m in grid:
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
    cfg, _, load, spec = _read_run(args.config)
    rcfg = _section(cfg, "ratio", {})
    mu_star_1 = _number(rcfg, "ratio", "mu_star_1", 0.0)
    if args.mu_star_2 is not None:
        mu_star_2 = args.mu_star_2
    elif "mu_star_2" in rcfg:
        mu_star_2 = _number(rcfg, "ratio", "mu_star_2")
    else:
        raise ConfigError("ratio needs mu_star_2 (config ratio.mu_star_2 or --mu-star-2)")
    for name, ms in (("mu_star_1", mu_star_1), ("mu_star_2", mu_star_2)):
        if not -1.0 < ms < 1.0:
            raise ConfigError(f"ratio.{name} must lie in (-1, 1)")
    grid = _sweep_values(args)
    # both pairs of ratio_r share the compliance and mu0 = 2/kappa of the
    # mu_star = 0 material, so it meets each kappa_star's rules first
    with _building():
        for value in grid:
            bimaterial_from_dimensionless(0.0, value, load.reference_length)
    rows = [(value, ratio_r(value, mu_star_1, mu_star_2, load, spec))
            for value in grid]
    meta = {"command": "ratio", "mu_star_1": mu_star_1, "mu_star_2": mu_star_2,
            "log": bool(args.log), "config": cfg}
    _write_csv(args.out, meta, ("kappa_star", "r"), rows)
    return 0


def _parse_inclusion(cfg, phi, alpha):
    """The InclusionSpec of the config's inclusion table at the angles phi
    and alpha (radians): d (default 1), nu_star (5), ell_a (0.1 d), ell_b
    (ell_a/2) and rigid (false)."""
    t = _section(cfg, "inclusion", {})
    d = _number(t, "inclusion", "d", 1.0)
    nu_star = _number(t, "inclusion", "nu_star", 5.0)
    ell_a = _number(t, "inclusion", "ell_a", 0.1 * d)
    ell_b = _number(t, "inclusion", "ell_b", ell_a * 0.5)
    rigid = _boolean(t, "inclusion", "rigid", False)
    with _building():
        return InclusionSpec(d=d, phi=phi, alpha=alpha, ell_a=ell_a,
                             ell_b=ell_b, nu_star=nu_star, rigid=rigid)


def cmd_delta(args):
    """delta_sigma0 for the one inclusion of the config, at inclusion.phi
    and inclusion.alpha in degrees (default 90 and 0)."""
    cfg, material, load, spec = _read_run(args.config)
    t = _section(cfg, "inclusion", {})
    phi = _number(t, "inclusion", "phi", 90.0)
    alpha = _number(t, "inclusion", "alpha", 0.0)
    inc = _parse_inclusion(cfg, math.radians(phi), math.radians(alpha))
    with _building():
        solution = UnperturbedSolution(load, material, spec=spec)
    try:
        result = delta_sigma0(load, material, inc, spec=spec,
                              solution=solution)
    except GeometryError as exc:
        raise ConfigError(f"inclusion at d = {inc.d:.4g}, phi = {phi:.4g} "
                          f"deg: {exc}") from exc
    payload = {
        "delta_sigma0": result.delta_sigma0,
        "est_error": result.est_error,
        "sigma0_base": result.sigma0_base,
        "sigma0_total": result.sigma0_total,
        "epsilon": result.epsilon,
        "sign": result.sign,
        "config": cfg,
    }
    with _open_out(args.out) as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")
    return 0


def cmd_map(args):
    cfg, material, load, spec = _read_run(args.config)
    phi = np.linspace(math.radians(5.0), math.radians(175.0), args.phi_steps)
    alpha = np.linspace(0.0, math.pi, args.alpha_steps, endpoint=False)
    inc = _parse_inclusion(cfg, phi[0], alpha[0])
    with _building():
        solution = UnperturbedSolution(load, material, spec=spec)
    try:
        # sign_map checks every phi before it computes anything
        result = sign_map(load, material, inc, phi, alpha, spec=spec,
                          solution=solution)
    except GeometryError as exc:
        raise ConfigError(f"inclusion.d = {inc.d:.4g}: {exc}") from exc
    rows = []
    for i, p in enumerate(result.phi):
        for j, al in enumerate(result.alpha):
            rows.append((math.degrees(p), math.degrees(al), result.delta[i, j],
                         result.est_error[i, j], str(result.sign[i, j])))
    meta = {"command": "map", "d": inc.d, "nu_star": inc.nu_star,
            "e": inc.ell_b / inc.ell_a, "ell_a": inc.ell_a, "rigid": inc.rigid,
            "config": cfg}
    _write_csv(args.out, meta, ("phi_deg", "alpha_deg", "delta_sigma0",
                                "est_error", "sign"), rows)
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
    """Factorization-identity diagnostic |pi mu0 B+ B-/Xi - 1| on a log grid,
    the polar B+ against the product-route B- (KernelFactors.
    factorization_residual): the agreement of the two phases."""
    cfg, material, _, _ = _read_run(args.config)
    kernel = KernelFactors(material.mu0)
    half = np.geomspace(1e-3 * kernel.mu0, 1e3 * kernel.mu0, max(2, args.points // 2))
    grid = np.concatenate([-half[::-1], half])
    res = kernel.factorization_residual(grid)
    meta = {"command": "kernel-residual", "mu0": kernel.mu0, "config": cfg}
    _write_csv(args.out, meta, ("xi", "residual"),
               [(float(x), float(r)) for x, r in zip(grid, res)])
    return 0


def _position(text, solution, min_angle):
    """An --at value 'x,y' that the solution's gradient can serve (finite,
    off the interface, outside the angle guard, within reach and within the
    Cauchy mesh's panel cap)."""
    try:
        x, y = (float(p) for p in text.split(","))
    except ValueError:
        raise ConfigError(f"--at expects 'x,y', got {text!r}")
    try:
        return solution.check_position((x, y), min_angle)
    except GeometryError as exc:
        raise ConfigError(f"--at {text}: {exc}") from exc


def cmd_field(args):
    """Unperturbed displacement and gradient samples off the interface."""
    cfg, material, load, spec = _read_run(args.config)
    with _building():
        solution = UnperturbedSolution(load, material, spec=spec)
    rows = []
    for x, y in [_position(text, solution, args.min_angle) for text in args.at]:
        gx, gy = solution.grad_u0((x, y), min_angle_deg=args.min_angle)
        rows.append((x, y, solution.u0(x, y), gx, gy))
    meta = {"command": "field", "config": cfg}
    _write_csv(args.out, meta, ("x", "y", "u", "gx", "gy"), rows)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="interfrac",
        description="Crack-tip traction constants on a soft imperfect "
                    "interface, and their small-inclusion perturbation.")
    sub = parser.add_subparsers(dest="command", required=True)
    # the flags shared between subcommands, each declared once
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--config", required=True)
    run.add_argument("--out", default=None)
    span = argparse.ArgumentParser(add_help=False)
    span.add_argument("--from", dest="from_value", type=float, required=True)
    span.add_argument("--to", dest="to_value", type=float, required=True)
    span.add_argument("--points", type=int, required=True)
    span.add_argument("--log", action="store_true")

    p = sub.add_parser("sigma0", parents=[run],
                       help="single sigma0 evaluation (JSON or CSV)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_sigma0)

    p = sub.add_parser("sweep", parents=[run, span],
                       help="sigma0 sweep over kappa_star or mu_star (CSV)")
    p.add_argument("--axis", choices=("kappa_star", "mu_star"), required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("ratio", parents=[run, span],
                       help="perfect-interface comparison ratio r(kappa_star) (CSV)")
    p.add_argument("--mu-star-2", dest="mu_star_2", type=float, default=None)
    p.set_defaults(func=cmd_ratio)

    p = sub.add_parser("delta", parents=[run],
                       help="delta_sigma0 of one inclusion, with its "
                            "est_error, sigma0_base and label (JSON)")
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("map", parents=[run],
                       help="delta_sigma0 sign over (phi, alpha) (CSV, optional PGM)")
    p.add_argument("--phi-steps", type=int, default=60)
    p.add_argument("--alpha-steps", type=int, default=60)
    p.add_argument("--pgm", default=None)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("kernel-residual", parents=[run],
                       help="factorization-identity residual table (CSV): "
                            "the polar B+ (its phase from one polynomial "
                            "table, within 5e-15 of the PCHIP phase) "
                            "against the product-route B-, i.e. their phase "
                            "agreement; both read the PCHIP Hhat, whose own "
                            "error it does not show")
    p.add_argument("--points", type=int, default=200)
    p.set_defaults(func=cmd_residual)

    p = sub.add_parser("field", parents=[run],
                       help="unperturbed field samples (CSV)")
    p.add_argument("--at", action="append", required=True,
                   metavar="X,Y", help="sample position (repeatable)")
    p.add_argument("--min-angle", type=float, default=5.0)
    p.set_defaults(func=cmd_field)
    return parser


def _check_flags(args):
    """Every count flag must be at least 1, and --min-angle lie in [0, 180)."""
    for name in ("points", "phi_steps", "alpha_steps"):
        if getattr(args, name, 1) < 1:
            raise ConfigError(f"--{name.replace('_', '-')} must be >= 1")
    if not 0.0 <= getattr(args, "min_angle", 0.0) < 180.0:
        raise ConfigError("--min-angle must lie in [0, 180) degrees")


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        # numpy's overflow warnings would add lines; NonFiniteSample reports
        with np.errstate(all="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    # Python float arithmetic raises OverflowError where numpy gives inf
    except (ArithmeticError, InterfracError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
