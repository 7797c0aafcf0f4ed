"""The `ges` command-line driver.

One reproducible entry point over the library: omega approximations,
attraction diagnostics, invariant suites, the spectral-flow analysis
actions, uniform (symbol-family) runs, and invariance checks.  All
outputs are deterministic functions of the configuration and the seed:
every artifact is written by `ges.util` (strict JSON with sorted keys
and schema version 1; fixed CSV columns), floats are printed in shortest
round-trip form, and the worker count never changes results
(order-preserving reductions only).

Exit codes:
    0   converged / attracts / suite passed / matches expectations
    1   verify suite violation (also: an analysis action found one)
    2   inconclusive or not converged
    3   fails where the system registry expected an attractor
    64  usage errors (unknown system/suite, bad flags, bad config)
    65  malformed forcing description
    70  numerical blow-up during integration
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import BlowUpError, ForcingFormatError, UnsupportedError, UsageError
from .omega import (INVARIANT_VERDICTS, AttractionReport, OmegaApprox,
                    PullbackSchedule, attraction_diagnostic, invariance_check,
                    omega_pullback)
from .symbols import SymbolFamily, union_inclusion_check
from .systems import SYSTEM_IDS, make_system
from .systems.heat import band_witness
from .systems.nse import ForcingProfile, absorbing_entry_time
from .util import artifact_json, csv_text, fmt_float
from .verify import (SUITES, invariance_plan, nse_absorbing_check, nse_energy_check,
                     report_lines, run_suite)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INCONCLUSIVE = 2
EXIT_FAILS_EXPECTED = 3
EXIT_USAGE = 64
EXIT_FORCING = 65
EXIT_BLOWUP = 70


# accepted Python types per annotated config field type; a JSON integer
# is a valid float
_FIELD_KINDS = {"str": str, "float": (int, float), "int": int}

# one command's defaults, below its flags and the config file: invariance
# compares sets at a coarser tolerance than a ladder converges to
_COMMAND_DEFAULTS = {"invariance": {"tol": 0.05},
                     "uniform": {"system": "forced-scalar"}}


@dataclass
class ExperimentConfig:
    """Run parameters shared by the experiment subcommands."""

    system: str = "heat"
    metric: str = "weak"
    t0: float = 0.0
    delta: float = 1.0
    rho: float = 1.6
    n: int = 16
    eps_net: float = 0.05
    tol: float = 1e-3
    n_seeds: int = 24
    branches: str = "all"
    seed: int = 0
    out: str = "."
    threads: int = 1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            want = _FIELD_KINDS[f.type]
            if isinstance(value, bool) or not isinstance(value, want):
                raise UsageError(f"config field {f.name!r} must be {f.type}, "
                                 f"not {type(value).__name__}")
            # an int past the float range is no float either
            if f.type == "float" and not abs(value) <= sys.float_info.max:
                raise UsageError(f"config field {f.name!r} must be finite")
        if self.eps_net <= 0 or self.tol <= 0 or self.delta <= 0:
            raise UsageError("tolerances and schedule spacing must be positive")
        if self.n < 3:
            raise UsageError("a schedule needs at least three tiers")
        if self.rho <= 1:
            raise UsageError("geometric ratio must exceed 1")
        if self.metric not in ("strong", "weak"):
            raise UsageError(f"unknown metric {self.metric!r}")
        if self.seed < 0:
            raise UsageError("the seed must be non-negative")
        if self.n_seeds < 1:
            raise UsageError("need at least one ensemble seed")
        if self.threads < 1:
            raise UsageError("threads must be at least 1")

    @classmethod
    def _given(cls, args: argparse.Namespace) -> dict:
        """The fields the user set: CLI flags override config-file values.

        Only the fields the subcommand declares are read, so one file may
        also hold keys for other commands; a key that is no field at all
        is a usage error."""
        file_vals = {}
        if getattr(args, "config", None):
            try:
                file_vals = json.loads(Path(args.config).read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise UsageError(f"cannot read config file: {exc}") from exc
            if not isinstance(file_vals, dict):
                raise UsageError("config file must hold a JSON object")
        unknown = file_vals.keys() - {f.name for f in fields(cls)}
        if unknown:
            raise UsageError("unknown config key "
                             + ", ".join(map(repr, sorted(unknown))))
        kw = {}
        for f in fields(cls):
            if not hasattr(args, f.name):
                continue
            cli_val = getattr(args, f.name)
            if cli_val is not None:
                kw[f.name] = cli_val
            elif f.name in file_vals:
                kw[f.name] = file_vals[f.name]
        return kw

    @classmethod
    def build(cls, args: argparse.Namespace) -> "ExperimentConfig":
        """The user's fields over the command's defaults over the class's."""
        command = getattr(args, "command", None)
        kw = {**_COMMAND_DEFAULTS.get(command, {}), **cls._given(args)}
        # system-aware schedule defaults: the spectral flow is integrated
        # numerically, so an unasked-for 16-tier geometric schedule would
        # run for hours; everything else is closed-form and stays deep
        if kw.get("system") == "nse":
            kw.setdefault("n", 6)
            kw.setdefault("n_seeds", 6)
        # a sampled uniform base takes six seeds unless asked; the scalar grid 24
        if command == "uniform" and kw["system"] != "forced-scalar":
            kw.setdefault("n_seeds", 6)
        return cls(**kw)

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)

    def schedule(self) -> PullbackSchedule:
        return PullbackSchedule.geometric(self.t0, self.delta, self.rho, self.n)


def _emit(out_dir: str, files: dict[str, str], lines: list[str]) -> None:
    """Write each named artifact, print the summary lines, then one line
    naming every written file."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text)
    for line in lines:
        print(line)
    print("wrote " + " and ".join(str(out / name) for name in files))


def _omega_exit(om: OmegaApprox, expected_attractor: bool, tol: float) -> int:
    if om.converged:
        return EXIT_OK
    vals = om.profile_values()
    half = vals[-max(2, vals.size // 2):]
    # demonstrated failure = the profile actually grows over its last half.
    # A plateau above tol (a net resolution floor) stays inconclusive, and
    # so does an empty survivor set alone: a weak pullback attractor
    # exists, so nothing surviving a finite ladder means it was too shallow
    growing = (np.all(np.isfinite(half))
               and half[-1] >= max(2.0 * half[0], 2.0 * tol))
    if growing and expected_attractor:
        return EXIT_FAILS_EXPECTED
    return EXIT_INCONCLUSIVE


def _verdict_exit(verdict: str, ok: str, expected: bool = True) -> int:
    """0 for the ok verdict, 2 for an inconclusive one; any other fails
    (3) where the registry expected success, else 0."""
    if verdict == ok:
        return EXIT_OK
    if verdict == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_FAILS_EXPECTED if expected else EXIT_OK


# ---------------------------------------------------------------------------
# subcommands


def _omega_ladder(cfg: ExperimentConfig, fam) -> OmegaApprox:
    """Pullback omega of the configured ladder."""
    return omega_pullback(fam, cfg.schedule(), n_seeds=cfg.n_seeds,
                          metric=cfg.metric, eps_net=cfg.eps_net, tol=cfg.tol,
                          rng=cfg.rng(), branches=cfg.branches,
                          workers=cfg.threads)


def _write_omega(cfg: ExperimentConfig, om: OmegaApprox) -> None:
    """Write the omega artifacts and print their summary line."""
    final = om.profile[-1][1] if om.profile else float("nan")
    _emit(cfg.out, {f"omega_{cfg.system}_{cfg.metric}.json": om.to_json(),
                    f"profile_{cfg.system}_{cfg.metric}.csv": om.profile_csv()},
          [f"omega {cfg.system} {cfg.metric}: converged={om.converged} "
           f"points={len(om.points)} final={fmt_float(final)}"
           + (f" note={om.note!r}" if om.note else "")])


def _run_omega(cfg: ExperimentConfig, fam) -> int:
    """Pullback omega of the configured ladder: write, print, exit code."""
    om = _omega_ladder(cfg, fam)
    _write_omega(cfg, om)
    expected = bool(fam.expectations.get(f"{cfg.metric}_attractor", False))
    return _omega_exit(om, expected, cfg.tol)


def cmd_omega(args) -> int:
    cfg = ExperimentConfig.build(args)
    return _run_omega(cfg, make_system(cfg.system))


def cmd_attract(args) -> int:
    cfg = ExperimentConfig.build(args)
    if args.witness and cfg.system != "heat":
        raise UsageError("--witness seeds exist for the heat system only")
    fam = make_system(cfg.system)
    sched = cfg.schedule()
    if args.target == "zero":
        target = [fam.space.zero_state()]
    else:  # "omega"
        om = _omega_ladder(cfg, fam)
        target = om.points
        if not target:  # keep the ladder's work: its profile says why
            _write_omega(cfg, om)
            print("omega approximation is empty; nothing to attract to")
            return EXIT_INCONCLUSIVE
    if args.target == "omega" and not args.witness:
        # the ladder's own seeds: its profile measures each tier against
        # the survivors, which is the attraction profile to the omega points
        rep = AttractionReport.from_profile(fam.system_id, cfg.metric, cfg.tol,
                                            om.profile)
    else:
        seeds = None
        if args.witness:
            seeds = lambda s: [band_witness(fam.space, sched.t, s)[1]]
        rep = attraction_diagnostic(fam, sched, target, seeds=seeds,
                                    n_seeds=cfg.n_seeds, metric=cfg.metric,
                                    tol=cfg.tol, rng=cfg.rng(),
                                    branches=cfg.branches, workers=cfg.threads)
    stem = f"attract_{cfg.system}_{cfg.metric}"
    _emit(cfg.out, {f"{stem}.json": rep.to_json(), f"{stem}.csv": rep.profile_csv()},
          [f"attract {cfg.system} {cfg.metric} -> {args.target}: {rep.verdict} "
           f"final={fmt_float(rep.profile[-1][1])}"])
    expected = bool(fam.expectations.get(f"{cfg.metric}_attractor", False))
    return _verdict_exit(rep.verdict, "attracts", expected)


def cmd_verify(args) -> int:
    given = ExperimentConfig._given(args)
    cfg = ExperimentConfig(**given)  # verify has no command defaults
    # the flag, else the config file's key, else every system
    rep = run_suite(args.suite, seed=cfg.seed, workers=cfg.threads,
                    system=given.get("system"))
    _emit(cfg.out, {f"verify_{args.suite}.json": rep.to_json()}, report_lines(rep))
    return EXIT_OK if rep.verdict == "pass" else EXIT_VIOLATION


def cmd_nse(args) -> int:
    cfg = ExperimentConfig.build(args)
    forcing = (ForcingProfile.load(args.forcing) if args.forcing else None)
    fam = make_system("nse", nu=args.nu, kmax=args.kmax, forcing=forcing,
                      ball_convention=args.ball_convention)
    rng = cfg.rng()
    action = args.action

    if action == "info":
        normality = fam.forcing.normality_check([0.25, 0.5, 1.0])
        radius = fam.absorbing_set_radius()
        entry = absorbing_entry_time(radius, fam.nu) if radius > 0.5 else None
        info = artifact_json("nse-info", {
            "nu": fam.nu, "kmax": fam.basis.kmax,
            "retained_modes": int(fam.basis.m),
            "forcing": fam.forcing.to_dict(),
            "l2b_bound": fam.l2b_bound, "absorbing_radius": fam.radius,
            "ball_convention": fam.ball_convention,
            "absorbing_norm_radius": radius,
            "entry_time_from_2R": entry,
            "normality": [[e, d] for e, d in normality],
        })
        _emit(cfg.out, {"nse_info.json": info},
              [f"modes={fam.basis.m} l2b={fmt_float(fam.l2b_bound)} "
               f"R={fmt_float(fam.radius)}"]
              + [f"normality eps={fmt_float(e)} delta={fmt_float(d)}"
                 for e, d in normality])
        return EXIT_OK

    if action == "energy":
        traj, rep = nse_energy_check(fam, rng)
        _emit(cfg.out, {
            "nse_energy.json": artifact_json("nse-energy", {
                "verdict": rep.verdict, "max_residual": rep.max_residual,
                "grid_spacing": rep.grid_spacing,
                "violations": len(rep.violations)}),
            "nse_energy.csv": csv_text(
                ("t", "norm", "vnorm_sq", "force_pair"),
                zip(traj.times, traj.norms, traj.vnorm_sq, traj.force_pair)),
        }, [f"energy balance: {rep.verdict} "
            f"max_residual={fmt_float(rep.max_residual)}"])
        return EXIT_OK if rep.verdict == "holds" else EXIT_VIOLATION

    if action == "absorbing":
        grid, norms, worst, verdict = nse_absorbing_check(
            fam, rng, cfg.n_seeds, cfg.threads)
        _emit(cfg.out, {
            "nse_absorbing.json": artifact_json("nse-absorbing", {
                "seeds": len(norms), "horizon": float(grid[-1]),
                "max_violation": worst, "verdict": verdict}),
            "nse_absorbing.csv": csv_text(("t", "seed", "norm"), (
                (tv, i, nv) for i, row in enumerate(norms) for tv, nv in zip(grid, row))),
        }, [f"absorbing inequality: {verdict} max_violation={fmt_float(worst)}"])
        return EXIT_OK if verdict == "holds" else EXIT_VIOLATION

    return _run_omega(cfg, fam)  # action == "omega"


def cmd_uniform(args) -> int:
    cfg = ExperimentConfig.build(args)
    symfam = SymbolFamily(cfg.system, count=args.count)
    base_fam = symfam.system(0.0)
    if cfg.system == "forced-scalar":
        seeds = [base_fam.scalar(v) for v in np.linspace(-1.5, 1.5, cfg.n_seeds)]
    else:
        seeds = base_fam.sample_states(cfg.n_seeds, cfg.rng())
    rep = union_inclusion_check(symfam, seeds, t0=cfg.t0,
                                schedule=cfg.schedule(), metric=cfg.metric,
                                eps_net=cfg.eps_net, tol=cfg.tol,
                                workers=cfg.threads)
    _emit(cfg.out, {f"uniform_{rep.base}.json": rep.to_json()},
          [f"uniform {rep.base} ({rep.symbols} symbols): "
           f"{rep.verdict} union_in_uniform={fmt_float(rep.union_in_uniform)} "
           f"reverse={fmt_float(rep.uniform_in_union)} equal={rep.equal}"])
    return _verdict_exit(rep.verdict, "included")


def cmd_invariance(args) -> int:
    cfg = ExperimentConfig.build(args)
    fam = make_system(cfg.system)
    rng = cfg.rng()
    rows = invariance_plan(fam, rng)
    _, family, kind, quasi = rows[0]
    if args.kind:
        kind = args.kind
        if cfg.system == "bump" and kind != "semi":
            # quasi needs the threading labels from the canonical plan
            _, family, _, quasi = rows[-1]
    rep = invariance_check(fam, family, kind=kind, window=(0.0, 2.0),
                           tol=cfg.tol, rng=cfg.rng(),
                           workers=cfg.threads, **quasi)
    _emit(cfg.out, {f"invariance_{cfg.system}_{kind}.json": rep.to_json()},
          [f"invariance {cfg.system} {kind}: {rep.verdict}"])
    return _verdict_exit(rep.verdict, INVARIANT_VERDICTS[kind])


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); route to 64
        raise UsageError(message)


# every flag that sets an ExperimentConfig field; each subcommand declares
# only those its command reads, so any other one is a usage error
_FLAGS = {
    "config": dict(help="JSON file with ExperimentConfig fields"),
    "out": dict(help="output directory (default: current)"),
    "seed": dict(type=int, help="RNG seed (default 0)"),
    "threads": dict(type=int, help="worker count (default 1)"),
    "system": dict(choices=SYSTEM_IDS, help="model system id"),
    "tol": dict(type=float, help="convergence tolerance"),
    "metric": dict(choices=("strong", "weak")),
    "t0": dict(type=float, help="evaluation time"),
    "delta": dict(type=float, help="schedule base spacing"),
    "rho": dict(type=float, help="schedule geometric ratio"),
    "n": dict(type=int, help="schedule tier count"),
    "eps-net": dict(type=float, help="net resolution"),
    "n-seeds": dict(type=int, help="ensemble seed count"),
    "branches": dict(choices=("all", "first")),
}
_COMMON = ("config", "out", "seed", "threads")
_LADDER = ("tol", "metric", "t0", "delta", "rho", "n", "eps-net", "n-seeds")


def _add_flags(p: argparse.ArgumentParser, names) -> None:
    for name in names:
        p.add_argument("--" + name, **_FLAGS[name])


def build_parser() -> _Parser:
    top = _Parser(prog="ges", description=__doc__,
                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("omega", help="pullback omega approximation",
                       description="Approximate the pullback omega-limit of "
                                   "a seed ensemble and write JSON + CSV.")
    _add_flags(p, _COMMON + ("system",) + _LADDER + ("branches",))
    p.set_defaults(fn=cmd_omega)

    p = sub.add_parser("attract", help="attraction diagnostic")
    _add_flags(p, _COMMON + ("system",) + _LADDER + ("branches",))
    p.add_argument("--target", choices=("zero", "omega"), default="zero")
    p.add_argument("--witness", action="store_true",
                   help="use depth-dependent band witnesses (heat only)")
    p.set_defaults(fn=cmd_attract)

    p = sub.add_parser("verify", help="run a named invariant suite")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--system", choices=SYSTEM_IDS,
                   help="restrict the suite to one system")
    _add_flags(p, _COMMON)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("nse", help="spectral-flow analysis actions")
    p.add_argument("action", choices=("info", "energy", "absorbing", "omega"))
    p.add_argument("--forcing", help="forcing description JSON file")
    p.add_argument("--nu", type=float, default=1.0, help="viscosity")
    p.add_argument("--kmax", type=int, default=4, help="Galerkin cutoff")
    p.add_argument("--ball-convention", choices=("radius", "norm-squared"),
                   default="radius", dest="ball_convention")
    _add_flags(p, _COMMON + _LADDER + ("branches",))
    p.set_defaults(fn=cmd_nse, system="nse")

    p = sub.add_parser("uniform", help="symbol-family uniform omega runs")
    _add_flags(p, _COMMON + ("system",) + _LADDER)
    p.add_argument("--count", type=int, default=32, help="phase sample count")
    p.set_defaults(fn=cmd_uniform)

    p = sub.add_parser("invariance", help="invariance of the canonical family")
    _add_flags(p, _COMMON + ("system", "tol"))
    p.add_argument("--kind", choices=("semi", "quasi", "full"))
    p.set_defaults(fn=cmd_invariance)
    return top


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ForcingFormatError as exc:
        print(f"forcing error: {exc}", file=sys.stderr)
        return EXIT_FORCING
    except UnsupportedError as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BlowUpError as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return EXIT_BLOWUP


if __name__ == "__main__":
    sys.exit(main())
