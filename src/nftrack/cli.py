"""Command-line front end: tracking campaigns, Fisher sweeps, and CRB runs.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from functools import cache

import numpy as np

from . import __version__
from .combiners import CRB_POLICIES, SCHEMES, combiner_fd, parse_scheme
from .errors import ConfigError, NfTrackError
from .estimation import Belief
from .geometry import ArrayConfig, Pose, channel_derivatives
from .harness import (RfChains, ScenarioConfig, crb_policy, load_config, manifest_path, parse_field,
                      run_campaign, write_table)
from .information import avg_fisher, bayesian_fim_step, fisher_scaling_bounds


# Scenario overrides: flag -> (type, ScenarioConfig field), applied in this order.
_OVERRIDES = {
    "--seed": (int, "seed"),
    "--trials": (int, "n_trials"),
    "--steps": (int, "k_steps"),
    "--pm-dbm": (float, "p_m_dbm"),
}


def _add_common(parser, *overrides):
    """--config, --out and the named scenario overrides; a subcommand gets
    only the flags it reads."""
    parser.add_argument("--config", required=True, help="scenario config (JSON)")
    parser.add_argument("--out", required=True, help="output CSV path")
    for flag in overrides:
        kind, name = _OVERRIDES[flag]
        parser.add_argument(flag, type=kind, default=None, dest=name)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built at its first call and shared after: parsing
    leaves it unchanged, and building it costs more than a small command."""
    parser = argparse.ArgumentParser(
        prog="nftrack",
        description="Near-field pose tracking simulator with hybrid-array analog combining.",
    )
    parser.add_argument("--version", action="version", version=f"nftrack {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    track = sub.add_parser("track", help="run a Monte Carlo tracking campaign")
    _add_common(track, *_OVERRIDES)
    track.add_argument("--nrf", type=int, default=None)
    track.add_argument("--threads", type=int, default=1)
    track.add_argument(
        "--schemes",
        default=",".join(CRB_POLICIES),
        help=f"comma-separated list of {', '.join(SCHEMES)} (default: the CRB policies)",
    )

    fisher = sub.add_parser("fisher", help="average-Fisher-information sweeps")
    _add_common(fisher, "--seed", "--pm-dbm")
    fisher.add_argument(
        "--sweep",
        required=True,
        help="nb:<start>:<stop>:<points> | nm:<start>:<stop>:<points> | pose-grid <file>",
        nargs="+",
    )

    crb = sub.add_parser("crb", help="Bayesian CRB trace along the nominal trajectory")
    _add_common(crb, "--seed", "--steps", "--pm-dbm")
    crb.add_argument("--nrf", type=int, default=None)
    crb.add_argument("--policy", default=CRB_POLICIES[0], choices=CRB_POLICIES)
    return parser


def _apply_overrides(cfg: ScenarioConfig, args) -> ScenarioConfig:
    for _, name in _OVERRIDES.values():
        value = getattr(args, name, None)
        if value is not None:
            cfg = replace(cfg, **{name: value})
    if getattr(args, "nrf", None) is not None:
        cfg = replace(cfg, combiner=RfChains(args.nrf))
    return cfg


def _cmd_track(cfg: ScenarioConfig, args) -> int:
    n_rf = cfg.combiner.n_rf
    schemes = [
        parse_scheme(tok, n_rf, cfg.array.n_b)
        for tok in args.schemes.split(",")
        if tok.strip()
    ]
    result = run_campaign(cfg, schemes, threads=args.threads)
    result.to_csv(args.out)
    for label, m in result.schemes.items():
        if m.n_diverged:
            print(f"{label}: {m.n_diverged} of {cfg.n_trials} trials diverged", file=sys.stderr)
    return 0


def _sweep_points(token: str, arr: ArrayConfig, pose: Pose):
    """(axis, value, array, pose) points of an nb:/nm:<start>:<stop>:<points> sweep."""
    axis = token[:2]
    try:
        _, start, stop, points = token.split(":")
        bounds = [float(start), float(stop)]
        if not np.isfinite(bounds).all():
            raise ValueError("start and stop must be finite")
        if int(points) < 1:
            raise ValueError("a sweep needs at least one point")
        # Python ints: a bound past int64 must fail as too many antennas, not wrap.
        grid = [math.floor(v) for v in np.linspace(*bounds, int(points))]
        field = {"nb": "n_b", "nm": "n_m"}[axis]
        return [(axis, val, replace(arr, **{field: val}), pose) for val in grid]
    except ValueError as exc:
        raise ConfigError(f"invalid sweep {token!r}: {exc}") from exc


def _load_pose_grid(path: str):
    """Poses of a pose-grid file: a JSON list of objects with exactly the keys
    x_m, y_m and psi_rad, whose values are JSON numbers."""
    keys = ("x_m", "y_m", "psi_rad")
    try:
        with open(path) as fh:
            entries = json.load(fh)
        poses = []
        for i, entry in enumerate(entries):
            unknown = ", ".join(k for k in dict(entry) if k not in keys)
            if unknown:
                raise ConfigError(
                    f"invalid pose grid {path}: entry {i} has unknown keys: {unknown}")
            poses.append(Pose(*(parse_field(f"{path} entry {i} {key}", float, entry[key])
                                for key in keys)))
        return poses
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid pose grid {path}: {exc}") from exc


def _fisher_row(cfg: ScenarioConfig, axis: str, value: int, array: ArrayConfig, pose: Pose):
    """The CSV row of a sweep point: the point, the average Fisher information
    of the fully digital receiver (identity combiner) there, and the bounds."""
    bar = avg_fisher(channel_derivatives(pose, array), combiner_fd(array),
                     cfg.p_m_watts, cfg.noise_power_watts, array.n_m)
    try:
        bounds = fisher_scaling_bounds(pose, array, cfg.p_m_watts, cfg.noise_power_watts)
    except NfTrackError:
        bounds = (float("nan"), float("nan"))
    return [axis, value, pose.x, pose.y, pose.psi, bar.f_x, bar.f_y, bar.f_psi, *bounds]


def _cmd_fisher(cfg: ScenarioConfig, args) -> int:
    kind, *rest = args.sweep
    if kind[:3] in ("nb:", "nm:") and not rest:
        points = _sweep_points(kind, cfg.array, cfg.initial_state.pose)
    elif kind == "pose-grid" and len(rest) == 1:
        points = [("pose", 0, cfg.array, p) for p in _load_pose_grid(rest[0])]
    else:
        raise ConfigError(f"invalid sweep {' '.join(args.sweep)!r}: expected one "
                          "nb:/nm:<start>:<stop>:<points> token or pose-grid <file>")
    write_table(
        args.out, cfg,
        ["axis", "value", "x_m", "y_m", "psi_rad",
         "fbar_x", "fbar_y", "fbar_psi", "position_bound", "orientation_bound"],
        [_fisher_row(cfg, *point) for point in points],
    )
    return 0


def _cmd_crb(cfg: ScenarioConfig, args) -> int:
    policy = crb_policy(cfg, args.policy)
    bound = Belief(cfg.initial_state, cfg.initial_cov)
    rows = []
    for k in range(1, cfg.k_steps + 1):
        bound = bayesian_fim_step(bound, cfg.array, cfg.noise, cfg.p_m_watts,
                                  cfg.noise_power_watts, policy)
        b = bound.cov
        cells = (b[0, 0], b[1, 1], b[2, 2], b[0, 0] + b[1, 1], np.trace(b))
        rows.append([k, *(f"{v:.12e}" for v in cells)])
    write_table(args.out, cfg,
                ["k", "bcrb_x_m2", "bcrb_y_m2", "bcrb_psi_rad2", "bcrb_pos_trace_m2", "bcrb_trace"],
                rows)
    return 0


def _check_out(out: str) -> None:
    """Reject an --out, or its manifest sidecar, that cannot be written,
    before any work runs."""
    for path in (out, manifest_path(out)):
        try:
            existed = os.path.exists(path)
            open(path, "a").close()
            if not existed:
                os.remove(path)
        except OSError as exc:
            raise ConfigError(f"cannot write --out {path}: {exc.strerror}") from exc


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _check_out(args.out)
        cfg = _apply_overrides(load_config(args.config), args)
        run = {"track": _cmd_track, "fisher": _cmd_fisher, "crb": _cmd_crb}[args.command]
        return run(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NfTrackError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
