"""Command-line front end: tracking campaigns, Fisher sweeps, and CRB runs.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

import argparse
import csv
import json
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .combiners import CRB_POLICIES, SCHEMES, parse_scheme
from .dynamics import ctrv_transition
from .errors import ConfigError, NfTrackError
from .geometry import ArrayConfig, Pose
from .harness import ScenarioConfig, crb_policy, load_config, run_campaign, write_manifest
from .information import (
    bayesian_fim_init,
    bayesian_fim_step,
    bcrb,
    digital_avg_fisher,
    fisher_scaling_bounds,
)


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


def build_parser() -> argparse.ArgumentParser:
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
        try:
            cfg = replace(cfg, combiner=replace(cfg.combiner, n_rf=args.nrf))
        except ValueError as exc:
            raise ConfigError(f"invalid --nrf {args.nrf}: {exc}") from exc
    return cfg


def _cmd_track(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    n_rf = cfg.combiner.n_rf
    schemes = [
        parse_scheme(tok, n_rf, cfg.array.n_b)
        for tok in args.schemes.split(",")
        if tok.strip()
    ]
    result = run_campaign(cfg, schemes, threads=max(1, args.threads))
    result.to_csv(args.out)
    for label, m in result.schemes.items():
        if m.n_diverged:
            print(f"{label}: {m.n_diverged} of {cfg.n_trials} trials diverged", file=sys.stderr)
    return 0


def _sweep_arrays(token: str, arr: ArrayConfig):
    """(value, array) pairs of an nb:/nm:<start>:<stop>:<points> sweep."""
    axis = token[:2]
    try:
        _, start, stop, points = token.split(":")
        if int(points) < 1:
            raise ValueError("a sweep needs at least one point")
        grid = np.floor(np.linspace(float(start), float(stop), int(points))).astype(int)
        return [
            (val, ArrayConfig(
                n_b=val if axis == "nb" else arr.n_b,
                n_m=val if axis == "nm" else arr.n_m,
                carrier_freq=arr.carrier_freq,
            ))
            for val in grid.tolist()
        ]
    except ValueError as exc:
        raise ConfigError(f"invalid sweep {token!r}: {exc}") from exc


def _load_pose_grid(path: str):
    """Poses of a pose-grid file: a JSON list of {x_m, y_m, psi_rad} objects."""
    try:
        with open(path) as fh:
            return [
                Pose(float(entry["x_m"]), float(entry["y_m"]), float(entry["psi_rad"]))
                for entry in json.load(fh)
            ]
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid pose grid {path}: {exc}") from exc


def _fisher_row(cfg: ScenarioConfig, array: ArrayConfig, pose: Pose):
    bar = digital_avg_fisher(pose, array, cfg.p_m_watts, cfg.noise_power_watts)
    try:
        pos_bound, orient_bound = fisher_scaling_bounds(
            pose, array, cfg.p_m_watts, cfg.noise_power_watts
        )
    except NfTrackError:
        pos_bound, orient_bound = float("nan"), float("nan")
    return bar, pos_bound, orient_bound


def _cmd_fisher(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    pose = cfg.initial_state.pose
    sweep = args.sweep
    rows = []
    if sweep[0].startswith("nb:") or sweep[0].startswith("nm:"):
        axis = sweep[0][:2]
        for val, array in _sweep_arrays(sweep[0], cfg.array):
            bar, pb, ob = _fisher_row(cfg, array, pose)
            rows.append([axis, val, pose.x, pose.y, pose.psi, bar.f_x, bar.f_y, bar.f_psi, pb, ob])
    elif sweep[0] == "pose-grid":
        if len(sweep) < 2:
            raise ConfigError("pose-grid sweep needs a file argument")
        for p in _load_pose_grid(sweep[1]):
            bar, pb, ob = _fisher_row(cfg, cfg.array, p)
            rows.append(["pose", 0, p.x, p.y, p.psi, bar.f_x, bar.f_y, bar.f_psi, pb, ob])
    else:
        raise ConfigError(f"unknown sweep specification {sweep!r}")

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["axis", "value", "x_m", "y_m", "psi_rad",
             "fbar_x", "fbar_y", "fbar_psi", "position_bound", "orientation_bound"]
        )
        for row in rows:
            writer.writerow(row)
    write_manifest(args.out, cfg)
    return 0


def _cmd_crb(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    policy = crb_policy(cfg, args.policy)
    state = bayesian_fim_init(cfg.initial_cov)
    true_state = cfg.initial_state
    rows = []
    for k in range(1, cfg.k_steps + 1):
        state = bayesian_fim_step(
            state,
            true_state,
            cfg.array,
            cfg.noise,
            cfg.p_m_watts,
            cfg.noise_power_watts,
            policy,
        )
        bound = bcrb(state)
        rows.append(
            [k, bound[0, 0], bound[1, 1], bound[2, 2], bound[0, 0] + bound[1, 1],
             float(np.trace(bound))]
        )
        true_state = ctrv_transition(true_state, cfg.noise.tau)

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "bcrb_x_m2", "bcrb_y_m2", "bcrb_psi_rad2", "bcrb_pos_trace_m2", "bcrb_trace"])
        for row in rows:
            writer.writerow([row[0]] + [f"{v:.12e}" for v in row[1:]])
    write_manifest(args.out, cfg)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "track":
            return _cmd_track(args)
        if args.command == "fisher":
            return _cmd_fisher(args)
        if args.command == "crb":
            return _cmd_crb(args)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NfTrackError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
