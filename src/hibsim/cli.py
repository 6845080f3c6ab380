"""Command-line front end: four experiments, one output directory each.

Exit codes: 0 success, 1 configuration problem, 2 runtime failure. The
default output directory comes from $HIBSIM_OUT_DIR, falling back to
./results.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import engine, mobility, output
from .config import ConfigError, ScenarioConfig, load_config, validate_band

DEFAULT_DENSITIES = "0.1,0.5,1,2,5,10,20"


def _parse_densities(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"--densities: cannot parse {text!r}") from None
    if not values or not all(0 < v < math.inf for v in values):
        raise ConfigError("--densities: need a comma list of positive finite numbers")
    return values


def _check_counts(args: argparse.Namespace) -> None:
    """Reject counts below one before any scenario is built."""
    for flag in ("drops", "users_per_drop", "threads"):
        value = getattr(args, flag, None)  # not every command has every flag
        if value is not None and value < 1:
            name = "--" + flag.replace("_", "-")
            raise ConfigError(f"{name}: must be at least 1, got {value}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hibsim",
        description=(
            "Monte Carlo system simulator for a stratospheric-platform IMT "
            "network overlaying a rural terrestrial deployment"
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="YAML scenario file (defaults apply if omitted)")
    common.add_argument("--seed", type=int, default=1, help="master seed (default 1)")
    common.add_argument(
        "--out",
        help="output directory (default $HIBSIM_OUT_DIR or ./results)",
    )
    common.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker processes, at most one per CPU (default 1)",
    )

    # mobility runs tracks, not drops, so only the drop commands take --drops
    drops = argparse.ArgumentParser(add_help=False)
    drops.add_argument("--drops", type=int, default=100, help="Monte Carlo drops (default 100)")

    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser(
        "coupling-loss",
        parents=[common, drops],
        help="serving-beam coupling loss by beam ring (platform only)",
    )
    p.add_argument(
        "--users-per-drop", type=int, default=200, help="users per drop (default 200)"
    )
    for name, help_text in (
        ("sinr-sweep", "DL/UL SINR distributions vs user density (platform only)"),
        ("throughput-sweep", "full-buffer throughput vs user density (combined overlay)"),
    ):
        p = sub.add_parser(name, parents=[common, drops], help=help_text)
        p.add_argument(
            "--densities",
            default=DEFAULT_DENSITIES,
            help=f"comma list of mean users per cell (default {DEFAULT_DENSITIES})",
        )
    p = sub.add_parser(
        "mobility",
        parents=[common],
        help="A3 handover campaign between the overlay layers",
    )
    p.add_argument(
        "--a3-offset-db",
        type=float,
        default=None,
        help="override the configured A3 offset",
    )
    return parser


def _band_warnings(cfg: ScenarioConfig, directions: tuple[str, ...]) -> list[str]:
    if not cfg.band_check.enabled:
        return []
    warnings = []
    for direction in directions:
        msg = validate_band(cfg.carrier.frequency_hz, cfg.band_check.region, direction)
        if msg:
            warnings.append(msg)
    return warnings


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_counts(args)
        cfg = load_config(args.config) if args.config else ScenarioConfig()
        out_dir = args.out or os.environ.get("HIBSIM_OUT_DIR") or "results"
        directions = ("DL", "UL") if args.command == "sinr-sweep" else ("DL",)
        for msg in _band_warnings(cfg, directions):
            print(f"warning: {msg}", file=sys.stderr)

        if args.command == "coupling-loss":
            result = engine.run_coupling_loss(
                cfg,
                seed=args.seed,
                n_drops=args.drops,
                users_per_drop=args.users_per_drop,
                threads=args.threads,
            )
            written = output.emit_coupling_loss(result, cfg, out_dir)
        elif args.command == "sinr-sweep":
            result = engine.run_sinr_sweep(
                cfg,
                seed=args.seed,
                n_drops=args.drops,
                densities=_parse_densities(args.densities),
                threads=args.threads,
            )
            written = output.emit_sinr_sweep(result, cfg, out_dir)
        elif args.command == "throughput-sweep":
            result = engine.run_throughput_sweep(
                cfg,
                seed=args.seed,
                n_drops=args.drops,
                densities=_parse_densities(args.densities),
                threads=args.threads,
            )
            written = output.emit_throughput_sweep(result, cfg, out_dir)
        else:
            result = mobility.run_mobility(
                cfg,
                seed=args.seed,
                threads=args.threads,
                a3_offset_db=args.a3_offset_db,
            )
            written = output.emit_mobility(result, cfg, out_dir)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
