"""Command-line entry points: pretrain-fe, train, eval, accept."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from ..env import PlacementError
from .config import ConfigError, apply_overrides, load_config


def _parse_overrides(pairs: list[str]) -> dict[str, str]:
    out = {}
    for item in pairs:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        out[key.strip()] = value.strip()
    return out


def _load_cfg(args):
    cfg = load_config(args.config)
    if getattr(args, "set", None):
        apply_overrides(cfg, _parse_overrides(args.set))
    return cfg.validate()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shieldrl",
        description="Safety-regularized policy training with a conformal action shield.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain-fe", help="fit the dynamics basis from random rollouts")
    p.add_argument("--config", required=True, help="experiment config file")
    p.add_argument("--out", required=True, help="path for the basis artifact (JSON)")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a config key (repeatable)")

    p = sub.add_parser("train", help="run the training loop")
    p.add_argument("--config", required=True)
    p.add_argument("--basis", default=None, help="pretrained basis artifact")
    p.add_argument("--out", required=True,
                   help="checkpoint path, rewritten every epoch: JSON (version 3) with "
                        "config, counters and RNG states readable and each float64 array "
                        "as base64 little-endian <f8 bytes plus its shape; version-1 and "
                        "version-2 files no longer load")
    p.add_argument("--metrics", default=None, help="JSONL metrics path")
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")

    p = sub.add_parser("eval", help="evaluate a checkpoint on fresh parameter draws")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--episodes", type=int, default=None)
    p.add_argument("--ood", action="store_true",
                   help="draw hidden parameters outside the training range, extra obstacles")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--metrics", default=None)
    p.add_argument("--no-shield", action="store_true", help="force the shield off")

    from .acceptance import SUITES  # late import keeps --help fast

    p = sub.add_parser("accept", help="run acceptance suites, one JSON line per criterion")
    p.add_argument("--suite", default="all", choices=["all", *SUITES],
                   help="which suite to run")
    p.add_argument("--workdir", default=None,
                   help="directory for cached artifacts (temp dir when omitted)")
    p.add_argument("--out", default=None, help="also write the JSON lines to this file")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "pretrain-fe":
            from .run import pretrain_fe

            result = pretrain_fe(_load_cfg(args), out_path=args.out)
            print(json.dumps({k: v for k, v in result.header.items() if k != "phi_draws"}))
            return 0
        if args.command == "train":
            from ..function_encoder import load_basis
            from .run import train

            basis = load_basis(args.basis) if args.basis else None
            result = train(
                _load_cfg(args),
                basis=basis,
                out_path=args.out,
                metrics_path=args.metrics,
                resume=args.resume,
            )
            print(json.dumps({"epochs_run": result.epochs_run,
                              "steps_done": result.checkpoint["steps_done"]}))
            return 0
        if args.command == "eval":
            from .run import evaluate

            summary = evaluate(
                args.ckpt,
                episodes=args.episodes,
                ood=args.ood,
                seed=args.seed,
                metrics_path=args.metrics,
                shield=False if args.no_shield else None,
            )
            summary.pop("records", None)
            print(json.dumps(summary, sort_keys=True))
            return 0
        if args.command == "accept":
            from .acceptance import run_suites

            results = run_suites(args.suite, workdir=args.workdir)
            lines = [json.dumps(asdict(r), sort_keys=True) for r in results]
            for line in lines:
                print(line)
            if args.out:
                with open(args.out, "w") as fh:
                    fh.write("\n".join(lines) + "\n")
            return 0 if all(r.passed for r in results) else 1
    except (ConfigError, ValueError, OSError, PlacementError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
