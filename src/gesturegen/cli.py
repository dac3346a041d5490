"""Command-line entry point.

Subcommands: gen-synthetic, train, sample, eval, ablate. Exit codes:
0 success, 2 configuration error, 3 data, shape, geometry or I/O error, 4 numerical failure.
"""
from __future__ import annotations

import argparse
import sys

from .config import PRESETS, load_config
from .errors import ConfigError, DataError, GeometryError, NumericalError, ShapeError
from .harness import METRIC_COLUMNS, run_ablation, run_eval, run_sample, run_train
from .synthetic import SyntheticSpec, gen_synthetic_dataset


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gesturegen",
                                     description="Gesture diffusion experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in [("gen-synthetic", "write a seeded synthetic corpus"),
                       ("train", "train a model on a corpus"),
                       ("sample", "sample gestures from a checkpoint"),
                       ("eval", "score a generated corpus against a reference"),
                       ("ablate", "run the full ablation matrix")]:
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", metavar="PATH", default=None,
                       help="key=value config file layered over the preset")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", metavar="DIR", required=True, help="output directory")
        p.add_argument("--preset", choices=sorted(PRESETS), default="toy")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = {"seed": args.seed} if args.seed is not None else None
        cfg = load_config(args.config, preset=args.preset, overrides=overrides)
        if args.command == "gen-synthetic":
            names = gen_synthetic_dataset(SyntheticSpec.from_config(cfg), args.out)
            print(f"wrote {len(names)} clips to {args.out}")
        elif args.command == "train":
            _require(cfg, "data.dir")
            result = run_train(cfg, cfg["data.dir"], args.out)
            final = result["loss_rows"][-1]
            print(f"trained {len(result['loss_rows'])} steps; "
                  f"final l_total={final['l_total']:.6f}; checkpoint {result['checkpoint']}")
        elif args.command == "sample":
            _require(cfg, "data.dir")
            _require(cfg, "data.checkpoint")
            written = run_sample(cfg["data.checkpoint"], cfg["data.dir"], n=cfg["sample.n"],
                                 seed=cfg["seed"], out_dir=args.out,
                                 max_conditions=cfg["sample.max_conditions"])
            print(f"wrote {len(written)} samples to {args.out}")
        elif args.command == "eval":
            _require(cfg, "data.dir")
            _require(cfg, "data.gen_dir")
            report = run_eval(cfg["data.gen_dir"], cfg["data.dir"], cfg, out_dir=args.out)
            for key in METRIC_COLUMNS:
                print(f"{key}={report[key]}")
        elif args.command == "ablate":
            _require(cfg, "data.dir")
            rows = run_ablation(cfg, cfg["data.dir"], args.out)
            failures = [r["name"] for r in rows if "error" in r]
            print(f"ran {len(rows)} variants; failures: {failures or 'none'}")
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (DataError, ShapeError, GeometryError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return 3
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 4
    return 0


def _require(cfg, key):
    if not cfg[key]:
        raise ConfigError(f"{key} must be set (via --config or a config file)")


if __name__ == "__main__":
    sys.exit(main())
