"""Command-line interface.

Exit codes: 0 on success, also when the reader of stdout closes it early,
1 on usage errors (unknown command or flag, missing required flag), 2 on
runtime failures (bad config values, missing or malformed files,
unwritable output).  All randomness derives from
--seed, which defaults to DEFAULT_SEED, so identical invocations produce
identical output bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .estimator import estimate_coeffs
from .fields import load_field, random_field, save_field
from .harness import load_config, run_ambiguity_demo, run_clt_check, run_mse_sweep, seeded_rng
from .io import dumps_json
from .sampling import deploy, observe, save_samples

DEFAULT_SEED = 12345


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _save_or_print(c, out: str, name: str) -> None:
    """Write coefficients to ``out/name``, or print them when ``out`` is empty."""
    if out:
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, name)
        save_field(c, path)
        print(f"wrote {path}")
    else:
        print(dumps_json(c.to_json_dict()))


def _sample_field(args):
    """The field from --field and its ordered samples at --n seeded locations."""
    field = load_field(args.field)
    draw = deploy(args.n, seeded_rng(args.seed), seed_label=str(args.seed))
    return field, observe(field, draw)


def _cmd_gen_field(args) -> int:
    _save_or_print(random_field(args.b, seeded_rng(args.seed)), args.out, "field.json")
    return 0


def _cmd_sample(args) -> int:
    _, samples = _sample_field(args)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "samples.csv")
    sidecar = os.path.join(args.out, "samples.json")
    save_samples(samples, csv_path, sidecar)
    print(f"wrote {csv_path} and {sidecar}")
    return 0


def _cmd_estimate(args) -> int:
    field, samples = _sample_field(args)
    b = field.b if args.b is None else args.b
    _save_or_print(estimate_coeffs(samples, b), args.out, "estimate.json")
    return 0


def _load_sweep_config(args):
    overrides = {"trials": args.trials, "output_dir": args.out}
    cfg = dataclasses.replace(
        load_config(args.config), **{k: v for k, v in overrides.items() if v is not None}
    )
    if not cfg.output_dir:
        raise ValueError("no output directory: set output_dir in the config or pass --out")
    return cfg


def _cmd_mse_sweep(args) -> int:
    cfg = _load_sweep_config(args)
    report = run_mse_sweep(cfg)
    for b, slope in report.slopes.items():
        print(f"b={b}: slope {slope:.4f}")
    print(f"wrote sweep.csv and sweep.json under {cfg.output_dir}")
    return 0


def _cmd_clt_check(args) -> int:
    cfg = _load_sweep_config(args)
    reports = run_clt_check(cfg)
    for rep in reports:
        print(
            f"b={rep.b} n={rep.n}: rel err "
            f"coeff {rep.coeff_cov_rel_err:.4f}, pseudo {rep.coeff_pseudo_rel_err:.4f}, "
            f"quantile {rep.quantile_cov_rel_err:.4f}"
        )
    print(f"wrote clt.json under {cfg.output_dir}")
    return 0


def _cmd_ambiguity_demo(args) -> int:
    if args.field:
        field = load_field(args.field)
    else:
        field = random_field(args.b, seeded_rng(args.seed))
    report = run_ambiguity_demo(
        field, args.theta, args.n, args.grid, args.seed, output_dir=args.out
    )
    if args.out:
        print(f"wrote ambiguity.json and curve CSVs under {args.out}")
    else:
        print(dumps_json(report.to_json_dict()))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="orderfield",
        description="Reconstruct periodic bandlimited fields from order-statistic samples.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    p = sub.add_parser("gen-field", help="draw a random bounded field")
    p.add_argument("--b", type=int, required=True, help="bandwidth index")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default="", help="output directory (default: print JSON)")
    p.set_defaults(func=_cmd_gen_field)

    p = sub.add_parser("sample", help="sample a field at random ordered locations")
    p.add_argument("--field", required=True, help="coefficient JSON file")
    p.add_argument("--n", type=int, required=True, help="number of samples")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("estimate", help="sample a field and estimate its coefficients")
    p.add_argument("--field", required=True, help="coefficient JSON file")
    p.add_argument("--n", type=int, required=True, help="number of samples")
    p.add_argument("--b", type=int, default=None, help="estimation bandwidth (default: field's)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default="", help="output directory (default: print JSON)")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("mse-sweep", help="Monte Carlo distortion sweep over (b, n)")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--trials", type=int, default=None, help="override config trial count")
    p.add_argument("--out", default=None, help="override config output directory")
    p.set_defaults(func=_cmd_mse_sweep)

    p = sub.add_parser("clt-check", help="compare empirical and analytic covariances")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--trials", type=int, default=None, help="override config trial count")
    p.add_argument("--out", default=None, help="override config output directory")
    p.set_defaults(func=_cmd_clt_check)

    p = sub.add_parser("ambiguity-demo", help="show a shifted field with the same value law")
    p.add_argument("--field", default="", help="coefficient JSON file")
    p.add_argument("--b", type=int, default=None, help="bandwidth for a random field")
    p.add_argument("--theta", type=float, default=0.25, help="cyclic shift")
    p.add_argument("--n", type=int, default=4096, help="samples per field")
    p.add_argument("--grid", type=int, default=8192, help="level-measure grid size")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default="", help="output directory (default: print JSON)")
    p.set_defaults(func=_cmd_ambiguity_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "ambiguity-demo" and (args.b is None) == (not args.field):
        parser.error("exactly one of --field or --b is required")
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout (`... | head -1`): exit quietly, and point
        # stdout at devnull so the flush at interpreter shutdown fails nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, OSError, KeyError, TypeError, MemoryError) as exc:
        print(f"orderfield: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
