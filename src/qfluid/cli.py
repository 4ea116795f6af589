"""Command-line front door: run / sweep / report.

Exit codes: 0 when every criterion passed, 1 when any failed, 2 for usage
or configuration errors and for paths that cannot be read or written. The
QFLUID_OUTPUT_ROOT environment variable prefixes all output directories.
"""

from __future__ import annotations

import argparse
import sys

from .errors import QFluidError
from .experiments import ExperimentConfig, OUTPUT_ROOT_ENV, report, run, sweep

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfluid",
        description="Quantum-hydrodynamics numerical laboratory",
        epilog=f"Set {OUTPUT_ROOT_ENV} to redirect all outputs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment config")
    p_run.add_argument("config", help="path to a JSON experiment config")

    p_sweep = sub.add_parser("sweep", help="run a config across parameter values")
    p_sweep.add_argument("config", help="path to a JSON experiment config")
    p_sweep.add_argument("--param", required=True, help="config key to vary")
    p_sweep.add_argument(
        "--values", required=True,
        help="comma-separated numeric values, e.g. 1e-4,5e-5,2.5e-5",
    )

    p_report = sub.add_parser("report", help="aggregate manifests under a directory")
    p_report.add_argument("directory", help="directory containing run manifests")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS

    try:
        if args.command == "run":
            manifest = run(ExperimentConfig.from_json(args.config))
            for criterion in manifest.criteria:
                status = "PASS" if criterion.passed else "FAIL"
                print(f"{status} {criterion.name}: {criterion.value:.6g} "
                      f"{criterion.comparator} {criterion.threshold:.6g}")
            print(f"scenario {manifest.scenario}: "
                  + ("PASS" if manifest.passed else "FAIL"))
            return EXIT_PASS if manifest.passed else EXIT_FAIL

        if args.command == "sweep":
            try:
                values = [float(v) for v in args.values.split(",") if v]
            except ValueError as exc:
                raise QFluidError(f"bad --values: {exc}") from exc
            result = sweep(ExperimentConfig.from_json(args.config),
                           args.param, values)
            for v, m in zip(result.values, result.metrics):
                print(f"{args.param}={v:.6g}: {m:.6g}")
            print(f"fitted order: {result.fitted_order:.3f}")
            return EXIT_PASS

        if args.command == "report":
            summary = report(args.directory)
            print("\n".join(summary.lines()))
            return EXIT_PASS if summary.ok else EXIT_FAIL
    except (QFluidError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, TypeError, ArithmeticError, MemoryError) as exc:
        # a config value of the wrong type or range that no check caught, or
        # a size the machine cannot hold
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
