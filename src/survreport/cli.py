"""Command-line front end: fit, simulate, reproduce, sensitivity.

Exit codes: 0 success, 1 input/usage error, 2 fit did not converge
(artifacts are still written).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import estimate, simulate
from .panel import ADAPTIVE, PREDETERMINED, ErrorModel, PanelFormatError, PanelValidationError, read_panel_csv

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NOT_CONVERGED = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the CLI contract reserves 2 for
    # non-convergence, so usage problems map to 1 instead
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_INPUT_ERROR)


def _probability(value: str) -> float:
    x = float(value)
    if not 0.0 < x <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1], got {value}")
    return x


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="survreport",
        description="Proportional hazards models for error-prone self-reported outcomes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the panel-loading arguments that fit and sensitivity share
    panel = argparse.ArgumentParser(add_help=False)
    panel.add_argument("panel_csv")
    panel.add_argument("--baseline-covariates", help="separate subject_id,cov,... CSV")
    panel.add_argument("--time-varying", action="store_true", help="use per-interval covariate paths")
    panel.add_argument("--round", type=float, default=None, metavar="G", help="round visit times to multiples of G")
    panel.add_argument("--schedule", choices=[ADAPTIVE, PREDETERMINED], default=ADAPTIVE)

    p_fit = sub.add_parser("fit", parents=[panel], description="Fit a model to a panel CSV")
    p_fit.add_argument("--phi1", type=_probability, required=True, help="report sensitivity")
    p_fit.add_argument("--phi0", type=_probability, required=True, help="report specificity")
    p_fit.add_argument("--eta", type=_probability, default=1.0, help="baseline negative predictive value")
    p_fit.add_argument("--out", required=True, metavar="PREFIX", help="output path prefix")

    p_sim = sub.add_parser("simulate", description="Run a simulation scenario from a JSON config")
    p_sim.add_argument("scenario_config")
    p_sim.add_argument("--analysis", choices=[simulate.ADJUSTED, simulate.UNADJUSTED, "both"], default="both")
    p_sim.add_argument("--out", required=True, help="summary CSV path")

    p_rep = sub.add_parser("reproduce", description="Reproduce a published benchmark table")
    p_rep.add_argument("table", choices=["table1", "table2"])
    p_rep.add_argument("--replicates", type=int, default=1000)
    p_rep.add_argument("--seed", type=int, default=simulate.DEFAULT_SEED)
    p_rep.add_argument("--out", required=True, metavar="PREFIX", help="writes PREFIX.csv and PREFIX.txt")

    p_sens = sub.add_parser("sensitivity", parents=[panel], description="Fit a grid of error-model assumptions")
    p_sens.add_argument("--grid", required=True, help="e.g. 'phi1=0.5,0.61,0.7;phi0=0.993,0.995,0.997;eta=0.96,0.98'")
    p_sens.add_argument("--out", required=True, help="grid CSV path")
    return parser


def parse_grid_spec(spec: str) -> list[ErrorModel]:
    """Parse 'phi1=a,b;phi0=c;eta=d,e' into the full cross of error models."""
    values = {}
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"malformed grid component {part!r}: expected name=v1,v2,...")
        name, _, rhs = part.partition("=")
        name = name.strip()
        if name not in ("phi1", "phi0", "eta"):
            raise ValueError(f"unknown grid parameter {name!r}")
        try:
            vals = [float(tok) for tok in rhs.split(",") if tok.strip()]
        except ValueError:
            raise ValueError(f"non-numeric value in grid component {part!r}") from None
        if not vals:
            raise ValueError(f"empty value list in grid component {part!r}")
        if name in values:
            raise ValueError(f"grid parameter {name!r} is given more than once")
        values[name] = vals
    if "phi1" not in values or "phi0" not in values:
        raise ValueError("grid spec must set both phi1 and phi0")
    etas = values.get("eta", [1.0])
    return [ErrorModel(p1, p0, eta) for p1 in values["phi1"] for p0 in values["phi0"] for eta in etas]


def _load_panel(args):
    loaded = read_panel_csv(args.panel_csv, baseline_csv=args.baseline_covariates, schedule=args.schedule,
                            rounding=args.round)
    if loaded.n_imputed:
        print(f"note: {loaded.n_imputed} covariate value(s) carried forward", file=sys.stderr)
    if loaded.n_collisions_merged:
        print(f"note: {loaded.n_collisions_merged} visit(s) merged by rounding (later report kept)", file=sys.stderr)
    return loaded.dataset


def _model(args, dataset) -> str:
    if args.time_varying:
        return estimate.MODEL_COV_TIMEVARYING
    return estimate.MODEL_COV_FIXED if dataset.n_covariates else estimate.MODEL_ONESAMPLE


def _write_csv(path, rows):  # the first row's keys are the header
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def cmd_fit(args) -> int:
    dataset = _load_panel(args)
    result = estimate.fit(dataset, ErrorModel(args.phi1, args.phi0, args.eta), _model(args, dataset))

    summary = estimate.fit_to_dict(result)
    with open(f"{args.out}.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(summary, indent=2) + "\n")
    if summary["coefficients"]:
        _write_csv(f"{args.out}_coefficients.csv", summary["coefficients"])
    curve = estimate.survival_curve(result, [0.0] * result.beta.size)
    rows = [{"tau": t, "survival": s, "ci_low": lo, "ci_high": hi} for t, s, lo, hi in curve]
    _write_csv(f"{args.out}_survival.csv", rows)
    if not result.converged:
        print("fit did not converge; artifacts written anyway", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = simulate.scenario_from_json(args.scenario_config)
    arms = [simulate.ADJUSTED, simulate.UNADJUSTED] if args.analysis == "both" else [args.analysis]
    rows = [simulate.summary_record(simulate.run_scenario(config, arm)) for arm in arms]
    _write_csv(args.out, rows)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    rows = simulate.reproduce_tables(args.table, scale=args.replicates, seed=args.seed)
    _write_csv(f"{args.out}.csv", simulate.table_report_records(rows))
    text = simulate.format_table_report(rows)
    with open(f"{args.out}.txt", "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(text)
    return EXIT_OK


def cmd_sensitivity(args) -> int:
    dataset = _load_panel(args)
    rows = []
    for cell in estimate.sensitivity_grid(dataset, _model(args, dataset), parse_grid_spec(args.grid)):
        f = cell.fit
        row = {"phi1": cell.phi1, "phi0": cell.phi0, "eta": cell.eta, "hazard_ratio": "", "ci_low": "", "ci_high": "",
               "converged": f is not None and bool(f.converged), "error": cell.error or ""}
        if f is not None and f.beta.size:
            row.update(hazard_ratio=float(f.hazard_ratio[0]), ci_low=float(f.hr_ci_low[0]),
                       ci_high=float(f.hr_ci_high[0]))
        rows.append(row)
    _write_csv(args.out, rows)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"fit": cmd_fit, "simulate": cmd_simulate, "reproduce": cmd_reproduce, "sensitivity": cmd_sensitivity}
    try:
        return handlers[args.command](args)
    except (PanelFormatError, PanelValidationError, ValueError, OSError, RuntimeError) as exc:
        print(f"survreport: error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
