"""Command-line front end.

Subcommands: ``simulate`` runs a Monte Carlo experiment from a JSON
config, ``design`` builds second-stage inclusion probabilities from CSV
inputs, ``estimate`` evaluates the sequential estimators on a realized
sample, and ``test`` runs the coefficient-homogeneity diagnostic.
"""

import argparse
import json
import sys

import numpy as np

from . import homogeneity as homog
from .design import DESIGN_KINDS, build_design, design_to_csv
from .errors import ConfigError, InvalidParams, SeqdiError, SingularVariance, stage
from .harness import ESTIMATORS, McConfig, check_choices, emit_results, run_mc, stratum_inputs
from .pilot import fit_pilot
from .population import load_population_csv, load_sample_csv, write_csv


def _config_from_json(path, seed_flag, full_scale):
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read config: {err}") from err
    overrides = {} if seed_flag is None else {"seed": seed_flag}
    if full_scale:
        overrides["replications"] = 100_000
    return McConfig.from_json(raw, **overrides)


def _print_summary(summary):
    print(f"Y = {summary.y_true:.6g}   R = {summary.replications}   seed = {summary.seed}")
    header = f"{'Estimator':<14}{'Design':<10}{'RB (%)':>10}{'RRMSE (%)':>12}{'V/Vmc':>9}{'Coverage':>10}"
    print(header)
    print("-" * len(header))
    for arm in summary.arms:
        vr = "" if arm.var_ratio is None else f"{arm.var_ratio:.3f}"
        cov = "" if arm.coverage is None else f"{arm.coverage:.3f}"
        print(f"{arm.estimator:<14}{arm.design:<10}{arm.rb:>10.3f}{arm.rrmse:>12.3f}{vr:>9}{cov:>10}")
    for ts in summary.tests:
        print(
            f"test[{ts.design}]: reject rate {ts.reject_rate:.4f}, "
            f"mean p {ts.mean_p:.5f}, median p {ts.median_p:.6f} (alpha={ts.alpha})"
        )


def cmd_simulate(args):
    config = _config_from_json(args.config, args.seed, args.full_scale)
    summary = run_mc(config, threads=args.threads, progress=True)
    paths = emit_results(summary, args.out)
    _print_summary(summary)
    print("wrote:", ", ".join(paths))
    return 0


def cmd_design(args):
    data = load_population_csv(args.pop)
    pop = data.population
    if args.pilot is not None:
        pilot_data = load_population_csv(args.pilot)
        pilot_x, pilot_y = pilot_data.population.x, pilot_data.population.y
        if pilot_x.shape[1] != pop.x.shape[1]:
            raise InvalidParams(f"covariate count differs: {pilot_x.shape[1] - 1} in pilot "
                                f"{args.pilot}, {pop.x.shape[1] - 1} in population {args.pop}")
        frame_idx = np.arange(pop.size)
    else:
        partition = data.require_partition()
        s_np, frame_idx = partition.certainty_idx, partition.complement_idx
        pilot_x, pilot_y = pop.rows(s_np), pop.y[s_np]

    ids = list(data.ids)
    frame_ids = [ids[i] for i in frame_idx]
    with stage(f"pilot fit on {args.pilot or args.pop}"):
        pilot = fit_pilot(pilot_x, pilot_y) if args.kind == "optimal" else None
    dsgn = build_design(args.kind, pop.rows(frame_idx), args.np_size, pilot, frame_idx)
    design_to_csv(dsgn, args.out, frame_ids)
    print(f"wrote {args.out}: {len(frame_ids)} rows, total pi = {float(np.sum(dsgn.pi)):.6f}")
    return 0


# estimate's names; "{}" takes the --weights value to give the ESTIMATORS tag
_ESTIMATE_TAGS = {"di": "DI", "ht": "HT_seq", "sep": "sepDI_{}", "com": "comDI_{}"}


def _sample_inputs(args, need_pilot, need_test):
    """The stratum inputs of --pop, with the arm fields y_s, x_s and pi_s of --sample."""
    data = load_population_csv(args.pop)
    pop, partition = data.population, data.require_partition()
    sample_ids, pi_s, y_override = load_sample_csv(args.sample)
    missing = [sid for sid in sample_ids if sid not in data.ids or partition.delta[data.ids[sid]]]
    if missing:
        raise SeqdiError(
            f"sample ids not in the complement stratum: {', '.join(missing[:5])}"
        )
    rows = np.asarray([data.ids[sid] for sid in sample_ids], dtype=int)
    with stage(f"{'pilot' if need_pilot else 'certainty-stratum FGLS'} fit on {args.pop}"):
        inputs = stratum_inputs(pop, partition, need_pilot, need_test)
    inputs.y_s = y_override if y_override is not None else pop.y[rows]
    inputs.x_s, inputs.pi_s = pop.rows(rows), pi_s
    return inputs


def cmd_estimate(args):
    wanted = [e.strip() for e in args.estimators.split(",") if e.strip()]
    check_choices(wanted, _ESTIMATE_TAGS, "estimator", "estimators")
    tags = [_ESTIMATE_TAGS[name].format(args.weights) for name in wanted]
    need_pilot = any("pilot" in ESTIMATORS[tag].needs for tag in tags)
    inputs = _sample_inputs(args, need_pilot, need_test=False)

    out_rows = []
    for tag in tags:
        with stage(f"{tag} on {args.sample}"):
            record = ESTIMATORS[tag].compute(inputs, {})
        out_rows.append(record)
        ci = "" if record.variance is None else f"  ci=[{record.ci_low:.6g}, {record.ci_high:.6g}]"
        var = "" if record.variance is None else f"  variance={record.variance:.6g}"
        print(f"{record.tag}: point={record.point:.6g}{var}{ci}")

    if args.out:
        write_csv(args.out, ["tag", "point", "variance", "ci_low", "ci_high"],
                  (record.to_csv_row() for record in out_rows))
        print(f"wrote {args.out}")
    return 0


def cmd_test(args):
    if not 0.0 < args.alpha < 1.0:
        raise ConfigError("alpha must lie strictly between 0 and 1")
    inputs = _sample_inputs(args, need_pilot=False, need_test=True)
    with stage(f"sample FGLS fit on {args.sample}"):
        p_fit = homog.fgls_p(inputs.x_s, inputs.y_s, inputs.pi_s)
    result = homog.homogeneity_test(inputs.np_fit, p_fit, args.alpha)
    decision = "reject homogeneity" if result.reject else "do not reject homogeneity"
    print(
        f"F = {result.statistic:.6g}, df = {result.df}, p = {result.p_value:.6g} "
        f"-> {decision} at alpha = {args.alpha}"
    )
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="seqdi",
        description="Sequential design-based data integration for finite-population totals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte Carlo experiment from a JSON config")
    sim.add_argument("--config", required=True, help="path to the JSON experiment config")
    sim.add_argument("--out", required=True, help="output directory for result files")
    sim.add_argument("--seed", type=int, default=None,
                     help=f"override the config seed (default {McConfig.seed})")
    sim.add_argument("--threads", type=int, default=1, help="worker processes (default 1)")
    sim.add_argument("--full-scale", action="store_true",
                     help="run 100000 replications regardless of the config value")
    sim.set_defaults(func=cmd_simulate)

    dsg = sub.add_parser("design", help="build second-stage inclusion probabilities")
    dsg.add_argument("--pop", required=True, help="population CSV (id, x1..., y[, delta])")
    dsg.add_argument("--pilot", default=None,
                     help="separate pilot CSV; without it the delta column of --pop splits the strata")
    dsg.add_argument("--np", dest="np_size", type=int, required=True,
                     help="expected Poisson sample size")
    dsg.add_argument("--kind", choices=DESIGN_KINDS, default="optimal")
    dsg.add_argument("--out", required=True, help="output CSV (id, pi, kind)")
    dsg.set_defaults(func=cmd_design)

    estp = sub.add_parser("estimate", help="one-shot estimation on a realized sample")
    estp.add_argument("--pop", required=True, help="population CSV with a delta column")
    estp.add_argument("--sample", required=True, help="sample CSV with id, pi and optional y")
    estp.add_argument("--estimators", default="di,ht,sep,com",
                      help="comma list from di, ht, sep, com")
    estp.add_argument("--weights", choices=("b", "sigma"), default="b",
                      help="regression weights: inverse-probability (b) or variance scaled (sigma)")
    estp.add_argument("--out", default=None, help="optional output CSV")
    estp.set_defaults(func=cmd_estimate)

    tst = sub.add_parser("test", help="coefficient homogeneity test")
    tst.add_argument("--pop", required=True, help="population CSV with a delta column")
    tst.add_argument("--sample", required=True, help="sample CSV with id, pi and optional y")
    tst.add_argument("--alpha", type=float, default=0.05)
    tst.set_defaults(func=cmd_test)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except SingularVariance as err:
        print(f"error: singular variance matrix ({err})", file=sys.stderr)
        return 1
    except (SeqdiError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
