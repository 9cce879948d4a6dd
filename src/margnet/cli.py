"""Command-line interface.

Subcommands: synth (private synthesis), eval (utility metrics), gen-gauss
(equicorrelated benchmark tables), convert ((epsilon,delta) <-> rho), check
(fitting-error bound diagnostics on a finished run).

Exit codes: 0 success, 1 I/O failure, 2 bad configuration, 3 infeasible budget.
Every run's effective configuration, including the resolved seed, is written
next to its outputs; outputs are written to a temp file and renamed so a
failure never leaves a partial file behind.
"""

from __future__ import annotations

import argparse
import json
import os
import secrets
import sys

from . import bounds as bounds_mod
from .domain import (
    Domain,
    auto_numeric_domain,
    decode,
    encode,
    gen_gaussian_dataset,
    load_csv,
    write_csv,
)
from .errors import CheckpointError, InsufficientBudget, MargNetError, NotPositiveDefinite
from .evaluation import evaluate
from .generator import load_checkpoint, save_checkpoint
from .marginals import compute_marginal
from .privacy import dp_to_zcdp_rho, zcdp_to_dp_epsilon
from .synthesis import SynthConfig, run_margnet, trace_from_json_dict

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3


def _atomic_write_text(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        f.write(text)
    os.replace(tmp, path)


def _atomic_write_csv(path: str, table) -> None:
    tmp = f"{path}.tmp"
    write_csv(tmp, table)
    os.replace(tmp, path)


def _resolve_seed(seed) -> int:
    return secrets.randbits(32) if seed is None else int(seed)


def _default_iters(epsilon: float) -> int:
    # fewer training iterations under large budgets: more rounds are selected,
    # so the effective amount of training grows anyway
    return 200 if epsilon <= 5.0 else 100


def cmd_synth(args) -> int:
    try:
        domain = Domain.load(args.domain)
        ds = encode(load_csv(args.data, domain), domain)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except MargNetError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, KeyError) as e:
        print(f"error: malformed domain file: {e}", file=sys.stderr)
        return EXIT_CONFIG
    if not (args.epsilon > 0 and 0 < args.delta < 1):
        print("error: need epsilon > 0 and delta in (0, 1)", file=sys.stderr)
        return EXIT_CONFIG

    fixed_rounds = None
    if args.mode != "adaptive":
        if not args.mode.startswith("fixed:"):
            print(f"error: --mode must be 'adaptive' or 'fixed:K', got {args.mode!r}", file=sys.stderr)
            return EXIT_CONFIG
        try:
            fixed_rounds = int(args.mode.split(":", 1)[1])
        except ValueError:
            print(f"error: bad round count in --mode {args.mode!r}", file=sys.stderr)
            return EXIT_CONFIG
        if fixed_rounds < 1:
            print("error: fixed:K needs K >= 1", file=sys.stderr)
            return EXIT_CONFIG

    seed = _resolve_seed(args.seed)
    rho = dp_to_zcdp_rho(args.epsilon, args.delta)
    config = SynthConfig(
        rho_total=rho,
        c=args.c,
        train_iters=args.iters if args.iters is not None else _default_iters(args.epsilon),
        lr=args.lr,
        batch_size=args.batch,
        hidden=tuple(args.hidden),
        latent_dim=args.latent,
        fixed_rounds=fixed_rounds,
        seed=seed,
    )

    try:
        result = run_margnet(ds, domain, config)
    except InsufficientBudget as e:
        print(f"error: infeasible budget: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG

    table = decode(result.synth, domain, result.decode_seed)
    trace_path = args.trace or f"{args.out}.trace.json"
    ckpt_path = args.checkpoint or f"{args.out}.ckpt"
    trace_dict = result.trace.to_json_dict()
    trace_dict["epsilon"] = args.epsilon
    trace_dict["delta"] = args.delta
    try:
        _atomic_write_csv(args.out, table)
        _atomic_write_text(trace_path, json.dumps(trace_dict, indent=2) + "\n")
        tmp = f"{ckpt_path}.tmp"
        save_checkpoint(tmp, result.model, result.prev_model)
        os.replace(tmp, ckpt_path)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO

    acct = result.accountant
    print(f"epsilon={args.epsilon} delta={args.delta} -> rho={rho:.6g}")
    print(f"rounds={len(result.trace.rounds)} rho_used={acct.rho_used:.6g} "
          f"rho_budget={acct.rho_budget:.6g}")
    print(f"rows={result.synth.n_records} seed={seed} "
          f"wall_clock={result.wall_clock_seconds:.2f}s")
    print(f"wrote {args.out}, {trace_path}, {ckpt_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    try:
        domain = Domain.load(args.domain)
        real = encode(load_csv(args.real, domain), domain)
        synth = encode(load_csv(args.synth, domain), domain)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except MargNetError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, KeyError) as e:
        print(f"error: malformed domain file: {e}", file=sys.stderr)
        return EXIT_CONFIG
    seed = _resolve_seed(args.seed)
    try:
        report = evaluate(real, synth, n_queries=args.queries, seed=seed,
                          config={"real": args.real, "synth": args.synth, "domain": args.domain})
    except (MargNetError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    out = args.out or f"{args.synth}.eval.json"
    try:
        _atomic_write_text(out, report.to_json() + "\n")
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    print(f"fidelity_error={report.fidelity_error:.6f} query_error={report.query_error:.6f} "
          f"(n_queries={report.n_queries}, seed={seed})")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_gen_gauss(args) -> int:
    seed = _resolve_seed(args.seed)
    try:
        table = gen_gaussian_dataset(args.dims, args.rows, args.corr, seed)
        domain = auto_numeric_domain(table, bins=args.bins)
    except (NotPositiveDefinite, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    domain_path = args.out[:-4] + ".domain.json" if args.out.endswith(".csv") else f"{args.out}.domain.json"
    try:
        _atomic_write_csv(args.out, table)
        _atomic_write_text(domain_path, json.dumps(domain.to_json_dict(), indent=2) + "\n")
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {args.out} ({args.rows} rows x {args.dims} cols, corr={args.corr}, seed={seed})")
    print(f"wrote {domain_path}")
    return EXIT_OK


def cmd_convert(args) -> int:
    has_eps = args.epsilon is not None
    has_rho = args.rho is not None
    if has_eps == has_rho:
        print("error: give exactly one of --epsilon or --rho", file=sys.stderr)
        return EXIT_CONFIG
    if not 0 < args.delta < 1:
        print("error: delta must be in (0, 1)", file=sys.stderr)
        return EXIT_CONFIG
    if has_eps:
        if args.epsilon <= 0:
            print("error: epsilon must be positive", file=sys.stderr)
            return EXIT_CONFIG
        rho = dp_to_zcdp_rho(args.epsilon, args.delta)
        print(f"rho={rho:.6f}")
    else:
        if args.rho <= 0:
            print("error: rho must be positive", file=sys.stderr)
            return EXIT_CONFIG
        eps = zcdp_to_dp_epsilon(args.rho, args.delta)
        print(f"epsilon={eps:.6f}")
    return EXIT_OK


def cmd_check(args) -> int:
    try:
        domain = Domain.load(args.domain)
        ds = encode(load_csv(args.data, domain), domain)
        with open(args.trace, "r", encoding="utf-8") as f:
            trace_obj = json.load(f)
        model, prev_model = load_checkpoint(args.checkpoint)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except (CheckpointError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    except MargNetError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, KeyError) as e:
        print(f"error: malformed domain file: {e}", file=sys.stderr)
        return EXIT_CONFIG
    if model.cards != domain.cards:
        print(f"error: checkpoint cards {model.cards} do not match the domain's cards "
              f"{domain.cards}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        trace = trace_from_json_dict(trace_obj, domain.cards)
    except (KeyError, TypeError, ValueError, MargNetError) as e:
        print(f"error: malformed trace: {e}", file=sys.stderr)
        return EXIT_CONFIG
    if prev_model is None:
        print("error: checkpoint lacks the pre-final-round model state", file=sys.stderr)
        return EXIT_CONFIG
    if not trace.rounds:
        print("error: trace records no selection rounds", file=sys.stderr)
        return EXIT_CONFIG

    scale = trace.n_estimate
    # the selected marginals, in the order they were first measured
    exact = {s.attrs: compute_marginal(ds, s)
             for s in dict.fromkeys(m.spec for m in trace.measurements)}
    try:
        lower = bounds_mod.selected_lower_bound(list(exact.values()), model.batch_size)
        upper = bounds_mod.selected_upper_bound(trace.measurements, model, scale,
                                                args.delta, exact)
        unsel = bounds_mod.unselected_bound(trace, model, prev_model, ds, scale, args.delta)
    except MargNetError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    observed_selected = upper.total_observed

    report = {
        "selected_lower": {
            "bound": lower,
            "observed": observed_selected,
            "gap": observed_selected - lower,
            "batch_size": model.batch_size,
        },
        "selected_upper": upper.to_json_dict(),
        "unselected": unsel.to_json_dict(),
    }
    out = args.out or f"{args.trace}.bounds.json"
    try:
        _atomic_write_text(out, json.dumps(report, indent=2) + "\n")
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO
    print(f"selected lower bound: observed={observed_selected:.6g} >= bound={lower:.6g} "
          f"(gap={observed_selected - lower:.6g})")
    print(f"selected upper bound: observed={upper.total_observed:.6g} "
          f"bound={upper.total_bound:.6g} holds={upper.holds}")
    print(f"unselected bound:     observed={unsel.total_observed:.6g} "
          f"bound={unsel.total_bound:.6g} holds={unsel.holds}")
    print(f"wrote {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="margnet",
                                     description="Differentially private tabular data synthesis.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="synthesize a private table")
    p.add_argument("--data", required=True, help="input CSV")
    p.add_argument("--domain", required=True, help="domain JSON")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, default=1e-5, help="default 1e-5")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--mode", default="adaptive", help="'adaptive' or 'fixed:K'")
    p.add_argument("--iters", type=int, default=None,
                   help="training iterations per round (default: 200 if eps<=5 else 100)")
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch", type=int, default=256)
    p.add_argument("--hidden", type=int, nargs="+", default=[256, 256])
    p.add_argument("--latent", type=int, default=64)
    p.add_argument("--c", type=float, default=None, help="selection granularity (default 16*d)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trace", default=None, help="trace JSON path (default OUT.trace.json)")
    p.add_argument("--checkpoint", default=None, help="model checkpoint path (default OUT.ckpt)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval", help="fidelity/query error of a synthetic table")
    p.add_argument("--real", required=True)
    p.add_argument("--synth", required=True)
    p.add_argument("--domain", required=True)
    p.add_argument("--queries", type=int, default=300)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="report path (default SYNTH.eval.json)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gen-gauss", help="generate an equicorrelated Gaussian table")
    p.add_argument("--dims", type=int, required=True)
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--corr", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_gen_gauss)

    p = sub.add_parser("convert", help="convert between (epsilon, delta)-DP and zCDP rho")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--delta", type=float, default=1e-5, help="default 1e-5")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("check", help="fitting-error bound diagnostics for a finished run")
    p.add_argument("--trace", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--domain", required=True)
    p.add_argument("--delta", type=float, default=0.05, help="per-marginal confidence level")
    p.add_argument("--out", default=None, help="report path (default TRACE.bounds.json)")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
