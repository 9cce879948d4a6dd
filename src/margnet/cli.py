"""Command-line interface.

Subcommands: synth (private synthesis), eval (utility metrics), gen-gauss
(equicorrelated benchmark tables), convert ((epsilon,delta) <-> rho), check
(fitting-error bound diagnostics on a finished run).

Commands raise; `main` maps each error class to its exit code: 0 success,
1 I/O failure, unreadable checkpoint or failed allocation, 2 bad
configuration or malformed input, 3 infeasible budget. Every run's effective
configuration, including the resolved seed, is written next to its outputs,
and a run writes all of its outputs or none. No output path, nor the temp
path it is written to first, may name an input, another output or another
temp path.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import secrets
import sys
from pathlib import Path

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
from .errors import CheckpointError, InsufficientBudget
from .evaluation import evaluate
from .generator import candidate_index, forward, gram_marginals, load_checkpoint, save_checkpoint
from .marginals import compute_marginal, selection_candidates
from .privacy import dp_to_zcdp_rho, zcdp_to_dp_epsilon
from .synthesis import SynthConfig, run_margnet, trace_from_json_dict

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3


def _tmp_path(path: str) -> str:
    """Where an output is written before it is renamed into place."""
    return f"{path}.tmp"


def _write_outputs(outputs) -> None:
    """Write each (path, write_fn) pair to its temp path, then rename them all
    into place. On any failure the temp files and the outputs already renamed
    are deleted, so a failed run leaves no file of its own behind."""
    written = []
    try:
        for path, write in outputs:
            written.append(_tmp_path(path))
            write(written[-1])
        for i, (path, _) in enumerate(outputs):
            os.replace(written[i], path)
            written[i] = path
    except BaseException:
        for path in written:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def _same_file(a: str, b: str) -> bool:
    if os.path.realpath(a) == os.path.realpath(b):
        return True
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist
        return False


def _check_paths(inputs: dict, outputs: dict) -> None:
    """Raise ValueError when an output path (flag -> path) or its temp path
    names the same file as an input, another output or another temp path,
    before anything is read. Inputs may name the same file."""
    seen = list(inputs.items())
    for flag, path in outputs.items():
        for name, new in ((flag, path), (f"{flag}'s temp file", _tmp_path(path))):
            for other_name, other in seen:
                if _same_file(new, other):
                    raise ValueError(f"{name} and {other_name} name the same file: {new}")
            seen.append((name, new))


def _write_text(text: str):
    return lambda path: Path(path).write_text(text, encoding="utf-8")


def _resolve_seed(seed) -> int:
    return secrets.randbits(32) if seed is None else int(seed)


def _default_iters(epsilon: float) -> int:
    # fewer training iterations under large budgets: more rounds are selected,
    # so the effective amount of training grows anyway
    return 200 if epsilon <= 5.0 else 100


def _fixed_rounds(mode: str) -> int | None:
    """Parse `--mode`: 'adaptive' is None, 'fixed:K' is K."""
    if mode == "adaptive":
        return None
    if not mode.startswith("fixed:"):
        raise ValueError(f"--mode must be 'adaptive' or 'fixed:K', got {mode!r}")
    try:
        return int(mode[len("fixed:"):])
    except ValueError:
        raise ValueError(f"bad round count in --mode {mode!r}") from None


def cmd_synth(args) -> None:
    trace_path = args.trace or f"{args.out}.trace.json"
    ckpt_path = args.checkpoint or f"{args.out}.ckpt"
    _check_paths({"--data": args.data, "--domain": args.domain},
                 {"--out": args.out, "--trace": trace_path, "--checkpoint": ckpt_path})
    domain = Domain.load(args.domain)
    ds = encode(load_csv(args.data, domain), domain)
    fixed_rounds = _fixed_rounds(args.mode)
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
    result = run_margnet(ds, config)

    table = decode(result.synth, domain, result.decode_seed)
    trace_dict = result.trace.to_json_dict()
    trace_dict["epsilon"] = args.epsilon
    trace_dict["delta"] = args.delta
    _write_outputs([
        (args.out, lambda path: write_csv(path, table)),
        (trace_path, _write_text(json.dumps(trace_dict, indent=2) + "\n")),
        (ckpt_path, lambda path: save_checkpoint(path, result.model, result.prev_model)),
    ])

    acct = result.accountant
    print(f"epsilon={args.epsilon} delta={args.delta} -> rho={rho:.6g}")
    print(f"rounds={len(result.trace.rounds)} rho_used={acct.rho_used:.6g} "
          f"rho_budget={acct.rho_budget:.6g}")
    print(f"rows={result.synth.n_records} seed={seed} "
          f"wall_clock={result.wall_clock_seconds:.2f}s")
    print(f"wrote {args.out}, {trace_path}, {ckpt_path}")


def cmd_eval(args) -> None:
    """Report utility; reads the real table without noise, outside the privacy guarantee."""
    out = args.out or f"{args.synth}.eval.json"
    _check_paths({"--real": args.real, "--synth": args.synth, "--domain": args.domain},
                 {"--out": out})
    domain = Domain.load(args.domain)
    real = encode(load_csv(args.real, domain), domain)
    synth = encode(load_csv(args.synth, domain), domain)
    seed = _resolve_seed(args.seed)
    report = evaluate(real, synth, n_queries=args.queries, seed=seed,
                      config={"real": args.real, "synth": args.synth, "domain": args.domain})
    _write_outputs([(out, _write_text(report.to_json() + "\n"))])
    print(f"fidelity_error={report.fidelity_error:.6f} query_error={report.query_error:.6f} "
          f"(n_queries={report.n_queries}, seed={seed})")
    print(f"wrote {out}")


def cmd_gen_gauss(args) -> None:
    seed = _resolve_seed(args.seed)
    table = gen_gaussian_dataset(args.dims, args.rows, args.corr, seed)
    domain = auto_numeric_domain(table, bins=args.bins)
    domain_path = args.out[:-4] + ".domain.json" if args.out.endswith(".csv") else f"{args.out}.domain.json"
    _write_outputs([(args.out, lambda path: write_csv(path, table)), (domain_path, domain.save)])
    print(f"wrote {args.out} ({args.rows} rows x {args.dims} cols, corr={args.corr}, seed={seed})")
    print(f"wrote {domain_path}")


def cmd_convert(args) -> None:
    if (args.epsilon is None) == (args.rho is None):
        raise ValueError("give exactly one of --epsilon or --rho")
    if args.epsilon is not None:
        print(f"rho={dp_to_zcdp_rho(args.epsilon, args.delta)!r}")
    else:
        print(f"epsilon={zcdp_to_dp_epsilon(args.rho, args.delta)!r}")


def cmd_check(args) -> None:
    """Report the bounds; reads the real table without noise, outside the privacy guarantee."""
    out = args.out or f"{args.trace}.bounds.json"
    _check_paths({"--trace": args.trace, "--checkpoint": args.checkpoint, "--data": args.data,
                  "--domain": args.domain}, {"--out": out})
    domain = Domain.load(args.domain)
    ds = encode(load_csv(args.data, domain), domain)
    trace_bytes = Path(args.trace).read_bytes()
    model, prev_model = load_checkpoint(args.checkpoint)
    if model.cards != domain.cards:
        raise ValueError(f"checkpoint cards {model.cards} do not match the domain's cards "
                         f"{domain.cards}")
    try:
        trace = trace_from_json_dict(json.loads(trace_bytes.decode("utf-8")), domain.cards)
    except (KeyError, TypeError, ValueError, RecursionError) as e:
        raise ValueError(f"malformed trace: {e}") from None

    candidates = {s.attrs: s for s in selection_candidates(ds.cards)}
    for r in trace.rounds:
        if r.attrs not in candidates:
            raise ValueError(f"malformed trace: round {r.measurement.round} measures "
                             f"{list(r.attrs)}, which is not a selection candidate")
    # every bound reads the two models' soft marginals at the candidates' layout
    specs = list(candidates.values())
    index = candidate_index(model, specs, (compute_marginal(ds, s).counts for s in specs))
    soft = gram_marginals(forward(model), trace.n_estimate, index.layout)
    prev_soft = gram_marginals(forward(prev_model), trace.n_estimate, index.layout)
    measurements = [r.measurement for r in trace.rounds]
    # the selected marginals, in the order they were first measured
    selected = [index.exact[a] for a in dict.fromkeys(m.spec.attrs for m in measurements)]
    lower = bounds_mod.selected_lower_bound(selected, model.batch_size)
    upper = bounds_mod.selected_upper_bound(measurements, soft, args.delta, index.exact)
    unsel = bounds_mod.unselected_bound(trace, soft, prev_soft, index, args.delta)
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
    _write_outputs([(out, _write_text(json.dumps(report, indent=2) + "\n"))])
    print(f"selected lower bound: observed={observed_selected:.6g} >= bound={lower:.6g} "
          f"(gap={observed_selected - lower:.6g})")
    print(f"selected upper bound: observed={upper.total_observed:.6g} "
          f"bound={upper.total_bound:.6g} holds={upper.holds}")
    print(f"unselected bound:     observed={unsel.total_observed:.6g} "
          f"bound={unsel.total_bound:.6g} holds={unsel.holds}")
    print(f"wrote {out}")


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
    try:
        args.func(args)
        return EXIT_OK
    except (OSError, CheckpointError) as e:
        code, message = EXIT_IO, str(e)
    except MemoryError as e:  # an input too large to allocate
        code, message = EXIT_IO, str(e) or "out of memory"
    except InsufficientBudget as e:
        code, message = EXIT_BUDGET, f"infeasible budget: {e}"
    except ValueError as e:
        code, message = EXIT_CONFIG, str(e)
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
