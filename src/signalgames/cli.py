"""Command-line interface.

Subcommands: validate, reduce-symmetric, solve-nstage, solve-sup,
solve-recursive, simulate, kernel-check, verify-paper.  All values print as
exact rationals with a decimal rendering alongside; machine-readable
reports (--csv/--json) contain no clocks, so repeated runs are
byte-identical.  Exit codes: 0 success, 1 failed checks, violations or an
LP failure (pivot limit, failed certificate, including the monotonicity
and best-response certificates of the sweeps) or an output file that cannot
be written, 2 usage errors (bad flags or flag values), 3 resource budget
exhausted.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction

from .errors import BudgetExceededError, GameModelError, LPError, ParseError
from .gamefile import load_game, load_strategy, serialize_strategy
from .histories import build_trees, conditional_check, simulate
from .model import (
    SymmetricGameSpec,
    as_general,
    is_symmetric_signaling,
    public_labels,
    uniform_strategy,
)
from .rationals import decimal_repr, format_rational, parse_rational
from .recursive import uniform_value
from .seqform import nstage_value
from .supvalue import augment_running_max, sup_value_lowerbounds

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _fmt(value) -> str:
    return f"{format_rational(value)} (= {decimal_repr(value)})"


def _load(path, loader=load_game, kind="game"):
    """``loader(path)``; a missing, unreadable or malformed file exits 1
    with one line."""
    try:
        return loader(path)
    except FileNotFoundError:
        raise SystemExit(f"error: no such {kind} file: {path}")
    except OSError as err:
        raise SystemExit(f"error: cannot read {path}: {err.strerror or err}")
    except ParseError as err:
        raise SystemExit(f"error: {err}")


def _unwritable(path, err: OSError) -> SystemExit:
    return SystemExit(f"error: cannot write {path}: {err.strerror or err}")


def _write(path, text: str) -> None:
    """Write one output file; an unwritable path exits 1 with one line."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as err:
        raise _unwritable(path, err) from None


def _value_table(column: str, values, csv) -> None:
    """The table ``n,<column>,decimal`` of ``(n, value)`` pairs, written to
    the ``csv`` path or, without one, printed."""
    text = "".join([f"n,{column},decimal\n"] + [
        f"{n},{format_rational(v)},{decimal_repr(v)}\n" for n, v in values])
    if csv:
        _write(csv, text)
    else:
        print(text, end="")


def _strategies(args, spec) -> tuple:
    """``--sigma``/``--tau`` strategy files, uniform play where absent.  A
    file playing an action its player lacks exits 1 with one line; a file of
    the other player is left to the engines, which refuse it."""
    out = []
    for player, path in ((1, args.sigma), (2, args.tau)):
        strategy = (_load(path, load_strategy, "strategy") if path
                    else uniform_strategy(spec, player))
        actions = spec.actions1 if player == 1 else spec.actions2
        problems = strategy.validate(actions) if strategy.player == player else []
        if problems:
            raise SystemExit(f"error: {path}: {problems[0]}")
        out.append(strategy)
    return tuple(out)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _corpus_entry(text: str) -> str:
    from .verify import build_corpus

    known = [entry.entry_id for entry in build_corpus()]
    if text not in known:
        raise argparse.ArgumentTypeError(
            f"unknown corpus entry {text!r} (known: {', '.join(known)})")
    return text


def _rational(text: str):
    try:
        return parse_rational(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"{err} (use p/q)") from None


# argparse reads a token that starts with "-" as an option unless it looks
# like a negative number, and "-1/100" does not; joined to its flag, as in
# "--eps=-1/100", it is read as the flag's value.
_RATIONAL_FLAGS = ("--eps", "--tol")
_NEGATIVE_RATIONAL = re.compile(r"-\d+/\d+")


def _join_negative_rationals(argv: list) -> list:
    """``argv`` with each negative rational that follows a rational flag
    joined to it, so both spellings of a flag's value parse alike."""
    out: list = []
    for token in argv:
        if (out and out[-1] in _RATIONAL_FLAGS
                and _NEGATIVE_RATIONAL.fullmatch(token)):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _positive_rational(text: str):
    value = _rational(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def cmd_validate(args) -> int:
    spec = _load(args.game)
    problems = spec.validate()
    if problems:
        print(f"{args.game}: {len(problems)} violation(s)")
        for p in problems:
            print(f"  - {p}")
        return EXIT_FAIL
    kind = "symmetric" if isinstance(spec, SymmetricGameSpec) else "general"
    print(f"{args.game}: ok ({kind} signaling, {len(spec.states)} states)")
    return EXIT_OK


def cmd_reduce_symmetric(args) -> int:
    spec = as_general(_load(args.game))
    witness = is_symmetric_signaling(spec)
    if not witness:
        print(f"not a symmetric-signaling game: {witness.reason}")
        return EXIT_FAIL
    print(f"symmetric signaling confirmed; public signals: "
          f"{' '.join(dict.fromkeys(public_labels(spec).values()))}")
    pair = build_trees(spec, args.horizon)
    below: dict = {}                     # observation -> its children
    for level in pair.obs_levels[1:]:
        for ob in level:
            below.setdefault(ob.parent, []).append(ob)
    lines = ["depth,observed_history,weight,posterior,transitions"]
    level = sorted(pair.observations(1), key=lambda ob: str(ob.label))
    while level:
        deeper = []
        for ob in level:
            children = sorted(below.get(ob, ()),
                              key=lambda child: str((child.edge, child.label)))
            deeper.extend(children)
            masses: dict = {}
            for h in ob.members:
                masses[h.state] = masses.get(h.state, 0) + h.mass
            post = " ".join(f"{x}:{format_rational(Fraction(m, ob.mass))}"
                            for x, m in sorted(masses.items()))
            trans = []
            for i in spec.actions1:
                for j in spec.actions2:
                    # the public view shows both actions: the edge is (i, j)
                    psi = sorted(((child.label, child.beta / ob.beta)
                                  for child in children if child.edge == (i, j)),
                                 key=str)
                    if psi:
                        trans.append(f"({i},{j})->" + "/".join(
                            f"{s}:{format_rational(p)}" for s, p in psi))
            lines.append(",".join([
                str(ob.depth),
                '"%s"' % " ".join(map(str, ob.view())),
                format_rational(ob.beta),
                '"%s"' % post,
                '"%s"' % "; ".join(trans),
            ]))
        level = deeper
    text = "\n".join(lines) + "\n"
    if args.csv:
        _write(args.csv, text)
        print(f"auxiliary game written to {args.csv} ({len(lines) - 1} nodes)")
    else:
        print(text, end="")
    return EXIT_OK


def cmd_solve_nstage(args) -> int:
    spec = _load(args.game)
    if args.eval == "mean":
        sol = nstage_value(spec, args.horizon)
        value = sol.value
    else:
        aug = augment_running_max(spec)
        sol = nstage_value(aug.spec, args.horizon, aug.terminal_running_max())
        value = sol.value
    print(f"value ({args.eval}, horizon {args.horizon}): {_fmt(value)}")
    if args.strategy_out:
        _write(args.strategy_out, serialize_strategy(sol.strategy1))
        print(f"player 1 optimal strategy written to {args.strategy_out}")
    if args.verbose:
        for player, strat in ((1, sol.strategy1), (2, sol.strategy2)):
            print(f"player {player} strategy:")
            for view in sorted(strat.table, key=lambda v: (len(v), v)):
                dist = strat.table[view]
                pretty = " ".join(f"{a}:{format_rational(p)}"
                                  for a, p in sorted(dist.items()))
                print(f"  {' '.join(map(str, view))}: {pretty}")
    return EXIT_OK


def cmd_solve_sup(args) -> int:
    spec = _load(args.game)
    report = sup_value_lowerbounds(spec, args.max_horizon)
    _value_table("lower_bound", report.values, args.csv)
    last_n, last = report.values[-1]
    print(f"best certified lower bound: v(F_{last_n}) = {_fmt(last)}")
    if report.upper is not None:
        print(f"optimistic upper bound: {_fmt(report.upper)}")
    if report.exact:
        print("sup value determined exactly (bounds met)")
    else:
        print("sup value bracketed; lower bounds are guarantees, "
              f"stabilized={report.stabilized}")
    return EXIT_RESOURCE if report.budget_hit else EXIT_OK


def cmd_solve_recursive(args) -> int:
    spec = _load(args.game)
    report = uniform_value(spec, tol=args.tol, n_max=args.max_horizon,
                           window=args.window)
    _value_table("value", report.value_sequence, args.csv)
    print(f"certified lower bound of the uniform value: "
          f"{_fmt(report.certified_lower)}")
    print(f"stabilized={report.stabilized} "
          f"(tol {format_rational(args.tol)}, window {args.window}); "
          f"values are sound lower bounds, stabilization is heuristic")
    if report.eps_optimal_strategy1 is not None and args.strategy_out:
        _write(args.strategy_out,
               serialize_strategy(report.eps_optimal_strategy1))
        print(f"eps-optimal strategy (horizon {report.strategy_horizon}, "
              f"guarantee {_fmt(report.strategy_guarantee)}) written to "
              f"{args.strategy_out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    spec = as_general(_load(args.game))
    sigma, tau = _strategies(args, spec)
    summary = simulate(spec, sigma, tau, args.horizon, args.seed, args.replicas)
    print(f"replicas {summary.replicas}, horizon {summary.horizon}, "
          f"seed {summary.seed}")
    print(f"mean payoff: {summary.mean_of_means:.6f} "
          f"(stderr {summary.stderr_of_means():.6f})")
    print(f"mean sup payoff: {summary.mean_sup:.6f}")
    print(f"absorbed fraction: {summary.absorbed_fraction:.6f} "
          f"(at stage 1: {summary.stage1_absorbed_fraction:.6f})")
    return EXIT_OK


def cmd_kernel_check(args) -> int:
    spec = as_general(_load(args.game))
    sigma, tau = _strategies(args, spec)
    pair = build_trees(spec, args.m)
    if args.dump_trees:
        lines = ["kind,level,sequence,weight"]
        for n in range(1, args.m + 1):
            for h in pair.histories(n):
                states, actions = h.stage_path()
                walk = " ".join(f"{x}/{'' if a is None else ','.join(a)}"
                                for x, a in zip(states, [None] + list(actions)))
                lines.append(f'history,{n},"{walk}",{format_rational(h.alpha)}')
            for v in pair.observations(n):
                lines.append(f'observation,{n},"{" ".join(map(str, v.view()))}",'
                             f"{format_rational(v.beta)}")
        _write(args.dump_trees, "\n".join(lines) + "\n")
        print(f"trees written to {args.dump_trees}")
    report = conditional_check(pair, sigma, tau, args.n, args.m)
    print(f"kernel identities at (n={args.n}, m={args.m}): "
          f"{report.checked_pairs} pairs checked")
    for name, ok in (("row normalization", report.normalization_ok),
                     ("strategy independence", report.bayes_ok),
                     ("sum identity", report.sum_identity_ok)):
        print(f"  {name}: {'exact' if ok else 'VIOLATED'}")
    print(f"max discrepancy: {format_rational(report.max_discrepancy)}")
    return EXIT_OK if report.all_exact else EXIT_FAIL


def cmd_verify_example(args) -> int:
    from .claims import verify_example

    check = verify_example(args.id, args.side, horizon=args.horizon, eps=args.eps)
    print(check.describe())
    if check.reduced_matrix is not None:
        for row in check.reduced_matrix:
            print("  [" + ", ".join(format_rational(v) for v in row) + "]")
    if args.verbose:
        for name, value in check.vertex_values:
            print(f"  {name}: {_fmt(value)}")
    print("certified" if check.ok else "FAILED")
    return EXIT_OK if check.ok else EXIT_FAIL


def cmd_verify_paper(args) -> int:
    from .verify import run_verification, write_corpus_files

    if args.write_corpus:
        try:
            paths = write_corpus_files(args.write_corpus)
        except OSError as err:
            raise _unwritable(err.filename or args.write_corpus, err) from None
        print(f"corpus written: {len(paths)} game files in {args.write_corpus}")
    report = run_verification(only=args.only)
    width = max(len(f"{r.entry}/{r.claim}") for r in report.rows)
    for r in report.rows:
        status = "pass" if r.ok else "FAIL"
        name = f"{r.entry}/{r.claim}"
        print(f"{status:4} {name:<{width}}  {r.quantity}: expected {r.expected}; "
              f"got {r.computed}  [{r.seconds:.2f}s]")
    total = len(report.rows)
    passed = sum(1 for r in report.rows if r.ok)
    print(f"{passed}/{total} claims verified")
    if args.csv:
        _write(args.csv, report.to_csv())
    if args.json:
        _write(args.json, report.to_json())
    return EXIT_OK if report.ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signalgames",
        description=("Exact solvers for two-player zero-sum repeated games "
                     "with signals"))
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a game file's invariants")
    p.add_argument("--game", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("reduce-symmetric",
                       help="detect symmetric signaling and dump the "
                            "observed-history game")
    p.add_argument("--game", required=True)
    p.add_argument("--horizon", type=_positive_int, default=3)
    p.add_argument("--csv")
    p.set_defaults(func=cmd_reduce_symmetric)

    p = sub.add_parser("solve-nstage", help="exact n-stage value and strategies")
    p.add_argument("--game", required=True)
    p.add_argument("--horizon", type=_positive_int, required=True)
    p.add_argument("--eval", choices=["mean", "terminal"], default="mean",
                   help="mean of stage rewards, or terminal running maximum")
    p.add_argument("--strategy-out")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_solve_nstage)

    p = sub.add_parser("solve-sup",
                       help="monotone lower bounds of the sup-evaluation value")
    p.add_argument("--game", required=True)
    p.add_argument("--max-horizon", type=_positive_int, required=True)
    p.add_argument("--csv")
    p.set_defaults(func=cmd_solve_sup)

    p = sub.add_parser("solve-recursive",
                       help="uniform value of a recursive nonnegative game")
    p.add_argument("--game", required=True)
    p.add_argument("--tol", type=_positive_rational, default="1/10000",
                   help="stabilization tolerance, a positive rational p/q")
    p.add_argument("--max-horizon", type=_positive_int, default=512)
    p.add_argument("--window", type=_positive_int, default=5)
    p.add_argument("--csv")
    p.add_argument("--strategy-out")
    p.set_defaults(func=cmd_solve_recursive)

    p = sub.add_parser("simulate", help="Monte Carlo play (floating point)")
    p.add_argument("--game", required=True)
    p.add_argument("--horizon", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--replicas", type=_positive_int, default=1000)
    p.add_argument("--sigma", help="player 1 strategy JSON")
    p.add_argument("--tau", help="player 2 strategy JSON")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("kernel-check",
                       help="exact conditional-kernel identities at (n, m)")
    p.add_argument("--game", required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--m", type=_positive_int, required=True)
    p.add_argument("--sigma")
    p.add_argument("--tau")
    p.add_argument("--dump-trees", metavar="CSV",
                   help="also dump both weighted trees as CSV")
    p.set_defaults(func=cmd_kernel_check, usage_error=p.error)

    p = sub.add_parser("verify-example",
                       help="re-run a no-limsup-value example's reply bound")
    p.add_argument("--id", type=int, choices=[1, 2, 3], required=True)
    p.add_argument("--side", choices=["maxmin", "minmax"], required=True)
    p.add_argument("--horizon", type=_positive_int, default=20)
    p.add_argument("--eps", type=_rational, default="1/100",
                   help="tail allowance, a rational p/q")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_verify_example, usage_error=p.error)

    p = sub.add_parser("verify-paper",
                       help="re-verify every documented corpus claim")
    p.add_argument("--csv", help="write the machine-readable report here")
    p.add_argument("--json", help="write the JSON report here")
    p.add_argument("--only", type=_corpus_entry,
                   help="restrict to one corpus entry")
    p.add_argument("--write-corpus", metavar="DIR",
                   help="also write the corpus game files to DIR")
    p.set_defaults(func=cmd_verify_paper)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_rationals(
        sys.argv[1:] if argv is None else list(argv)))
    if args.command == "kernel-check" and args.n > args.m:
        args.usage_error(f"argument --n: must be at most --m, "
                         f"got --n {args.n} --m {args.m}")
    if (args.command == "verify-example" and (args.id, args.side) == (2, "minmax")
            and args.horizon < 2):
        args.usage_error(f"argument --horizon: must be at least 2 for --id 2 "
                         f"--side minmax, got {args.horizon}")
    try:
        return args.func(args)
    except BudgetExceededError as err:
        print(f"resource budget exhausted: {err}", file=sys.stderr)
        return EXIT_RESOURCE
    except (GameModelError, LPError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
