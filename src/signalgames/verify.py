"""Corpus claim definitions and the verification runner.

Every corpus entry carries machine-checkable claims about its exact values.
Each claim invokes exactly one solver operation and compares against the
expected value recorded here; this module contains no numeric logic of its
own.  Provenance tags:

* ``literature``: the expected value is stated in the published treatments
  of the game (all such numbers are reproduced exactly);
* ``derived``: computed from an independent closed form or cross-checked
  against a second engine in the test suite;
* ``trivial``: direct consequence of the encoding (validation, structure).

Runs are deterministic: fixed scales, fixed strategies, no clocks or seeds
in the machine-readable reports, so two runs are byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction as F

from . import corpus
from .claims import verify_example
from .errors import PreconditionError
from .gamefile import serialize_spec
from .histories import build_trees, exact_play_distribution
from .model import MEAN, BehavioralStrategy, as_general, is_symmetric_signaling
from .rationals import ZERO, decimal_repr, format_rational
from .recursive import classify, extract_eps_optimal, uniform_value
from .reduction import build_auxiliary, lift_payoff, solve_backward
from .seqform import nstage_value
from .supvalue import sup_value_lowerbounds


@dataclass
class ClaimResult:
    computed: str
    ok: bool


@dataclass
class Claim:
    claim_id: str
    quantity: str
    expected: str
    provenance: str
    run: object                          # callable(games) -> ClaimResult


@dataclass
class CorpusEntry:
    entry_id: str
    filename: str
    source: str
    claims: list


@dataclass
class ReportRow:
    entry: str
    claim: str
    quantity: str
    expected: str
    computed: str
    provenance: str
    ok: bool
    seconds: float                       # stdout only, never serialized


@dataclass
class VerificationReport:
    rows: list

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)

    def to_csv(self) -> str:
        lines = ["entry,claim,quantity,expected,computed,provenance,status"]
        for r in self.rows:
            fields = [r.entry, r.claim, r.quantity, r.expected, r.computed,
                      r.provenance, "pass" if r.ok else "FAIL"]
            lines.append(",".join('"%s"' % f.replace('"', '""') for f in fields))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        data = [
            {"entry": r.entry, "claim": r.claim, "quantity": r.quantity,
             "expected": r.expected, "computed": r.computed,
             "provenance": r.provenance, "ok": r.ok}
            for r in self.rows
        ]
        return json.dumps({"claims": data, "all_ok": self.ok},
                          indent=2, sort_keys=True) + "\n"


def _fmt(value) -> str:
    return f"{format_rational(value)} ({decimal_repr(value)})"


def _bound_claim(example, side):
    def run(games):
        check = verify_example(example, side, horizon=20, eps=F(1, 100))
        return ClaimResult(computed=_fmt(check.bound), ok=check.ok)
    return run


# -- individual claim runners ------------------------------------------------


def _run_validate(name):
    def run(games):
        problems = games[name].validate()
        return ClaimResult(computed="ok" if not problems else "; ".join(problems),
                           ok=not problems)
    return run


def _run_classification(name, want_recursive, want_nonnegative):
    def run(games):
        cls = classify(games[name])
        got = (cls.is_recursive, cls.is_nonnegative)
        return ClaimResult(
            computed=f"recursive={got[0]} nonnegative={got[1]}",
            ok=got == (want_recursive, want_nonnegative))
    return run


def _run_uniform_guard(name):
    def run(games):
        try:
            uniform_value(games[name], n_max=4)
        except PreconditionError as err:
            return ClaimResult(computed=f"refused: {err}", ok=True)
        return ClaimResult(computed="no precondition error raised", ok=False)
    return run


def _run_symmetry(name, expect: bool):
    def run(games):
        witness = is_symmetric_signaling(as_general(games[name]))
        return ClaimResult(
            computed="symmetric" if witness else f"asymmetric ({witness.reason})",
            ok=bool(witness) == expect)
    return run


def _run_nstage_sequence(name, horizons, expected):
    def run(games):
        values = [nstage_value(games[name], n).value for n in horizons]
        ok = values == [expected(n) for n in horizons]
        return ClaimResult(
            computed=" ".join(f"v_{n}={format_rational(v)}"
                              for n, v in zip(horizons, values)),
            ok=ok)
    return run


def _run_backward_vs_sequence(name, horizons):
    def run(games):
        sym = games[name]
        outputs = []
        ok = True
        for n in horizons:
            aux = build_auxiliary(sym, n)
            back = solve_backward(aux, payoff=MEAN, want_strategies=False)
            seq = nstage_value(sym, n)
            outputs.append(f"n={n}: {format_rational(back.value)}")
            ok = ok and back.value == seq.value
        return ClaimResult(computed="; ".join(outputs), ok=ok)
    return run


def _run_sup_sequence(name, max_n, expected):
    def run(games):
        report = sup_value_lowerbounds(games[name], max_n, compute_upper=False)
        ok = ([v for _, v in report.values]
              == [expected(n) for n, _ in report.values])
        ok = ok and len(report.values) == max_n
        return ClaimResult(
            computed=" ".join(f"v(F_{n})={format_rational(v)}"
                              for n, v in report.values),
            ok=ok)
    return run


def _run_mdp_uniform(name):
    def run(games):
        sched = list(range(1, 13)) + [18, 27, 40, 60, 90, 135, 200, 300,
                                      450, 675, 1012, 1138, 1280, 1440, 1518]
        report = uniform_value(games[name], tol=F(1, 200), n_max=1518,
                               window=3, schedule=sched)
        values = [v for _, v in report.value_sequence]
        monotone = all(b >= a for a, b in zip(values, values[1:]))
        ok = monotone and report.certified_lower >= F(49, 50) and report.stabilized
        return ClaimResult(
            computed=(f"certified lower bound {_fmt(report.certified_lower)}, "
                      f"monotone={monotone}, stabilized={report.stabilized}"),
            ok=ok)
    return run


def _run_mdp_plan_shape(name):
    def run(games):
        report = uniform_value(games[name], tol=F(1, 100), n_max=256, window=3)
        result = extract_eps_optimal(games[name], report, eps=F(1, 10))
        strat = result.strategy
        tops = []
        for view in sorted(strat.table, key=len):
            dist = strat.table[view]
            tops.append(dist.get("Top", ZERO))
        pure = all(p in (ZERO, F(1)) for p in tops)
        switches = any(p == 0 for p in tops)
        ok = pure and switches and not result.warning
        first_bottom = next((k + 1 for k, p in enumerate(tops) if p == 0), None)
        return ClaimResult(
            computed=(f"pure plan, plays Top then Bottom from stage "
                      f"{first_bottom}; guarantee {_fmt(result.guarantee)}"),
            ok=ok)
    return run


def _run_posterior_noisy(name):
    def run(games):
        aux = build_auxiliary(games[name], 2)
        (root,) = aux.roots
        after = {label: child.posterior
                 for (edge, label), (w, child) in root.children.items()
                 if edge == ("T", "L")}
        got = after["u"]
        ok = got == {"xa": F(1, 3), "xb": F(2, 3)}
        return ClaimResult(
            computed=("posterior after u: "
                      + ", ".join(f"{x}={format_rational(p)}"
                                  for x, p in sorted(got.items()))),
            ok=ok)
    return run


def _run_signal_marginal(name):
    def run(games):
        aux = build_auxiliary(games[name], 2)
        (root,) = aux.roots
        psi = aux.signal_transition(root, "T", "L")
        ok = psi.get("u") == F(1, 2) and psi.get("w") == F(1, 2)
        return ClaimResult(
            computed=", ".join(f"{s}={format_rational(p)}"
                               for s, p in sorted(psi.items())),
            ok=ok)
    return run


def _fixed_strategies(spec):
    """Two deterministic exact strategy pairs (no test-only RNG here)."""
    u1 = {a: F(1, len(spec.actions1)) for a in spec.actions1}
    u2 = {a: F(1, len(spec.actions2)) for a in spec.actions2}
    skew1 = {a: F(2, 3) if k == 0 else F(1, 3)
             for k, a in enumerate(spec.actions1)}
    skew2 = {a: F(1, 4) if k == 0 else F(3, 4)
             for k, a in enumerate(spec.actions2)}
    pairs = []
    for d1, d2 in ((u1, u2), (skew1, skew2)):
        pairs.append((BehavioralStrategy(player=1, horizon=0, table={}, tail=d1),
                      BehavioralStrategy(player=2, horizon=0, table={}, tail=d2)))
    return pairs


def _run_transfer_identity(name):
    def run(games):
        spec = as_general(games[name])
        N = 3
        pair = build_trees(spec, N)
        f = {h: (F(3, 2) if h.state == "xb" else F(-1, 4))
             for h in pair.histories(N)}
        lifted = lift_payoff(pair, f)
        ok = True
        gaps = []
        for sigma, tau in _fixed_strategies(spec):
            dist = exact_play_distribution(pair, sigma, tau, N)
            lhs = sum((p * f[h] for h, p in dist.probs.items()), ZERO)
            rhs = sum((p * lifted[v.view()]
                       for v, p in dist.observed_marginal().items()), ZERO)
            ok = ok and lhs == rhs
            gaps.append(lhs - rhs)
        return ClaimResult(
            computed=("discrepancies: "
                      + ", ".join(format_rational(g) for g in gaps)),
            ok=ok)
    return run


def _run_quitting_values(name):
    def run(games):
        report = uniform_value(games[name], n_max=24, tol=F(1, 50), window=3)
        ok = all(v == F(n - 1, 2 * n) for n, v in report.value_sequence)
        return ClaimResult(
            computed=" ".join(f"v_{n}={format_rational(v)}"
                              for n, v in report.value_sequence[:8]) + " ...",
            ok=ok)
    return run


def _run_example2_matrix():
    def run(games):
        check = verify_example(2, "minmax", horizon=20)
        matrix = " ; ".join(
            "[" + ", ".join(format_rational(v) for v in row) + "]"
            for row in check.reduced_matrix)
        return ClaimResult(
            computed=f"reduced matrix {matrix}, value {_fmt(check.reduced_value)}",
            ok=check.ok)
    return run


def build_corpus() -> list:
    """The corpus: every entry's game, file name, source and claims."""
    e = F(1, 100)
    return [
        CorpusEntry(
            entry_id="example1_guessing",
            filename="example1_guessing.game",
            source=("recursive guessing game ('pick the largest integer', "
                    "Shmaya; also in Rosenberg-Solan-Vieille), both players blind"),
            claims=[
                Claim("validates", "well-formedness", "no violations", "trivial",
                      _run_validate("example1_guessing")),
                Claim("limsup-maxmin", "reply bound at N=20, eps=1/100",
                      "<= -1/2 + 1/100", "literature",
                      _bound_claim(1, "maxmin")),
                Claim("limsup-minmax", "reply bound at N=20, eps=1/100",
                      ">= 1/2 - 1/100", "literature",
                      _bound_claim(1, "minmax")),
                Claim("classification", "recursive / nonnegative",
                      "recursive, not nonnegative", "literature",
                      _run_classification("example1_guessing", True, False)),
                Claim("uniform-guard", "uniform_value precondition",
                      "precondition error (negative absorbing payoffs)",
                      "literature", _run_uniform_guard("example1_guessing")),
            ]),
        CorpusEntry(
            entry_id="example2_informed",
            filename="example2_informed.game",
            source=("one-sided information guessing variant: player 2 sees "
                    "state and actions, player 1 blind"),
            claims=[
                Claim("limsup-minmax", "reduced matrix value", "-1/6 exactly",
                      "literature", _run_example2_matrix()),
                Claim("limsup-maxmin", "reply bound at N=20, eps=1/100",
                      "<= -1/2 + 1/100", "literature",
                      _bound_claim(2, "maxmin")),
                Claim("asymmetric", "signaling structure", "not symmetric",
                      "trivial", _run_symmetry("example2_informed", False)),
            ]),
        CorpusEntry(
            entry_id="example3_bigmatch_blind1",
            filename="example3_bigmatch_blind1.game",
            source=("Big Match variant (Blackwell-Ferguson family): player 2 "
                    "sees actions, player 1 blind"),
            claims=[
                Claim("limsup-minmax", "even L/R mix caps payoff", "<= 1/2",
                      "literature", _bound_claim(3, "minmax")),
                Claim("limsup-maxmin", "reply bound at N=20, eps=1/100",
                      "<= 1/100", "literature",
                      _bound_claim(3, "maxmin")),
                Claim("sup-bounds", "running-max guarantees, n=1..8",
                      "v(F_n) = n/(n+1), nondecreasing", "derived",
                      _run_sup_sequence("example3_bigmatch_blind1", 8,
                                        lambda n: F(n, n + 1))),
                Claim("classification", "recursive / nonnegative",
                      "not recursive (a live cell pays 1)", "literature",
                      _run_classification("example3_bigmatch_blind1", False, True)),
            ]),
        CorpusEntry(
            entry_id="bigmatch_nosignals",
            filename="bigmatch_nosignals.game",
            source="Big Match with no signals at all",
            claims=[
                Claim("mean-values", "n-stage values, n=1..6", "1/2 each",
                      "literature",
                      _run_nstage_sequence("bigmatch_nosignals", range(1, 7),
                                           lambda n: F(1, 2))),
            ]),
        CorpusEntry(
            entry_id="bigmatch_fullmonitor",
            filename="bigmatch_fullmonitor.game",
            source="Big Match under full monitoring (constant public signal)",
            claims=[
                Claim("symmetric", "signaling structure", "symmetric", "trivial",
                      _run_symmetry("bigmatch_fullmonitor", True)),
                Claim("engine-agreement", "backward induction vs sequence form",
                      "equal values, n=1..3", "derived",
                      _run_backward_vs_sequence("bigmatch_fullmonitor", (1, 2, 3))),
            ]),
        CorpusEntry(
            entry_id="mdp_final_remark",
            filename="mdp_final_remark.game",
            source=("blind single-controller game: uniform value 1, only "
                    "eps-optimal strategies exist for the maximizer"),
            claims=[
                Claim("classification", "recursive / nonnegative",
                      "recursive and nonnegative", "trivial",
                      _run_classification("mdp_final_remark", True, True)),
                Claim("uniform-value", "monotone certified bounds",
                      ">= 49/50 and stabilized (value is 1 in the limit)",
                      "literature", _run_mdp_uniform("mdp_final_remark")),
                Claim("plan-shape", "eps-optimal plan", "Top for a while, then Bottom",
                      "literature", _run_mdp_plan_shape("mdp_final_remark")),
            ]),
        CorpusEntry(
            entry_id="noisy_public_2state",
            filename="noisy_public_2state.game",
            source="two hidden states, public signal of likelihood 1/3 vs 2/3",
            claims=[
                Claim("posterior", "one-step posterior after u", "(1/3, 2/3)",
                      "derived", _run_posterior_noisy("noisy_public_2state")),
                Claim("signal-marginal", "root signal transition", "u and w both 1/2",
                      "derived", _run_signal_marginal("noisy_public_2state")),
                Claim("transfer", "lifted-payoff expectation identity",
                      "exact equality for fixed strategy pairs", "literature",
                      _run_transfer_identity("noisy_public_2state")),
            ]),
        CorpusEntry(
            entry_id="quitting_game",
            filename="quitting_game.game",
            source="quitting-style recursive nonnegative game, public monitoring",
            claims=[
                Claim("classification", "recursive / nonnegative",
                      "recursive and nonnegative", "trivial",
                      _run_classification("quitting_game", True, True)),
                Claim("mean-values", "n-stage values", "(n-1)/(2n) each",
                      "derived", _run_quitting_values("quitting_game")),
            ]),
    ]


def write_corpus_files(directory) -> list:
    """Write every corpus game to ``directory``; returns the paths."""
    import os

    os.makedirs(directory, exist_ok=True)
    paths = []
    for entry in build_corpus():
        spec = corpus.build_game(entry.entry_id)
        path = os.path.join(directory, entry.filename)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize_spec(spec))
        paths.append(path)
    return paths


def run_verification(only: str | None = None) -> VerificationReport:
    """Run every corpus claim, or those of the entry ``only``; deterministic
    output.  An ``only`` that names no entry raises KeyError."""
    import time

    entries = build_corpus()
    if only is not None:
        known = [entry.entry_id for entry in entries]
        if only not in known:
            raise KeyError(f"unknown corpus entry {only!r} (known: {', '.join(known)})")
        entries = [entry for entry in entries if entry.entry_id == only]
    games = {name: corpus.build_game(name) for name in corpus.NAMES}
    rows = []
    for entry in entries:
        for claim in entry.claims:
            start = time.perf_counter()
            try:
                result = claim.run(games)
            except Exception as exc:  # a crash is a failed claim, not a crash
                result = ClaimResult(computed=f"error: {exc}", ok=False)
            rows.append(ReportRow(entry=entry.entry_id, claim=claim.claim_id,
                                  quantity=claim.quantity,
                                  expected=claim.expected,
                                  computed=result.computed,
                                  provenance=claim.provenance, ok=result.ok,
                                  seconds=time.perf_counter() - start))
    return VerificationReport(rows=rows)
