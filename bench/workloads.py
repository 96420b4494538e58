"""The benchmark's workloads: seeded inputs, task lists and exact checks.

Every task runs public solver calls on inputs made here and compares each
returned value with a reference that does not come from the engine that
computed it: a closed form derived by hand, a second engine (backward
induction against the sequence form), or an exact best-response
certificate.  A task returns ``None`` when every check holds and a message
naming the first mismatch otherwise.

The package is only ever handed the generated specs and strategies; the
seed stays on this side.  Solver calls go through module attributes
(``seqform.nstage_value``) so that a tracer installed later sees them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of the task lists; ``SMALL`` is for quick smoke runs."""

    random_games: int = 60
    lp_horizon: int = 2
    kernel_horizon: int = 3
    bigmatch_horizon: int = 6
    noisy_horizon: int = 3
    sup_horizon: int = 50
    mdp_n_max: int = 4000
    quitting_n_max: int = 1000


FULL = Sizes()
SMALL = Sizes(random_games=2, bigmatch_horizon=2, noisy_horizon=2, sup_horizon=4,
              mdp_n_max=30, quitting_n_max=12)


@dataclass
class Task:
    name: str
    run: object          # callable(inputs) -> None | str (first failed check)


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


def _weights(rng, n, denom_max=4):
    raw = [rng.randint(1, denom_max) for _ in range(n)]
    total = sum(raw)
    return [F(w, total) for w in raw]


def _dist(rng, outcomes, support=2):
    return dict(zip(rng.sample(outcomes, support), _weights(rng, support)))


def random_game(rng):
    """General game with fixed dimensions, so that work is comparable
    across seeds: 2 states, 2x2 actions, 2 private signals per player,
    every initial and transition distribution supported on exactly 2
    (state, signal1, signal2) triples with positive weights."""
    from signalgames.model import GameSpec

    states, actions1, actions2 = ["x0", "x1"], ["a0", "a1"], ["b0", "b1"]
    signals1, signals2 = ["c0", "c1"], ["d0", "d1"]
    triples = [(x, c, d) for x in states for c in signals1 for d in signals2]
    initial = _dist(rng, triples)
    transition, reward = {}, {}
    for x in states:
        for i in actions1:
            for j in actions2:
                transition[(x, i, j)] = _dist(rng, triples)
                reward[(x, i, j)] = F(rng.randint(-8, 8), rng.randint(1, 4))
    return GameSpec(states=states, actions1=actions1, actions2=actions2,
                    signals1=signals1, signals2=signals2, initial=initial,
                    transition=transition, reward=reward)


def reachable_views(spec, player, horizon):
    """Every positive-weight view of one player, 1..horizon stages long,
    found by a walk of our own (no tree of the package is used)."""
    views = set()
    frontier: dict = {}
    for (x, c, d), p in spec.initial.items():
        if p > 0:
            view = (c,) if player == 1 else (d,)
            views.add(view)
            frontier.setdefault(view, set()).add(x)
    for _ in range(horizon - 1):
        nxt: dict = {}
        for view, xs in frontier.items():
            for x in xs:
                for i in spec.actions1:
                    for j in spec.actions2:
                        for (x2, c, d), p in spec.transition[(x, i, j)].items():
                            if p > 0:
                                v2 = view + ((i, c) if player == 1 else (j, d))
                                views.add(v2)
                                nxt.setdefault(v2, set()).add(x2)
        frontier = nxt
    return sorted(views)


def random_strategy(rng, spec, player, horizon):
    """Exact behavioral strategy with a random mix at every reachable view."""
    from signalgames.model import BehavioralStrategy

    actions = spec.actions1 if player == 1 else spec.actions2
    table = {view: dict(zip(actions, _weights(rng, len(actions))))
             for view in reachable_views(spec, player, horizon)}
    return BehavioralStrategy(player=player, horizon=horizon, table=table,
                              tail={a: F(1, len(actions)) for a in actions})


def load_corpus(root: Path) -> dict:
    """Every ``games/*.game`` file through ``gamefile.load_game``, the
    path the command line takes."""
    from signalgames import gamefile

    paths = sorted((root / "games").glob("*.game"))
    if not paths:
        raise FileNotFoundError(f"no game files under {root / 'games'}")
    return {path.stem: gamefile.load_game(path) for path in paths}


def make_inputs(workload: str, seed: int, root: Path, sizes: Sizes = FULL) -> dict:
    """Corpus plus the workload's seeded specs and strategies."""
    inputs = {"corpus": load_corpus(root)}
    rng = random.Random(f"{workload}/{seed}")
    if workload in ("seqform-lp", "kernel-identities"):
        inputs["games"] = [random_game(rng) for _ in range(sizes.random_games)]
    if workload == "kernel-identities":
        inputs["strategies"] = [
            (random_strategy(rng, g, 1, sizes.kernel_horizon),
             random_strategy(rng, g, 2, sizes.kernel_horizon))
            for g in inputs["games"]]
    return inputs


# ---------------------------------------------------------------------------
# Hand-derived references
# ---------------------------------------------------------------------------


def mdp_final_remark_value(n: int) -> F:
    """Mean n-stage value of ``mdp_final_remark``.

    The maximizer is blind, so a plan is an action sequence and only the
    first Bottom matters: played at stage t it absorbs in 1* with
    probability 1 - 2^(1-t), which then pays the n - t remaining stages.
    f(t) = (n - t)(1 - 2^(1-t)) / n increases while 2^t < n - t + 1 and
    decreases after, so t <= 64 covers every n below 2^64.
    """
    return max(F((n - t) * (2 ** (t - 1) - 1), n * 2 ** (t - 1))
               for t in range(1, min(n, 64) + 1))


def quitting_game_value(n: int) -> F:
    return F(n - 1, 2 * n)


# ---------------------------------------------------------------------------
# Task lists
# ---------------------------------------------------------------------------


def _expect(label, got, want):
    return None if got == want else f"{label}: got {got}, expected {want}"


def _bigmatch_nstage(n):
    def run(inputs):
        from signalgames import seqform
        sol = seqform.nstage_value(inputs["corpus"]["bigmatch_nosignals"], n)
        return _expect(f"bigmatch_nosignals v_{n}", sol.value, F(1, 2))
    return run


def _noisy_nstage(n):
    def run(inputs):
        from signalgames import reduction, seqform
        game = inputs["corpus"]["noisy_public_2state"]
        seq = seqform.nstage_value(game, n)
        aux = reduction.build_auxiliary(game, n)
        back = reduction.solve_backward(aux, payoff=reduction.MEAN,
                                        want_strategies=False)
        return _expect(f"noisy_public_2state v_{n} (sequence form vs backward induction)",
                       seq.value, back.value)
    return run


def _sup_bound(n):
    def run(inputs):
        from signalgames import supvalue
        value = supvalue.sup_lower_bound(inputs["corpus"]["example3_bigmatch_blind1"], n)
        return _expect(f"example3_bigmatch_blind1 v(F_{n})", value, F(n, n + 1))
    return run


def _random_nstage(k, horizon):
    def run(inputs):
        from signalgames import seqform
        game = inputs["games"][k]
        sol = seqform.nstage_value(game, horizon)
        floor = seqform.best_response_value(game, sol.strategy1, horizon, responder=2)
        cap = seqform.best_response_value(game, sol.strategy2, horizon, responder=1)
        return (_expect(f"game {k}: best reply to strategy 1", floor, sol.value)
                or _expect(f"game {k}: best reply to strategy 2", cap, sol.value))
    return run


def _check_sweep(label, report, n_max, reference, window, tol):
    values = report.value_sequence
    if not values or values[-1][0] != n_max:
        return f"{label}: sweep stopped at {values[-1][0] if values else None}, not {n_max}"
    for n, v in values:
        if v != reference(n):
            return f"{label}: v_{n} = {v}, expected {reference(n)}"
    want = [reference(n) for n, _ in values]
    stabilized = len(want) > window and want[-1] - want[-1 - window] < tol
    n_star = report.strategy_horizon
    if n_star is None:
        return f"{label}: no strategy extracted"
    return (_expect(f"{label}: certified lower bound", report.certified_lower, want[-1])
            or _expect(f"{label}: stabilized", report.stabilized, stabilized)
            or _expect(f"{label}: strategy guarantee at n={n_star}",
                       report.strategy_guarantee, reference(n_star))
            or _expect(f"{label}: player 2 cap at n={n_star}",
                       report.player2_cap_at_horizon, reference(n_star)))


def _mdp_sweep(n_max):
    def run(inputs):
        from signalgames import recursive
        tol, window = F(1, 1000), 3
        report = recursive.uniform_value(inputs["corpus"]["mdp_final_remark"],
                                         tol=tol, n_max=n_max, window=window)
        return _check_sweep("mdp_final_remark", report, n_max,
                            mdp_final_remark_value, window, tol)
    return run


def _quitting_sweep(n_max):
    def run(inputs):
        from signalgames import recursive
        report = recursive.uniform_value(inputs["corpus"]["quitting_game"], n_max=n_max)
        return _check_sweep("quitting_game", report, n_max, quitting_game_value,
                            report.window, report.tol)
    return run


def _kernel_game(k, horizon):
    def run(inputs):
        from signalgames import histories
        game = inputs["games"][k]
        sigma, tau = inputs["strategies"][k]
        pair = histories.build_trees(game, horizon)
        for m in range(1, horizon + 1):
            level = pair.histories(m)
            # support exactly 2 everywhere: 2 roots, 4 action pairs x 2
            # outcomes per step; alphas sum to the number of action paths
            problem = (_expect(f"game {k}: histories at level {m}",
                               len(level), 2 * 8 ** (m - 1))
                       or _expect(f"game {k}: alpha mass at level {m}",
                                  sum(h.alpha for h in level), 4 ** (m - 1)))
            if problem:
                return problem
        for m in range(1, horizon + 1):
            for n in range(1, m + 1):
                report = histories.conditional_check(pair, sigma, tau, n, m)
                if not report.all_exact or report.max_discrepancy != 0:
                    return f"game {k}: kernel identities fail at (n, m) = ({n}, {m})"
        return None
    return run


def tasks(workload: str, sizes: Sizes = FULL) -> list:
    """The workload's task list, in the order a pass runs it."""
    z = sizes
    if workload == "seqform-lp":
        return ([Task(f"bigmatch_nosignals n={z.bigmatch_horizon}",
                      _bigmatch_nstage(z.bigmatch_horizon)),
                 Task(f"noisy_public_2state n={z.noisy_horizon}",
                      _noisy_nstage(z.noisy_horizon)),
                 Task(f"example3_bigmatch_blind1 sup n={z.sup_horizon}",
                      _sup_bound(z.sup_horizon))]
                + [Task(f"random game {k} n={z.lp_horizon}",
                        _random_nstage(k, z.lp_horizon))
                   for k in range(z.random_games)])
    if workload == "belief-sweep":
        return [Task(f"mdp_final_remark sweep n_max={z.mdp_n_max}",
                     _mdp_sweep(z.mdp_n_max)),
                Task(f"quitting_game sweep n_max={z.quitting_n_max}",
                     _quitting_sweep(z.quitting_n_max))]
    if workload == "kernel-identities":
        return [Task(f"random game {k} kernel n<=m<={z.kernel_horizon}",
                     _kernel_game(k, z.kernel_horizon))
                for k in range(z.random_games)]
    raise ValueError(f"unknown workload {workload!r}")


# Layers each workload must reach in a traced pass, and layers it must not.
EXPECTED_CALLS = {
    "seqform-lp": ("lp.solve_lp", "seqform.build_sequence_form",
                   "seqform.nstage_value", "seqform.best_response_value",
                   "supvalue.augment_running_max", "reduction.build_auxiliary",
                   "reduction.solve_backward", "gamefile.load_game"),
    "belief-sweep": ("recursive.uniform_value", "reduction.build_auxiliary",
                     "reduction.solve_backward", "lp.solve_matrix_game",
                     "lp.solve_lp", "seqform.best_response_value",
                     "model.is_symmetric_signaling", "model.expand",
                     "gamefile.load_game"),
    "kernel-identities": ("histories.build_trees", "histories.conditional_check",
                          "gamefile.load_game"),
}
EXPECTED_ABSENT = {
    "seqform-lp": ("recursive.uniform_value", "histories.conditional_check"),
    "belief-sweep": ("seqform.build_sequence_form", "histories.conditional_check"),
    "kernel-identities": ("lp.solve_lp", "lp.solve_matrix_game",
                          "reduction.build_auxiliary", "seqform.build_sequence_form"),
}


def layer_problems(workload: str, calls) -> list:
    """Self-check of a traced pass: ``calls`` maps a layer name to its
    call count; returns one message per expectation it breaks."""
    return ([f"layer {name} expected on {workload} recorded no calls"
             for name in EXPECTED_CALLS[workload] if not calls(name)]
            + [f"layer {name} expected absent on {workload} recorded {calls(name)} calls"
               for name in EXPECTED_ABSENT[workload] if calls(name)])
