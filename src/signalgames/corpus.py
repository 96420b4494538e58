"""Built-in corpus of classical repeated games with signals.

Five entries are exact encodings of well-known examples from the
literature on repeated games with signals (the guessing game also known as
"pick the largest integer", its one-sided-information variant, a Big Match
variant with one blind player, the Big Match with no signals, and a blind
two-armed MDP); three more are symmetric-signaling companions used by the
reduction and transfer test suites.  Each game is the game file
``games/<name>.game`` at the root of the checkout, the one copy the command
line, the README and the benchmark read too.

Encoding conventions, recorded here because the sources describe signaling
in prose:

* a "blind" player gets a singleton signal alphabet (perfect recall still
  lets them remember their own actions);
* "observes the actions" is a signal alphabet naming the action pair played;
* "observes state and actions" additionally names the arrival state;
* a starred cell k* in a recursive game moves to an absorbing state paying k
  per stage, with stage payoff 0 at the entry stage (the live states of a
  recursive game pay nothing);
* in the Big Match family the cell entries are genuine stage payoffs: the
  starred ones also absorb.

The games:

* ``example1_guessing``: Shmaya's guessing game (also in Rosenberg, Solan
  and Vieille), recursive, both players blind, start s2; its limsup
  maxmin is -1/2 and its limsup minmax 1/2, so no limsup value.
* ``example2_informed``: recursive, player 2's signals name the arrival
  state and both actions, player 1 is blind, start s2; limsup maxmin -1/2,
  minmax -1/6.
* ``example3_bigmatch_blind1``: Big Match (Blackwell and Ferguson),
  player 2's signals name the action pair, player 1 is blind; sup value
  1, limsup maxmin 0, minmax 1/2.
* ``bigmatch_nosignals``: Big Match, both players blind; the n-stage mean
  value is 1/2 for every n, yet there is no uniform value.
* ``bigmatch_fullmonitor``: Big Match with one constant public signal, so
  both players observe the actions (symmetric signaling).
* ``mdp_final_remark``: blind single-controller game, recursive and
  nonnegative; uniform value 1, but no strategy of the maximizer guarantees
  it (absorbing 0* stays reachable under any plan that ever stops playing
  Top), so only eps-optimal strategies exist.
* ``noisy_public_2state``: two hidden states, uniform prior, actions do not
  move the state; the public signal u has likelihood 1/3 under xa and 2/3
  under xb, so the one-step posterior after u is (1/3, 2/3).
* ``quitting_game``: recursive nonnegative, public monitoring; player 1
  quitting alone absorbs at payoff 1, at payoff 1/2 on average if player 2
  quits too, and staying pays nothing; the n-stage mean values are
  (n-1)/(2n), increasing to the uniform value 1/2.
"""

from __future__ import annotations

from pathlib import Path

from .errors import GameModelError
from .gamefile import load_game

GAMES = Path(__file__).resolve().parents[2] / "games"

NAMES = ("example1_guessing", "example2_informed", "example3_bigmatch_blind1",
         "bigmatch_nosignals", "bigmatch_fullmonitor", "mdp_final_remark",
         "noisy_public_2state", "quitting_game")


def build_game(name: str):
    """The corpus game ``name``, loaded from ``GAMES``: KeyError for a name
    outside ``NAMES``, GameModelError naming the path for a file that
    cannot be read."""
    if name not in NAMES:
        raise KeyError(f"unknown corpus game {name!r}")
    path = GAMES / f"{name}.game"
    try:
        return load_game(path)
    except OSError as err:
        raise GameModelError(
            f"cannot read corpus game {path}: {err.strerror or err}") from None
