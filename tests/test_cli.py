import argparse
import contextlib
import csv
import io
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signalgames import corpus
from signalgames.cli import build_parser, main
from signalgames.gamefile import load_strategy
from signalgames.seqform import best_response_value


@pytest.fixture(scope="module")
def corpus_dir():
    """The shipped game files; the tests only read them."""
    return corpus.GAMES


def test_validate_ok(corpus_dir, capsys):
    code = main(["validate", "--game", str(corpus_dir / "example1_guessing.game")])
    assert code == 0
    assert "ok" in capsys.readouterr().out


def test_validate_broken_game_exits_nonzero(tmp_path, capsys):
    src = (tmp_path / "broken.game")
    import signalgames.corpus as c
    from signalgames.gamefile import serialize_spec
    doc = json.loads(serialize_spec(c.build_game("bigmatch_nosignals")))
    doc["initial"][0]["prob"] = "9/10"
    src.write_text(json.dumps(doc))
    code = main(["validate", "--game", str(src)])
    assert code == 1
    out = capsys.readouterr().out
    assert "9/10" in out


def test_unknown_flag_usage_error(corpus_dir):
    with pytest.raises(SystemExit) as err:
        main(["solve-nstage", "--game", "x", "--nope"])
    assert err.value.code == 2


def test_solve_nstage_bigmatch(corpus_dir, capsys):
    code = main(["solve-nstage", "--game",
                 str(corpus_dir / "bigmatch_nosignals.game"), "--horizon", "3"])
    assert code == 0
    assert "1/2" in capsys.readouterr().out


def test_solve_nstage_writes_and_prints_both_strategies(corpus_dir, tmp_path, capsys):
    """``--strategy-out`` writes player 1's optimal strategy and
    ``--verbose`` prints both players' tables; the written file loads, and
    player 2's best reply to it earns the printed value."""
    out = tmp_path / "sigma.json"
    code = main(["solve-nstage", "--game", str(corpus_dir / "quitting_game.game"),
                 "--horizon", "3", "--strategy-out", str(out), "--verbose"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("value (mean, horizon 3): 1/3 ")
    assert lines[1] == f"player 1 optimal strategy written to {out}"
    assert lines[2] == "player 1 strategy:"
    sigma = load_strategy(out)
    assert (sigma.player, sigma.horizon) == (1, 3)
    table1 = lines[3:3 + len(sigma.table)]
    assert table1 == [
        f"  {' '.join(view)}: " + " ".join(f"{a}:{p}" for a, p in sorted(
            (a, str(p)) for a, p in sigma.table[view].items()))
        for view in sorted(sigma.table, key=lambda v: (len(v), v))]
    assert lines[3 + len(sigma.table)] == "player 2 strategy:"
    assert len(lines) > 4 + len(sigma.table)
    game = corpus.build_game("quitting_game")
    assert best_response_value(game, sigma, 3, responder=2) == F(1, 3)


def test_solve_nstage_terminal_eval(corpus_dir, capsys):
    code = main(["solve-nstage", "--game",
                 str(corpus_dir / "example3_bigmatch_blind1.game"),
                 "--horizon", "4", "--eval", "terminal"])
    assert code == 0
    assert "4/5" in capsys.readouterr().out


def test_solve_sup_csv(corpus_dir, tmp_path, capsys):
    out = tmp_path / "sup.csv"
    code = main(["solve-sup", "--game",
                 str(corpus_dir / "example3_bigmatch_blind1.game"),
                 "--max-horizon", "5", "--csv", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,lower_bound,decimal"
    assert lines[1].startswith("1,1/2")
    assert lines[5].startswith("5,5/6")


def test_solve_recursive_writes_strategy(corpus_dir, tmp_path, capsys):
    strat_path = tmp_path / "plan.json"
    code = main(["solve-recursive", "--game",
                 str(corpus_dir / "mdp_final_remark.game"),
                 "--max-horizon", "64", "--tol", "1/50", "--window", "3",
                 "--strategy-out", str(strat_path)])
    assert code == 0
    strategy = load_strategy(strat_path)
    assert strategy.player == 1
    assert strategy.table


def test_budget_exit_code(corpus_dir, capsys, monkeypatch):
    monkeypatch.setenv("SIGNALGAMES_NODE_BUDGET", "10")
    code = main(["solve-nstage", "--game",
                 str(corpus_dir / "example2_informed.game"), "--horizon", "6"])
    assert code == 3


@pytest.mark.parametrize("command, args, last", [
    ("solve-sup", ["--max-horizon", "50"], 4),
    ("solve-recursive", ["--max-horizon", "50", "--window", "2"], 12),
])
def test_a_budget_cut_schedule_exits_three(corpus_dir, capsys, monkeypatch,
                                           command, args, last):
    """Under a node budget of 40 both schedule commands on the quitting
    game print the values that fit, to horizon ``last``, name that horizon
    on stderr and exit 3."""
    monkeypatch.setenv("SIGNALGAMES_NODE_BUDGET", "40")
    code = main([command, "--game", str(corpus_dir / "quitting_game.game"), *args])
    out, err = capsys.readouterr()
    assert code == 3
    rows = [line for line in out.splitlines() if line[:1].isdigit()]
    assert rows[-1].startswith(f"{last},")
    computed = "bounds" if command == "solve-sup" else "values"
    assert err == (f"resource budget exhausted: {computed} computed to "
                   f"horizon {last} of 50\n")


@pytest.mark.parametrize("raw", ["-5", "many"])
def test_invalid_budget_variable_exits_one(corpus_dir, capsys, monkeypatch,
                                           raw):
    """A negative budget is refused like a non-integer one, where it used
    to exit 3 reporting "node budget -5 exceeded"."""
    monkeypatch.setenv("SIGNALGAMES_NODE_BUDGET", raw)
    code = main(["solve-nstage", "--game",
                 str(corpus_dir / "example2_informed.game"), "--horizon", "2"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "SIGNALGAMES_NODE_BUDGET" in err
    assert "exceeded" not in err


def test_lp_failure_exits_one_without_traceback(corpus_dir, capsys, monkeypatch):
    import signalgames.seqform as seqform
    from signalgames.errors import LPError

    def abort(lp, **kwargs):
        raise LPError("pivot limit 0 exceeded")

    monkeypatch.setattr(seqform, "solve_lp", abort)
    code = main(["solve-nstage", "--game",
                 str(corpus_dir / "bigmatch_nosignals.game"), "--horizon", "2"])
    assert code == 1
    err = capsys.readouterr().err
    assert "error: pivot limit 0 exceeded" in err
    assert "Traceback" not in err


def test_kernel_check_cli(corpus_dir, capsys):
    code = main(["kernel-check", "--game",
                 str(corpus_dir / "noisy_public_2state.game"),
                 "--n", "1", "--m", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "max discrepancy: 0" in out


def test_kernel_check_cli_output_pinned(capsys):
    game = Path(__file__).resolve().parents[1] / "games" / "example1_guessing.game"
    code = main(["kernel-check", "--game", str(game), "--n", "1", "--m", "3"])
    assert code == 0
    assert capsys.readouterr().out == (
        "kernel identities at (n=1, m=3): 16 pairs checked\n"
        "  row normalization: exact\n"
        "  strategy independence: exact\n"
        "  sum identity: exact\n"
        "max discrepancy: 0\n")


def test_kernel_check_dump_trees_builds_trees_once(corpus_dir, tmp_path,
                                                  monkeypatch, capsys):
    from signalgames import cli, histories
    horizons = []
    build = histories.build_trees

    def counting_build(spec, horizon, **kwargs):
        horizons.append(horizon)
        return build(spec, horizon, **kwargs)

    monkeypatch.setattr(cli, "build_trees", counting_build)
    monkeypatch.setattr(histories, "build_trees", counting_build)
    dump = tmp_path / "trees.csv"
    code = main(["kernel-check", "--game",
                 str(corpus_dir / "noisy_public_2state.game"),
                 "--n", "1", "--m", "2", "--dump-trees", str(dump)])
    assert code == 0
    assert horizons == [2]
    assert dump.read_text().startswith("kind,level,sequence,weight\n")
    assert "max discrepancy: 0" in capsys.readouterr().out


def test_kernel_check_dump_trees_golden(corpus_dir, tmp_path, capsys):
    # recorded from the Fraction tree build, before integer masses
    golden = Path(__file__).resolve().parent / "golden" / "kernel_dump_noisy3.csv"
    dump = tmp_path / "trees.csv"
    code = main(["kernel-check", "--game",
                 str(corpus_dir / "noisy_public_2state.game"),
                 "--n", "1", "--m", "3", "--dump-trees", str(dump)])
    assert code == 0
    assert dump.read_bytes() == golden.read_bytes()
    assert "max discrepancy: 0" in capsys.readouterr().out


@pytest.mark.parametrize("game", ["bigmatch_fullmonitor", "noisy_public_2state",
                                  "quitting_game"])
def test_reduce_symmetric_csv_golden(corpus_dir, tmp_path, capsys, game):
    """One row per public observed history, histories of equal or absorbed
    beliefs included, read off the observed tree; recorded when a
    per-history belief build wrote it.  The summary counts the rows, and
    without ``--csv`` the same text goes to stdout."""
    golden = Path(__file__).resolve().parent / "golden" / f"reduce_symmetric_{game}3.csv"
    out = tmp_path / "aux.csv"
    argv = ["reduce-symmetric", "--game", str(corpus_dir / f"{game}.game"),
            "--horizon", "3"]
    assert main(argv + ["--csv", str(out)]) == 0
    assert out.read_bytes() == golden.read_bytes()
    rows = golden.read_text().count("\n") - 1
    assert capsys.readouterr().out.splitlines()[-1] == \
        f"auxiliary game written to {out} ({rows} nodes)"
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert printed.partition("\n")[2] == golden.read_text()


@pytest.mark.parametrize("game", ["bigmatch_fullmonitor", "noisy_public_2state",
                                  "quitting_game"])
@pytest.mark.parametrize("horizon", [1, 2])
def test_reduce_symmetric_shorter_horizons_are_golden_prefixes(
        corpus_dir, capsys, game, horizon):
    """At horizons 1 and 2 the dump is the horizon-3 golden's rows of
    depth <= n, the depth-n rows without transitions: a horizon leaf is
    never expanded."""
    golden = Path(__file__).resolve().parent / "golden" / f"reduce_symmetric_{game}3.csv"
    header, *rows = golden.read_text().splitlines()
    want = [header]
    for row in csv.reader(rows):
        depth, view, weight, posterior, transitions = row
        if int(depth) <= horizon:
            want.append(",".join([depth, f'"{view}"', weight, f'"{posterior}"',
                                  f'"{transitions if int(depth) < horizon else ""}"']))
    assert main(["reduce-symmetric", "--game", str(corpus_dir / f"{game}.game"),
                 "--horizon", str(horizon)]) == 0
    assert capsys.readouterr().out.partition("\n")[2] == "\n".join(want) + "\n"


@pytest.mark.parametrize("game, labels", [("bigmatch_fullmonitor", "o"),
                                          ("noisy_public_2state", "s0 u w"),
                                          ("quitting_game", "o")])
def test_reduce_symmetric_header_names_the_row_labels(corpus_dir, capsys, game, labels):
    """The header lists the public labels of ``public_labels``, in order,
    and each row's last observed signal is one of them; it used to print
    ids the symmetry witness invents (s0, s1, ...), which no row used."""
    assert main(["reduce-symmetric", "--game", str(corpus_dir / f"{game}.game"),
                 "--horizon", "3"]) == 0
    header, _, table = capsys.readouterr().out.partition("\n")
    assert header == f"symmetric signaling confirmed; public signals: {labels}"
    last = {row["observed_history"].split()[-1] for row in csv.DictReader(table.splitlines())}
    assert last <= set(labels.split())


def test_simulate_deterministic_cli(corpus_dir, capsys):
    argv = ["simulate", "--game", str(corpus_dir / "bigmatch_nosignals.game"),
            "--horizon", "5", "--seed", "9", "--replicas", "200"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second


def test_verify_paper_reports_byte_identical(tmp_path, capsys):
    csv1, csv2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    json1, json2 = tmp_path / "r1.json", tmp_path / "r2.json"
    only = ["--only", "example3_bigmatch_blind1"]
    assert main(["verify-paper", "--csv", str(csv1), "--json", str(json1)] + only) == 0
    capsys.readouterr()
    assert main(["verify-paper", "--csv", str(csv2), "--json", str(json2)] + only) == 0
    capsys.readouterr()
    assert csv1.read_bytes() == csv2.read_bytes()
    assert json1.read_bytes() == json2.read_bytes()
    data = json.loads(json1.read_text())
    assert data["all_ok"] is True


def test_cli_entrypoint_subprocess(corpus_dir):
    result = subprocess.run(
        [sys.executable, "-m", "signalgames.cli", "validate", "--game",
         str(corpus_dir / "quitting_game.game")],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "ok" in result.stdout


@pytest.mark.parametrize("command, flag, value", [
    ("solve-recursive", "--tol", "0.1"), ("solve-recursive", "--tol", "0"),
    ("solve-recursive", "--tol", "-1/10"),
    ("solve-recursive", "--max-horizon", "0"),
    ("solve-recursive", "--max-horizon", "x"),
    ("solve-recursive", "--window", "0"),
    ("solve-sup", "--max-horizon", "0"),
    ("verify-example", "--eps", "abc"),
], ids=["tol-decimal", "tol-zero", "tol-negative", "max-horizon-zero",
        "max-horizon-text", "window-zero", "sup-max-horizon-zero", "example-eps-text"])
def test_bad_sweep_argument_usage_error(corpus_dir, capsys, command, flag,
                                        value):
    target = (["--id", "1", "--side", "maxmin"] if command == "verify-example"
              else ["--game", str(corpus_dir / "quitting_game.game")])
    with pytest.raises(SystemExit) as err:
        main([command, *target, flag, value])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith("usage:")
    assert f"argument {flag}" in stderr
    assert "Traceback" not in stderr


@pytest.mark.parametrize("argv, flag", [
    (["reduce-symmetric", "--horizon", "0"], "--horizon"),
    (["solve-nstage", "--horizon", "0"], "--horizon"),
    (["simulate", "--horizon", "0"], "--horizon"),
    (["simulate", "--horizon", "3", "--replicas", "0"], "--replicas"),
    (["kernel-check", "--n", "0", "--m", "2"], "--n"),
    (["kernel-check", "--n", "1", "--m", "0"], "--m"),
    (["verify-example", "--id", "1", "--side", "maxmin", "--horizon", "0"],
     "--horizon"),
], ids=["reduce-horizon-zero", "nstage-horizon-zero", "simulate-horizon-zero",
        "simulate-replicas-zero", "kernel-n-zero", "kernel-m-zero",
        "example-horizon-zero"])
def test_nonpositive_count_usage_error(corpus_dir, capsys, argv, flag):
    game = ([] if argv[0] == "verify-example"
            else ["--game", str(corpus_dir / "noisy_public_2state.game")])
    with pytest.raises(SystemExit) as err:
        main(argv[:1] + game + argv[1:])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith("usage:")
    assert f"argument {flag}: must be at least 1, got 0" in stderr
    assert "Traceback" not in stderr


def test_kernel_check_n_above_m_usage_error(corpus_dir, capsys):
    with pytest.raises(SystemExit) as err:
        main(["kernel-check", "--game",
              str(corpus_dir / "noisy_public_2state.game"),
              "--n", "3", "--m", "2"])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith("usage: signalgames kernel-check ")
    assert stderr.count("error:") == 1
    assert ("signalgames kernel-check: error: argument --n: must be at most "
            "--m, got --n 3 --m 2") in stderr
    assert "verify-paper" not in stderr
    assert "Traceback" not in stderr


def test_symmetric_game_missing_transition_exits_one(tmp_path, capsys):
    game = Path(__file__).resolve().parents[1] / "games" / "quitting_game.game"
    doc = json.loads(game.read_text())
    del doc["transitions"][0]
    broken = tmp_path / "broken.game"
    broken.write_text(json.dumps(doc))
    code = main(["solve-nstage", "--game", str(broken), "--horizon", "2"])
    assert code == 1
    err = capsys.readouterr().err
    assert ("error: invalid symmetric game spec: transition: missing entry "
            "('go', 'C', 'c')") in err
    assert "Traceback" not in err


GAMES = Path(__file__).resolve().parents[1] / "games"
GOLDEN = Path(__file__).resolve().parent / "golden"


def test_recursive_plan_simulates(tmp_path, capsys):
    # The eps-optimal plan leaves absorbed views out; simulation must still
    # play it for the whole horizon.
    game = str(GAMES / "quitting_game.game")
    plan = str(tmp_path / "plan.json")
    assert main(["solve-recursive", "--game", game, "--max-horizon", "8",
                 "--tol", "1/50", "--window", "3", "--strategy-out", plan]) == 0
    capsys.readouterr()
    assert main(["simulate", "--game", game, "--horizon", "3",
                 "--replicas", "5", "--sigma", plan]) == 0
    assert capsys.readouterr().out.startswith("replicas 5, horizon 3, seed 0\n")


@pytest.mark.parametrize("game, argv", [
    ("bigmatch_nosignals", ["--horizon", "6", "--seed", "7", "--replicas", "300",
                            "--sigma", str(GOLDEN / "simulate_bigmatch_nosignals_sigma3.json")]),
    ("noisy_public_2state", ["--horizon", "5", "--seed", "11", "--replicas", "250"]),
])
def test_simulate_stdout_golden(game, argv, capsys):
    """The simulator's draws are SHA-256 counter draws: these bytes pin
    them.  The strategy is ``solve-nstage --horizon 3``'s player-1 plan."""
    assert main(["simulate", "--game", str(GAMES / f"{game}.game")] + argv) == 0
    expected = (GOLDEN / f"simulate_{game}.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def _strategy_doc(**changes) -> str:
    doc = {"player": 1, "horizon": 1, "view_kind": "player", "tail": None,
           "table": {'["o"]': {"C": "1/2", "Q": "1/2"}}}
    doc.update(changes)
    return json.dumps(doc)


def _game_doc(**changes) -> str:
    doc = json.loads((GAMES / "quitting_game.game").read_text())
    doc.update(changes)
    return json.dumps(doc)


def _first_entry_doc(field: str, key: str, value) -> str:
    """The quitting game with ``key`` of its first ``field`` entry set to
    ``value``."""
    doc = json.loads((GAMES / "quitting_game.game").read_text())
    doc[field][0][key] = value
    return json.dumps(doc)


def _huge_reward_doc(exponent: int = 400) -> str:
    """``mdp_final_remark`` with both rewards of its state 1* set to
    10**exponent, an exact integer past float range at the default."""
    doc = json.loads((GAMES / "mdp_final_remark.game").read_text())
    for entry in doc["rewards"]:
        if entry["state"] == "1*":
            entry["value"] = str(10 ** exponent)
    return json.dumps(doc)


_SIMULATE_20 = ["simulate", "--horizon", "10", "--replicas", "20", "--seed", "1"]


@pytest.mark.parametrize("exponent, argv, code, line", [
    (400, ["solve-nstage", "--horizon", "4"], 0,
     f"value (mean, horizon 4): {25 * 10 ** 398} (= 2.5e+399)"),
    (400, ["solve-sup", "--max-horizon", "2"], 0,
     "sup value bracketed; lower bounds are guarantees, stabilized=False"),
    (400, ["solve-recursive", "--max-horizon", "6"], 0,
     f"certified lower bound of the uniform value: {375 * 10 ** 397} "
     "(= 3.75e+399)"),
    (400, ["simulate", "--horizon", "10", "--replicas", "200", "--seed", "1"], 1,
     "error: reward at state '1*', actions 'Top', '-' is beyond float range"),
    # rewards inside float range whose sums are not
    (308, _SIMULATE_20, 1, "error: simulated mean payoff is beyond float range"),
    # a finite mean whose squared deviations are not
    (200, _SIMULATE_20, 1,
     "error: simulated variance of the mean payoffs is beyond float range"),
], ids=["solve-nstage", "solve-sup", "solve-recursive", "simulate",
        "simulate-mean", "simulate-variance"])
def test_values_beyond_float_range(tmp_path, capsys, exponent, argv, code, line):
    """Exact values past float range print their decimal form through
    ``decimal``; the simulator, whose statistics are floats, refuses a
    reward or a statistic past float range with one line."""
    game = tmp_path / "huge.game"
    game.write_text(_huge_reward_doc(exponent))
    assert main(["validate", "--game", str(game)]) == 0
    assert main([argv[0], "--game", str(game), *argv[1:]]) == code
    out, err = capsys.readouterr()
    assert line in (out if code == 0 else err).splitlines()
    assert "Traceback" not in err


@pytest.mark.parametrize("command, document, message", [
    ("validate", _game_doc(initial=[1]),
     "error: $.initial[0]: expected an object with field 'state'"),
    ("simulate", _strategy_doc(player="a"),
     "error: $.player: player must be an integer, got 'a'"),
    ("simulate", _strategy_doc(table={'["o"]': {"C": "1/2"}}),
     "error: $: invalid strategy: strategy view ('o',): the mass is 1/2, not 1"),
    ("simulate", _strategy_doc(tail={"C": "1", "Q": "1"}),
     "error: $: invalid strategy: strategy tail: the mass is 2, not 1"),
    # every number in a file is a string: a JSON number or true is refused
    ("validate", _first_entry_doc("rewards", "value", True),
     "error: $.rewards[0].value: rational must be a string, got bool"),
    ("validate", _first_entry_doc("initial", "prob", 1),
     "error: $.initial[0].prob: rational must be a string, got int"),
    ("simulate", _strategy_doc(tail={"C": True}),
     "error: $.tail: rational must be a string, got bool"),
], ids=["game-initial-not-object", "strategy-player-text", "strategy-table-mass",
        "strategy-tail-mass", "game-reward-true", "game-prob-int", "strategy-tail-true"])
def test_malformed_file_exits_one(tmp_path, command, document, message):
    path = tmp_path / "input.json"
    path.write_text(document)
    game = path if command == "validate" else GAMES / "quitting_game.game"
    argv = [command, "--game", str(game)]
    if command == "simulate":
        argv += ["--horizon", "2", "--sigma", str(path)]
    result = subprocess.run([sys.executable, "-m", "signalgames.cli", *argv],
                            capture_output=True, text=True)
    assert result.returncode == 1
    assert message in result.stderr.splitlines()
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("command, extra", [
    ("simulate", ["--horizon", "2"]),
    ("kernel-check", ["--n", "1", "--m", "2"]),
])
@pytest.mark.parametrize("flag, document, message", [
    ("--tau", _strategy_doc(),
     "error: the strategy must be player 2's, got player 1's"),
    ("--sigma", _strategy_doc(table={'["o"]': {"C": "1/2", "X": "1/2"}}),
     "error: {path}: strategy view ('o',): 'X' is not an action of player 1"),
    ("--sigma", _strategy_doc(player=2),
     "error: the strategy must be player 1's, got player 2's"),
], ids=["other-player-actions", "foreign-action", "other-player"])
def test_strategy_of_another_player_or_game_exits_one(
        tmp_path, capsys, command, extra, flag, document, message):
    """A strategy file is checked against the game and its slot: an action
    the slot's player does not have, or a file of the other player, exits 1
    with one line.  A player-1 plan given as ``--tau`` used to end in a
    KeyError traceback under ``simulate`` and to pass every identity under
    ``kernel-check``."""
    path = tmp_path / "plan.json"
    path.write_text(document)
    argv = [command, "--game", str(GAMES / "quitting_game.game"), *extra,
            flag, str(path)]
    try:
        code = main(argv)
    except SystemExit as exit_:
        code, err = 1, [str(exit_.code)]
    else:
        err = capsys.readouterr().err.splitlines()
    assert (code, err) == (1, [message.format(path=path)])


@pytest.mark.parametrize("command, flag, extra", [
    ("simulate", "--sigma", ["--horizon", "2"]),
    ("kernel-check", "--tau", ["--n", "1", "--m", "2"]),
])
def test_missing_strategy_file_exits_one(tmp_path, command, flag, extra):
    missing = str(tmp_path / "nope.json")
    argv = [command, "--game", str(GAMES / "quitting_game.game"), *extra,
            flag, missing]
    result = subprocess.run([sys.executable, "-m", "signalgames.cli", *argv],
                            capture_output=True, text=True)
    assert result.returncode == 1
    assert result.stderr.splitlines() == [f"error: no such strategy file: {missing}"]


@pytest.mark.parametrize("argv", [
    ["validate", "--game", "DIR"],
    ["simulate", "--game", str(GAMES / "quitting_game.game"), "--horizon", "2",
     "--sigma", "DIR"],
], ids=["game", "strategy"])
def test_unreadable_input_exits_one(tmp_path, argv):
    """A game or strategy path that cannot be read, here a directory, exits
    1 with one line naming the path and the reason, not a traceback."""
    argv = [str(tmp_path) if arg == "DIR" else arg for arg in argv]
    result = subprocess.run([sys.executable, "-m", "signalgames.cli", *argv],
                            capture_output=True, text=True)
    assert result.returncode == 1
    assert result.stderr.splitlines() == [
        f"error: cannot read {tmp_path}: Is a directory"]


@pytest.mark.parametrize("command, game, flag, extra", [
    ("solve-sup", "example3_bigmatch_blind1", "--csv", ["--max-horizon", "2"]),
    ("solve-recursive", "quitting_game", "--strategy-out",
     ["--max-horizon", "8"]),
])
def test_unwritable_output_exits_one(tmp_path, command, game, flag, extra):
    target = str(tmp_path / "nodir" / "out")
    argv = [command, "--game", str(GAMES / f"{game}.game"), *extra,
            flag, target]
    result = subprocess.run([sys.executable, "-m", "signalgames.cli", *argv],
                            capture_output=True, text=True)
    assert result.returncode == 1
    assert result.stderr.splitlines() == [
        f"error: cannot write {target}: No such file or directory"]


def test_verify_paper_unknown_entry_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify-paper", "--only", "no_such_entry"])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith("usage:")
    errors = [line for line in stderr.splitlines() if "error:" in line]
    assert len(errors) == 1
    assert "unknown corpus entry 'no_such_entry'" in errors[0]
    assert "quitting_game" in errors[0] and "mdp_final_remark" in errors[0]


@pytest.mark.parametrize("command, data, message", [
    ("solve-nstage", b"\xff\xfe{}",
     "error: {path}: not UTF-8 text (invalid start byte at byte 0)"),
    ("simulate", b'{"player": 1, "horizon": 1, "table": {"\xe9": {}}}',
     "error: {path}: not UTF-8 text (invalid continuation byte at byte 39)"),
    ("solve-nstage", b"[" * 100000, "error: invalid JSON: nested too deeply"),
    ("simulate", b'{"player": 1, "horizon": 1, "table": {"[[\\"o\\"]]": {"C": "1"}}}',
     "error: $.table: view key is not a JSON array of labels: '[[\"o\"]]'"),
], ids=["game-not-utf8", "strategy-not-utf8", "game-nested-too-deeply",
        "strategy-view-of-arrays"])
def test_undecodable_file_exits_one(tmp_path, command, data, message):
    path = tmp_path / "input.json"
    path.write_bytes(data)
    if command == "simulate":
        argv = [command, "--game", str(GAMES / "quitting_game.game"),
                "--horizon", "2", "--sigma", str(path)]
    else:
        argv = [command, "--game", str(path), "--horizon", "1"]
    result = subprocess.run([sys.executable, "-m", "signalgames.cli", *argv],
                            capture_output=True, text=True)
    assert result.returncode == 1
    assert result.stderr.splitlines() == [message.format(path=path)]


@pytest.mark.parametrize("spaced", [False, True], ids=["joined", "spaced"])
def test_negative_rational_parses_in_both_spellings(capsys, spaced):
    """``--eps -1/100`` reads the value as ``--eps=-1/100`` does."""
    value = ["--eps", "-1/100"] if spaced else ["--eps=-1/100"]
    code = main(["verify-example", "--id", "1", "--side", "maxmin", *value])
    out = capsys.readouterr().out
    assert code == 1
    assert "-1/2 <= -51/100" in out and out.endswith("FAILED\n")


def test_example_2_minmax_needs_two_stages(capsys):
    """Example 2's minmax check probes a switch at stage horizon // 2, so
    ``--horizon 1`` is a usage error, as ``kernel-check --n`` above ``--m``
    is; it used to fail with "reduced matrix is not switch-time invariant"."""
    with pytest.raises(SystemExit) as err:
        main(["verify-example", "--id", "2", "--side", "minmax",
              "--horizon", "1"])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith("usage: signalgames verify-example ")
    assert ("signalgames verify-example: error: argument --horizon: must be "
            "at least 2 for --id 2 --side minmax, got 1") in stderr
    assert "kernel-check" not in stderr
    assert main(["verify-example", "--id", "2", "--side", "minmax",
                 "--horizon", "2"]) == 0


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_command_lines() -> list:
    """``(argv, documented output lines)`` of each ``signalgames`` line of
    README's "Command line" block, ``\\`` continuations joined; a
    ``# -> text`` comment under a command documents a line it prints."""
    section = README.read_text(encoding="utf-8").split("## Command line\n")[1]
    block = section.split("```sh\n")[1].split("```")[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("signalgames "):
            commands.append((shlex.split(line)[1:], []))
        elif line.startswith("# -> "):
            commands[-1][1].append(line[len("# -> "):])
    return commands


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    """Every command line README shows runs, from a scratch directory with
    ``games/`` read from the checkout, exits 0 and prints what the README
    says it prints."""
    commands = _readme_command_lines()
    assert len(commands) == 10
    assert sum(len(documented) for _, documented in commands) == 1
    monkeypatch.chdir(tmp_path)
    for argv, documented in commands:
        argv = [str(GAMES / arg[len("games/"):]) if arg.startswith("games/")
                else arg for arg in argv]
        assert main(argv) == 0, argv
        printed = capsys.readouterr().out.splitlines()
        for line in documented:
            assert line in printed, (argv, line)


@pytest.mark.parametrize("spaced", [False, True], ids=["joined", "spaced"])
def test_negative_tolerance_is_refused_as_nonpositive(capsys, spaced):
    value = ["--tol", "-1/100"] if spaced else ["--tol=-1/100"]
    with pytest.raises(SystemExit) as err:
        main(["solve-recursive", "--game", str(GAMES / "quitting_game.game"),
              *value])
    assert err.value.code == 2
    assert ("argument --tol: must be positive, got -1/100"
            in capsys.readouterr().err)


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """Inputs for drawn command lines: good, missing and malformed game
    and strategy files, writable and unwritable output paths."""
    root = tmp_path_factory.mktemp("cli")
    (root / "broken.game").write_text(_game_doc(initial=[1]))
    (root / "garbage.json").write_bytes(b"\xff{")
    (root / "plan.json").write_text(_strategy_doc())
    (root / "half.json").write_text(_strategy_doc(table={'["o"]': {"C": "1/2"}}))
    (root / "huge.game").write_text(_huge_reward_doc())
    (root / "huge200.game").write_text(_huge_reward_doc(200))
    games = [str(GAMES / f"{name}.game") for name in (
        "quitting_game", "mdp_final_remark", "noisy_public_2state",
        "example1_guessing", "example3_bigmatch_blind1", "bigmatch_nosignals")]
    inputs = [str(root / name) for name in
              ("huge.game", "huge200.game", "broken.game", "garbage.json",
               "missing.game")]
    strategies = [str(root / name) for name in
                  ("plan.json", "half.json", "garbage.json", "missing.json")]
    outputs = [str(root / "out.txt"), str(root / "nodir" / "out.txt"), str(root)]
    return games + inputs, strategies, outputs


# counts and rationals as (good values, bad values)
_COUNTS = (["1", "2", "3"], ["0", "-1", "x", "1/2"])
_RATIONALS = (["1/100", "1/2", "3"], ["-1/100", "0", "1/0", "0.1", "abc", "-2"])
# a schedule's cap: past 3 only so that the node budget, not the cap,
# ends some drawn schedules (exit 3)
_CAPS = (_COUNTS[0] + ["50"], _COUNTS[1])


def _required_flags() -> dict:
    """The flags argparse requires, per subcommand, read from the parser."""
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    return {name: {action.option_strings[0] for action in parser._actions
                   if action.required and action.option_strings}
            for name, parser in sub.choices.items()}


_REQUIRED = _required_flags()


def _command_lines(files):
    """Argument vectors over the real subcommands and flags, each line from
    a ``random.Random`` that hypothesis seeds, so the odds are exact
    (``st.integers`` and ``st.sampled_from`` favour their first and last
    choices): a required flag is present nine times in ten and any other
    flag half the time; a count or a rational is one of its good values
    three times in four, else one of its bad ones; one line in ten gets a
    stray argument.  Horizons stay at most 3; a schedule's cap may be 50,
    which the node budget, not the cap, ends."""
    game_files, strategies, outputs = files
    flags = {
        "validate": {"--game": game_files},
        "reduce-symmetric": {"--game": game_files, "--horizon": _COUNTS,
                             "--csv": outputs},
        "solve-nstage": {"--game": game_files, "--horizon": _COUNTS,
                         "--eval": ["mean", "terminal", "max"],
                         "--strategy-out": outputs, "--verbose": None},
        "solve-sup": {"--game": game_files, "--max-horizon": _CAPS, "--csv": outputs},
        "solve-recursive": {"--game": game_files, "--tol": _RATIONALS,
                            "--max-horizon": _CAPS, "--window": _COUNTS,
                            "--csv": outputs, "--strategy-out": outputs},
        "simulate": {"--game": game_files, "--horizon": _COUNTS,
                     "--seed": ["0", "7", "-3", "x"], "--replicas": _COUNTS,
                     "--sigma": strategies, "--tau": strategies},
        "kernel-check": {"--game": game_files, "--n": _COUNTS, "--m": _COUNTS,
                         "--sigma": strategies, "--tau": strategies,
                         "--dump-trees": outputs},
        "verify-example": {"--id": ["1", "2", "3", "4"],
                           "--side": ["maxmin", "minmax", "x"],
                           "--horizon": _COUNTS, "--eps": _RATIONALS,
                           "--verbose": None},
        "verify-paper": {"--csv": outputs, "--json": outputs,
                         "--only": ["quitting_game", "mdp_final_remark", "nope"]},
    }

    @st.composite
    def draw(data):
        rng = data(st.randoms(use_true_random=True))
        command = rng.choice(sorted(flags))
        argv = [command]
        for flag, values in flags[command].items():
            if rng.random() >= (0.9 if flag in _REQUIRED[command] else 0.5):
                continue
            if isinstance(values, tuple):
                good, bad = values
                values = good if rng.random() < 0.75 else bad
            argv += [flag] if values is None else [flag, rng.choice(values)]
        if rng.random() < 0.1:
            argv.append(rng.choice(["--nope", "extra", "-1/2", "-h"]))
        return argv

    return draw()


def _exit_code(argv, budget="2000") -> tuple:
    """``(exit code, stderr)`` of one command line under a node budget of
    ``budget``; the default 2000 keeps every solve small."""
    err = io.StringIO()
    with mock.patch.dict(os.environ, {"SIGNALGAMES_NODE_BUDGET": budget}), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:
            # as sys.exit does: no code exits 0, a message exits 1
            code = exit_.code
            code = 0 if code is None else 1 if isinstance(code, str) else code
    return code, err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_command_line_exits_with_a_documented_code(cli_files, data):
    """0, 1, 2 or 3 for every drawn command line, with no traceback, under
    a drawn node budget: 40 cuts schedules short after a partial table."""
    argv = data.draw(_command_lines(cli_files))
    code, err = _exit_code(argv, data.draw(st.sampled_from(["40", "2000"])))
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err, argv


# Fixed small arguments per command; the seven that read a game get one.
_FIXED_ARGS = {
    "validate": [],
    "reduce-symmetric": ["--horizon", "2"],
    "solve-nstage": ["--horizon", "2"],
    "solve-sup": ["--max-horizon", "2"],
    "solve-recursive": ["--max-horizon", "3"],
    "simulate": _SIMULATE_20[1:],
    "kernel-check": ["--n", "1", "--m", "2"],
    "verify-example": ["--id", "1", "--side", "maxmin", "--horizon", "2"],
    "verify-paper": ["--only", "quitting_game"],
}
_GAMELESS = ("verify-example", "verify-paper")


def test_every_command_on_every_game_file_exits_with_a_documented_code(cli_files):
    """Each command once on each game input of ``cli_files`` (the two
    commands that read no game once each), so a fault that one file shows
    on one command is always reached: 0, 1, 2 or 3, with no traceback."""
    game_files = cli_files[0]
    lines = [[command, *args] for command, args in _FIXED_ARGS.items()
             if command in _GAMELESS]
    lines += [[command, "--game", game, *args] for command, args in _FIXED_ARGS.items()
              if command not in _GAMELESS for game in game_files]
    assert len(lines) == 2 + 7 * len(game_files)
    for argv in lines:
        code, err = _exit_code(argv)
        assert code in (0, 1, 2, 3), (argv, code)
        assert "Traceback" not in err, argv
