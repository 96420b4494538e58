import re
from fractions import Fraction as F

import pytest

from oracles import absorbing_payoffs
from signalgames import corpus
from signalgames.cli import main
from signalgames.errors import GameModelError
from signalgames.gamefile import load_game, serialize_spec
from signalgames.verify import build_corpus, run_verification, write_corpus_files


def test_corpus_files_roundtrip_bit_exact(tmp_path):
    paths = write_corpus_files(tmp_path)
    assert len(paths) == len(build_corpus())
    for path in paths:
        original = open(path, encoding="utf-8").read()
        again = serialize_spec(load_game(path))
        assert again == original, path


def test_every_claim_has_provenance_and_single_operation():
    for entry in build_corpus():
        assert entry.claims, entry.entry_id
        for claim in entry.claims:
            assert claim.provenance in ("literature", "derived", "trivial")
            assert claim.expected
            assert callable(claim.run)


def test_example_encodings_match_sources(games):
    # guessing game: payoffs only at the five absorbing states
    g1 = games["example1_guessing"]
    assert absorbing_payoffs(g1)["1*"] == 1
    assert absorbing_payoffs(g1)["-2*"] == -2
    assert g1.initial == {("s2", "n1", "n2"): F(1)}
    assert g1.transition[("s2", "T", "R")] == {
        ("-1*", "n1", "n2"): F(1, 2), ("s3", "n1", "n2"): F(1, 2)}
    assert g1.transition[("s2", "B", "L")] == {
        ("1*", "n1", "n2"): F(1, 2), ("s1", "n1", "n2"): F(1, 2)}

    # one-sided variant: quitting early absorbs at -1/2 for player 1
    g2 = games["example2_informed"]
    assert absorbing_payoffs(g2)["-1/2*"] == F(-1, 2)
    (key,) = g2.transition[("s2", "B", "L")]
    assert key[0] == "-1/2*"
    # player 2's signal reveals arrival state and both actions
    assert key[2] == "-1/2*:B:L"

    # Big Match variant: stage payoffs are the classic matrix
    g3 = games["example3_bigmatch_blind1"]
    assert g3.reward[("s", "T", "L")] == 1
    assert g3.reward[("s", "B", "R")] == 1
    assert g3.reward[("s", "T", "R")] == 0
    assert g3.reward[("s", "B", "L")] == 0

    # blind MDP: Top mixes, Bottom commits
    mdp = games["mdp_final_remark"]
    assert mdp.transition[("s1", "Top", "-")] == {
        ("s1", "n1", "n2"): F(1, 2), ("s2", "n1", "n2"): F(1, 2)}
    (key,) = mdp.transition[("s2", "Bottom", "-")]
    assert key[0] == "1*"


def test_shipped_game_files_are_the_one_canonical_corpus():
    """``games/*.game`` is the corpus's one source: every shipped file is in
    canonical form, so ``--write-corpus`` writes it back byte for byte, and
    the files, ``corpus.NAMES`` and the verification entries name the same
    games."""
    shipped = sorted(corpus.GAMES.glob("*.game"))
    for path in shipped:
        assert serialize_spec(load_game(path)) == path.read_text(encoding="utf-8"), path
    assert [entry.entry_id for entry in build_corpus()] == list(corpus.NAMES)
    assert [path.stem for path in shipped] == sorted(corpus.NAMES)


def test_build_game_refuses_an_unknown_name():
    with pytest.raises(KeyError, match="unknown corpus game 'nope'"):
        corpus.build_game("nope")


@pytest.mark.parametrize("argv", [
    ["verify-paper"],
    ["verify-example", "--id", "1", "--side", "maxmin"],
], ids=["verify-paper", "verify-example"])
def test_missing_corpus_directory_exits_one(tmp_path, monkeypatch, capsys, argv):
    """Without its game files the corpus raises GameModelError naming the
    missing path, and the commands that read it exit 1 with one line."""
    missing = tmp_path / "quitting_game.game"
    monkeypatch.setattr(corpus, "GAMES", tmp_path)
    with pytest.raises(GameModelError, match=re.escape(f"cannot read corpus game {missing}:")):
        corpus.build_game("quitting_game")
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: cannot read corpus game {tmp_path}")
    assert "Traceback" not in out + err


def test_run_verification_all_pass_and_deterministic():
    report1 = run_verification()
    assert report1.ok
    report2 = run_verification()
    assert report1.to_csv() == report2.to_csv()
    assert report1.to_json() == report2.to_json()
    # timing never leaks into machine reports
    assert "seconds" not in report1.to_json()
    assert len(report1.rows) >= 20


def test_run_verification_unknown_entry_raises_naming_known_entries():
    with pytest.raises(KeyError, match="unknown corpus entry 'nonexistent'") as err:
        run_verification(only="nonexistent")
    assert "quitting_game" in str(err.value) and "mdp_final_remark" in str(err.value)
