import json
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import absorbing_payoffs
from randgen import random_game, random_symmetric_game
from signalgames import corpus
from signalgames.errors import ParseError, UnknownIdError
from signalgames.gamefile import load_game, load_strategy, parse_spec, serialize_spec
from signalgames.model import SymmetricGameSpec


def test_roundtrip_corpus_bit_exact(games):
    for name, spec in games.items():
        doc = serialize_spec(spec)
        back = parse_spec(doc)
        assert serialize_spec(back) == doc, name
        assert type(back) is type(spec)


def test_roundtrip_random_games():
    for seed in range(15):
        spec = random_game(seed)
        doc = serialize_spec(spec)
        again = parse_spec(doc)
        assert again.initial == spec.initial
        assert again.transition == spec.transition
        assert again.reward == spec.reward
    for seed in range(15):
        sym = random_symmetric_game(seed)
        doc = serialize_spec(sym)
        again = parse_spec(doc)
        assert isinstance(again, SymmetricGameSpec)
        assert again.transition == sym.transition


def test_exact_rational_parse():
    spec = corpus.build_game("example2_informed")
    doc = serialize_spec(spec)
    assert '"-1/2"' in doc  # lowest-terms exact payoff in the document
    back = parse_spec(doc)
    assert back.reward[("s2", "B", "L")] == 0
    assert absorbing_payoffs(back)["-1/2*"] == F(-1, 2)


def test_parse_error_reports_location():
    with pytest.raises(ParseError) as err:
        parse_spec("{ not json")
    assert "line" in str(err.value)

    doc = json.loads(serialize_spec(corpus.build_game("bigmatch_nosignals")))
    doc["transitions"][0]["next"][0]["prob"] = "0.25"
    with pytest.raises(ParseError) as err:
        parse_spec(json.dumps(doc))
    assert "prob" in str(err.value)


def test_unknown_id_error():
    doc = json.loads(serialize_spec(corpus.build_game("bigmatch_nosignals")))
    doc["initial"][0]["state"] = "nowhere"
    with pytest.raises(UnknownIdError) as err:
        parse_spec(json.dumps(doc))
    assert "nowhere" in str(err.value)


def test_symmetric_file_shape():
    sym = corpus.build_game("noisy_public_2state")
    doc = json.loads(serialize_spec(sym))
    assert set(doc["signals"]) == {"public"}
    assert "sig" in doc["initial"][0]
    general = json.loads(serialize_spec(corpus.build_game("example3_bigmatch_blind1")))
    assert set(general["signals"]) == {"p1", "p2"}
    assert "sig1" in general["initial"][0]


def test_parsed_spec_validates(games):
    for name, spec in games.items():
        back = parse_spec(serialize_spec(spec))
        assert back.validate() == [], name


_documents = st.one_of(
    st.binary(max_size=200),
    st.text(max_size=200).map(lambda t: t.encode("utf-8")),
    st.recursive(st.none() | st.booleans() | st.integers() | st.text(max_size=5),
                 lambda inner: st.lists(inner, max_size=4)
                 | st.dictionaries(st.text(max_size=5), inner, max_size=4),
                 max_leaves=20).map(lambda d: json.dumps(d).encode("utf-8")))


@settings(max_examples=300, deadline=None)
@given(_documents)
@example(b"\xff\xfe{}")
@example(b"[" * 100000)
@example(b'{"player": 1, "horizon": 1, "table": {"[[1]]": {"a": "1"}}}')
def test_any_file_loads_or_raises_parse_error(data):
    """Whatever bytes a game or strategy file holds, loading it yields a
    spec or strategy, or a ParseError; nothing else escapes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_bytes(data)
        for loader in (load_game, load_strategy):
            try:
                loader(path)
            except ParseError:
                pass
