"""Game-file format: UTF-8 JSON with exact rational number strings.

Layout::

    {
      "comment":  "...",                     # optional
      "states":   ["s1", ...],
      "actions1": ["T", "B"],
      "actions2": ["L", "R"],
      "signals":  {"public": ["s0", ...]}    # symmetric game
                | {"p1": [...], "p2": [...]} # general game
      "initial":     [{"state":..., "sig":..., "prob":"1/2"}, ...]        # symmetric
                   | [{"state":..., "sig1":..., "sig2":..., "prob":...}]  # general
      "transitions": [{"state":..., "a1":..., "a2":..., "next":[
                         {"state":..., "sig":...|"sig1":...,"sig2":..., "prob":...}]}]
      "rewards":     [{"state":..., "a1":..., "a2":..., "value":"-1/6"}]
    }

All numbers are strings like ``"2/3"`` or ``"-1"``, never floats, and the
serializer emits lowest-terms rationals, sorted object keys and entries in
declared alphabet order, so serialize(parse(d)) is a canonical fixed point.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import ParseError, UnknownIdError
from .model import TAIL_REPEAT_LAST, BehavioralStrategy, GameSpec, SymmetricGameSpec
from .rationals import format_rational, parse_rational


def _need(obj: dict, key: str, where: str):
    if not isinstance(obj, dict):
        raise ParseError(f"expected an object with field {key!r}", where)
    if key not in obj:
        raise ParseError(f"missing field {key!r}", where)
    return obj[key]


def _id_list(obj, key, where) -> list[str]:
    value = _need(obj, key, where)
    if (not isinstance(value, list) or not value
            or not all(isinstance(s, str) for s in value)):
        raise ParseError(f"{key} must be a non-empty list of strings", where)
    return value


def _rational(obj, key, where) -> Fraction:
    raw = _need(obj, key, where)
    try:
        return parse_rational(raw)
    except ValueError as exc:
        raise ParseError(str(exc), f"{where}.{key}") from None


def _known(value: str, ids: list[str], kind: str, where: str) -> str:
    if value not in ids:
        raise UnknownIdError(f"unknown {kind} {value!r}", where)
    return value


def parse_spec(document: str):
    """Parse a game document into a GameSpec or SymmetricGameSpec."""
    data = _json_document(document)
    if not isinstance(data, dict):
        raise ParseError("top level must be an object", "$")

    states = _id_list(data, "states", "$")
    actions1 = _id_list(data, "actions1", "$")
    actions2 = _id_list(data, "actions2", "$")
    signals = _need(data, "signals", "$")
    if not isinstance(signals, dict):
        raise ParseError("signals must be an object", "$.signals")
    comment = data.get("comment", "")

    symmetric = "public" in signals
    if symmetric:
        if set(signals) != {"public"}:
            raise ParseError("symmetric signals object must have exactly the key 'public'",
                             "$.signals")
        public = _id_list(signals, "public", "$.signals")
    else:
        if set(signals) != {"p1", "p2"}:
            raise ParseError("signals must be {'public': [...]} or {'p1': [...], 'p2': [...]}",
                             "$.signals")
        sig1 = _id_list(signals, "p1", "$.signals")
        sig2 = _id_list(signals, "p2", "$.signals")

    def outcome(entry, where):
        """An outcome's key, (state, signal) or (state, signal1, signal2),
        and its probability."""
        x = _known(_need(entry, "state", where), states, "state", where)
        p = _rational(entry, "prob", where)
        if symmetric:
            s = _known(_need(entry, "sig", where), public, "signal", where)
            return (x, s), p
        c = _known(_need(entry, "sig1", where), sig1, "signal1", where)
        d = _known(_need(entry, "sig2", where), sig2, "signal2", where)
        return (x, c, d), p

    initial_raw = _need(data, "initial", "$")
    if not isinstance(initial_raw, list) or not initial_raw:
        raise ParseError("initial must be a non-empty list", "$.initial")
    initial = {}
    for k, entry in enumerate(initial_raw):
        key, p = outcome(entry, f"$.initial[{k}]")
        initial[key] = initial.get(key, Fraction(0)) + p

    transitions_raw = _need(data, "transitions", "$")
    if not isinstance(transitions_raw, list):
        raise ParseError("transitions must be a list", "$.transitions")
    transition = {}
    for k, entry in enumerate(transitions_raw):
        where = f"$.transitions[{k}]"
        x = _known(_need(entry, "state", where), states, "state", where)
        a1 = _known(_need(entry, "a1", where), actions1, "action1", where)
        a2 = _known(_need(entry, "a2", where), actions2, "action2", where)
        if (x, a1, a2) in transition:
            raise ParseError(f"duplicate transition entry ({x},{a1},{a2})", where)
        nxt_raw = _need(entry, "next", where)
        if not isinstance(nxt_raw, list) or not nxt_raw:
            raise ParseError("next must be a non-empty list", where)
        dist = {}
        for kk, nxt in enumerate(nxt_raw):
            key, p = outcome(nxt, f"{where}.next[{kk}]")
            dist[key] = dist.get(key, Fraction(0)) + p
        transition[(x, a1, a2)] = dist

    rewards_raw = _need(data, "rewards", "$")
    if not isinstance(rewards_raw, list):
        raise ParseError("rewards must be a list", "$.rewards")
    reward = {}
    for k, entry in enumerate(rewards_raw):
        where = f"$.rewards[{k}]"
        x = _known(_need(entry, "state", where), states, "state", where)
        a1 = _known(_need(entry, "a1", where), actions1, "action1", where)
        a2 = _known(_need(entry, "a2", where), actions2, "action2", where)
        if (x, a1, a2) in reward:
            raise ParseError(f"duplicate reward entry ({x},{a1},{a2})", where)
        reward[(x, a1, a2)] = _rational(entry, "value", where)

    if symmetric:
        return SymmetricGameSpec(states=states, actions1=actions1, actions2=actions2,
                                 signals=public, initial=initial,
                                 transition=transition, reward=reward, comment=comment)
    return GameSpec(states=states, actions1=actions1, actions2=actions2,
                    signals1=sig1, signals2=sig2, initial=initial,
                    transition=transition, reward=reward, comment=comment)


def serialize_spec(spec) -> str:
    """Canonical serialization: declared alphabet order, lowest-terms
    rationals, sorted object keys, trailing newline."""
    symmetric = isinstance(spec, SymmetricGameSpec)
    sidx = {x: k for k, x in enumerate(spec.states)}
    a1idx = {a: k for k, a in enumerate(spec.actions1)}
    a2idx = {a: k for k, a in enumerate(spec.actions2)}
    if symmetric:
        cidx = {s: k for k, s in enumerate(spec.signals)}
    else:
        cidx = {s: k for k, s in enumerate(spec.signals1)}
        didx = {s: k for k, s in enumerate(spec.signals2)}

    def outcome_entry(key, p):
        if symmetric:
            x, s = key
            return {"state": x, "sig": s, "prob": format_rational(p)}
        x, c, d = key
        return {"state": x, "sig1": c, "sig2": d, "prob": format_rational(p)}

    def outcome_sort(key):
        if symmetric:
            return (sidx[key[0]], cidx[key[1]])
        return (sidx[key[0]], cidx[key[1]], didx[key[2]])

    data = {
        "states": list(spec.states),
        "actions1": list(spec.actions1),
        "actions2": list(spec.actions2),
        "signals": ({"public": list(spec.signals)} if symmetric
                    else {"p1": list(spec.signals1), "p2": list(spec.signals2)}),
        "initial": [outcome_entry(k, spec.initial[k])
                    for k in sorted(spec.initial, key=outcome_sort)],
        "transitions": [
            {
                "state": x, "a1": i, "a2": j,
                "next": [outcome_entry(k, dist[k]) for k in sorted(dist, key=outcome_sort)],
            }
            for x in spec.states for i in spec.actions1 for j in spec.actions2
            for dist in [spec.transition[(x, i, j)]]
        ],
        "rewards": [
            {"state": x, "a1": i, "a2": j, "value": format_rational(spec.reward[(x, i, j)])}
            for x in spec.states for i in spec.actions1 for j in spec.actions2
        ],
    }
    if spec.comment:
        data["comment"] = spec.comment
    return json.dumps(data, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _json_document(document: str):
    """``json.loads(document)``; malformed or too deeply nested JSON raises
    ParseError."""
    try:
        return json.loads(document)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", f"line {exc.lineno}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None


def _read_document(path) -> str:
    """The text of a UTF-8 file; other bytes raise ParseError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text ({exc.reason} at byte {exc.start})",
                             str(path)) from None


def load_game(path):
    return parse_spec(_read_document(path))


# ---------------------------------------------------------------------------
# Strategy documents (game-file-adjacent JSON)
# ---------------------------------------------------------------------------


def serialize_strategy(strategy) -> str:
    """Behavioral strategy as JSON: view tuples become JSON arrays."""
    tail = strategy.tail
    if isinstance(tail, dict):
        tail = {a: format_rational(p) for a, p in sorted(tail.items())}
    data = {
        "player": strategy.player,
        "horizon": strategy.horizon,
        "view_kind": strategy.view_kind,
        "tail": tail,
        "table": {
            json.dumps(list(view)): {a: format_rational(p)
                                     for a, p in sorted(dist.items())}
            for view, dist in sorted(strategy.table.items(),
                                     key=lambda kv: (len(kv[0]), kv[0]))
        },
    }
    return json.dumps(data, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _strategy_int(data: dict, key: str, low: int, high: int | None = None) -> int:
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{key} must be an integer, got {value!r}", f"$.{key}")
    if value < low or (high is not None and value > high):
        bounds = f"{low}..{high}" if high is not None else f">= {low}"
        raise ParseError(f"{key} must be {bounds}, got {value}", f"$.{key}")
    return value


def _strategy_dist(raw, where: str) -> dict:
    if not isinstance(raw, dict):
        raise ParseError("distribution must be an object of action: probability", where)
    try:
        return {a: parse_rational(p) for a, p in raw.items()}
    except ValueError as exc:
        raise ParseError(str(exc), where) from None


def parse_strategy(document: str):
    """Parse a strategy document; every malformed one raises ParseError,
    including a table or tail distribution whose mass is not 1."""
    data = _json_document(document)
    if not isinstance(data, dict):
        raise ParseError("top level must be an object", "$")
    for key in ("player", "horizon", "table"):
        if key not in data:
            raise ParseError(f"missing field {key!r}", "$")
    if not isinstance(data["table"], dict):
        raise ParseError("table must be an object of view: distribution", "$.table")
    table = {}
    for raw_view, dist in data["table"].items():
        try:
            view = json.loads(raw_view)
        except (json.JSONDecodeError, RecursionError):
            view = None
        if not isinstance(view, list) or any(isinstance(e, (list, dict)) for e in view):
            raise ParseError(f"view key is not a JSON array of labels: {raw_view!r}",
                             "$.table")
        table[tuple(view)] = _strategy_dist(dist, f"$.table[{raw_view!r}]")
    tail = data.get("tail")
    if isinstance(tail, dict):
        tail = _strategy_dist(tail, "$.tail")
    elif tail not in (None, TAIL_REPEAT_LAST):
        raise ParseError(f"tail must be a distribution, {TAIL_REPEAT_LAST!r} or null",
                         "$.tail")
    view_kind = data.get("view_kind", "player")
    if view_kind not in ("player", "public"):
        raise ParseError(f"view_kind must be 'player' or 'public', got {view_kind!r}",
                         "$.view_kind")
    strategy = BehavioralStrategy(player=_strategy_int(data, "player", 1, 2),
                                  horizon=_strategy_int(data, "horizon", 0),
                                  table=table, tail=tail, view_kind=view_kind)
    problems = strategy.validate()
    if problems:
        raise ParseError("invalid strategy: " + "; ".join(problems[:5]), "$")
    return strategy


def load_strategy(path):
    return parse_strategy(_read_document(path))
