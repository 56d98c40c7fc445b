"""The document writer gives the bytes of `json.dumps(..., indent=2)`.

`json.dumps(value, sort_keys=True, indent=2)` is the reference here and
nowhere else: the command line writes every document with `cli._json`.
"""

import enum
import json
import random

import pytest

from lri.cli import _json

DOCUMENTS = 2500

# Characters a string or key is drawn from: plain ASCII, the ones JSON
# escapes, other control characters, non-ASCII and astral ones.
ALPHABET = (
    list("abcXYZ019 ,:.-_{}[]")
    + ['"', "\\", "/", "\n", "\r", "\t", "\b", "\f"]
    + ["\x00", "\x01", "\x1f", "\x7f"]
    + ["é", "ü", " ", "→", "﻿", "￿"]
    + ["\U0001f600", "\U00010000", "\U0010ffff"]
)

SCALARS = (
    0, 1, -1, 7, -123456789, 2**64, 2**64 + 1, -(2**70), 10**30,
    True, False, None,
    0.5, -0.0, 0.0, 1e300, -1e-300, 3.141592653589793,
    float("inf"), float("-inf"), float("nan"),
)


class _Text(str):
    pass


class _Real(float):
    def __repr__(self):
        return "not the JSON text"


class _Count(enum.IntEnum):
    ONE = 1


def _text(rng: random.Random) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(8)))


def _scalar(rng: random.Random):
    kind = rng.randrange(4)
    if kind == 0:
        return _text(rng)
    if kind == 1:
        wide = rng.random() < 0.2
        return rng.randrange(-(2**80), 2**80) if wide else rng.randrange(-9, 99)
    return rng.choice(SCALARS)


def _value(rng: random.Random, depth: int):
    """A scalar, or at depths below 4, possibly an empty or full container."""
    if depth >= 4 or rng.random() < 0.45:
        return _scalar(rng)
    return _container(rng, depth)


def _container(rng: random.Random, depth: int):
    size = 0 if rng.random() < 0.15 else rng.randrange(1, 6)
    kind = rng.randrange(3)
    if kind == 0:
        return {_text(rng): _value(rng, depth + 1) for _ in range(size)}
    if rng.random() < 0.4:
        # a run of one scalar type, as a document's index and text lists are
        make = rng.choice([lambda: _text(rng), lambda: rng.randrange(-5, 50)])
        items = [make() for _ in range(size)]
    else:
        items = [_value(rng, depth + 1) for _ in range(size)]
    return items if kind == 1 else tuple(items)


def test_random_documents_match_json_dumps():
    rng = random.Random(20261018)
    for _ in range(DOCUMENTS):
        doc = _container(rng, 0)
        assert _json(doc) == json.dumps(doc, sort_keys=True, indent=2), doc


@pytest.mark.parametrize(
    "doc",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": ()},
        [[[[]]], {"": {"": []}}],
        [True, 1, False, 0, 2, True],
        (1, True, None, 0.5, "1", -0.0, float("nan"), 2**64),
        {"é": 1, "\"q\\": "\U0001f600", "\n": None, "A": float("inf")},
        {"b": 1, "a": [1, 2, "x", "y", 3], "B": {"z": True, "y": [[]]}},
        [_Text("é"), _Real(0.25), _Real("nan"), _Real("-inf"), _Count.ONE],
    ],
)
def test_edge_documents_match_json_dumps(doc):
    assert _json(doc) == json.dumps(doc, sort_keys=True, indent=2)


@pytest.mark.parametrize("scalar", [b"x", 1j, {1}, object()])
def test_other_scalars_are_refused_as_json_dumps_refuses_them(scalar):
    with pytest.raises(TypeError) as expected:
        json.dumps([scalar], sort_keys=True, indent=2)
    with pytest.raises(TypeError) as refused:
        _json({"a": [0, scalar]})
    assert str(refused.value) == str(expected.value)
