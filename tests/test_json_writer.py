"""The document writer gives the bytes of `json.dumps(..., indent=2)`.

`json.dumps(value, sort_keys=True, indent=2)` is the reference here and
nowhere else: the command line writes every document with `cli._json`.
"""

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
    0, 1, -1, 7, -123456789, 2**64, 2**64 + 1, -(2**70), 10**30, True, False,
)


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
    """A scalar, or at depths below 4, possibly an empty or full container.

    Documents hold only dicts, lists, strings, ints and booleans, so those
    are the types drawn.
    """
    if depth >= 4 or rng.random() < 0.45:
        return _scalar(rng)
    return _container(rng, depth)


def _container(rng: random.Random, depth: int):
    size = 0 if rng.random() < 0.15 else rng.randrange(1, 6)
    if rng.random() < 0.4:
        return {_text(rng): _value(rng, depth + 1) for _ in range(size)}
    if rng.random() < 0.4:
        # a run of one scalar type, as a document's index and text lists are
        make = rng.choice([lambda: _text(rng), lambda: rng.randrange(-5, 50)])
        return [make() for _ in range(size)]
    return [_value(rng, depth + 1) for _ in range(size)]


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
        [[], {}, [[]]],
        {"a": {}, "b": [], "c": [{}]},
        [[[[]]], {"": {"": []}}],
        [True, 1, False, 0, 2, True],
        [1, True, "1", 0, -1, 2**64, -(2**64), "true"],
        {"é": 1, "\"q\\": "\U0001f600", "\n": False, "A": "\x00\x1f\x7f"},
        {"b": 1, "a": [1, 2, "x", "y", 3], "B": {"z": True, "y": [[]]}},
        ["é", "\ufeff", "\uffff", "\U0010ffff", 10**30, [True], {"1": 1}],
    ],
)
def test_edge_documents_match_json_dumps(doc):
    assert _json(doc) == json.dumps(doc, sort_keys=True, indent=2)
