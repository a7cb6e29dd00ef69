"""``canonical_dumps`` against the stdlib encoder it replaced.

The one-pass renderer must produce exactly the bytes of the former
two-pass form: round every float in the tree, then
``json.dumps(indent=2, sort_keys=True, ensure_ascii=True)``.  That form
lives on here, and only here, as the oracle.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocol.canonical import FLOAT_DECIMALS, Canonical, canonical_dumps


def _round_tree(value):
    if isinstance(value, float):
        return round(value, FLOAT_DECIMALS) + 0.0
    if isinstance(value, dict):
        return {key: _round_tree(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_tree(v) for v in value]
    return value


def stdlib_dumps(doc) -> str:
    return json.dumps(
        _round_tree(doc), indent=2, sort_keys=True, ensure_ascii=True
    ) + "\n"


_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e-13, -4e-13, 5e-13, 0.1 + 0.2, 1e16, 1e300]),
)
_text = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)), max_size=8
)
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), _floats, _text,
    st.sampled_from(["", "é", "日本", "\n\t\"\\", "\x00", "😀"]),
)
_trees = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_text, inner, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_trees)
def test_renderer_matches_stdlib_oracle(doc):
    assert canonical_dumps(doc) == stdlib_dumps(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": ()},
        [math.nan, math.inf, -math.inf, -0.0, 0.0],
        {"ключ": "значение", "z": True, "a": False, "m": None, "n": 7},
        {"nested": [[1.0, 2.0], [3.5, -0.0], {"deep": (1, 2.25)}]},
        -0.0,
        "top-level string",
        12,
        True,
        None,
        [np.float64(0.1 + 0.2), np.float64(-0.0), np.float64(math.nan)],
    ],
)
def test_edge_documents_match_stdlib_oracle(doc):
    assert canonical_dumps(doc) == stdlib_dumps(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {3: 1.0, 1: 2.0},
        {0.5: 1, 1.5: 2, math.inf: 3, -math.inf: 4},
        {True: 1, False: 2},
        {None: "none"},
    ],
)
def test_non_string_keys_are_named_like_the_stdlib(doc):
    assert canonical_dumps(doc) == stdlib_dumps(doc)


def test_unserializable_values_raise_type_error():
    with pytest.raises(TypeError):
        canonical_dumps({"x": object()})
    with pytest.raises(TypeError):
        canonical_dumps({"x": np.int64(3)})
    with pytest.raises(TypeError):
        canonical_dumps({object(): 1})


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(_text, _trees, max_size=6), _floats)
def test_canonical_parts_stitch_to_the_same_bytes(parts, stamp):
    """Pre-rendered parts, re-indented where they sit, equal rendering
    the whole tree in one go."""
    whole = {"as_of": stamp, "section": parts}
    stitched = {
        "as_of": stamp,
        "section": {
            key: Canonical(canonical_dumps(part)[:-1])
            for key, part in parts.items()
        },
    }
    assert canonical_dumps(stitched) == canonical_dumps(whole)
