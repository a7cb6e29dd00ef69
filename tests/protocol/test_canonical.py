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

from repro.protocol.canonical import (
    FLOAT_DECIMALS,
    array_text,
    canonical_dumps,
    canonical_text,
    float_text,
    object_text,
    pairs_text,
)


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
    """Parts rendered where they sit, stitched by ``object_text`` and
    ``array_text``, equal rendering the whole tree in one go."""
    whole = {"as_of": stamp, "section": parts, "list": list(parts.values())}
    entry_nl = "\n    "
    stitched = object_text({
        "as_of": canonical_text(stamp),
        "section": object_text(
            {key: canonical_text(part, entry_nl) for key, part in parts.items()},
            "\n  ",
        ),
        "list": array_text(
            [canonical_text(part, entry_nl) for part in parts.values()], "\n  "
        ),
    }) + "\n"
    assert stitched == canonical_dumps(whole)
    assert canonical_text(whole) + "\n" == canonical_dumps(whole)


_pairs = st.lists(
    st.tuples(
        st.one_of(st.integers(0, 10**6), _floats),
        st.one_of(st.integers(0, 1), _floats),
    ),
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(_pairs, st.sampled_from(["\n", "\n  ", "\n      "]))
def test_pairs_text_equals_rendering_the_lists(pairs, nl):
    texts = [(float_text(float(t)), float_text(float(p))) for t, p in pairs]
    want = canonical_text([[float(t), float(p)] for t, p in pairs], nl)
    assert pairs_text(texts, nl) == want


# -- the float text shortcuts against the rounding path ------------------

def _rounded_text(value: float) -> str:
    """The rounding path every float took before the shortcuts."""
    value = round(value, FLOAT_DECIMALS) + 0.0
    if value != value:
        return "NaN"
    if value in (math.inf, -math.inf):
        return "Infinity" if value > 0 else "-Infinity"
    return repr(value)


def _sweep(start: float, steps: int) -> list[float]:
    """``steps`` doubles either side of ``start``, both signs."""
    out = [start]
    below = above = start
    for _ in range(steps):
        below = math.nextafter(below, -math.inf)
        above = math.nextafter(above, math.inf)
        out += [below, above]
    return out + [-x for x in out]


_EDGES = (
    # The fixed-point range's ends, the plain-repr range's ends, and
    # 8192, above which a 12-decimal repr can differ from the nearest
    # 12-decimal number.
    _sweep(1e-4, 64) + _sweep(1e3, 64) + _sweep(1e4, 64) + _sweep(1e16, 64)
    + _sweep(8192.0, 64)
    # Dyadic values sit on exact ties of the 12th decimal or near it.
    + [2.0**-k for k in range(1, 60)] + [1.0 + 2.0**-k for k in range(30, 53)]
    + [k * 2.0**-13 for k in range(1, 40)] + [0.5e-12, 1.5e-12, 2.5e-12]
    + [0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, 5e-324, 1.7e308]
)


def test_float_text_matches_rounding_at_edges():
    for x in _EDGES:
        assert float_text(x) == _rounded_text(x), repr(x)


@settings(max_examples=2000, deadline=None)
@given(
    st.floats(allow_nan=True, allow_infinity=True)
    | st.floats(min_value=-2e3, max_value=2e3)
    | st.floats(min_value=-2e16, max_value=2e16)
    | st.decimals(min_value=-1e7, max_value=1e7, places=12).map(float)
)
def test_float_text_matches_rounding(x):
    assert float_text(x) == _rounded_text(x)


def test_float_text_matches_rounding_across_the_plain_repr_range():
    # Full-precision doubles spread evenly in magnitude over 1e3-1e17.
    rng = np.random.default_rng(7)
    for x in 10.0 ** rng.uniform(3.0, 17.0, size=20_000):
        x = float(x)
        assert float_text(x) == _rounded_text(x), repr(x)
        assert float_text(-x) == _rounded_text(-x), repr(-x)
