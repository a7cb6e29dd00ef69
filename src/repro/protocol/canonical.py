"""Canonical JSON serialization of report streams.

Golden-master tests and the fleet replay equivalence checks need a
*byte-stable* rendering of a report list: same reports in, same bytes
out, across processes and platforms.  Floats are rounded to a fixed
number of decimals before encoding — enough precision to catch any
real behavioural change, while immune to last-ulp formatting drift.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable, Mapping, Sequence

from repro.protocol.report import FailurePredictionReport

#: Decimal places kept for float fields.  12 significant decimals is far
#: below any physically meaningful tolerance in the pipeline but well
#: above float32 noise, so a golden mismatch is a genuine change.
FLOAT_DECIMALS = 12


def report_to_dict(report: FailurePredictionReport) -> dict:
    """One report as a plain, JSON-ready dict (fields in schema order)."""
    return {
        "knowledge_source_id": report.knowledge_source_id,
        "sensed_object_id": report.sensed_object_id,
        "machine_condition_id": report.machine_condition_id,
        "severity": round(float(report.severity), FLOAT_DECIMALS),
        "belief": round(float(report.belief), FLOAT_DECIMALS),
        "timestamp": round(float(report.timestamp), FLOAT_DECIMALS),
        "dc_id": report.dc_id,
        "explanation": report.explanation,
        "recommendations": report.recommendations,
        "additional_info": report.additional_info,
        "prognostic": [
            [round(float(t), FLOAT_DECIMALS), round(float(p), FLOAT_DECIMALS)]
            for t, p in report.prognostic.to_pairs()
        ],
        "degraded": report.degraded,
    }


def canonical_json(reports: Iterable[FailurePredictionReport]) -> str:
    """Byte-stable JSON document for a report stream (order preserved)."""
    doc = {"reports": [report_to_dict(r) for r in reports]}
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=True) + "\n"


_INF = float("inf")
_float_repr = float.__repr__


def float_text(value: float) -> str:
    """``repr(round(value, 12) + 0.0)``, named the way the stdlib
    encoder names NaN and the infinities.

    Two exact shortcuts skip the rounding for most values:

    * For 1e-4 <= |value| < 1e3, ``'%.12f' % value`` prints the digits
      of ``round(value, 12)`` (both round the exact binary value
      half-even at the 12th decimal).  They number at most 15
      significant digits, and every decimal of at most 15 digits
      survives a trip through a double, so no shorter string names the
      same double: with trailing zeros stripped it *is* the shortest
      repr, and the exponent range keeps repr in fixed notation.
    * If ``repr(value)`` has no exponent and at most 12 decimals, then
      ``round(value, 12) == value``.  ``round`` reads back the
      12-decimal number nearest ``value``; the repr is a 12-decimal
      number that reads back as ``value``, so one at least as near
      does too.  The one way out, a power of two (whose rounding
      interval is narrower below), needs two 12-decimal numbers
      within an ulp, so an ulp of 1e-12 or more and ``|value|`` >=
      8192, where a power of two is an integer and rounds to itself.
      Zero is folded to ``0.0``.

    * For 1e4 <= |value| < 1e16 the second shortcut always holds:
      repr prints at most 17 significant digits, at least 5 of them
      before the point, and switches to an exponent only from 1e16.

    Every other value takes the rounding path.  The tests hold the
    shortcuts to it at the range edges and on ties.
    """
    size = -value if value < 0.0 else value
    if 1e-4 <= size < 1e3:
        text = ("%.12f" % value).rstrip("0")
        return text + "0" if text[-1] == "." else text
    if 1e4 <= size < 1e16:
        return _float_repr(value)
    text = _float_repr(value)
    dot = text.find(".")
    if dot > 0 and len(text) - dot <= FLOAT_DECIMALS + 1 and "e" not in text:
        return text if value else "0.0"
    # + 0.0 folds -0.0 into 0.0 so sign-of-zero drift between two
    # arithmetically equal pipelines cannot break byte identity.
    value = round(value, FLOAT_DECIMALS) + 0.0
    if -_INF < value < _INF:
        return _float_repr(value)
    if value != value:
        return "NaN"
    return "Infinity" if value > 0.0 else "-Infinity"


def _key_text(key) -> str:
    # Dict keys are not rounded; non-string keys are named the way the
    # stdlib encoder names them.
    if isinstance(key, str):
        return _quote(key)
    if isinstance(key, float):
        if key != key:
            return '"NaN"'
        if key == _INF:
            return '"Infinity"'
        if key == -_INF:
            return '"-Infinity"'
        return _quote(_float_repr(key))
    if key is True:
        return '"true"'
    if key is False:
        return '"false"'
    if key is None:
        return '"null"'
    if isinstance(key, int):
        return _quote(int.__repr__(key))
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {type(key).__name__}"
    )


def _render(value, nl: str, out: list[str]) -> None:
    """Append ``value``'s text to ``out``; ``nl`` is the newline plus
    indentation of the line ``value`` starts on."""
    kind = type(value)
    if kind is dict:
        if not value:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(value):
            item = value[key]
            out.append(
                sep + (_quote(key) if type(key) is str else _key_text(key)) + ": "
            )
            if type(item) is float:
                out.append(float_text(item))
            else:
                _render(item, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for item in value:
            if type(item) is float:
                out.append(sep + float_text(item))
            else:
                out.append(sep)
                _render(item, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif kind is float:
        out.append(float_text(value))
    elif kind is str:
        out.append(_quote(value))
    elif kind is int:
        out.append(int.__repr__(value))
    # Subclasses, None and bools: the stdlib encoder's order of checks.
    elif isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(float_text(value))
    elif isinstance(value, (list, tuple)):
        _render(list(value), nl, out)
    elif isinstance(value, dict):
        _render(dict(value), nl, out)
    else:
        raise TypeError(
            f"Object of type {type(value).__name__} is not JSON serializable"
        )


def canonical_dumps(doc) -> str:
    """Byte-stable JSON for an arbitrary JSON-ready tree.

    The generalization of :func:`canonical_json` used by the fused-model
    snapshots: every float in the tree is rounded to
    :data:`FLOAT_DECIMALS`, keys are sorted, output is ASCII with a
    two-space indent.  Two pipelines that compute the same values —
    e.g. a single fusion engine and N sharded engines over the same
    report stream — produce the same bytes.

    One recursive pass rounds and writes.  The output is exactly
    ``json.dumps(tree, indent=2, sort_keys=True, ensure_ascii=True)``
    of the tree with every float rounded and ``-0.0`` folded to
    ``0.0``, plus a trailing newline; the tests hold it to that form.
    """
    out: list[str] = []
    _render(doc, "\n", out)
    out.append("\n")
    return "".join(out)


# -- stitching ---------------------------------------------------------
#
# A document whose parts rarely change can keep each part's text and
# render only the parts that did.  Each part is rendered where it sits
# (``nl`` is the newline plus indentation of the line it starts on),
# so stitching only joins strings: the bytes equal rendering the whole
# tree in one go.

def canonical_text(value, nl: str = "\n") -> str:
    """``value``'s text as :func:`canonical_dumps` renders it on a line
    whose newline plus indentation is ``nl``, without the trailing
    newline."""
    out: list[str] = []
    _render(value, nl, out)
    return "".join(out)


def object_text(members: Mapping[str, str], nl: str = "\n") -> str:
    """The text of a JSON object on a line indented by ``nl``, from its
    members' value texts, each rendered at ``nl + "  "``.  Keys are
    strings, sorted here."""
    if not members:
        return "{}"
    inner = nl + "  "
    texts = [_quote(key) + ": " + members[key] for key in sorted(members)]
    return "{" + inner + ("," + inner).join(texts) + nl + "}"


def array_text(items: Sequence[str], nl: str = "\n") -> str:
    """The text of a JSON array on a line indented by ``nl``, from its
    items' texts, each rendered at ``nl + "  "``."""
    if not items:
        return "[]"
    inner = nl + "  "
    return "[" + inner + ("," + inner).join(items) + nl + "]"


def pairs_text(pairs: Iterable[tuple[str, str]], nl: str = "\n") -> str:
    """The text of a JSON array of two-element arrays on a line
    indented by ``nl``, from each element's text (see
    :func:`float_text`)."""
    inner = nl + "  "
    leaf = inner + "  "
    items = [a + "," + leaf + b for a, b in pairs]
    if not items:
        return "[]"
    return (
        "[" + inner + "[" + leaf
        + (inner + "]," + inner + "[" + leaf).join(items)
        + inner + "]" + nl + "]"
    )
