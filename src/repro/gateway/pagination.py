"""Keyset pagination: opaque cursors, never OFFSET.

Every paged gateway listing seeks from the last key of the previous
page.  ``OFFSET n`` re-scans n rows per page — O(n²) to drain a log —
and, worse, skips or duplicates rows when a writer inserts below the
offset mid-pagination.  A keyset cursor is immune to both: the seek
cost is constant and concurrent appends land strictly beyond
already-served keys, so an in-flight pagination sees every row that
existed when it started, exactly once.

Cursor wire form: ``"k<key>.<seq>"`` for log pages (the
``(IFNULL(intake_seq,-1), seq)`` coordinate) and ``"s<key>"`` for
string-keyed listings (managed objects by id).  Cursors are opaque to
clients — only :func:`encode_cursor` / :func:`decode_cursor` may
interpret them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.common.errors import GatewayError

#: Listing page-size ceiling: a single page never costs more than this
#: many rows, no matter what the client asks for.
MAX_PAGE_SIZE = 1000

DEFAULT_PAGE_SIZE = 50

#: The range of a SQLite INTEGER (signed 64-bit): a log-page cursor
#: coordinate outside it cannot be bound into the keyset seek.
_SQLITE_INT_MIN = -(2**63)
_SQLITE_INT_MAX = 2**63 - 1


def clamp_limit(limit: int | None) -> int:
    """The effective page size for a requested limit."""
    if limit is None:
        return DEFAULT_PAGE_SIZE
    if limit < 1:
        raise GatewayError(f"page limit must be positive, got {limit}")
    return min(limit, MAX_PAGE_SIZE)


def encode_cursor(key: tuple[int, int]) -> str:
    """Render a log-page coordinate as an opaque cursor string."""
    return f"k{key[0]}.{key[1]}"


def decode_cursor(cursor: str | None) -> tuple[int, int] | None:
    """Parse a log-page cursor (None passes through: first page)."""
    if cursor is None or cursor == "":
        return None
    if not cursor.startswith("k") or "." not in cursor:
        raise GatewayError(f"malformed page cursor {cursor!r}")
    head, _, tail = cursor[1:].partition(".")
    try:
        key = (int(head), int(tail))
    except ValueError as exc:
        raise GatewayError(f"malformed page cursor {cursor!r}") from exc
    if not all(_SQLITE_INT_MIN <= part <= _SQLITE_INT_MAX for part in key):
        raise GatewayError(f"page cursor {cursor!r} is out of range")
    return key


def encode_string_cursor(key: str) -> str:
    """Cursor form for string-keyed listings (entity ids)."""
    return f"s{key}"


def decode_string_cursor(cursor: str | None) -> str | None:
    if cursor is None or cursor == "":
        return None
    if not cursor.startswith("s"):
        raise GatewayError(f"malformed string cursor {cursor!r}")
    return cursor[1:]


@dataclass(frozen=True)
class Page:
    """One page of resources plus the cursor to fetch the next one.

    ``next_cursor`` is None exactly when this page is known to be the
    last (fewer items than requested).  A full page always carries a
    cursor, even if it happens to end on the final row — the client's
    next fetch returns an empty last page.
    """

    items: tuple[Any, ...]
    next_cursor: str | None

    def to_json(self) -> dict:
        return {
            "items": [
                item.to_json() if hasattr(item, "to_json") else item
                for item in self.items
            ],
            "nextCursor": self.next_cursor,
        }


def page_sequence(
    items: Sequence[Any],
    key_of: Callable[[Any], str],
    after: str | None,
    limit: int,
) -> Page:
    """Keyset-paginate an in-memory sequence sorted by ``key_of``.

    ``items`` must already be sorted by the key (unique per item).  The
    seek is a binary search, so deep pages stay cheap even on long
    listings.
    """
    import bisect

    keys = [key_of(item) for item in items]
    start = 0 if after is None else bisect.bisect_right(keys, after)
    window = items[start : start + limit]
    cursor = (
        encode_string_cursor(key_of(window[-1]))
        if len(window) == limit
        else None
    )
    return Page(items=tuple(window), next_cursor=cursor)
