"""Span arithmetic for the traced run: self time and per-layer totals.

A span is ``(name, start, end, parent)`` with ``parent`` the index of the
enclosing span in the same list, or -1 for a root.  Names are
``<layer>.<function>``; the layer is the part before the first dot.
"""

from __future__ import annotations

from collections import defaultdict


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part its children cover.

    Spans of one thread nest, so the children of a span lie inside it and do
    not overlap each other.
    """
    own = [end - start for _name, start, end, _parent in spans]
    for _name, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def self_by_name(spans) -> dict[str, float]:
    """Total self time per span name."""
    out: dict[str, float] = defaultdict(float)
    for (name, *_), own in zip(spans, self_times(spans)):
        out[name] += own
    return dict(out)


def self_by_layer(spans) -> dict[str, float]:
    """Total self time per layer; over a single-threaded trace these partition
    the duration of the root spans."""
    out: dict[str, float] = defaultdict(float)
    for name, own in self_by_name(spans).items():
        out[name.split(".", 1)[0]] += own
    return dict(out)


def root_time(spans) -> float:
    return sum(end - start for _name, start, end, parent in spans if parent < 0)
