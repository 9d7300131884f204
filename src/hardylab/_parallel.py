"""Ordered mapping over the grid points of a sweep.

The work is pure Python and holds the GIL, so it runs sequentially; results
come back in input order.
"""

from __future__ import annotations


def map_ordered(fn, items) -> list:
    return [fn(x) for x in items]
