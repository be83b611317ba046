"""Small multiset combinatorics helpers (multidegrees are multisets)."""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping


def md_from_list(mults) -> dict[int, int]:
    """Multidegree from a multiplicity list for x1..xk (zeros dropped)."""
    return {i + 1: m for i, m in enumerate(mults) if m}


def md_total(md: Mapping[int, int]) -> int:
    return sum(md.values())


def md_letters(md: Mapping[int, int]) -> list[int]:
    """The sorted letters of a multidegree: each generator g, md[g] times."""
    return [g for g in sorted(md) for _ in range(md[g])]


def md_sub(md: Mapping[int, int], part: Mapping[int, int]) -> dict[int, int]:
    out = {}
    for g, m in md.items():
        r = m - part.get(g, 0)
        if r < 0:
            raise ValueError("not a sub-multiset")
        if r:
            out[g] = r
    return out


def sub_multisets(md: Mapping[int, int]) -> Iterator[dict[int, int]]:
    """All sub-multisets of md (including the empty one)."""
    gens = sorted(md)
    ranges = [range(md[g] + 1) for g in gens]
    for counts in itertools.product(*ranges):
        yield {g: c for g, c in zip(gens, counts) if c}


def distinct_permutations(items) -> Iterator[tuple]:
    """Distinct permutations of a multiset, in sorted order: each is the
    lexicographic successor of the one before (Knuth's Algorithm L)."""
    a = sorted(items)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = a[:i:-1]


def partitions_of(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Integer partitions of n, parts weakly decreasing."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest
