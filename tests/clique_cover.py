"""Brute-force minimum clique cover of unit jobs, the reference for bounds.gac_plus."""

from __future__ import annotations

from typing import Sequence

from ovensched.bounds import _normalize_units


def min_clique_cover(
    intervals: Sequence[tuple], capacity: int
) -> tuple[int, int]:
    """Exact minimum clique cover of unit jobs with a clique-size cap.

    intervals holds (lo, hi) or (lo, hi, multiplicity) entries. Among all
    partitions into compatible groups of at most `capacity` units, minimizes
    the group count and, among those, the total of per-group minimal
    processing times (each group must run for its largest lo). Reference
    oracle for gac_plus; identical units are collapsed, so inputs with large
    multiplicities stay tractable as long as few distinct intervals appear.
    """
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    items = _normalize_units(intervals)
    distinct: dict[tuple[int, int], int] = {}
    for lo, hi, count in items:
        distinct[(lo, hi)] = distinct.get((lo, hi), 0) + count
    kinds = sorted(distinct)
    counts = tuple(distinct[k] for k in kinds)
    if len(kinds) > 14:
        raise ValueError("too many distinct intervals for exhaustive cover")

    memo: dict[tuple[int, ...], tuple[int, int]] = {}

    def solve(state: tuple[int, ...]) -> tuple[int, int]:
        if not any(state):
            return 0, 0
        if state in memo:
            return memo[state]
        first = next(i for i, c in enumerate(state) if c)
        best: tuple[int, int] | None = None

        # enumerate multiset groups containing at least one unit of `first`
        def pick(index: int, taken: list[int], used: int, lo_max: int, hi_min: int) -> None:
            nonlocal best
            if index == len(kinds):
                if used == 0:
                    return
                rest = tuple(c - t for c, t in zip(state, taken + [0] * (len(kinds) - len(taken))))
                sub_count, sub_time = solve(rest)
                candidate = (1 + sub_count, lo_max + sub_time)
                if best is None or candidate < best:
                    best = candidate
                return
            lo, hi = kinds[index]
            floor = 1 if index == first else 0
            limit = min(state[index], capacity - used)
            for take in range(floor, limit + 1):
                if take:
                    new_lo = max(lo_max, lo)
                    new_hi = min(hi_min, hi)
                    if new_lo > new_hi:
                        break
                else:
                    new_lo, new_hi = lo_max, hi_min
                taken.append(take)
                pick(index + 1, taken, used + take, new_lo, new_hi)
                taken.pop()

        pick(first, [0] * first, 0, -(10**9), 10**9)
        assert best is not None
        memo[state] = best
        return best

    return solve(counts)
