"""Bulk checks of a subset sequence over the whole shift graph on [1, N].

Goodness (no a_i contained in a_j for i < j) and properness of the
min-element coloring, which colors the pair (i, j) with the least
element of a_i \\ a_j.  Both work on Python ints used as bitsets and
need nothing outside the standard library.  Up to `_TABLE_MAX_GROUND`
they meet per-n tables over the 2^n masks with the set of masks before
or after each position; above it they walk per-element bitsets of
positions.  The walk alone would serve every ground, but at n = 7 and 8
it is two to eight times slower than the tables, and with the walk
alone `verify 2 --n 7 --members-only` takes more than twice as long.
Entries are bitmasks as in `sequences`: bit t - 1 stands for the
element t.

`sequences` re-exports both checks.  They sit in their own module so
that `sequences` stays small: without cached bytecode, compiling a
module is part of a command's peak memory, and `chi` imports
`sequences` but never runs these checks.
"""
from __future__ import annotations

from functools import lru_cache, reduce
from itertools import accumulate
from operator import or_
from typing import TYPE_CHECKING, NamedTuple

from .errors import InvalidParameterError, SequenceLengthError

if TYPE_CHECKING:
    from .sequences import SubsetSequence


def _full_graph_args(seq: SubsetSequence, n_points: int, skip_pair):
    """First n_points entries of seq and skip_pair as a tuple, after checking both."""
    if not isinstance(n_points, int) or isinstance(n_points, bool) or n_points < 0:
        raise InvalidParameterError(f"point count must be a nonnegative integer, got {n_points!r}")
    if len(seq) < n_points:
        raise SequenceLengthError(f"need at least {n_points} entries, got {len(seq)}")
    if skip_pair is not None:
        ok = isinstance(skip_pair, (tuple, list)) and len(skip_pair) == 2 and all(
            isinstance(p, int) and not isinstance(p, bool) for p in skip_pair)
        if not (ok and 1 <= skip_pair[0] < skip_pair[1] <= n_points):
            raise InvalidParameterError(
                f"skip_pair must be two ints (i, j) with 1 <= i < j <= {n_points}, got {skip_pair!r}")
        skip_pair = tuple(skip_pair)
    return seq.entries[:n_points], skip_pair


# ground sizes up to this use the per-n mask tables of _mask_tables
_TABLE_MAX_GROUND = 8


def _and_closure(parts: dict[int, int], size: int) -> list[int]:
    """Entry a: the AND of parts[1 << (t - 1)] over the elements t of mask a."""
    out = [(1 << size) - 1]
    for a in range(1, size):
        low = a & -a
        out.append(out[a ^ low] & parts[low])
    return out


class _MaskTables(NamedTuple):
    """Tables over the masks of [1, n]; a set of masks is an int with bit b for mask b."""

    single: tuple[int, ...]  # single[a]: the set {a}
    up: tuple[int, ...]      # up[a]: the masks containing a
    # leave[a]: for each element t of a, its bit and the masks b with t = min(a \\ b)
    leave: tuple[tuple[tuple[int, int], ...], ...]
    # enter[b]: for each t outside b, its bit and the masks c with t = min(c \\ b)
    enter: tuple[tuple[tuple[int, int], ...], ...]


@lru_cache(maxsize=None)
def _mask_tables(n: int) -> _MaskTables:
    size = 1 << n
    holding = {1 << t: sum(1 << b for b in range(size) if b >> t & 1) for t in range(n)}
    lacking = {bit: ((1 << size) - 1) ^ masks for bit, masks in holding.items()}
    up = _and_closure(holding, size)       # masks holding every element of the index
    avoid = _and_closure(lacking, size)    # masks holding no element of the index
    ground = size - 1
    return _MaskTables(
        single=tuple(1 << a for a in range(size)),
        up=tuple(up),
        leave=tuple(tuple((low, up[a & (low - 1)] & lacking[low]) for low in holding if a & low)
                    for a in range(size)),
        enter=tuple(tuple((low, avoid[(ground ^ b) & (low - 1)] & holding[low]) for low in holding
                          if not b & low)
                    for b in range(size)))


def _unions_after(sets: list[int], skip_pair) -> list[int]:
    """Entry p - 1: the union of the sets at the positions after p; for
    the skipped pair (i, j), entry i - 1 leaves out position j."""
    after = list(accumulate(reversed(sets), or_, initial=0))[-2::-1]
    if skip_pair is not None:
        i, j = skip_pair
        after[i - 1] = after[j - 1] | reduce(or_, sets[i:j - 1], 0)
    return after


def _position_bitsets(entries: tuple[int, ...], n: int) -> dict[int, int]:
    """Transpose: map the bit 1 << (t - 1) of each element t in [1, n] to
    the bitset of positions holding t (bit p - 1 for position p)."""
    holding = dict.fromkeys([1 << t for t in range(n)], 0)
    for p, mask in enumerate(entries):
        bit = 1 << p
        while mask:
            low = mask & -mask
            holding[low] |= bit
            mask ^= low
    return holding


def full_graph_goodness_violation(seq: SubsetSequence, n_points: int,
                                  skip_pair: tuple[int, int] | None = None):
    """First (i, j), i < j <= n_points, with entry i contained in entry j.

    Checks the complete constraint set of the shift graph on [1, n_points],
    minus at most one excluded pair (i, j) with 1 <= i < j <= n_points.
    Returns the lexicographically least violating pair or None.

    Up to _TABLE_MAX_GROUND, the least i is the first position whose
    set of later masks meets the masks containing a_i, and its least j
    is then found by a scan.  Larger grounds AND, for each i, the
    positions after i with the position bitset of each element of a_i
    in turn, leaving the j > i with a_i contained in a_j.
    """
    entries, skip = _full_graph_args(seq, n_points, skip_pair)
    if seq.n <= _TABLE_MAX_GROUND:
        single, up, _, _ = _mask_tables(seq.n)
        after = _unions_after(list(map(single.__getitem__, entries)), skip)
        for i, (mask, later) in enumerate(zip(entries, after), 1):
            if later & up[mask]:
                return next((i, j) for j in range(i + 1, n_points + 1)
                            if mask & ~entries[j - 1] == 0 and (i, j) != skip)
        return None
    holding = _position_bitsets(entries, seq.n)
    everywhere = (1 << n_points) - 1
    for i, mask in enumerate(entries, 1):
        later = everywhere >> i << i
        if skip is not None and skip[0] == i:
            later ^= 1 << (skip[1] - 1)
        while mask and later:
            low = mask & -mask
            later &= holding[low]
            mask ^= low
        if later:
            return (i, (later & -later).bit_length())
    return None


def _min_coloring_points(entries: tuple[int, ...], n: int, skip) -> tuple[list[int], list[int]]:
    """The colors at each point of the min-element coloring.

    Pair (i, j), i < j, gets the least element t of a_i \\ a_j as its
    color, and no color when a_i is contained in a_j or (i, j) is the
    pair skip (a tuple, or None).  Returns (entering, leaving): entry
    m - 1 of entering is the mask of the colors of the pairs (i, m),
    of leaving that of the pairs (m, l).

    Up to _TABLE_MAX_GROUND, the colors of the pairs (m, l) are the
    elements t of a_m whose `leave` masks meet the set of masks after m,
    and those of (i, m) the elements outside a_m whose `enter` masks
    meet the set of masks before m.  Larger grounds walk position
    bitsets: for (m, l) the elements t of a_m in ascending order, t
    coloring the positions l > m still waiting that lack t; for (i, m)
    the elements outside a_m, t coloring the positions i < m still
    waiting that hold t.
    """
    entering, leaving = [], []
    if n <= _TABLE_MAX_GROUND:
        single, _, leave, enter = _mask_tables(n)
        sets = list(map(single.__getitem__, entries))
        last = len(entries) + 1
        mirrored = (last - skip[1], last - skip[0]) if skip is not None else None
        # the masks before a position are the masks after it in the reversed sequence
        before = _unions_after(sets[::-1], mirrored)[::-1]
        for a, earlier, later in zip(entries, before, _unions_after(sets, skip)):
            colors = 0
            for low, masks in enter[a]:
                if earlier & masks:
                    colors |= low
            entering.append(colors)
            colors = 0
            for low, masks in leave[a]:
                if later & masks:
                    colors |= low
            leaving.append(colors)
        return entering, leaving
    holding = _position_bitsets(entries, n)
    everywhere = (1 << len(entries)) - 1
    lacking = {bit: everywhere ^ col for bit, col in holding.items()}
    ground = (1 << n) - 1
    for m, a in enumerate(entries, 1):
        before = (1 << (m - 1)) - 1   # positions i < m still waiting for the color of (i, m)
        after = everywhere >> m << m  # positions l > m still waiting for the color of (m, l)
        if skip is not None:
            if skip[1] == m:
                before ^= 1 << (skip[0] - 1)
            if skip[0] == m:
                after ^= 1 << (skip[1] - 1)
        colors, rest = 0, ground ^ a
        while rest and before:
            low = rest & -rest
            if before & holding[low]:
                colors |= low
                before &= lacking[low]
            rest ^= low
        entering.append(colors)
        colors, rest = 0, a
        while rest and after:
            low = rest & -rest
            if after & lacking[low]:
                colors |= low
                after &= holding[low]
            rest ^= low
        leaving.append(colors)
    return entering, leaving


def full_graph_min_coloring_is_proper(seq: SubsetSequence, n_points: int,
                                      skip_pair: tuple[int, int] | None = None) -> bool:
    """Check the min-element coloring of all pairs over [1, n_points].

    Colors pair (i, j) with the least element of a_i \\ a_j and verifies
    no chain (i, m) ~ (m, l) repeats a color, skipping at most one
    excluded pair (i, j) with 1 <= i < j <= n_points: no color may both
    enter and leave the same point m.  A pair with a_i contained in a_j
    gets no color.

    This cannot return False: the color of (i, m) lies outside a_m and
    the color of (m, l) lies inside a_m, so the two never meet.  The
    check stays as an executable statement of that lemma.  A kernel that
    returned True unconditionally would pass every test of its result,
    so the tests also compare the colors that `_min_coloring_points`
    derives with a per-chain oracle.
    """
    entries, skip = _full_graph_args(seq, n_points, skip_pair)
    entering, leaving = _min_coloring_points(entries, seq.n, skip)
    return not any(map(int.__and__, entering, leaving))
