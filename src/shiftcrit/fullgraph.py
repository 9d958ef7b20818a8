"""The goodness check of a subset sequence over the whole shift graph on [1, N].

A sequence is good on a set of pairs when no a_i is contained in a_j
for a pair (i, j), i < j.  The check works on Python ints used as
bitsets and needs nothing outside the standard library.  Up to
`_TABLE_MAX_GROUND` it meets per-n tables over the 2^n masks with the
set of masks after each position; larger grounds walk per-element
bitsets of positions.  The walk alone would serve every ground, but with it
alone `verify 2 --n 7 --members-only` takes more than three times as
long.  Entries are bitmasks as in `sequences`: bit t - 1 stands for the
element t.

`sequences` imports this module when it loads, so `chi` and `verify`
load it too.  The verify member rows call it once per deleted-vertex
sequence, through `sequences.full_graph_min_coloring_is_proper`.
"""
from __future__ import annotations

import reprlib
from functools import lru_cache, reduce
from itertools import accumulate
from operator import or_
from typing import TYPE_CHECKING

from .errors import InvalidParameterError, SequenceLengthError, require_int

if TYPE_CHECKING:
    from .sequences import SubsetSequence


def _full_graph_args(seq: SubsetSequence, n_points: int, skip_pair):
    """First n_points entries of seq and skip_pair as a tuple, after checking both."""
    require_int(n_points, "n_points", 0)
    if len(seq) < n_points:
        raise SequenceLengthError(f"constraints reach ground index {n_points} "
                                  f"but the sequence has length {len(seq)}")
    if skip_pair is not None:
        if not isinstance(skip_pair, (tuple, list)) or len(skip_pair) != 2:
            raise InvalidParameterError(
                f"skip_pair must be a pair (i, j), got {reprlib.repr(skip_pair)}")
        i = require_int(skip_pair[0], "skip_pair[0]", 1, n_points)
        skip_pair = (i, require_int(skip_pair[1], "skip_pair[1]", i + 1, n_points))
    return seq.entries[:n_points], skip_pair


# ground sizes up to this use the per-n mask tables of _mask_tables
_TABLE_MAX_GROUND = 8


@lru_cache(maxsize=None)
def _mask_tables(n: int) -> tuple[int, ...]:
    """up[a]: the masks of [1, n] containing a, as an int with bit b for mask b."""
    size = 1 << n
    holding = {1 << t: sum(1 << b for b in range(size) if b >> t & 1) for t in range(n)}
    up = [(1 << size) - 1]  # up[a]: the AND of holding[1 << (t - 1)] over the elements t of a
    for a in range(1, size):
        low = a & -a
        up.append(up[a ^ low] & holding[low])
    return tuple(up)


def _unions_after(sets: list[int], skip_pair) -> list[int]:
    """Entry p - 1: the union of the sets at the positions after p; for
    the skipped pair (i, j), entry i - 1 omits position j."""
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
        up = _mask_tables(seq.n)
        after = _unions_after([1 << a for a in entries], skip)
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
