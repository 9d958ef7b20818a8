"""Sequences built rather than searched: saturation and the explicit constructions.

Saturation pushes a good sequence, in one right-to-left sweep, toward a
canonical form in which every proper subset of each entry reappears
later.  The constructions give a sequence witnessing that deleting any
single critical-core vertex makes the graph n-colorable, and the
descending enumeration of all subsets, which witnesses the general
chromatic upper bound.  Sequences and views are those of `sequences`.

The constructions only build; the verify rows check each deleted-vertex
sequence once.  No search reads this module, so `chi` never loads it.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import islice
from typing import Iterator

from .errors import ConstructionError, GoodnessError, require_int
from .graphs import critical_core
from .sequences import _MAX_GROUND, SubsetSequence, _masks_descending, goodness_violation


def _proper_submasks(mask: int) -> Iterator[int]:
    if mask == 0:
        return
    sub = mask
    while True:
        sub = (sub - 1) & mask
        yield sub
        if sub == 0:
            return


# ---------------------------------------------------------------------------
# saturation


def _steps(entries) -> Iterator[tuple[int, int]]:
    """The saturation steps of `entries` in order, as (index, new entry); reads only.

    One sweep right to left with one growing suffix set: each entry is
    rewritten until no proper subset of it is missing after it, then
    joins the set.  A step changes only its own entry, so the entries
    after it stay saturated and the next step is never to its right.
    """
    suffix: set[int] = set()
    for idx in range(len(entries) - 1, -1, -1):
        a = entries[idx]
        while missing := [b for b in _proper_submasks(a) if b not in suffix]:
            a = max(missing, key=lambda b: (b.bit_count(), b))
            yield idx, a
        suffix.add(a)


def saturation_trace(seq: SubsetSequence, view) -> list[SubsetSequence]:
    """All intermediate sequences of the saturation procedure, input first.

    One step: take the largest position s whose entry has a proper
    subset not appearing anywhere after s, and replace that entry by
    the missing proper subset of maximum cardinality, ties broken by
    largest mask value.  Stops when no position qualifies.  Each step
    strictly shrinks one entry, so the run ends, and preserves goodness
    on the graph view, which is re-checked after every step.
    """
    viol = goodness_violation(seq, view)
    if viol is not None:
        raise GoodnessError(viol)
    trace = [seq]
    entries = list(seq.entries)
    for idx, b in _steps(seq.entries):
        entries[idx] = b
        nxt = SubsetSequence(tuple(entries), seq.n)
        if goodness_violation(nxt, view) is not None:
            raise ConstructionError("saturation step broke goodness; replacement rule is unsound")
        trace.append(nxt)
    return trace


def saturate(seq: SubsetSequence, view) -> SubsetSequence:
    """Run saturation to its fixed point and return the final sequence."""
    return saturation_trace(seq, view)[-1]


def is_saturated(seq: SubsetSequence) -> bool:
    """True when every proper subset of each entry appears later in the sequence."""
    return next(_steps(seq.entries), None) is None


# ---------------------------------------------------------------------------
# explicit constructions


@lru_cache(maxsize=None)
def _size_order(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """All masks over [1, n] by descending cardinality, ties by ascending
    value, and the rank table: rank[b] is the index of mask b in that order."""
    order = tuple(sorted(range(1 << n), key=lambda b: (-b.bit_count(), b)))
    rank = [0] * len(order)
    for r, b in enumerate(order):
        rank[b] = r
    return order, tuple(rank)


@lru_cache(maxsize=None)
def _comparability_classes(n: int, base: int):
    """All masks over [1, n] except base, split by containment against base.

    Returns (supersets, subsets, incomparables), each sorted by
    descending cardinality with ties by ascending mask value.
    """
    sup, sub, inc = [], [], []
    for b in _size_order(n)[0]:
        if b == base:
            continue
        if b & base == base:
            sup.append(b)
        elif b & base == b:
            sub.append(b)
        else:
            inc.append(b)
    return tuple(sup), tuple(sub), tuple(inc)


def construct_deleted_vertex_sequence(n: int, v) -> SubsetSequence:
    """Good sequence for all pairs over [1, 2^n + 1] except the core vertex v.

    With r the least interval index witnessing v = (i, j) in the core,
    the set A = [1, n - r] is placed at both positions i and j; proper
    supersets of A go before i, proper subsets after j, and the masks
    incomparable to A fill the remaining slots in one descending-size
    run (largest before i, middle between i and j, smallest after j).
    Within each region sizes are non-increasing.

    The result is not checked here: the member rows of `verify` check
    it once, with `full_graph_min_coloring_is_proper`.
    """
    r = critical_core(n).least_interval_index(v)  # checks that v is a member
    base = (1 << (n - r)) - 1
    i, j = v
    length = 2 ** n + 1
    rank = _size_order(n)[1]
    sup, sub, inc = _comparability_classes(n, base)
    head_inc = i - 2 ** r          # incomparables that must land before position i
    mid = j - i - 1
    before = sorted(sup + inc[:head_inc], key=rank.__getitem__)
    between = list(inc[head_inc:head_inc + mid])
    after = sorted(sub + inc[head_inc + mid:], key=rank.__getitem__)
    entries = before + [base] + between + [base] + after
    if len(before) != i - 1 or len(entries) != length:
        raise ConstructionError(f"region sizes are inconsistent for v={v}, r={r}")
    return SubsetSequence(tuple(entries), n)


def descending_full_sequence(n: int, length: int) -> SubsetSequence:
    """First `length` subsets of [1, n] by descending size, ties by descending mask.

    Entries are pairwise distinct with non-increasing sizes, so the
    result is good for every pair (i, j), certifying that the shift
    graph on [1, length] is n-colorable whenever length <= 2^n.
    """
    require_int(n, "n", 0, _MAX_GROUND)
    require_int(length, "length", 0, 1 << n)
    return SubsetSequence(tuple(islice(_masks_descending(n), length)), n)
