"""The sequence engine's search: is there a good sequence over a view's pairs?

A proper k-coloring of the constrained pairs is the same thing as a
length-N sequence over subsets of [1, k] avoiding forward containment on
those pairs, so backtracking over sequence entries decides colorability.
The search covers all good sequences, with forward checking on the masks
still placeable at later positions (Haralick & Elliott 1980), on an
explicit stack rather than by recursion.  Its whole search state is one
int: the feasible-mask bitsets of the remaining branch positions side by
side.

It also keeps a failure memo (nogood recording, Dechter 1990) keyed by
that state alone: with colors [1, t] in use, every field is all masks
minus the up-sets of placed masks over [1, t], so each permutation of
the colors above t fixes the state, and whether its subtree is exhausted
depends on the state alone.  Only exhausted subtrees are recorded, never
budget cut-offs, and the search order is unchanged, so certificates are
identical with and without the memo.

This module shares no code with branch-and-bound (`dsatur`) and imports
neither it nor `solvers`: `solvers.k_colorable_via_sequences` checks the
arguments, passes its clock in and checks the certificate.
"""
from __future__ import annotations

from sys import getsizeof

from .sequences import _masks_descending

_MEMO_BYTES = 120 << 20  # failure-memo cap: its set table plus its keys; inserts stop there


def search(pairs, n_points: int, colors: int, clock) -> tuple[str, tuple[int, ...] | None, int]:
    """Decide whether a good sequence over `colors` colors exists: (decision, entries, memo size).

    `pairs` are a view's vertices, ascending, inside [1, n_points], and at
    least one.  The clock counts nodes with tick(), False once its budget
    is spent, and prunes in its `prunes` attribute.  The entries are the
    n_points masks of the first good sequence found, None unless the
    decision is "yes"; it branches left to right on the positions that
    occur in some pair, with masks tried in descending size order.  Color
    labels are canonicalized by first use (any witness relabels to one
    introducing colors in order), which is sound for the yes/no decision.

    The search state is one int with a 2^colors-bit field per branch
    position, the first position in the highest field: bit m of a field
    is set while mask m is still placeable there.  The state at branch
    index bi keeps only the fields from bi on, the low bits, since no
    placed position is read again.  Placing m at bi drops its field and
    clears every superset of m from the field of each right partner;
    an emptied field is a wipe-out, and what is left is the state at
    bi + 1.  Every field of a state is nonzero, so its bit length fixes
    bi, and the failure memo keys a branch point by that state alone:
    a permutation of the colors above those in use fixes it, so any
    good completion relabels into first-use order, and whether the
    first-use search exhausts the subtree depends on the state alone.
    With forward checking `entries` is read only to build the final
    certificate.  A memo hit counts as a prune and costs no node.  Once
    the set's table and its keys take _MEMO_BYTES by `getsizeof` the
    memo stops growing but is still consulted.  The check precedes each
    insert, so the last insert can overshoot the cap by one key and one
    doubling of the table.

    Each branch index has one frame on an explicit stack, so the depth
    is not bounded by the interpreter's recursion limit: its remaining
    candidate masks, the colors in use and its state.
    Ints are immutable, so backtracking pops a frame and restores
    nothing.
    """
    branch_positions = sorted({p for ij in pairs for p in ij})
    n_branch = len(branch_positions)
    n_masks = 1 << colors
    up_bits = [1 << m for m in range(n_masks)]  # the supersets of m
    for t in range(colors):
        tb = 1 << t
        for m in range(n_masks):
            if not m & tb:
                up_bits[m] |= up_bits[m | tb]
    all_bits = (1 << n_masks) - 1
    shift = [(n_branch - 1 - t) * n_masks for t in range(n_branch)]
    index = {p: t for t, p in enumerate(branch_positions)}
    partner_shifts: list[list[int]] = [[] for _ in range(n_branch)]
    for i, j in pairs:  # sorted pairs, so each right partner list ascends
        partner_shifts[index[i]].append(shift[index[j]])

    masks_desc = list(_masks_descending(colors))
    entries = [0] * (n_points + 1)
    memo: set[int] = set()
    key_bytes = 0
    full = (1 << n_branch * n_masks) - 1
    # `used` is always a prefix [1, t] by the first-use canonicalization:
    # a candidate may only bring in the next colors
    frames = [(iter(masks_desc), 0, full)]
    while frames:
        bi = len(frames) - 1
        cands, used, state = frames[-1]
        p, top = branch_positions[bi], shift[bi]
        for m in cands:
            if not clock.tick():
                return "inconclusive", None, len(memo)
            u = used | m
            if u & (u + 1):  # the colors in use would stop being a prefix
                clock.prunes += 1
                continue
            if not state >> top + m & 1:
                clock.prunes += 1
                continue
            new, up = state & (1 << top) - 1, up_bits[m]  # the fields after bi
            for s in partner_shifts[bi]:
                new &= ~(up << s)
                if not new >> s & all_bits:
                    break  # a wipe-out
            else:
                entries[p] = m
                if bi + 1 == n_branch:
                    return "yes", tuple(entries[1:]), len(memo)
                if new not in memo:
                    frames.append((iter(masks_desc), u, new))
                    break  # descend; `cands` resumes here once the child is popped
            clock.prunes += 1  # a wipe-out or a memo hit
        else:
            # every candidate at bi failed: its subtree is exhausted
            if key_bytes + getsizeof(memo) < _MEMO_BYTES:
                memo.add(state)
                key_bytes += getsizeof(state)
            frames.pop()
    return "no", None, len(memo)
