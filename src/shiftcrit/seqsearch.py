"""The sequence engine's search: is there a good sequence over a view's pairs?

A proper k-coloring of the constrained pairs is the same thing as a
length-N sequence over subsets of [1, k] avoiding forward containment on
those pairs, so backtracking over sequence entries decides colorability.
The search covers all good sequences, with forward checking on the masks
still placeable at later positions (Haralick & Elliott 1980), on an
explicit stack rather than by recursion.  Its whole search state is one
int: the feasible-mask bitsets of the remaining branch positions side by
side.

It also keeps a failure memo (nogood recording, Dechter 1990): a branch
point's key is state * (colors + 1) + the number of colors introduced so
far, where the state is the one int above.  Its bit length fixes the
branch index, which is no digit of the key.  Everything the rest of the
search reads is a function of the key, so a key whose subtree was
exhausted once is skipped when it recurs.  Only exhausted subtrees are
recorded, never budget cut-offs, and the search order is unchanged, so
certificates are identical with and without the memo.

This module shares no code with branch-and-bound (`dsatur`) and imports
neither it nor `solvers`: `solvers.k_colorable_via_sequences` checks the
arguments, passes its clock in and checks the certificate.
"""
from __future__ import annotations

from .sequences import _masks_descending

_MEMO_CAP = 1 << 20  # failure-memo entries; at the cap lookups go on, inserts stop


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
    bi, and the failure memo keys a branch point by its state and the
    first-use color count alone.  The key is sound because with forward
    checking `entries` is read only to build the final certificate.  A
    memo hit counts as a prune and costs no node; at _MEMO_CAP entries
    the memo stops growing but is still consulted.

    Each branch index has one frame on an explicit stack, so the depth
    is not bounded by the interpreter's recursion limit: its memo key,
    its remaining candidate masks, the colors in use and its state.
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
    full = (1 << n_branch * n_masks) - 1
    # `used` is always a prefix [1, t] by the first-use canonicalization:
    # a candidate may only bring in the next colors.  The root's key is the
    # child key below with no color in use.
    frames = [(full * (colors + 1), iter(masks_desc), 0, full)]
    while frames:
        bi = len(frames) - 1
        key, cands, used, state = frames[-1]
        p, top = branch_positions[bi], shift[bi]
        for m in cands:
            if not clock.tick():
                return "inconclusive", None, len(memo)
            fresh = m & ~used
            if fresh and fresh != ((1 << fresh.bit_count()) - 1) << used.bit_length():
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
                child = new * (colors + 1) + (used | m).bit_length()
                if child not in memo:
                    frames.append((child, iter(masks_desc), used | m, new))
                    break  # descend; `cands` resumes here once the child is popped
            clock.prunes += 1  # a wipe-out or a memo hit
        else:
            # every candidate at bi failed: its subtree is exhausted
            if len(memo) < _MEMO_CAP:
                memo.add(key)
            frames.pop()
    return "no", None, len(memo)
