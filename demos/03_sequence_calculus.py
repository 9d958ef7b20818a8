"""
Good sequences: colorings as subset sequences
=============================================

A proper n-coloring of pairs (i, j) is the same data as a sequence
a_1, ..., a_L of subsets of [1, n] in which a_i is never contained in
a_j for a constrained pair i < j: color (i, j) by the least element of
a_i not in a_j.  Saturation rewrites a good sequence, preserving
goodness, until every proper subset of every entry recurs later; where
an entry can sit is then pinned down by its size alone.
"""
from shiftcrit import (
    SubsetSequence,
    Vertex,
    build_shift_graph,
    coloring_from_sequence,
    construct_deleted_vertex_sequence,
    descending_full_sequence,
    is_good,
    saturate,
    saturation_trace,
    sequence_from_coloring,
)

def show(seq):
    return str(seq)

# -- a sequence is a coloring ----------------------------------------------

g = build_shift_graph(4)
seq = SubsetSequence.from_sets([{1, 2}, {1}, {2}, set()], 2)
print("sequence:", show(seq), "good:", is_good(seq, g))
col = coloring_from_sequence(seq, g)
for v in g.vertices():
    print(f"  color{v} = {col.color_of(v)}")
print("round trip:", show(sequence_from_coloring(col, g)))

# -- saturation in action ---------------------------------------------------

start = SubsetSequence.from_sets([{1, 2}, {2}, {1}], 2)
print("\nsaturation trace:")
for step, s in enumerate(saturation_trace(start, build_shift_graph(3))):
    print(f"  step {step}: {show(s)}")

# -- size pins position in saturated full sequences -------------------------

full = descending_full_sequence(3, 8)
final = saturate(full, build_shift_graph(8))
print("\nsaturated:", show(final))
for i, m in enumerate(final.entries, start=1):
    c = m.bit_count()
    print(f"  position {i}: size {c}, bound {8 - (1 << c) + 1}")

# -- deleting a core vertex, constructively ---------------------------------

# the two deleted positions carry the same base set, everything else is
# arranged by containment class around them
seq = construct_deleted_vertex_sequence(2, Vertex(2, 3))
print("\ndeletion certificate for (2,3) at n=2:", show(seq))
