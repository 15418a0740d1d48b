"""
Graded dimensions of the symplectic diagram algebra
===================================================

Here handle beads have degree one, chords and boundary chords degree two,
and a twist relation expresses each chord as a commutator of handle beads
on its two strands.  Dimensions of the graded pieces are counts of normal
words: the relations are completed into a rewriting system up to the
largest degree asked for, and the words free of its leading words are
counted degree by degree.
"""

from surfbraid import SurfaceParams, dims_table, symp_twist_redundancy

cases = [
    ("closed torus, 1 strand ", SurfaceParams(1, 0, 1)),
    ("closed torus, 2 strands", SurfaceParams(1, 0, 2)),
    ("one handle + boundary  ", SurfaceParams(1, 1, 2)),
    ("annulus, 2 strands     ", SurfaceParams(0, 2, 2)),
]

for label, s in cases:
    table = dims_table(s, max_degree=4)
    dims = [line.split()[1] for line in table.splitlines()]
    print(f"{label}  dims by degree 0..4:  {' '.join(dims)}")

# on a closed positive-genus surface the twist relation makes every chord
# expressible in handle beads: the chord generators are redundant
for n in (2, 3):
    s = SurfaceParams(1, 0, n)
    print(f"\nchords redundant on the closed torus with {n} strands:",
          symp_twist_redundancy(s))

# degree-by-degree table for one case, as the command line prints it
print("\nfull table for the closed torus with 2 strands:")
print(dims_table(SurfaceParams(1, 0, 2), max_degree=5), end="")
