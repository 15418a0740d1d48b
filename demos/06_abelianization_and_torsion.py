"""
Abelianizing the degree-one piece: commutators die, the chord survives
======================================================================

Quotienting the diagram algebra by all commutators collapses a degree-one
class to: one chord count, the sign of the strand permutation, and a
commutative multidegree in the bead letters.  Every relation instance
maps to zero there, and one completion of the relations, whose leading
coefficients are all +-1, proves the degree-one quotient torsion-free at
the default truncation.
"""

from surfbraid import (
    JSummand,
    SurfaceParams,
    Truncation,
    WreathDiagram,
    degree_one_symbol,
    degree_one_torsion,
    format_h1,
    format_torsion_report,
    h1_class,
    h1_degree_zero_report,
    relation_classes_killed,
)

s = SurfaceParams(genus=1, boundary=1, strands=2)
trunc = Truncation(max_chords=2, max_beads=4)

# the degree-zero part of the quotient: commuting bead letters and the
# permutation sign
print(h1_degree_zero_report(s))

# the squared-crossing symbol keeps a visible class downstairs
symbol = degree_one_symbol(
    [JSummand(1, (), 1, (("s", 1, 1),))], s, trunc
)
print("class of the squared-crossing symbol:", format_h1(h1_class(symbol, s)))

# a sample with beads and a sign
x = WreathDiagram.from_term(
    2, trunc, (("B", 1, ("a", 1, 1)), ("C", 1, 2), ("B", 2, ("b", 1, -1))),
    (1, 0), coef=3,
)
print("a beaded chord with a transposition:  ", format_h1(h1_class(x, s)))

# every emitted relation instance dies in the quotient
print("\nall relation instances map to zero:",
      relation_classes_killed(s, trunc))

# and yet the quotient has no integer torsion in degree one
print()
print(format_torsion_report(degree_one_torsion(s, trunc)))
print()
print(format_torsion_report(degree_one_torsion(SurfaceParams(0, 2, 2), trunc)))
