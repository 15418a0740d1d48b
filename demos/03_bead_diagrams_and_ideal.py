"""
Chord diagrams with beads and the relation ideal
================================================

Degree counts chords; strand segments carry beads (fundamental-group
letters).  The algebra is free on such monomials modulo a finite catalog
of homogeneous relations: chord symmetry and locality, the four-term
relation, bead pushes across chord endpoints, and the group relations of
the beads.  Membership in the relation ideal is decided by rewriting: the
bead normal form, written directly, then a completion truncated to a bead
window; a member comes with a replayable certificate.  In chord degree <= 1
the normal form alone proves non-membership on a surface with boundary (the
bead normal form) and on the closed torus (the exponent form a1^m b1^k of
each strand's beads).
"""

from surfbraid import (
    SurfaceParams,
    Truncation,
    WreathDiagram,
    conjugated_chord,
    expand_certificate,
    format_certificate,
    format_diagram,
    ideal_member,
    parse_diagram,
    relation_instances,
)

s = SurfaceParams(genus=1, boundary=0, strands=3)
trunc = Truncation(max_chords=2, max_beads=4)

# diagram arithmetic: multiplication concatenates beads and chords and
# composes permutations
x = parse_diagram("1 * a1@1 Z(1,2) ; perm=(1)(2)(3)", s, trunc)
y = parse_diagram("1 * b1^-1@2 ; perm=(1 2)(3)", s, trunc)
print("x     =", format_diagram(x))
print("y     =", format_diagram(y))
print("x * y =", format_diagram(x * y))
print("y * x =", format_diagram(y * x))

# the emitted relation catalog, one sample per family
seen = {}
for inst in relation_instances(s, trunc):
    family = inst.rid.split("[")[0]
    seen.setdefault(family, inst)
print(f"\nrelation families at these parameters ({len(seen)}):")
for family, inst in sorted(seen.items()):
    print(f"  {inst.rid:24} {format_diagram(inst.element)}")

# a conjugated chord: the bare chord with matching beads on both strands
c = conjugated_chord(s, 1, 2, (("a", 1, 1),), trunc)
print("\nchord conjugated by a1 between strands 1,2:")
print(" ", format_diagram(c))

# its endpoint symmetry is an ideal member, with a certificate that
# re-expands to the queried element
cr = conjugated_chord(s, 2, 1, (("a", 1, -1),), trunc)
res = ideal_member(c - cr, s, trunc, window=6)
print("\nendpoint symmetry difference is a member:", res.is_member)
print(format_certificate(res.certificate))
catalog = {inst.rid: inst for inst in relation_instances(s, trunc)}
replayed = expand_certificate(res.certificate, catalog, s.strands, trunc)
print("certificate re-expands to the query:", replayed == c - cr)

# a bare chord is not in the ideal - relations never erase a lone chord.
# On a surface with boundary the bead normal form decides chord degree <= 1
# (the bead rules resolve every ambiguity), so the answer is a proof and
# the normal form is its witness
bounded = SurfaceParams(genus=1, boundary=1, strands=3)
bare = parse_diagram("1 * Z(1,2) ; perm=(1)(2)(3)", bounded, trunc)
res = ideal_member(bare, bounded, trunc)
print("\nbare chord membership on a surface with boundary:", res.status)
print("witness:", format_diagram(res.witness))

# on the closed torus the normal form goes one step further, to the
# exponent form a1^m b1^k of each strand's beads (completing the ClosedSum
# row gives the swaps b1^e a1^d -> a1^d b1^e), and it decides chord
# degree <= 1 there too
bare = parse_diagram("1 * Z(1,2) ; perm=(1)(2)(3)", s, trunc)
res = ideal_member(bare, s, trunc)
print("bare chord membership on the closed torus:", res.status)
print("witness:", format_diagram(res.witness))
