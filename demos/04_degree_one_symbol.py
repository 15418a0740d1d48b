"""
From singular braids to the degree-one symbol
=============================================

A doubled crossing desingularizes to the difference of its two
resolutions; words with d doubled crossings therefore land in the d-th
power of the augmentation-style ideal generated by s_i - s_i^-1.  The
degree-one symbol reads off the leading chord diagram of such an
expression, and it only depends on the braid class of the framing words.
"""

import random

from surfbraid import (
    JSummand,
    SurfaceParams,
    Truncation,
    chord_generator,
    degree_one_symbol,
    desingularize,
    disk_augmentation,
    format_algebra_element,
    format_diagram,
    ideal_member,
    parse_singular_word,
    random_relator_rewrite,
)

s = SurfaceParams(genus=1, boundary=1, strands=2)
trunc = Truncation(max_chords=2, max_beads=4)

# x1 marks the doubled crossing; desingularization expands it
for text in ("x1", "a1 x1 s1", "x1 x1"):
    word = parse_singular_word(text, s)
    print(f"desingularize({text}):")
    for line in format_algebra_element(desingularize(word)).splitlines():
        print("   ", line)

# s1^2 - 1 factors as (s1 - s1^-1) s1: one doubled crossing framed by s1,
# so its degree-one symbol is defined - and it is the bare chord
expr = [JSummand(1, (), 1, (("s", 1, 1),))]
symbol = degree_one_symbol(expr, s, trunc)
print("\nsymbol of s1^2 - 1:   ", format_diagram(symbol))
print("bare chord generator: ", format_diagram(chord_generator(2, 1, 2, trunc)))

# erasing the beads (the disk augmentation) keeps the chord visible
print("disk augmentation:    ", format_diagram(disk_augmentation(symbol)))

# the symbol is well defined on braid classes: rewriting the framing words
# by relator moves, one layer of insertions of relator conjugates (each
# other relator move gives the word of one of them), does not change its
# residue modulo the relation ideal
rng = random.Random(7)
u, v = (("a", 1, 1), ("s", 1, 1)), (("s", 1, -1), ("b", 1, 1))
base = degree_one_symbol([JSummand(1, u, 1, v)], s, trunc)
for step in range(3):
    u, _ = random_relator_rewrite(u, s, rng)
    v, _ = random_relator_rewrite(v, s, rng)
    rewritten = degree_one_symbol([JSummand(1, u, 1, v)], s, trunc)
    res = ideal_member(rewritten - base, s, trunc, window=6)
    print(f"rewrite {step + 1}: symbols agree modulo the ideal: {res.is_member}")
