"""Braid words on a surface, their relator families, and the degree-zero
evaluation into the wreath product pi_1(Sigma)^n |x S_n.

Generators: ``s1 .. s{n-1}`` are the disk half-twists, while ``a_r, b_r,
z_k`` denote the fundamental-group loops carried by the first strand.  The
relator families follow the usual presentation of the surface braid group:

* ``2.i``   the two classical braid relations among the ``s_i``;
* ``2.ii``  commutation of loops with distant half-twists and with
  ``s_1``-conjugated loops (four sub-families, indexed exactly as in the
  presentation);
* ``2.iii`` the handle relation ``[a_r, s1^-1 b_r s1^-1] = s1^2`` (g > 0);
* ``2.iv``  the closed-surface relation tying the full boundary product of
  the handles to ``s1 .. s{n-2} s{n-1}^2 s{n-2} .. s1`` (p = 0 only).

The degree-zero evaluation ``wreath_image`` sends ``s_i`` to a pure strand
transposition and each loop to a bead on strand one; it annihilates every
relator, which is checked exhaustively in the tests.  It walks the word
once, appending loop letters to the raw bead word of the strand they land
on, and normalizes each strand once at the end: exact because
``pi1_normalize`` is canonical on every surface.  ``bounded_equal`` is
a bounded breadth-first search over relator moves: sound when it answers
Equal (the move sequence is replayed and verified), inconclusive when the
depth runs out, and a ``ResourceLimitError`` when the node budget does.
Both it and ``random_relator_rewrite`` read one layer of moves, the
insertions of relator conjugates: every substitution of one part of a
relator for the rest gives the word of an insertion (the two lemmas of
``_MoveTable``).  The search stores the levels below the last only: the
last is decided by one lookup per position of each word before it.
``is_relator_move`` checks one given move against the relator catalogue,
without a search or a move table.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass

from .errors import (
    DimensionMismatchError,
    InvalidGeneratorError,
    ParameterError,
    ParseError,
    ResourceLimitError,
    SurfbraidError,
)
from .surface import (
    SurfaceParams,
    Word,
    format_letter,
    free_reduce,
    inverse_word,
    letter_sort_key,
    parse_word,
    pi1_normalize,
)

BraidWord = tuple  # letters (kind, index, sign), kind in {"s", "a", "b", "z"}

BRAID_KINDS = ("s", "a", "b", "z")


def parse_braid_word(text: str, s: SurfaceParams) -> BraidWord:
    word = parse_word(text, kinds=BRAID_KINDS)
    check_braid_word(word, s)
    return word


def check_braid_word(word: BraidWord, s: SurfaceParams) -> None:
    for kind, idx, sign in word:
        if kind == "s":
            if not 1 <= idx <= s.strands - 1:
                raise InvalidGeneratorError(
                    f"s{idx} needs {idx + 1} strands but only {s.strands} present"
                )
            if sign not in (1, -1):
                raise InvalidGeneratorError(f"crossing letter s{idx} has sign {sign}")
        elif not s.pi1_letter_valid((kind, idx, sign)):
            raise InvalidGeneratorError(
                f"loop letter {format_letter((kind, idx, sign))} does not exist "
                f"on genus {s.genus}, boundary {s.boundary}"
            )


# ---------------------------------------------------------------------------
# permutations (0-based tuples; p[i] is the image of i)
# ---------------------------------------------------------------------------


def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def transposition_perm(n: int, i: int) -> tuple[int, ...]:
    """Swap of strands i and i+1 (1-based i, as in the generator s_i)."""
    if not 1 <= i <= n - 1:
        raise InvalidGeneratorError(f"transposition index {i} out of range for {n} strands")
    p = list(range(n))
    p[i - 1], p[i] = p[i], p[i - 1]
    return tuple(p)


def compose_perms(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Left-to-right composition: (p * q)(x) = q(p(x))."""
    if len(p) != len(q):
        raise DimensionMismatchError("permutations act on different strand counts")
    return tuple(q[x] for x in p)


def invert_perm(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def perm_sign(p: tuple[int, ...]) -> int:
    seen = [False] * len(p)
    sign = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def format_perm_cycles(p: tuple[int, ...]) -> str:
    """1-based cycle notation with fixed points shown, e.g. ``(1 2)(3)``."""
    seen = [False] * len(p)
    parts = []
    for i in range(len(p)):
        if seen[i]:
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j + 1)
            j = p[j]
        parts.append("(" + " ".join(str(x) for x in cyc) + ")")
    return "".join(parts) if parts else "()"


def parse_perm_cycles(text: str, n: int) -> tuple[int, ...]:
    """Parse cycle notation like ``(1 3 2)(4)``; unlisted points stay fixed."""
    text = text.strip()
    if text in ("", "()", "id"):
        return identity_perm(n)
    if not re.fullmatch(r"(\([^()]*\))+", text):
        raise ParseError(f"bad cycle notation {text!r}")
    out = list(range(n))
    used = set()
    for chunk in re.findall(r"\(([^()]*)\)", text):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError(f"empty cycle in {text!r}")
        try:
            cyc = [int(t) for t in chunk.replace(",", " ").split()]
        except ValueError as exc:
            raise ParseError(f"bad cycle entry in {text!r}") from exc
        for x in cyc:
            if not 1 <= x <= n:
                raise ParseError(f"cycle entry {x} out of range 1..{n}")
            if x in used:
                raise ParseError(f"point {x} appears twice in {text!r}")
            used.add(x)
        for k, x in enumerate(cyc):
            out[x - 1] = cyc[(k + 1) % len(cyc)] - 1
    return tuple(out)


def strand_permutation(word: BraidWord, n: int) -> tuple[int, ...]:
    """Underlying permutation of a braid word; loop letters fix all strands.

    ``at[j]`` is the strand at position ``j``, so ``s_i`` swaps two entries
    and the permutation (starting to ending positions) is the inverse of
    the final ``at``, as in ``wreath_image``."""
    at = list(range(n))
    for kind, idx, _ in word:
        if kind == "s":
            if not 1 <= idx <= n - 1:
                raise InvalidGeneratorError(
                    f"transposition index {idx} out of range for {n} strands"
                )
            at[idx - 1], at[idx] = at[idx], at[idx - 1]
    return invert_perm(at)


# ---------------------------------------------------------------------------
# relators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Relator:
    """A word equal to the identity, tagged with its family label."""

    family: str
    word: BraidWord


def _s(i: int, sign: int = 1) -> tuple:
    return ("s", i, sign)


def _comm(u: BraidWord, v: BraidWord) -> BraidWord:
    return u + v + inverse_word(u) + inverse_word(v)


def _loop_letters(s: SurfaceParams) -> list[tuple]:
    out = []
    for r in range(1, s.genus + 1):
        out += [("a", r, 1), ("b", r, 1)]
    for k in range(1, s.boundary):
        out.append(("z", k, 1))
    return out


def relators(s: SurfaceParams) -> list[Relator]:
    """Every relator instance for the given parameters, freely reduced."""
    if s.strands < 2:
        raise ParameterError("the braid presentation needs at least 2 strands")
    n, g, p = s.strands, s.genus, s.boundary
    out: list[Relator] = []

    for i in range(1, n - 1):
        out.append(Relator("2.i", (
            _s(i), _s(i + 1), _s(i), _s(i + 1, -1), _s(i, -1), _s(i + 1, -1))))
    for i in range(1, n - 1):
        for j in range(i + 2, n):
            out.append(Relator("2.i", _comm((_s(i),), (_s(j),))))

    loops = _loop_letters(s)
    for i in range(2, n):
        for gam in loops:
            out.append(Relator("2.ii", _comm((gam,), (_s(i),))))
    for gam in loops:
        out.append(Relator("2.ii", _comm(
            (gam,), (_s(1, -1), gam, _s(1, -1)))))
    for r in range(1, g + 1):
        for t in range(1, r):
            for first in (("a", r, 1), ("b", r, 1)):
                for second in (("a", t, 1), ("b", t, 1)):
                    out.append(Relator("2.ii", _comm(
                        (first,), (_s(1, -1), second, _s(1)))))
    for i in range(1, p):
        for j in range(1, i):
            out.append(Relator("2.ii", _comm(
                (("z", i, 1),), (_s(1, -1), ("z", j, 1), _s(1)))))
    for r in range(1, g + 1):
        for k in range(1, p):
            for first in (("a", r, 1), ("b", r, 1)):
                out.append(Relator("2.ii", _comm(
                    (first,), (_s(1, -1), ("z", k, 1), _s(1)))))

    for r in range(1, g + 1):
        out.append(Relator("2.iii", (_s(1, -1), _s(1, -1)) + _comm(
            (("a", r, 1),), (_s(1, -1), ("b", r, 1), _s(1, -1)))))

    if p == 0:
        handles: BraidWord = ()
        for r in range(1, g + 1):
            handles += _comm((("a", r, 1),), (("b", r, -1),))
        twist = tuple(_s(i) for i in range(1, n - 1)) + (_s(n - 1), _s(n - 1)) \
            + tuple(_s(i) for i in range(n - 2, 0, -1))
        out.append(Relator("2.iv", free_reduce(handles + inverse_word(twist))))

    return [Relator(r.family, free_reduce(r.word)) for r in out]


# ---------------------------------------------------------------------------
# degree-zero evaluation into the wreath product
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WreathElement:
    """Element (beads; perm) of pi_1(Sigma)^n |x S_n with normalized beads.

    Beads are kept in the canonical normal form of ``pi1_normalize``, so
    ``==`` and ``hash`` are equality in the wreath product.

    ``beads[i]`` belongs to the strand *starting* at position ``i + 1`` and
    ``perm`` maps starting to ending positions, composing left-to-right.
    In the product the strand starting at ``i`` continues through the second
    factor as its strand ``perm(i)``:
    (g; pi)(h; rho) = (e; pi rho) with e_i = g_i * h_{pi(i)}.
    """

    surface: SurfaceParams
    beads: tuple[Word, ...]
    perm: tuple[int, ...]

    def __post_init__(self):
        n = self.surface.strands
        if len(self.beads) != n or len(self.perm) != n:
            raise DimensionMismatchError(
                f"need {n} beads and a permutation of {n} strands"
            )
        object.__setattr__(
            self, "beads",
            tuple(pi1_normalize(w, self.surface) for w in self.beads),
        )

    @classmethod
    def identity(cls, s: SurfaceParams) -> "WreathElement":
        return cls(s, ((),) * s.strands, identity_perm(s.strands))

    @property
    def is_identity(self) -> bool:
        return self.perm == identity_perm(self.surface.strands) and all(
            w == () for w in self.beads
        )

    def __mul__(self, other: "WreathElement") -> "WreathElement":
        if self.surface != other.surface:
            raise DimensionMismatchError("wreath elements live on different surfaces")
        beads = tuple(
            self.beads[i] + other.beads[self.perm[i]] for i in range(self.surface.strands)
        )
        return WreathElement(self.surface, beads, compose_perms(self.perm, other.perm))

    def inverse(self) -> "WreathElement":
        pinv = invert_perm(self.perm)
        beads = tuple(
            inverse_word(self.beads[pinv[j]])
            for j in range(self.surface.strands)
        )
        return WreathElement(self.surface, beads, pinv)


def wreath_image(word: BraidWord, s: SurfaceParams) -> WreathElement:
    """The evaluation sending s_i to its transposition (trivial beads) and
    each loop letter to a single bead on strand one.

    One pass: ``at[j]`` is the strand at position ``j``, ``s_i`` swaps two
    entries, and a loop letter is appended to the raw bead word of the
    strand at position one.  Each strand is normalized once, at the end.
    That equals the product of the letters' images because
    ``pi1_normalize`` is canonical: the normal form of a concatenation is
    the normal form of the product of normal forms."""
    check_braid_word(word, s)
    n = s.strands
    at = list(range(n))
    beads: list[list] = [[] for _ in range(n)]
    for letter in word:
        kind, idx, _ = letter
        if kind == "s":
            at[idx - 1], at[idx] = at[idx], at[idx - 1]
        else:
            beads[at[0]].append(letter)
    return WreathElement(s, tuple(map(tuple, beads)), invert_perm(at))


# ---------------------------------------------------------------------------
# bounded equality search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Move:
    """Replace ``removed`` at position ``pos`` by ``inserted`` (then reduce)."""

    pos: int
    removed: BraidWord
    inserted: BraidWord
    family: str


@dataclass(frozen=True)
class Equality:
    """Outcome of bounded_equal: Equal carries a verified move sequence.
    ``nodes`` counts the distinct words the search stored, those of the
    levels below the last, which the node budget caps (0 when the reduced
    words already agree or the depth is at most 1)."""

    status: str  # "equal" | "unknown"
    moves: tuple[Move, ...] = ()
    nodes: int = 0

    @property
    def is_equal(self) -> bool:
        return self.status == "equal"


def apply_move(word: BraidWord, move: Move) -> BraidWord:
    end = move.pos + len(move.removed)
    if not (0 <= move.pos <= len(word)) or word[move.pos:end] != move.removed:
        raise SurfbraidError("move does not apply at this position")
    return free_reduce(word[:move.pos] + move.inserted + word[end:])


def _cyclic_reduce(word: BraidWord) -> BraidWord:
    word = free_reduce(word)
    while len(word) > 1 and word[:1] == inverse_word(word[-1:]):
        word = word[1:-1]
    return word


def is_relator_move(move: Move, s: SurfaceParams) -> Relator | None:
    """The relator of the catalogue that ``move`` rewrites by, or None: the
    first relator such that ``removed . inserted^-1``, freely and cyclically
    reduced, is a cyclic rotation of it or of its inverse, also cyclically
    reduced.  Such a move turns a word into one equal to it in the braid
    group; the check reads the catalogue once and builds no move table."""
    word = _cyclic_reduce(move.removed + inverse_word(move.inserted))
    for rel in relators(s):
        base = _cyclic_reduce(rel.word)
        if len(base) != len(word):
            continue
        for base in (base, inverse_word(base)):
            if any(base[r:] + base[:r] == word for r in range(len(base))):
                return rel
    return None


def _splice(head: str, inserted: str, tail: str) -> str:
    """``free_reduce(head + inserted + tail)`` for three freely reduced words
    with one character per letter: cancellation can only happen at the two
    seams, where a letter meets its inverse (the code with the low bit
    flipped)."""
    if head and inserted and ord(head[-1]) ^ ord(inserted[0]) == 1:
        i, n = 1, min(len(head), len(inserted))
        while i < n and ord(head[-1 - i]) ^ ord(inserted[i]) == 1:
            i += 1
        left = head[:-i] + inserted[i:]
    else:
        left = head + inserted
    if left and tail and ord(left[-1]) ^ ord(tail[0]) == 1:
        j, n = 1, min(len(left), len(tail))
        while j < n and ord(left[-1 - j]) ^ ord(tail[j]) == 1:
            j += 1
        return left[:-j] + tail[j:]
    return left + tail


class _MoveTable:
    """The relator moves of one surface, on words with one character per
    letter: letter id ``k`` is ``chr(2k)`` and its inverse ``chr(2k + 1)``,
    so inverting a letter flips the low bit of its code.

    The moves form one layer, the insertions of relator conjugates: each
    rotation of a relator or of its inverse, freely reduced, is a word that
    may be inserted at any position, first family kept.  ``inserts``
    holds them ordered by ``word_sort_key``, each as ``(inserted, family,
    first, last, after)``.  ``first`` and ``last`` are the inverses of the
    inserted word's first and last letters, so the search sees that no seam
    cancels without calling ``_splice``.  ``families`` maps each inserted
    word to its family and serves the last level of ``bounded_equal``,
    which ``insertion_to`` decides by one lookup per position.  Two lemmas
    make the insertions the only moves a rewrite needs and let the search
    skip repeats among them, writing inv(x) for the inverse of a word x:

    1. A substitution P -> I, where a rotation rot of a relator or its
       inverse splits as rot = P.inv(I) with P = rot[:k], k >= 1, gives at
       any position the word that inserting I.inv(P) = inv(rot) there
       gives, and inv(rot) is itself an insertion.
    2. Inserting R after a letter h gives the word that inserting
       free_reduce(h R h^-1) gives one position earlier.  ``after`` holds
       the letters h, among R's last letter and the inverse of its first,
       for which that word is an insertion too; each is confirmed by one
       membership test."""

    def __init__(self, s: SurfaceParams):
        self.chars: dict[tuple, str] = {}
        self.letters: dict[str, tuple] = {}
        for k, (kind, idx, _) in enumerate(
                [_s(i) for i in range(1, s.strands)] + _loop_letters(s)):
            for bit, sign in ((0, 1), (1, -1)):
                self.chars[(kind, idx, sign)] = chr(2 * k + bit)
                self.letters[chr(2 * k + bit)] = (kind, idx, sign)
        self.flip = {ord(c): ord(c) ^ 1 for c in self.letters}
        # letters tied in letter_sort_key (s_i and z_i) share a rank character,
        # so the stable sort below keeps their insertion order
        keys = sorted({letter_sort_key(l) for l in self.chars})
        rank = {ord(c): keys.index(letter_sort_key(l)) for l, c in self.chars.items()}
        pieces: dict[str, str] = {}
        for rel in relators(s):
            code = self.encode(rel.word)
            for base in (code, self.inverse(code)):
                for r in range(len(base)):
                    # relators are freely reduced: a rotation cancels at its seam
                    rot = _splice(base[r:], "", base[:r])
                    pieces.setdefault(self.inverse(rot), rel.family)
        self.families = dict(sorted(
            pieces.items(), key=lambda t: (len(t[0]), t[0].translate(rank))))
        inserts = []
        for inserted, family in self.families.items():
            first = inserted[0].translate(self.flip)
            last = inserted[-1].translate(self.flip)
            # h R h^-1 for h the last letter of R or the inverse of its first:
            # a rotation of R, or R without both ends where these letters agree
            if first == inserted[-1]:
                turns = ((first, inserted[1:-1]),)
            else:
                turns = ((inserted[-1], inserted[-1] + inserted[:-1]),
                         (first, inserted[1:] + inserted[0]))
            after = tuple(h for h, word in turns if word in pieces)
            inserts.append((inserted, family, first, last, after))
        self.inserts = tuple(inserts)

    def encode(self, word: BraidWord) -> str:
        return "".join([self.chars[l] for l in word])

    def decode(self, code: str) -> BraidWord:
        return tuple([self.letters[c] for c in code])

    def inverse(self, code: str) -> str:
        return code[::-1].translate(self.flip)

    def insertion_to(self, word: str, target: str) -> tuple | None:
        """The first ``(position, inserted, family)``, by position, at which
        inserting a word of ``families`` into ``word`` gives ``target``, or
        None.  An insertion I is freely reduced, so
        free_reduce(word[:p] I word[p:]) == target exactly when
        I == free_reduce(inv(word[:p]) target inv(word[p:])): one splice and
        one lookup per position, and at most one I per position."""
        wi, n = self.inverse(word), len(word)
        for pos in range(n + 1):
            inserted = _splice(wi[n - pos:], target, wi[:n - pos])
            family = self.families.get(inserted)
            if family is not None:
                return pos, inserted, family
        return None


# keyed by value, so equal surfaces share one table; the entry goes when the
# object it was built for is collected, even while an equal one lives on
_MOVE_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _move_table(s: SurfaceParams) -> _MoveTable:
    table = _MOVE_TABLES.get(s)
    if table is None:
        table = _MOVE_TABLES[s] = _MoveTable(s)
    return table


def bounded_equal(
    u: BraidWord,
    v: BraidWord,
    s: SurfaceParams,
    depth: int,
    node_budget: int = 10**6,
) -> Equality:
    """Breadth-first search rewriting u towards v by at most ``depth`` relator
    moves.  Equal answers are replayed move by move before being returned;
    Unknown (the depth ran out) is inconclusive.  Raises
    ``ResourceLimitError`` once ``node_budget`` words were stored without
    reaching v, and ``ParameterError`` for a negative depth or a budget
    below 1.

    The moves come from the surface's move table, built on first use and
    shared by equal surfaces (see ``_MOVE_TABLES``).  Words are strings with
    one character per letter, so each is hashed once.  The search tries,
    at each position of a word, the insertions of relator conjugates
    (``_MoveTable.inserts``), concatenated in where neither seam cancels
    and spliced by ``_splice`` otherwise.  It tries no substitution
    P -> S^-1: by lemma 1 of ``_MoveTable`` each gives the word of an
    insertion at the same position, and every such word is already reached.
    By lemma 2 it skips an insertion whose word an insertion one position
    earlier has already given.  Both lemmas only drop repeats, so the
    words are generated in the order of a search over every relator move
    by (position, removed length, removed, inserted) in the fixed letter
    order, and the moves returned are that search's, fixed by the inputs.

    Only the levels below the last are generated and stored, each word with
    its parent record.  The last level is decided without a word of it:
    an insertion I is freely reduced, so free_reduce(w[:p] I w[p:]) == v
    exactly when I == free_reduce(inv(w[:p]) v inv(w[p:])), and
    ``_MoveTable.insertion_to`` splices that word once per position p of
    each frontier word w and looks it up.  At most one insertion reaches v
    at a position, and one that lemma 2 skips reaches it one position
    earlier too, so the first hit is the move the generating scan would
    return first.  ``nodes`` and ``node_budget`` count the stored words,
    those of the levels below the last (the target among them, where one
    reaches it): depth 1 stores none, whatever it answers."""
    if depth < 0:
        raise ParameterError(f"the depth must be non-negative, not {depth}")
    if node_budget < 1:
        raise ParameterError(f"the node budget must be at least 1, not {node_budget}")
    check_braid_word(u, s)
    check_braid_word(v, s)
    start, target = free_reduce(u), free_reduce(v)
    if start == target:
        return Equality("equal")
    if not depth:
        return Equality("unknown")
    table = _move_table(s)
    inserts = table.inserts
    start_code, target_code = table.encode(start), table.encode(target)
    # each stored word -> the insertion that first reached it: (previous
    # word, position, inserted, family); the start word has none
    parents: dict[str, tuple | None] = {start_code: None}
    frontier = [start_code]

    def path_to(step: tuple) -> Equality:
        moves: list[Move] = []
        while True:
            w, pos, inserted, family = step
            moves.append(Move(pos, (), table.decode(inserted), family))
            if w == start_code:
                break
            step = parents[w]
        moves.reverse()
        check = start
        for mv in moves:
            check = apply_move(check, mv)
        if check != target:
            raise SurfbraidError("internal error: move replay failed")
        return Equality("equal", tuple(moves), len(parents) - 1)

    for _ in range(depth - 1):
        next_frontier: list[str] = []
        for w in frontier:
            for pos in range(len(w) + 1):
                head, h = w[:pos], w[pos - 1:pos]
                tail, t = w[pos:], w[pos:pos + 1]
                for inserted, family, first, last, after in inserts:
                    if h in after:
                        continue
                    if h != first and t != last:
                        nxt = head + inserted + tail
                    else:
                        nxt = _splice(head, inserted, tail)
                    if nxt in parents:
                        continue
                    parents[nxt] = step = (w, pos, inserted, family)
                    if nxt == target_code:
                        return path_to(step)
                    next_frontier.append(nxt)
                    if len(parents) - 1 >= node_budget:
                        raise ResourceLimitError(
                            f"node budget of {node_budget} words exhausted "
                            f"within depth {depth}"
                        )
        frontier = next_frontier
        if not frontier:
            break
    for w in frontier:
        move = table.insertion_to(w, target_code)
        if move is not None:
            return path_to((w, *move))
    return Equality("unknown", nodes=len(parents) - 1)


def random_relator_rewrite(word: BraidWord, s: SurfaceParams, rng) -> tuple[BraidWord, Move]:
    """Insert one random relator conjugate into ``word``; returns the
    rewritten word, freely reduced, and the move.  Raises
    ``ParameterError`` on a surface whose presentation has no relators,
    where no move exists.

    The candidates are the insertions of the surface's move table
    (``_MoveTable.inserts``), each at each position of ``word``; ``rng``
    draws one by index, so a seeded ``rng`` picks a fixed move.  The
    rewritten word always differs from ``free_reduce(word)``: an insertion
    is a non-empty freely reduced word, so it is not trivial in the free
    group."""
    check_braid_word(word, s)
    table = _move_table(s)
    total = len(table.inserts) * (len(word) + 1)
    if not total:
        raise ParameterError(
            f"no relator move exists: the presentation for genus {s.genus}, "
            f"boundary {s.boundary} on {s.strands} strands has no relators"
        )
    b, pos = divmod(rng.randrange(total), len(word) + 1)
    inserted, family = table.inserts[b][:2]
    mv = Move(pos, (), table.decode(inserted), family)
    return apply_move(word, mv), mv
