"""Surface parameters, fundamental-group words, and normal forms."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfbraid.errors import InvalidGeneratorError, ParameterError, ParseError
from surfbraid.surface import (
    SurfaceParams,
    _closed_system,
    _torus_normal_form,
    check_pi1_word,
    format_word,
    free_reduce,
    inverse_word,
    letter,
    letter_sort_key,
    parse_word,
    pi1_normalize,
    word_sort_key,
)

from oracles import surface_group_growth

A1 = letter("a", 1)
B1 = letter("b", 1)
Z1 = letter("z", 1)


def inv(let):
    kind, idx, sign = let
    return (kind, idx, -sign)


def relator_rotations(genus):
    r = SurfaceParams(genus, 0, 2).surface_relator()
    return sorted({w[i:] + w[:i] for w in (r, inverse_word(r)) for i in range(len(w))})


def dehn_reduce(word, genus):
    """Greedy Dehn shortening, the triviality oracle: while the freely
    reduced word has a factor of 2g + 1 letters that begins a cyclic rotation
    of R_g or of its inverse, replace the factor by the inverse of the rest
    of that rotation.  The relator is C'(1/6) for g >= 2, so by Greendlinger's
    lemma a word is trivial exactly when this ends at the empty word."""
    k = 2 * genus + 1
    rotations = relator_rotations(genus)
    w = free_reduce(word)
    pos = 0
    while pos < len(w):
        rot = next((r for r in rotations if w[pos:pos + k] == r[:k]), None)
        if rot is None:
            pos += 1
        else:
            w = free_reduce(w[:pos] + inverse_word(rot[k:]) + w[pos + k:])
            pos = 0
    return w


class TestParams:
    def test_fields(self):
        s = SurfaceParams(genus=1, boundary=1, strands=2)
        assert (s.genus, s.boundary, s.strands) == (1, 1, 2)
        assert not s.closed
        assert SurfaceParams(2, 0, 3).closed

    def test_validation(self):
        with pytest.raises(ParameterError):
            SurfaceParams(-1, 0, 2)
        with pytest.raises(ParameterError):
            SurfaceParams(0, -1, 2)
        with pytest.raises(ParameterError):
            SurfaceParams(1, 1, 0)

    def test_letters_free_rank(self):
        # p >= 1: free group of rank 2g + p - 1 (one boundary loop is
        # redundant), so one signed pair per generator
        assert len(SurfaceParams(1, 1, 2).pi1_letters()) == 4
        assert len(SurfaceParams(0, 2, 2).pi1_letters()) == 2
        assert len(SurfaceParams(0, 1, 2).pi1_letters()) == 0
        assert len(SurfaceParams(2, 2, 2).pi1_letters()) == 10
        assert len(SurfaceParams(1, 0, 2).pi1_letters()) == 4

    def test_letter_validity(self):
        s = SurfaceParams(1, 1, 2)
        assert s.pi1_letter_valid(A1)
        assert s.pi1_letter_valid(inv(B1))
        assert not s.pi1_letter_valid(letter("a", 2))
        assert not s.pi1_letter_valid(Z1)
        assert SurfaceParams(0, 3, 2).pi1_letter_valid(letter("z", 2))
        assert not SurfaceParams(0, 3, 2).pi1_letter_valid(letter("z", 3))

    def test_surface_relator(self):
        s = SurfaceParams(1, 0, 2)
        assert s.surface_relator() == (A1, inv(B1), inv(A1), B1)
        assert len(SurfaceParams(3, 0, 2).surface_relator()) == 12
        with pytest.raises(ParameterError):
            SurfaceParams(1, 1, 2).surface_relator()

    def test_check_word(self):
        s = SurfaceParams(1, 1, 2)
        check_pi1_word((A1, inv(B1)), s)
        with pytest.raises(InvalidGeneratorError):
            check_pi1_word((Z1,), s)


class TestWords:
    def test_free_reduce_cancels(self):
        assert free_reduce((A1, inv(A1))) == ()
        assert free_reduce((A1, B1, inv(B1), inv(A1))) == ()
        assert free_reduce((A1, inv(B1), B1, B1)) == (A1, B1)

    def test_inverse_word(self):
        assert inverse_word((A1, B1)) == (inv(B1), inv(A1))
        assert inverse_word(()) == ()

    def test_parse_format_round_trip(self):
        for text in ("1", "a1", "a1^-1 b2", "z1 z1 a1^-1"):
            word = parse_word(text)
            assert format_word(word) == text if text != "1" else True
        assert parse_word("") == ()
        assert parse_word("1") == ()
        assert format_word(()) == "1"
        assert format_word((A1, inv(B1))) == "a1 b1^-1"
        assert parse_word("a1 b1^-1") == (A1, inv(B1))

    def test_parse_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_word("q1")
        with pytest.raises(ParseError):
            parse_word("a")
        with pytest.raises(ParseError):
            parse_word("a1^2")

    def test_sort_keys(self):
        # a1 < a1^-1 < b1 < b1^-1 < a2 < ... < z1
        ordered = [A1, inv(A1), B1, inv(B1), letter("a", 2), Z1]
        assert sorted(ordered, key=letter_sort_key) == ordered
        assert word_sort_key(()) < word_sort_key((A1,))
        assert word_sort_key((A1,)) < word_sort_key((B1,))


class TestNormalForms:
    def test_free_case(self):
        s = SurfaceParams(1, 1, 2)
        assert pi1_normalize((A1, inv(A1)), s) == ()
        assert pi1_normalize((A1, B1), s) == (A1, B1)
        assert pi1_normalize(inverse_word((A1, B1)), s) == (inv(B1), inv(A1))
        s02 = SurfaceParams(0, 2, 2)
        assert pi1_normalize((Z1, inv(Z1)), s02) == ()

    def test_torus_abelian(self):
        s = SurfaceParams(1, 0, 2)
        assert pi1_normalize((A1, B1, inv(A1), inv(B1)), s) == ()
        assert pi1_normalize((B1, A1), s) == (A1, B1)
        assert pi1_normalize((A1, A1, inv(B1)), s) == (A1, A1, inv(B1))

    def test_higher_genus_relator_trivial(self):
        for g in (2, 3):
            s = SurfaceParams(g, 0, 2)
            r = s.surface_relator()
            assert pi1_normalize(r, s) == ()
            assert pi1_normalize(inverse_word(r), s) == ()
            assert pi1_normalize(r + r, s) == ()

    def test_higher_genus_conjugates(self):
        s = SurfaceParams(2, 0, 2)
        r = s.surface_relator()
        rng = random.Random(7)
        letters = s.pi1_letters()
        for _ in range(50):
            u = tuple(rng.choice(letters) for _ in range(rng.randrange(4)))
            w = u + r + inverse_word(u)
            assert pi1_normalize(w, s) == ()

    def test_higher_genus_nontrivial_word(self):
        s = SurfaceParams(2, 0, 2)
        assert pi1_normalize((A1,), s) == (A1,)
        assert pi1_normalize((A1, B1), s) != ()

    def test_normal_form_is_idempotent(self):
        rng = random.Random(11)
        for s in (SurfaceParams(1, 1, 2), SurfaceParams(1, 0, 2), SurfaceParams(2, 0, 2)):
            letters = s.pi1_letters()
            for _ in range(100):
                w = tuple(rng.choice(letters) for _ in range(rng.randrange(8)))
                nf = pi1_normalize(w, s)
                assert pi1_normalize(nf, s) == nf

    def test_normal_form_respects_multiplication(self):
        rng = random.Random(13)
        s = SurfaceParams(2, 0, 2)
        letters = s.pi1_letters()
        for _ in range(50):
            u = tuple(rng.choice(letters) for _ in range(rng.randrange(5)))
            v = tuple(rng.choice(letters) for _ in range(rng.randrange(5)))
            lhs = pi1_normalize(u + v, s)
            rhs = pi1_normalize(pi1_normalize(u, s) + pi1_normalize(v, s), s)
            assert lhs == rhs

    def test_inverse_cancels(self):
        rng = random.Random(17)
        for s in (SurfaceParams(1, 0, 2), SurfaceParams(2, 0, 2), SurfaceParams(1, 2, 2)):
            letters = s.pi1_letters()
            for _ in range(30):
                w = tuple(rng.choice(letters) for _ in range(rng.randrange(6)))
                assert pi1_normalize(w + pi1_normalize(inverse_word(w), s), s) == ()


@st.composite
def relator_products(draw, s):
    """A product of conjugates u r^(+-1) u^-1 of the surface relator r."""
    r = s.surface_relator()
    word: tuple = ()
    for _ in range(draw(st.integers(1, 3))):
        u = tuple(draw(st.lists(st.sampled_from(s.pi1_letters()), max_size=5)))
        rel = r if draw(st.booleans()) else inverse_word(r)
        word += u + rel + inverse_word(u)
    return word


class TestClosedSystem:
    @pytest.mark.parametrize("genus", range(1, 7))
    def test_the_completion_closes_on_8g_rules(self, genus):
        system, letters, _ = _closed_system(genus)
        assert system.unresolved() == []
        assert len(system.rules) == 8 * genus
        assert max(map(len, system.rules)) <= 2 * genus
        assert letters[:2] == (("b", 1, 1), ("b", 1, -1))

    @pytest.mark.parametrize("genus", range(1, 7))
    def test_normal_words_follow_the_growth_series(self, genus):
        # confluence shows a basis of some quotient; the count shows it is
        # pi_1 of the closed surface
        degree = 10 if genus <= 3 else 8
        system, _, _ = _closed_system(genus)
        assert system.normal_word_counts(degree) == surface_group_growth(genus, degree)

    def test_the_torus_system_gives_the_exponent_form(self):
        system, letters, code = _closed_system(1)
        rng = random.Random(19)
        for _ in range(300):
            w = tuple(rng.choice(letters) for _ in range(rng.randrange(12)))
            (normal,) = system.reduce({tuple(map(code.__getitem__, w)): 1})
            assert tuple(map(letters.__getitem__, normal)) == _torus_normal_form(w)


@st.composite
def words_with_a_relator(draw):
    """A genus, a word, a cyclic rotation of R_g^(+-1) and a position to
    insert it at."""
    genus = draw(st.sampled_from([2, 3]))
    letters = SurfaceParams(genus, 0, 2).pi1_letters()
    word = tuple(draw(st.lists(st.sampled_from(letters), max_size=16)))
    rot = draw(st.sampled_from(relator_rotations(genus)))
    return genus, word, rot, draw(st.integers(0, len(word)))


class TestAgainstDehnReduction:
    @settings(max_examples=60, deadline=None)
    @given(words_with_a_relator())
    def test_normal_form_against_the_oracle(self, case):
        genus, word, rot, pos = case
        s = SurfaceParams(genus, 0, 2)
        with_relator = word[:pos] + rot + word[pos:]
        assert pi1_normalize(with_relator, s) == pi1_normalize(word, s)
        # the second word is a conjugate of the relator's inverse: trivial,
        # but not freely
        for w in (word, word + inverse_word(with_relator)):
            oracle = dehn_reduce(w, genus)
            assert (pi1_normalize(w, s) == ()) == (oracle == ())
            assert len(pi1_normalize(w, s)) <= len(oracle)


class TestRelatorProducts:
    @settings(max_examples=100, deadline=None)
    @given(relator_products(SurfaceParams(1, 0, 2)))
    def test_trivial_on_the_torus(self, word):
        assert pi1_normalize(word, SurfaceParams(1, 0, 2)) == ()

    @settings(max_examples=100, deadline=None)
    @given(relator_products(SurfaceParams(2, 0, 2)))
    def test_trivial_in_genus_two(self, word):
        assert pi1_normalize(word, SurfaceParams(2, 0, 2)) == ()
        assert dehn_reduce(word, 2) == ()
