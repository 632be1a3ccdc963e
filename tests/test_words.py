from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpcoset import (
    Alphabet,
    FreeEndomorphism,
    InputError,
    Word,
    commutator,
    free_reduce,
)

from helpers import (
    breadth_first_words,
    brute_force_reduce,
    checked_word_letters,
    compose,
    identity_endomorphism,
    power_by_products,
    random_word,
    walk_order_key,
)

ABC = Alphabet(("a", "b", "c", "d"))
AB = Alphabet(("a", "b"))

letters_strategy = st.lists(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda g: st.sampled_from([g, -g])
    ),
    max_size=24,
)


raw_letters = st.lists(
    st.sampled_from([1, -1, 2, -2, 4, -4, 0, 5, -5, True, False, 1.0, "a", None, 2**70]),
    max_size=10,
)


def _outcome(build):
    try:
        return build()
    except InputError as exc:
        return str(exc)


def word(alphabet, *letters) -> Word:
    return Word.reduce(alphabet, letters)


class TestReduce:
    def test_cancellation(self):
        assert word(ABC, 1, -1).letters == ()

    def test_already_reduced(self):
        assert word(ABC, 2, 3, 4).letters == (2, 3, 4)

    def test_unknown_letter(self):
        with pytest.raises(InputError):
            Word.reduce(ABC, (5,))
        with pytest.raises(InputError):
            Word.reduce(ABC, (0,))

    def test_constructor_rejects_unreduced(self):
        with pytest.raises(InputError):
            Word(ABC, (1, -1))

    def test_cancelling_pair_out_of_range(self):
        with pytest.raises(InputError, match="letter 5 out of range"):
            Word.reduce(AB, (5, -5))

    @settings(max_examples=300)
    @given(raw_letters)
    @example([1, -1, 5])
    @example([True, -1])
    def test_constructor_checks_match_the_reference(self, letters):
        # range, sign, int-ness (a bool is an int) and reduction in one
        # pass, with the reference's messages and the same precedence
        expected = _outcome(lambda: checked_word_letters(ABC, letters))
        assert _outcome(lambda: Word(ABC, letters).letters) == expected

    @settings(max_examples=300)
    @given(raw_letters)
    @example([5, -5])
    @example([1, -1, 5])
    def test_reduce_checks_every_letter_as_the_reference(self, letters):
        # each letter, cancelled or not, is checked in order before the
        # reduced word is returned
        def expected():
            for x in letters:
                checked_word_letters(ABC, (x,))
            return free_reduce(letters)

        assert _outcome(lambda: Word.reduce(ABC, letters).letters) == _outcome(expected)

    def test_word_times_inverse_is_identity(self):
        rng = random.Random(7)
        for _ in range(200):
            w = random_word(rng, ABC, 20)
            assert (w * w.inverse()).is_identity

    @given(letters_strategy)
    def test_idempotent(self, letters):
        once = free_reduce(letters)
        assert free_reduce(once) == once

    @given(letters_strategy)
    def test_matches_brute_force(self, letters):
        assert free_reduce(letters) == brute_force_reduce(letters)


class TestArithmetic:
    def test_multiply_cancels(self):
        assert (word(ABC, 1) * word(ABC, -1)).is_identity

    def test_invert_reverses_and_negates(self):
        assert word(ABC, 1, 2).inverse().letters == (-2, -1)

    def test_commutator_of_conjugate(self):
        # [a, a^b] expanded by hand: a^-1 b^-1 a^-1 b a b^-1 a b
        a = word(AB, 1)
        ab = a.conjugated_by(word(AB, 2))
        assert ab.letters == (-2, 1, 2)
        assert commutator(a, ab).letters == (-1, -2, -1, 2, 1, -2, 1, 2)

    def test_alphabet_mismatch(self):
        with pytest.raises(InputError):
            word(ABC, 1) * word(AB, 1)

    @settings(max_examples=300)
    @given(letters_strategy, letters_strategy, st.integers(0, 24))
    def test_product_is_the_reduced_concatenation(self, a, b, k):
        # v starts with the inverse of up to k letters of u, so the two
        # cancel at the seam, possibly past it
        u = Word.reduce(ABC, a)
        v = Word.reduce(ABC, [-x for x in reversed(u.letters[max(len(u) - k, 0) :])] + b)
        assert u * v == Word.reduce(ABC, u.letters + v.letters)

    def test_powers(self):
        assert (word(AB, 1) ** 3).letters == (1, 1, 1)
        assert (word(AB, 1) ** -2).letters == (-1, -1)
        assert (word(AB, 1) ** 0).is_identity

    @settings(max_examples=200)
    @given(letters_strategy, st.integers(-6, 6))
    def test_power_matches_repeated_products(self, letters, n):
        w = Word.reduce(ABC, letters)
        assert w**n == power_by_products(w, n)


GRIG_SIGMA = FreeEndomorphism(
    ABC,
    (word(ABC, 1, 3, 1), word(ABC, 4), word(ABC, 2), word(ABC, 3)),
)
BAS_SIGMA = FreeEndomorphism(AB, (word(AB, 2, 2), word(AB, 1)))


class TestEndomorphisms:
    def test_image_count_must_match(self):
        with pytest.raises(InputError):
            FreeEndomorphism(ABC, (word(ABC, 1),))

    def test_grigorchuk_substitution(self):
        assert GRIG_SIGMA.apply(word(ABC, 2, 3, 4)).letters == (4, 2, 3)

    def test_basilica_substitution(self):
        assert BAS_SIGMA.apply(word(AB, 1)).letters == (2, 2)

    def test_identity_endomorphism(self):
        ident = identity_endomorphism(ABC)
        rng = random.Random(11)
        for _ in range(50):
            w = random_word(rng, ABC, 15)
            assert ident.apply(w) == w

    def test_homomorphism_property(self):
        rng = random.Random(13)
        for _ in range(300):
            u = random_word(rng, ABC, 12)
            v = random_word(rng, ABC, 12)
            assert GRIG_SIGMA.apply(u * v) == GRIG_SIGMA.apply(u) * GRIG_SIGMA.apply(v)

    def test_compose_basilica_square(self):
        square = compose(BAS_SIGMA, BAS_SIGMA)
        assert square.images[0].letters == (1, 1)
        assert square.images[1].letters == (2, 2)

    def test_compose_grigorchuk_square_on_d(self):
        assert compose(GRIG_SIGMA, GRIG_SIGMA).images[3].letters == (2,)

    def test_compose_with_identity(self):
        ident = identity_endomorphism(AB)
        assert compose(ident, BAS_SIGMA) == BAS_SIGMA
        assert compose(BAS_SIGMA, ident) == BAS_SIGMA

    def test_compose_associative(self):
        rng = random.Random(17)
        endos = []
        for _ in range(6):
            endos.append(
                FreeEndomorphism(AB, (random_word(rng, AB, 5), random_word(rng, AB, 5)))
            )
        for e, f, g in itertools.product(endos[:3], endos[2:4], endos[4:]):
            assert compose(compose(e, f), g) == compose(e, compose(f, g))


reduced_words = letters_strategy.map(lambda letters: Word.reduce(ABC, letters))
endomorphisms = st.lists(reduced_words, min_size=4, max_size=4).map(
    lambda images: FreeEndomorphism(ABC, tuple(images))
)


def inverse_letters(w: Word) -> list[int]:
    return [-x for x in reversed(w.letters)]


class TestUncheckedResults:
    """Products, inverses, powers and endomorphism images are built by
    ``Word.from_reduced``, which checks nothing; each must be the word
    that the checked paths build from the same letters."""

    @staticmethod
    def assert_checked(w: Word, expected: Word) -> None:
        assert type(w.letters) is tuple
        checked = Word(w.alphabet, w.letters)  # raises on a letter out of range or unreduced
        assert w == checked == expected
        assert hash(w) == hash(checked)

    @settings(max_examples=150)
    @given(reduced_words, reduced_words, st.integers(0, 24), st.integers(-6, 6), endomorphisms)
    @example(Word(ABC, (1, 2)), Word(ABC, ()), 0, 2, FreeEndomorphism(
        ABC, (word(ABC, 2), word(ABC, -2), word(ABC, 3), word(ABC, 4))
    ))
    def test_match_the_checked_constructor(self, u, tail, k, n, e):
        # v begins with the inverse of up to k letters of u, so u * v
        # cancels at the seam, completely when k covers u and tail is empty
        v = u.letters[max(len(u) - k, 0):]
        v = Word.reduce(ABC, [-x for x in reversed(v)] + list(tail.letters))
        powered = u.letters if n >= 0 else tuple(inverse_letters(u))
        images = [
            x for y in u.letters
            for x in (e.images[y - 1].letters if y > 0 else inverse_letters(e.images[-y - 1]))
        ]
        for w, expected in [
            (u * v, Word.reduce(ABC, u.letters + v.letters)),
            (u * u.inverse(), Word(ABC, ())),
            (u.inverse(), Word.reduce(ABC, inverse_letters(u))),
            (u**n, Word.reduce(ABC, powered * abs(n))),
            (u.conjugated_by(v), Word.reduce(ABC, inverse_letters(v) + list(u) + list(v))),
            (e.apply(u), Word.reduce(ABC, images)),
        ]:
            self.assert_checked(w, expected)


class TestOrdering:
    """The validity walk's order on endomorphism words, factor tuples."""

    def test_shorter_wins(self):
        assert walk_order_key((1,)) < walk_order_key((0, 0))

    def test_rightmost_position_decides(self):
        # factors apply left to right, so (1, 0) is "phi2 then phi1" and its
        # rightmost factor phi1 precedes phi2.
        assert walk_order_key((1, 0)) < walk_order_key((0, 1))

    def test_identity_is_minimum(self):
        for w in breadth_first_words(2, 3)[1:]:
            assert walk_order_key(()) < walk_order_key(w)

    def test_total_order_axioms(self):
        keys = [walk_order_key(w) for w in breadth_first_words(2, 4)]
        for u, v in itertools.combinations(keys, 2):
            assert (u < v) != (v < u)
        for u, v, w in itertools.combinations(sorted(keys), 3):
            assert u < v < w


class TestBreadthFirstOrder:
    def test_bfs_realizes_ordering_up_to_length_six(self):
        seen = breadth_first_words(2, 6)
        assert len(seen) == 2**7 - 1
        keys = [walk_order_key(w) for w in seen]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


class TestDegenerateAlphabet:
    def test_empty_alphabet(self):
        empty = Alphabet(())
        w = Word.identity(empty)
        assert (w * w).is_identity
        assert identity_endomorphism(empty).apply(w) == w
