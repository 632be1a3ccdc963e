from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lpcoset import (
    Alphabet,
    EndoWord,
    FreeEndomorphism,
    InputError,
    Word,
    commutator,
    free_reduce,
)

from helpers import (
    brute_force_reduce,
    checked_word_letters,
    compose,
    composite,
    identity_endomorphism,
    power_by_products,
    random_word,
)

ABC = Alphabet(("a", "b", "c", "d"))
AB = Alphabet(("a", "b"))

letters_strategy = st.lists(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda g: st.sampled_from([g, -g])
    ),
    max_size=24,
)


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

    @settings(max_examples=300)
    @given(
        st.lists(
            st.sampled_from(
                [1, -1, 2, -2, 4, -4, 0, 5, -5, True, False, 1.0, "a", None, 2**70]
            ),
            max_size=10,
        )
    )
    @example([1, -1, 5])
    @example([True, -1])
    def test_constructor_checks_match_the_reference(self, letters):
        # range, sign, int-ness (a bool is an int) and reduction in one
        # pass, with the reference's messages and the same precedence
        def outcome(build):
            try:
                return build()
            except InputError as exc:
                return str(exc)

        expected = outcome(lambda: checked_word_letters(ABC, letters))
        assert outcome(lambda: Word(ABC, letters).letters) == expected

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


FAMILY = (BAS_SIGMA, compose(BAS_SIGMA, BAS_SIGMA))


def endo_word(*factors) -> EndoWord:
    return EndoWord(AB, FAMILY, factors)


def bfs_words(family, max_len: int) -> list[EndoWord]:
    queue = [EndoWord.identity(AB, family)]
    i = 0
    while i < len(queue):
        if queue[i].length < max_len:
            queue.extend(queue[i].descendants())
        i += 1
    return queue


class TestOrdering:
    def test_shorter_wins(self):
        assert endo_word(0) < endo_word(0, 0)

    def test_rightmost_position_decides(self):
        # factors apply left to right, so (1, 0) is "phi2 then phi1" and its
        # rightmost factor phi1 precedes phi2.
        assert endo_word(1, 0) < endo_word(0, 1)

    def test_identity_is_minimum(self):
        ident = EndoWord.identity(AB, FAMILY)
        for w in bfs_words(FAMILY, 3):
            if w.factors:
                assert ident < w

    def test_total_order_axioms(self):
        sample = bfs_words(FAMILY, 4)
        for u, v in itertools.combinations(sample, 2):
            assert (u < v) != (v < u)
        for u in sample:
            assert not u < u
        keys = [w.sort_key() for w in sample]
        for u, v, w in itertools.combinations(sorted(sample), 3):
            assert u < v < w

    def test_family_mismatch(self):
        other = EndoWord(AB, (BAS_SIGMA,), (0,))
        with pytest.raises(InputError):
            endo_word(0) < other


class TestDescendants:
    def test_counts_and_lengths(self):
        for w in bfs_words(FAMILY, 3):
            kids = w.descendants()
            assert len(kids) == len(FAMILY)
            assert all(k.length == w.length + 1 for k in kids)
            assert all(w < k for k in kids)

    def test_descendants_prepend(self):
        w = endo_word(0, 1)
        assert [k.factors for k in w.descendants()] == [(0, 0, 1), (1, 0, 1)]

    def test_single_family_chain(self):
        fam = (BAS_SIGMA,)
        ident = EndoWord.identity(AB, fam)
        assert [k.factors for k in ident.descendants()] == [(0,)]
        assert [k.factors for k in ident.descendants()[0].descendants()] == [(0, 0)]

    def test_empty_family(self):
        ident = EndoWord.identity(AB, ())
        assert ident.descendants() == []
        assert composite(ident) == identity_endomorphism(AB)


class TestBreadthFirstOrder:
    def test_bfs_realizes_ordering_up_to_length_six(self):
        seen = bfs_words(FAMILY, 6)
        assert len(seen) == 2**7 - 1
        keys = [w.sort_key() for w in seen]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


class TestDegenerateAlphabet:
    def test_empty_alphabet(self):
        empty = Alphabet(())
        w = Word.identity(empty)
        assert (w * w).is_identity
        assert identity_endomorphism(empty).apply(w) == w
