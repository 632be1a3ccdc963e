from __future__ import annotations

import itertools
import math
import random

import pytest

from lpcoset import (
    EndoWord,
    InputError,
    ParseError,
    Permutation,
    PermutationRep,
    Word,
    endo_image,
    image_group,
    kernel_contained,
    parse_cycles,
    reduces_to,
    word_image,
)

from helpers import random_word, sigma_power


class TestPermutation:
    def test_bijectivity_enforced(self):
        with pytest.raises(InputError):
            Permutation((1, 1, 3))

    def test_product_applies_left_first(self):
        p = parse_cycles("(1,2)", 3)
        q = parse_cycles("(2,3)", 3)
        assert (p * q).apply(1) == 3

    def test_inverse(self):
        p = parse_cycles("(1,2,3)", 4)
        assert p * p.inverse() == Permutation.identity(4)

    @pytest.mark.parametrize(
        "text,degree",
        [("(1,2,3)", 3), ("()", 5), ("( )", 2), ("(1,2)(3,4)", 4), ("(2,4) (1,3)", 4)],
    )
    def test_cycle_round_trip(self, text, degree):
        p = parse_cycles(text, degree)
        assert parse_cycles(str(p), degree) == p

    def test_identity_prints_as_unit(self):
        assert str(Permutation.identity(4)) == "()"

    @pytest.mark.parametrize("text", ["", "(1,2", "1,2", "(a)", "(1,2)x"])
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_cycles(text, 4)

    def test_point_out_of_range(self):
        with pytest.raises(InputError):
            parse_cycles("(1,5)", 4)


class TestWordImage:
    def test_basilica_generator(self, bas, bas_index3_rep):
        from lpcoset import parse_word

        assert word_image(bas_index3_rep, parse_word(bas.alphabet, "a")) == parse_cycles(
            "(1,2,3)", 3
        )

    def test_cancellation(self, bas, bas_index3_rep):
        w = Word.reduce(bas.alphabet, (1, -1))
        assert word_image(bas_index3_rep, w).is_identity

    def test_sigma_of_a_dies(self, bas, bas_index3_rep):
        sigma = bas.endomorphisms[0]
        assert word_image(bas_index3_rep, sigma.images[0]).is_identity

    def test_homomorphism(self, bas, bas_index3_rep):
        rng = random.Random(5)
        for _ in range(300):
            u = random_word(rng, bas.alphabet, 10)
            v = random_word(rng, bas.alphabet, 10)
            assert word_image(bas_index3_rep, u * v) == word_image(
                bas_index3_rep, u
            ) * word_image(bas_index3_rep, v)


class TestEndoImage:
    def test_published_image_table(self, bas, bas_index3_rep):
        rep1 = endo_image(bas_index3_rep, sigma_power(bas, 1))
        assert rep1.perms[0].is_identity
        assert rep1.perms[1] == parse_cycles("(1,2,3)", 3)
        rep2 = endo_image(bas_index3_rep, sigma_power(bas, 2))
        assert rep2.perms[0] == parse_cycles("(1,3,2)", 3)
        assert rep2.perms[1].is_identity
        rep3 = endo_image(bas_index3_rep, sigma_power(bas, 3))
        assert rep3.perms[0].is_identity
        assert rep3.perms[1] == parse_cycles("(1,3,2)", 3)

    def test_identity_endo_word(self, bas, bas_index3_rep):
        assert endo_image(bas_index3_rep, sigma_power(bas, 0)) == bas_index3_rep

    def test_matches_composite_substitution(self, bas, bas_index3_rep):
        # peeling factors one at a time must agree with applying the cached
        # composite to each generator in one go
        for k in range(5):
            e = sigma_power(bas, k)
            via_rep = endo_image(bas_index3_rep, e)
            for g in range(2):
                img = e.composite.images[g]
                assert via_rep.perms[g] == word_image(bas_index3_rep, img)


class TestImageGroup:
    def test_basilica_rep_generates_s3(self, bas_index3_rep):
        ig = image_group(bas_index3_rep, 100)
        assert ig.order == 6

    def test_trivial_rep(self, bas):
        ig = image_group(PermutationRep.trivial(bas.alphabet, 4), 10)
        assert ig.order == 1

    def test_order_two(self, bas):
        rep = PermutationRep(
            bas.alphabet, 2, (parse_cycles("(1,2)", 2), Permutation.identity(2))
        )
        assert image_group(rep, 10).order == 2

    def test_cap_exceeded_returns_none(self, bas_index3_rep):
        assert image_group(bas_index3_rep, 5) is None
        assert image_group(bas_index3_rep, 6) is not None

    def test_representative_words_multiply_to_elements(self, bas_index3_rep):
        ig = image_group(bas_index3_rep, 100)
        for elem, w in zip(ig.elements, ig.words):
            assert word_image(bas_index3_rep, w) == elem
        assert ig.words[0].is_identity

    def test_words_are_shortest_positive(self, bas_index3_rep):
        ig = image_group(bas_index3_rep, 100)
        lengths = [len(w) for w in ig.words]
        assert lengths == sorted(lengths)
        assert all(x > 0 for w in ig.words for x in w.letters)

    def test_transitions_consistent(self, bas_index3_rep):
        ig = image_group(bas_index3_rep, 100)
        for i, row in enumerate(ig.transitions):
            for g, j in enumerate(row):
                assert ig.elements[i] * bas_index3_rep.perms[g] == ig.elements[j]

    def test_order_divides_degree_factorial(self, bas, bas_index3_rep):
        ig = image_group(bas_index3_rep, 100)
        assert math.factorial(bas_index3_rep.degree) % ig.order == 0

    def test_order_is_orbit_times_stabilizer(self, bas_index3_rep):
        ig = image_group(bas_index3_rep, 100)
        orbit = {p.apply(1) for p in ig.elements}
        stabilizer = [p for p in ig.elements if p.apply(1) == 1]
        assert ig.order == len(orbit) * len(stabilizer)


class TestReducesTo:
    def test_published_reduction(self, bas, bas_index3_rep):
        result = reduces_to(sigma_power(bas, 3), sigma_power(bas, 1), bas_index3_rep, 1000)
        assert result.is_yes
        pairs = result.witness.generator_images
        assert pairs[0] == (Permutation.identity(3), Permutation.identity(3))
        assert pairs[1] == (parse_cycles("(1,2,3)", 3), parse_cycles("(1,3,2)", 3))

    def test_not_reducible(self, bas, bas_index3_rep):
        assert reduces_to(sigma_power(bas, 2), sigma_power(bas, 1), bas_index3_rep, 1000).verdict == "no"
        assert reduces_to(sigma_power(bas, 3), sigma_power(bas, 0), bas_index3_rep, 1000).verdict == "no"

    def test_reflexive(self, bas, bas_index3_rep):
        for k in range(4):
            e = sigma_power(bas, k)
            assert reduces_to(e, e, bas_index3_rep, 1000).is_yes

    def test_trivial_source_kernel_absorbs_everything(self, bas):
        # under a -> (1,2), b -> (): the second power of sigma maps both
        # generators to even powers, so its representation is trivial and
        # everything reduces to anything through it
        rep = PermutationRep(
            bas.alphabet, 2, (parse_cycles("(1,2)", 2), Permutation.identity(2))
        )
        assert endo_image(rep, sigma_power(bas, 2)).perms == (
            Permutation.identity(2),
            Permutation.identity(2),
        )
        assert reduces_to(sigma_power(bas, 2), sigma_power(bas, 1), rep, 100).is_yes
        assert reduces_to(sigma_power(bas, 1), sigma_power(bas, 2), rep, 100).verdict == "no"

    def test_equal_images_reduce_both_ways(self, bas, bas_index3_rep):
        # powers 3 and 7 of sigma have different reps here, so build equality
        # artificially: the same endo word twice
        e = sigma_power(bas, 2)
        f = EndoWord(bas.alphabet, bas.endomorphisms, (0, 0))
        assert reduces_to(e, f, bas_index3_rep, 1000).is_yes
        assert reduces_to(f, e, bas_index3_rep, 1000).is_yes

    def test_transitive_on_samples(self, bas, bas_index3_rep):
        words = [sigma_power(bas, k) for k in range(6)]
        for d, e, f in itertools.product(words, repeat=3):
            de = reduces_to(d, e, bas_index3_rep, 1000)
            ef = reduces_to(e, f, bas_index3_rep, 1000)
            df = reduces_to(d, f, bas_index3_rep, 1000)
            if de.is_yes and ef.is_yes:
                assert df.is_yes

    def test_unknown_on_tiny_cap(self, bas, bas_index3_rep):
        # sigma^2's image group has 3 elements; capping at 2 must not fake an answer
        result = reduces_to(sigma_power(bas, 3), sigma_power(bas, 2), bas_index3_rep, 2)
        assert result.verdict == "unknown"

    def test_yes_certifies_random_kernel_words(self, bas, bas_index3_rep):
        # random products of Schreier generators of ker(sigma phi) must die
        # under sigma^3 phi
        rng = random.Random(31)
        rep_s = endo_image(bas_index3_rep, sigma_power(bas, 1))
        rep_d = endo_image(bas_index3_rep, sigma_power(bas, 3))
        ig = image_group(rep_s, 100)
        schreier = []
        for i, row in enumerate(ig.transitions):
            for g, j in enumerate(row):
                w = ig.words[i] * Word.generator(bas.alphabet, g + 1) * ig.words[j].inverse()
                schreier.append(w)
        for _ in range(100):
            w = Word.identity(bas.alphabet)
            for _ in range(rng.randrange(1, 6)):
                s = rng.choice(schreier)
                w = w * (s if rng.random() < 0.5 else s.inverse())
            assert word_image(rep_s, w).is_identity
            assert word_image(rep_d, w).is_identity


class TestKernelContained:
    def test_fast_path_equal_images(self, bas_index3_rep):
        assert kernel_contained(bas_index3_rep, bas_index3_rep, 1) is True

    def test_cap_gives_none(self, bas, bas_index3_rep):
        rep2 = endo_image(bas_index3_rep, sigma_power(bas, 2))
        assert kernel_contained(bas_index3_rep, rep2, 2) is None


def _eager_image_group(phi: PermutationRep):
    """Reference closure: the former eager assembly on Permutation objects,
    returning ``(elements, words, transitions, parents)``."""
    elements = [Permutation.identity(phi.degree)]
    index = {elements[0]: 0}
    parents = [(-1, -1)]
    transitions = []
    i = 0
    while i < len(elements):
        row = []
        for g, p in enumerate(phi.perms):
            t = elements[i] * p
            j = index.get(t)
            if j is None:
                j = len(elements)
                index[t] = j
                elements.append(t)
                parents.append((i, g))
            row.append(j)
        transitions.append(tuple(row))
        i += 1
    words = [Word.identity(phi.alphabet)]
    for j in range(1, len(elements)):
        i, g = parents[j]
        words.append(Word(phi.alphabet, words[i].letters + (g + 1,)))
    return tuple(elements), tuple(words), tuple(transitions), tuple(parents)


def _random_rep(rng, alphabet, degree):
    return PermutationRep(
        alphabet,
        degree,
        tuple(
            Permutation(tuple(rng.sample(range(1, degree + 1), degree)))
            for _ in range(len(alphabet))
        ),
    )


def _padded(rep, degree):
    """The same action with fixed points appended up to ``degree``."""
    tail = tuple(range(rep.degree + 1, degree + 1))
    return PermutationRep(
        rep.alphabet, degree, tuple(Permutation(p.images + tail) for p in rep.perms)
    )


def _kernel_sources(rng, target):
    """Representations whose kernel may or may not contain the target's: a
    random one, a relabelling (same kernel), the sign of the target (larger
    kernel) and the trivial one."""
    n = target.degree
    relabel = Permutation(tuple(rng.sample(range(1, n + 1), n)))
    odd = Permutation((2, 1))
    even = Permutation.identity(2)
    return [
        _random_rep(rng, target.alphabet, rng.randrange(2, 6)),
        PermutationRep(
            target.alphabet,
            n,
            tuple(relabel.inverse() * p * relabel for p in target.perms),
        ),
        PermutationRep(
            target.alphabet,
            2,
            tuple(
                odd if sum(len(c) - 1 for c in p.cycles()) % 2 else even
                for p in target.perms
            ),
        ),
        PermutationRep.trivial(target.alphabet, 3),
    ]


@pytest.fixture(scope="module")
def random_reps(bas):
    rng = random.Random(20)
    return [_random_rep(rng, bas.alphabet, rng.randrange(1, 6)) for _ in range(30)]


class TestClosureDifferential:
    def test_lazy_elements_and_words_match_eager_assembly(self, random_reps):
        for rep in random_reps:
            for phi in (rep, _padded(rep, 260)):
                ig = image_group(phi, 10**4)
                elements, words, transitions, parents = _eager_image_group(phi)
                assert ig.order == len(elements)
                assert ig.elements == elements
                assert ig.words == words
                assert ig.transitions == transitions
                assert ig.parents == parents

    @pytest.mark.parametrize("degree", [256, 257, 260])
    def test_padding_across_the_byte_limit_keeps_the_closure(self, random_reps, degree):
        for rep in random_reps:
            small = image_group(rep, 10**4)
            big = image_group(_padded(rep, degree), 10**4)
            assert big.order == small.order
            assert big.transitions == small.transitions
            assert big.parents == small.parents
            tail = tuple(range(rep.degree + 1, degree + 1))
            assert big.elements == tuple(
                Permutation(p.images + tail) for p in small.elements
            )

    def test_order_builds_no_elements_or_words(self, bas_index3_rep):
        ig = image_group(bas_index3_rep, 100)
        assert ig.order == 6
        trivial = PermutationRep.trivial(bas_index3_rep.alphabet, 3)
        assert kernel_contained(bas_index3_rep, trivial, 100, ig) is True
        assert "elements" not in vars(ig) and "words" not in vars(ig)

    def test_kernel_contained_matches_schreier_replay(self, random_reps):
        rng = random.Random(21)
        seen = set()
        for target in random_reps:
            elements, words, transitions, _ = _eager_image_group(target)
            for source in _kernel_sources(rng, target):
                expected = all(
                    word_image(
                        source,
                        words[i]
                        * Word.generator(target.alphabet, g + 1)
                        * words[j].inverse(),
                    ).is_identity
                    for i, row in enumerate(transitions)
                    for g, j in enumerate(row)
                )
                seen.add(expected)
                for t in (target, _padded(target, 260)):
                    for s in (source, _padded(source, 260)):
                        assert kernel_contained(t, s, 10**4) is expected
        assert seen == {True, False}
