from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpcoset import (
    Alphabet,
    CosetTable,
    EndoWord,
    FreeEndomorphism,
    InputError,
    Permutation,
    PermutationRep,
    SubgroupSpec,
    Word,
    burnside,
    enumerate_cosets,
    image_group,
    kernel_contained,
    low_index,
    to_perm_rep,
    word_image,
)

from helpers import (
    composite,
    endo_image,
    random_word,
    reduces,
    replay_image_group,
    sigma_power,
    trivial_rep,
)

cycles = Permutation.from_cycles


class TestPermutation:
    def test_bijectivity_enforced(self):
        with pytest.raises(InputError):
            Permutation((1, 1, 3))

    def test_product_applies_left_first(self):
        p = cycles(3, [(1, 2)])
        q = cycles(3, [(2, 3)])
        assert (p * q).apply(1) == 3

    def test_inverse(self):
        p = cycles(4, [(1, 2, 3)])
        assert p * p.inverse() == Permutation.identity(4)

    def test_point_out_of_range(self):
        with pytest.raises(InputError):
            cycles(4, [(1, 5)])


class TestWordImage:
    def test_basilica_generator(self, bas, bas_index3_rep):
        from lpcoset import parse_word

        assert word_image(bas_index3_rep, parse_word(bas.alphabet, "a")) == cycles(
            3, [(1, 2, 3)]
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


XYZ = Alphabet(("x", "y", "z"))


@st.composite
def _reps(draw):
    """Representations of the free group on x, y, z, across the byte limit."""
    degree = draw(st.one_of(st.integers(1, 12), st.sampled_from([255, 256, 257])))
    points = list(range(1, degree + 1))
    return PermutationRep(
        XYZ,
        degree,
        tuple(Permutation(tuple(draw(st.permutations(points)))) for _ in range(len(XYZ))),
    )


_words = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=24).map(
    lambda letters: Word.reduce(XYZ, letters)
)


def _product_of_letters(rep: PermutationRep, w: Word) -> Permutation:
    """Reference image: the letter images multiplied left to right."""
    out = Permutation.identity(rep.degree)
    for x in w.letters:
        p = rep.perms[abs(x) - 1]
        out = out * (p if x > 0 else p.inverse())
    return out


class TestOneProduct:
    """Word images compose on the encoding that a representation keeps;
    :class:`Permutation` products are the reference."""

    @settings(max_examples=150, deadline=None)
    @given(_reps(), _words, st.tuples(_words, _words, _words))
    def test_word_image_is_the_product_of_letter_images(self, rep, w, images):
        assert word_image(rep, w) == _product_of_letters(rep, w)
        # precompose builds its result from the image tables, unchecked;
        # its tables must be those that the checked constructor gives its
        # decoded permutations
        endo = FreeEndomorphism(XYZ, images)
        pre = rep.precompose(endo)
        assert pre.perms == tuple(_product_of_letters(rep, img) for img in images)
        assert word_image(pre, w) == _product_of_letters(pre, w)
        checked = PermutationRep(XYZ, pre.degree, pre.perms)
        assert pre.generators == checked.generators
        assert pre.letters == checked.letters
        assert (pre.identity, pre.compose) == (checked.identity, checked.compose)


@st.composite
def _closed_tables(draw):
    """Closed coset tables over x, y, z, across the byte limit."""
    degree = draw(st.one_of(st.integers(1, 12), st.sampled_from([255, 256, 257])))
    cols = []
    for _ in range(len(XYZ)):
        images = draw(st.permutations(range(1, degree + 1)))
        inverse = [0] * degree
        for c, d in enumerate(images, start=1):
            inverse[d - 1] = c
        cols += [images, inverse]
    return CosetTable(XYZ, tuple(zip(*cols)))


class TestTablePath:
    @settings(max_examples=60, deadline=None)
    @given(_closed_tables())
    def test_unchecked_table_path_matches_the_checked_constructor(self, table):
        # to_perm_rep builds from the generator columns without checking
        # them; the checked constructor, given the same permutations read
        # from the rows, must hold the same tables
        n = table.size
        checked = PermutationRep(
            XYZ,
            n,
            tuple(
                Permutation(tuple(table.rows[c][2 * g] for c in range(n)))
                for g in range(len(XYZ))
            ),
        )
        rep = to_perm_rep(table)
        assert rep.degree == n
        assert rep.generators == checked.generators
        assert rep.letters == checked.letters
        assert rep.perms == checked.perms


class TestEndoImage:
    def test_published_image_table(self, bas, bas_index3_rep):
        rep1 = endo_image(bas_index3_rep, sigma_power(bas, 1))
        assert rep1.perms[0].is_identity
        assert rep1.perms[1] == cycles(3, [(1, 2, 3)])
        rep2 = endo_image(bas_index3_rep, sigma_power(bas, 2))
        assert rep2.perms[0] == cycles(3, [(1, 3, 2)])
        assert rep2.perms[1].is_identity
        rep3 = endo_image(bas_index3_rep, sigma_power(bas, 3))
        assert rep3.perms[0].is_identity
        assert rep3.perms[1] == cycles(3, [(1, 3, 2)])

    def test_identity_endo_word(self, bas, bas_index3_rep):
        assert endo_image(bas_index3_rep, sigma_power(bas, 0)) == bas_index3_rep

    def test_matches_composite_substitution(self, bas, grig, bas_index3_rep):
        # peeling factors one at a time must agree with applying the
        # composite to each generator in one go: powers of the single
        # substitution for Basilica and Grigorchuk, and every word of up to
        # three factors in the four endomorphisms of B(2,2)
        b22 = burnside(2, 2)
        grig_rep = low_index(grig, 8).entries[-1].subgroup.rep
        b22_rep = to_perm_rep(enumerate_cosets(b22, SubgroupSpec(b22.alphabet, ())).table)
        words = [b22.identity_endo_word()]
        for w in words:
            if w.length < 3:
                words.extend(w.descendants())
        assert len(words) == 1 + 4 + 16 + 64
        cases = [(bas_index3_rep, sigma_power(bas, k)) for k in range(5)]
        cases += [(grig_rep, sigma_power(grig, k)) for k in range(5)]
        cases += [(b22_rep, e) for e in words]
        for rep, e in cases:
            via_rep = endo_image(rep, e)
            for g, img in enumerate(composite(e).images):
                assert via_rep.perms[g] == word_image(rep, img)


class TestImageGroup:
    def test_basilica_rep_generates_s3(self, bas_index3_rep):
        ig = image_group(bas_index3_rep, 100)
        assert ig.order == 6

    def test_trivial_rep(self, bas):
        ig = image_group(trivial_rep(bas.alphabet, 4), 10)
        assert ig.order == 1

    def test_order_two(self, bas):
        rep = PermutationRep(
            bas.alphabet, 2, (cycles(2, [(1, 2)]), Permutation.identity(2))
        )
        assert image_group(rep, 10).order == 2

    def test_cap_exceeded_returns_none(self, bas_index3_rep):
        assert image_group(bas_index3_rep, 5) is None
        assert image_group(bas_index3_rep, 6) is not None

    def test_representative_words_multiply_to_elements(self, bas_index3_rep):
        elements, words = replay_image_group(image_group(bas_index3_rep, 100), bas_index3_rep)
        for elem, w in zip(elements, words):
            assert word_image(bas_index3_rep, w) == elem
        assert words[0].is_identity

    def test_words_are_shortest_positive(self, bas_index3_rep):
        _, words = replay_image_group(image_group(bas_index3_rep, 100), bas_index3_rep)
        lengths = [len(w) for w in words]
        assert lengths == sorted(lengths)
        assert all(x > 0 for w in words for x in w.letters)

    def test_transitions_consistent(self, bas_index3_rep):
        ig = image_group(bas_index3_rep, 100)
        elements, _ = replay_image_group(ig, bas_index3_rep)
        for i, row in enumerate(ig.transitions):
            for g, j in enumerate(row):
                assert elements[i] * bas_index3_rep.perms[g] == elements[j]

    def test_order_divides_degree_factorial(self, bas, bas_index3_rep):
        ig = image_group(bas_index3_rep, 100)
        assert math.factorial(bas_index3_rep.degree) % ig.order == 0

    def test_order_is_orbit_times_stabilizer(self, bas_index3_rep):
        ig = image_group(bas_index3_rep, 100)
        elements, _ = replay_image_group(ig, bas_index3_rep)
        orbit = {p.apply(1) for p in elements}
        stabilizer = [p for p in elements if p.apply(1) == 1]
        assert ig.order == len(orbit) * len(stabilizer)


class TestReducesTo:
    """delta reduces to sigma under phi when ker(sigma-then-phi) lies inside
    ker(delta-then-phi), decided by :func:`kernel_contained`."""

    def test_published_reduction(self, bas, bas_index3_rep):
        assert reduces(sigma_power(bas, 3), sigma_power(bas, 1), bas_index3_rep) is True
        rep1 = endo_image(bas_index3_rep, sigma_power(bas, 1))
        rep3 = endo_image(bas_index3_rep, sigma_power(bas, 3))
        assert (rep1.perms[0], rep3.perms[0]) == (Permutation.identity(3),) * 2
        assert rep1.perms[1] == cycles(3, [(1, 2, 3)])
        assert rep3.perms[1] == cycles(3, [(1, 3, 2)])

    def test_not_reducible(self, bas, bas_index3_rep):
        assert reduces(sigma_power(bas, 2), sigma_power(bas, 1), bas_index3_rep) is False
        assert reduces(sigma_power(bas, 3), sigma_power(bas, 0), bas_index3_rep) is False

    def test_reflexive(self, bas, bas_index3_rep):
        for k in range(4):
            e = sigma_power(bas, k)
            assert reduces(e, e, bas_index3_rep) is True

    def test_trivial_source_kernel_absorbs_everything(self, bas):
        # under a -> (1,2), b -> (): the second power of sigma maps both
        # generators to even powers, so its representation is trivial and
        # everything reduces to anything through it
        rep = PermutationRep(
            bas.alphabet, 2, (cycles(2, [(1, 2)]), Permutation.identity(2))
        )
        assert endo_image(rep, sigma_power(bas, 2)).perms == (
            Permutation.identity(2),
            Permutation.identity(2),
        )
        assert reduces(sigma_power(bas, 2), sigma_power(bas, 1), rep, 100) is True
        assert reduces(sigma_power(bas, 1), sigma_power(bas, 2), rep, 100) is False

    def test_equal_images_reduce_both_ways(self, bas, bas_index3_rep):
        # powers 3 and 7 of sigma have different reps here, so build equality
        # artificially: the same endo word twice
        e = sigma_power(bas, 2)
        f = EndoWord(bas.alphabet, bas.endomorphisms, (0, 0))
        assert reduces(e, f, bas_index3_rep) is True
        assert reduces(f, e, bas_index3_rep) is True

    def test_transitive_on_samples(self, bas, bas_index3_rep):
        words = [sigma_power(bas, k) for k in range(6)]
        for d, e, f in itertools.product(words, repeat=3):
            if reduces(d, e, bas_index3_rep) and reduces(e, f, bas_index3_rep):
                assert reduces(d, f, bas_index3_rep) is True

    def test_unknown_on_tiny_cap(self, bas, bas_index3_rep):
        # sigma^2's image group has 3 elements; capping at 2 must not fake an answer
        assert reduces(sigma_power(bas, 3), sigma_power(bas, 2), bas_index3_rep, 2) is None

    def test_yes_certifies_random_kernel_words(self, bas, bas_index3_rep):
        # random products of Schreier generators of ker(sigma phi) must die
        # under sigma^3 phi
        rng = random.Random(31)
        rep_s = endo_image(bas_index3_rep, sigma_power(bas, 1))
        rep_d = endo_image(bas_index3_rep, sigma_power(bas, 3))
        ig = image_group(rep_s, 100)
        _, words = replay_image_group(ig, rep_s)
        schreier = []
        for i, row in enumerate(ig.transitions):
            for g, j in enumerate(row):
                w = words[i] * Word.generator(bas.alphabet, g + 1) * words[j].inverse()
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
    returning ``(elements, words, transitions)``."""
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
    return tuple(elements), tuple(words), tuple(transitions)


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


def _inversions(p: Permutation) -> int:
    return sum(a > b for a, b in itertools.combinations(p.images, 2))


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
                odd if _inversions(p) % 2 else even
                for p in target.perms
            ),
        ),
        trivial_rep(target.alphabet, 3),
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
                elements, words, transitions = _eager_image_group(phi)
                assert ig.order == len(elements)
                assert ig.transitions == transitions
                assert replay_image_group(ig, phi) == (elements, words)

    @pytest.mark.parametrize("degree", [256, 257, 260])
    def test_padding_across_the_byte_limit_keeps_the_closure(self, random_reps, degree):
        for rep in random_reps:
            big_rep = _padded(rep, degree)
            small = image_group(rep, 10**4)
            big = image_group(big_rep, 10**4)
            assert big.transitions == small.transitions
            small_elements, small_words = replay_image_group(small, rep)
            tail = tuple(range(rep.degree + 1, degree + 1))
            assert replay_image_group(big, big_rep) == (
                tuple(Permutation(p.images + tail) for p in small_elements),
                small_words,
            )

    def test_order_builds_no_elements_or_words(self, bas_index3_rep):
        ig = image_group(bas_index3_rep, 100)
        assert ig.order == 6
        trivial = trivial_rep(bas_index3_rep.alphabet, 3)
        assert kernel_contained(bas_index3_rep, trivial, 100, ig) is True
        assert vars(ig) == {"transitions": ig.transitions}

    def test_kernel_contained_matches_schreier_replay(self, random_reps):
        rng = random.Random(21)
        seen = set()
        for target in random_reps:
            _, words, transitions = _eager_image_group(target)
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
