from __future__ import annotations

import dataclasses
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpcoset import (
    Alphabet,
    FinitePresentation,
    LPresentation,
    InputError,
    ParseError,
    ResourceLimitError,
    Word,
    basilica,
    builtin_presentation,
    burnside,
    enumerate_cosets,
    grigorchuk,
    load_presentation,
    low_index,
    parse_lpresentation,
    parse_subgroup,
    parse_word,
    parse_words,
)
from lpcoset import presentations
from lpcoset.coset_enum import _prepared_relators

from helpers import (
    composite_covering,
    exponent_sum_vector,
    fraction_rank,
    parse_word_by_products,
    reference_parse_subgroup,
    reference_parse_word,
    reference_parse_words,
)


def letters(lp, text):
    return parse_word(lp.alphabet, text).letters


class TestGrigorchukPresentation:
    def test_shape(self, grig):
        assert len(grig.fixed) == 5
        assert len(grig.endomorphisms) == 1
        assert len(grig.iterated) == 2

    def test_sigma_images(self, grig):
        sigma = grig.endomorphisms[0]
        assert sigma.images[0] == parse_word(grig.alphabet, "a*c*a")
        assert sigma.images[1] == parse_word(grig.alphabet, "d")
        assert sigma.images[2] == parse_word(grig.alphabet, "b")
        assert sigma.images[3] == parse_word(grig.alphabet, "c")

    def test_relators(self, grig):
        assert grig.fixed == tuple(
            parse_words(grig.alphabet, "a^2 b^2 c^2 d^2 b*c*d")
        )
        assert grig.iterated == tuple(
            parse_words(grig.alphabet, "(a*d)^4 (a*d*a*c*a*c)^4")
        )


class TestBasilicaPresentation:
    def test_shape(self, bas):
        assert bas.fixed == ()
        assert len(bas.endomorphisms) == 1

    def test_sigma(self, bas):
        sigma = bas.endomorphisms[0]
        assert sigma.images[0].letters == (2, 2)
        assert sigma.images[1].letters == (1,)

    def test_iterated_relator(self, bas):
        assert bas.iterated == (parse_word(bas.alphabet, "[a, a^b]"),)


class TestBurnside:
    def test_small(self):
        lp = burnside(1, 2)
        assert lp.alphabet.names == ("a1", "t")
        assert [str(w) for w in lp.fixed] == ["t"]
        assert [str(w) for w in lp.iterated] == ["t^2"]
        assert lp.endomorphism_names == ("sigma_a1", "sigma_a1_inv")

    def test_family_size(self):
        assert len(burnside(2, 3).endomorphisms) == 4

    def test_t_images(self):
        lp = burnside(2, 3)
        t = len(lp.alphabet)  # t is the last generator
        assert lp.endomorphisms[0].images[t - 1] == parse_word(lp.alphabet, "t*a1")
        assert lp.endomorphisms[1].images[t - 1] == parse_word(lp.alphabet, "t*a1^-1")
        assert lp.endomorphisms[2].images[t - 1] == parse_word(lp.alphabet, "t*a2")

    def test_generators_fixed(self):
        lp = burnside(2, 2)
        for endo in lp.endomorphisms:
            assert endo.images[0].letters == (1,)
            assert endo.images[1].letters == (2,)

    def test_rejects_bad_sizes(self):
        from lpcoset import InputError

        with pytest.raises(InputError):
            burnside(0, 2)

    def test_rejects_an_exponent_past_the_word_bound(self):
        # t^m would be one relator of m letters
        with pytest.raises(InputError):
            burnside(1, 100_000_000)
        with pytest.raises(InputError):
            burnside(1, presentations.MAX_WORD_LETTERS + 1)

    def test_rejects_images_past_the_letter_bound(self, monkeypatch):
        # 2n endomorphisms of n + 1 images, n of one letter and one of two
        with pytest.raises(InputError):
            burnside(3000, 2)
        monkeypatch.setattr(presentations, "MAX_COVERING_LETTERS", 96)
        lp = burnside(6, 2)
        assert sum(len(w) for e in lp.endomorphisms for w in e.images) == 2 * 6 * 8 == 96
        with pytest.raises(InputError):
            burnside(7, 2)


class TestCovering:
    def test_basilica_level_zero(self, bas):
        fp = bas.covering(0)
        assert fp.relators == (parse_word(bas.alphabet, "[a, a^b]"),)

    def test_finite_presentation_is_level_independent(self):
        abc = Alphabet(("x", "y"))
        fp = FinitePresentation(abc, tuple(parse_words(abc, "x^2 y^3")))
        lp = LPresentation.from_finite(fp)
        for level in (0, 1, 5):
            assert lp.covering(level).relators == fp.relators

    def test_grigorchuk_level_one_exact(self, grig):
        # substituting a->aca, b->d, c->b, d->c by hand:
        #   sigma((ad)^4) = (acac)^4, sigma((adacac)^4) = (acacacabacab)^4
        expected = parse_words(
            grig.alphabet,
            "a^2 b^2 c^2 d^2 b*c*d (a*d)^4 (a*d*a*c*a*c)^4 "
            "(a*c*a*c)^4 (a*c*a*c*a*c*a*b*a*c*a*b)^4",
        )
        assert grig.covering(1).relators == tuple(expected)

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_monotone_in_level(self, grig, bas, level):
        for lp in (grig, bas):
            small = set(w.letters for w in lp.covering(level).relators)
            big = set(w.letters for w in lp.covering(level + 1).relators)
            assert small <= big

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_relator_count_bound(self, grig, bas, level):
        for lp in (grig, bas):
            k = len(lp.endomorphisms)
            words = (k ** (level + 1) - 1) // (k - 1) if k > 1 else level + 1
            bound = len(lp.fixed) + len(lp.iterated) * words
            assert len(lp.covering(level).relators) <= bound

    def test_burnside_count_bound(self):
        lp = burnside(2, 2)
        # |Q| + |R| * (4^3 - 1) / 3 at level 2
        assert len(lp.covering(2).relators) <= 1 + 21

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_iterated_images_land_in_next_level(self, grig, level):
        fixed = {w.letters for w in grig.fixed}
        this_level = [w for w in grig.covering(level).relators if w.letters not in fixed]
        next_level = {w.letters for w in grig.covering(level + 1).relators}
        for endo in grig.endomorphisms:
            for r in this_level:
                assert endo.apply(r).letters in next_level

    @pytest.mark.parametrize(
        "name",
        ["grigorchuk", "basilica", "burnside(1,3)", "burnside(2,2)", "burnside(3,2)",
         "burnside(4,2)", "burnside(2,3)", "burnside(2,4)", "burnside(3,3)"],
    )
    def test_matches_the_composite_covering(self, name):
        lp = builtin_presentation(name)
        for level in range(5):
            assert lp.covering(level) == composite_covering(lp, level)

    def test_finite_matches_the_composite_covering(self):
        abc = Alphabet(("x", "y"))
        lp = LPresentation.from_finite(
            FinitePresentation(abc, tuple(parse_words(abc, "x^2 y^3 (x*y)^5 x^2")))
        )
        for level in range(5):
            assert lp.covering(level) == composite_covering(lp, level)

    def test_deep_level_is_a_resource_limit(self):
        # Grigorchuk's relator letters double with each level: the bound
        # refuses a level before building it, not after running out of memory
        with pytest.raises(ResourceLimitError):
            grigorchuk().covering(40)
        with pytest.raises(ResourceLimitError):
            low_index(grigorchuk(), 2, level=40)

    @pytest.mark.parametrize(
        "name", ["grigorchuk", "basilica", "burnside(1,3)", "burnside(2,2)", "burnside(3,2)"]
    )
    def test_letter_bound_holds_below_the_budget(self, monkeypatch, name):
        # each level adds at most the budget in letters, and a refused
        # level stays refused one level deeper
        budget = 500
        monkeypatch.setattr(presentations, "MAX_COVERING_LETTERS", budget)
        lp = builtin_presentation(name)
        base = sum(map(len, lp.fixed + lp.iterated))
        for level in range(16):
            try:
                fp = lp.covering(level)
            except ResourceLimitError:
                break
            assert sum(map(len, fp.relators)) <= base + level * budget
        else:
            pytest.fail("no level refused")
        with pytest.raises(ResourceLimitError):
            lp.covering(level + 1)

    def test_negative_level_rejected(self, bas):
        from lpcoset import InputError

        with pytest.raises(InputError):
            bas.covering(-1)


class TestCoveringMemo:
    """``LPresentation.covering`` keeps every level it builds on the
    presentation object."""

    @pytest.mark.parametrize("name", ["grigorchuk", "basilica", "burnside(2,2)", "burnside(2,3)"])
    def test_levels_in_any_order_match_a_fresh_object(self, name):
        lp = builtin_presentation(name)
        for level in (3, 0, 2, 1):
            kept = lp.covering(level)
            assert kept.relators == builtin_presentation(name).covering(level).relators
            assert kept.relators == composite_covering(lp, level).relators
            assert lp.covering(level) is kept

    def test_a_level_is_prepared_once(self):
        lp = burnside(2, 3)
        prepared = _prepared_relators(lp.covering(2))
        assert _prepared_relators(lp.covering(2)) is prepared

    def test_repeated_queries_build_no_covering(self, monkeypatch):
        # the first query overflows at level 0 and builds levels 0 to 2;
        # the second reads them back and answers the same
        lp = burnside(2, 3)
        sub = parse_subgroup(lp.alphabet, "a1")
        built = []
        plain = presentations.FinitePresentation

        def counted(*args):
            built.append(args)
            return plain(*args)

        monkeypatch.setattr(presentations, "FinitePresentation", counted)
        first = enumerate_cosets(lp, sub)
        assert first.escalations > 0 and len(built) == first.level_used + 1
        built.clear()
        again = enumerate_cosets(lp, sub)
        assert built == []
        assert (again.index, again.level_used, again.escalations) == (
            first.index, first.level_used, first.escalations
        )
        assert again.table.rows == first.table.rows

    def test_kept_coverings_take_no_part_in_comparison(self):
        lp, fresh = grigorchuk(), grigorchuk()
        lp.covering(2)
        assert lp == fresh
        assert hash(lp) == hash(fresh)
        assert repr(lp) == repr(fresh)

    def test_a_replaced_presentation_starts_with_no_coverings(self):
        lp = grigorchuk()
        lp.covering(2)
        bare = dataclasses.replace(lp, fixed=(), iterated=())
        assert bare._coverings == {}
        assert bare.covering(2).relators == ()
        assert len(lp._coverings) == 3

    def test_a_refused_level_keeps_nothing_and_stays_refused(self, monkeypatch):
        # Basilica's iterated relator and its sigma-image have 8 and 12
        # letters, and sigma's longest image 2: a budget of 20 lets level 1
        # (2 * 8) through and refuses level 2 (2 * 12)
        monkeypatch.setattr(presentations, "MAX_COVERING_LETTERS", 20)
        lp = basilica()
        for _ in range(2):
            with pytest.raises(ResourceLimitError, match="covering level 2"):
                lp.covering(3)
            assert len(lp._coverings) == 2
        monkeypatch.setattr(presentations, "MAX_COVERING_LETTERS", 10**6)
        assert lp.covering(3).relators == basilica().covering(3).relators


@st.composite
def _integer_matrices(draw):
    """Integer matrices of up to 8 rows and 6 columns, some rows integer
    combinations of the rows drawn before them, in any order."""
    ncols = draw(st.integers(1, 6))
    entries = st.integers(-9, 9) | st.integers(-(10**20), 10**20)
    rows: list[list[int]] = []
    for _ in range(draw(st.integers(0, 8))):
        if rows and draw(st.booleans()):
            coeffs = draw(st.lists(st.integers(-5, 5), min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(ncols)])
        else:
            rows.append(draw(st.lists(entries, min_size=ncols, max_size=ncols)))
    return draw(st.permutations(rows))


def echelon_rank(rows) -> int:
    """The number of rows that ``presentations._echelon_insert`` keeps."""
    basis = []
    for row in rows:
        presentations._echelon_insert(basis, list(row))
    return len(basis)


class TestAbelianRank:
    @given(rows=_integer_matrices())
    @settings(max_examples=300, deadline=None)
    def test_rank_matches_fraction_elimination(self, rows):
        assert echelon_rank(rows) == fraction_rank(rows)

    def test_rank_is_not_taken_modulo_a_prime(self):
        p = 2**61 - 1
        assert echelon_rank([[p, 0], [0, 1]]) == 2
        # determinant p: singular modulo p only
        assert echelon_rank([[1, 2], [3, 6 + p]]) == 2

    @pytest.mark.parametrize("name", ["grigorchuk", "basilica", "burnside(2,3)"])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_covering_rank_matches_the_exponent_sums(self, name, data):
        lp = builtin_presentation(name)
        fp = lp.covering(data.draw(st.integers(0, 2)))
        letters = st.sampled_from([x + e for x in lp.alphabet.names for e in ("", "^-1")])
        texts = data.draw(st.lists(st.lists(letters, max_size=5), max_size=3))
        words = [parse_word(lp.alphabet, "*".join(t) or "1") for t in texts]
        rows = [exponent_sum_vector(w) for w in fp.relators + tuple(words)]
        assert presentations.abelian_rank(fp, words) == fraction_rank(rows)

    def test_full_relator_rank_reads_no_subgroup_word(self):
        # the Grigorchuk relators span Q^4 at level 0: the rank is m
        # whatever the words, which are never read
        fp = grigorchuk().covering(0)

        def unread():
            raise AssertionError("a word was read")
            yield

        assert presentations.abelian_rank(fp, unread()) == 4
        basis = fp._abelian
        assert presentations.abelian_rank(fp, unread()) == 4
        assert fp._abelian is basis

    def test_basis_is_kept_on_the_covering(self):
        # the Basilica relators are commutators: rank 0 at every level
        lp = basilica()
        fp = lp.covering(1)
        assert fp._abelian is None
        a, b = (parse_word(lp.alphabet, x) for x in "ab")
        assert presentations.abelian_rank(fp, [a]) == 1
        assert fp._abelian == ()
        assert presentations.abelian_rank(fp, [a, b]) == 2
        assert presentations.abelian_rank(fp, []) == 0


class TestWordGrammar:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("a", (1,)),
            ("a*b", (1, 2)),
            ("a b", (1, 2)),
            ("a^3", (1, 1, 1)),
            ("a^-2", (-1, -1)),
            ("a^0", ()),
            ("1", ()),
            ("(a*b)^2", (1, 2, 1, 2)),
            ("a^b", (-2, 1, 2)),
            ("a^(b*a)", (-1, -2, 1, 2, 1)),
            ("[a,b]", (-1, -2, 1, 2)),
            ("[a,a^b]", (-1, -2, -1, 2, 1, -2, 1, 2)),
            ("a*a^-1", ()),
            ("(a^2)^-1", (-1, -1)),
            ("a^b^a", (-1, -2, 1, 2, 1)),
        ],
    )
    def test_parse(self, bas, text, expected):
        assert letters(bas, text) == expected

    def test_empty_is_identity(self, bas):
        assert parse_word(bas.alphabet, "").is_identity
        assert parse_word(bas.alphabet, "   ").is_identity

    @pytest.mark.parametrize(
        "text",
        ["e", "a^", "a^x^", "(a", "a)", "[a b]", "a,b", "*a", "a*", "a^-", "2", "()"],
    )
    def test_parse_errors(self, bas, text):
        with pytest.raises(ParseError):
            parse_word(bas.alphabet, text)

    def test_word_list_splitting(self, grig):
        ws = parse_words(grig.alphabet, "a^2 b^2  c*d")
        assert [w.letters for w in ws] == [(1, 1), (2, 2), (3, 4)]
        ws = parse_words(grig.alphabet, "a^3, b, a*b*a")
        assert [str(w) for w in ws] == ["a^3", "b", "a*b*a"]

    def test_commas_inside_brackets_do_not_split(self, bas):
        ws = parse_words(bas.alphabet, "[a,a^b] b")
        assert len(ws) == 2
        assert ws[0] == bas.iterated[0]

    def test_subgroup_spec_drops_identity(self, bas):
        spec = parse_subgroup(bas.alphabet, "a*a^-1, b")
        assert [w.letters for w in spec.generators] == [(2,)]

    def test_printer_round_trip(self, grig):
        import random

        from helpers import random_word

        rng = random.Random(23)
        for _ in range(200):
            w = random_word(rng, grig.alphabet, 14)
            assert parse_word(grig.alphabet, str(w)) == w


    @settings(max_examples=300, deadline=None)
    @given(
        st.recursive(
            st.sampled_from(["a", "b", "1", "a^-1", "b^2"]),
            lambda inner: st.one_of(
                st.tuples(inner, st.integers(-4, 4)).map(lambda p: f"({p[0]})^{p[1]}"),
                st.tuples(inner, inner).map(lambda p: f"{p[0]}*{p[1]}"),
                st.tuples(inner, inner).map(lambda p: f"{p[0]} {p[1]}"),
                st.tuples(inner, inner).map(lambda p: f"[{p[0]},{p[1]}]"),
                st.tuples(inner, inner).map(lambda p: f"({p[0]})^({p[1]})"),
            ),
            max_leaves=12,
        )
    )
    def test_matches_the_product_by_product_parser(self, text):
        assert parse_word(AB, text) == parse_word_by_products(AB, text)

    def test_power_bound_counts_reduced_letters(self, monkeypatch):
        # b*a*b^-1 to the power n has n + 2 letters, a*b to the power n 2n
        monkeypatch.setattr(presentations, "MAX_WORD_LETTERS", 10)
        assert len(parse_word(AB, "(b*a*b^-1)^8")) == 10
        assert len(parse_word(AB, "(b*a*b^-1)^-0008")) == 10
        assert parse_word(AB, "(a*b)^" + "0" * 5000).is_identity
        assert parse_word(AB, "1^" + "9" * 5000).is_identity
        for text in ["(b*a*b^-1)^9", "(a*b)^6", "a^-11", "(a^5)^3", "a^" + "9" * 5000]:
            with pytest.raises(ParseError, match="power longer than 10 letters"):
                parse_word(AB, text)

    def test_word_bound_counts_the_reduced_product(self, monkeypatch):
        monkeypatch.setattr(presentations, "MAX_WORD_LETTERS", 10)
        assert len(parse_word(AB, "a^6*b^4")) == 10
        assert len(parse_word(AB, "a^10*a^-10*b^10")) == 10
        assert len(parse_word(AB, "(a^5*b^5)*(b^-5*a^5)")) == 10
        for text in ["a^6*b^5", "a^5 b^5 a", "(a^5*b^5)*a", "(a*b)^5 * (a*b)^5", "[a^3,b^3]", "(a^5*b^5)^b"]:
            with pytest.raises(ParseError, match="word longer than 10 letters"):
                parse_word(AB, text)

    def test_product_of_powers_within_the_bound_cancels(self):
        assert parse_word(AB, "a^1000000*a^-1000000").is_identity
        assert parse_word(AB, "a^-1000000 a^999999 b") == parse_word(AB, "a^-1*b")

    @pytest.mark.parametrize(
        "text,pairs",
        [("(a*b)^6000", 6000), ("*".join(["a", "b"] * 3000), 3000)],
        ids=["power", "product"],
    )
    def test_long_input_parses_in_linear_time(self, text, pairs):
        # multiplying factor by factor re-reduces the whole prefix every
        # time, which takes about 10 s and 20 s on these inputs
        start = time.perf_counter()
        w = parse_word(AB, text)
        assert time.perf_counter() - start < 2
        assert w.letters == (1, 2) * pairs


AB = Alphabet(("a", "b"))
NAMES = burnside(4, 2).alphabet  # a1, a2, a3, a4 and t

_SPACE = st.sampled_from(["", "", "", " ", "  ", "\t", "\n "])
_EXPONENT = st.builds(
    lambda minus, zeros, n: "-" * minus + "0" * zeros + str(n),
    st.booleans(), st.integers(0, 2), st.integers(0, 12),
)
_PRIMARY = st.sampled_from(["a1", "a2", "a3", "a4", "t", "1"] * 3 + ["a5", "a", "t1"])
_WORD = st.recursive(
    _PRIMARY,
    lambda inner: st.one_of(
        st.tuples(inner, _SPACE, _EXPONENT).map(lambda p: f"({p[0]}){p[1]}^{p[1]}{p[2]}"),
        st.tuples(inner, _EXPONENT).map(lambda p: f"{p[0]}^{p[1]}"),
        st.tuples(inner, _SPACE, inner).map(lambda p: f"{p[0]}{p[1]}*{p[1]}{p[2]}"),
        st.tuples(inner, inner).map(lambda p: f"{p[0]} {p[1]}"),
        st.tuples(inner, _SPACE, inner).map(lambda p: f"[{p[1]}{p[0]}{p[1]},{p[1]}{p[2]}]"),
        st.tuples(inner, inner).map(lambda p: f"({p[0]})^({p[1]})"),
        st.tuples(inner, _PRIMARY).map(lambda p: f"{p[0]}^{p[1]}"),
    ),
    max_leaves=10,
)


@st.composite
def _word_lists(draw):
    words = draw(st.lists(_WORD, max_size=4))
    ends = st.sampled_from(["", "", " ", ","])
    separators = st.sampled_from([",", ", ", " ", " , ", ",,", "\t", " ,\n"])
    text = draw(ends) + "".join(draw(separators) * (i > 0) + w for i, w in enumerate(words))
    return text + draw(ends)


@st.composite
def _mutated(draw, texts):
    """A text with up to three one-character insertions or deletions."""
    text = draw(texts)
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(text)))
        if draw(st.booleans()) or not text:
            text = text[:pos] + draw(st.sampled_from("()[],*^- ")) + text[pos:]
        else:
            pos = min(pos, len(text) - 1)
            text = text[:pos] + text[pos + 1 :]
    return text


def _outcome(parse, alphabet, text):
    try:
        return parse(alphabet, text)
    except ParseError:
        return ParseError


class TestReferenceParserDifferential:
    """The one-scan parser against the recursive descent it replaced, kept
    in ``helpers`` as the reference: equal results, or ParseError from both."""

    @pytest.mark.parametrize(
        "parse,reference",
        [
            (parse_word, reference_parse_word),
            (parse_words, reference_parse_words),
            (parse_subgroup, reference_parse_subgroup),
        ],
        ids=["parse_word", "parse_words", "parse_subgroup"],
    )
    @settings(max_examples=400, deadline=None)
    @given(text=st.one_of(_mutated(_WORD), _mutated(_word_lists())))
    def test_same_words_or_both_refuse(self, parse, reference, text):
        assert _outcome(parse, NAMES, text) == _outcome(reference, NAMES, text)

    @pytest.mark.parametrize(
        "text",
        ["a1^\u0663", "a1^-0\u0663", "a1\u00a0a2", "a1,\u2003a2", "a1\u00b2", "\u00e9",
         "a1\u00e9", "_", "t^01", "1^1", "\u0661", "a1^ -2", "[a1 , a2] ,", ",,", " \t",
         "(a1]", "a1)(", "[a1,a2,a3]", "(a1,a2)", "a1^t^a2", "a1^(t)^-1", "a1 ^2 a2"],
    )
    def test_fixed_texts(self, text):
        for parse, reference in [
            (parse_word, reference_parse_word),
            (parse_words, reference_parse_words),
            (parse_subgroup, reference_parse_subgroup),
        ]:
            assert _outcome(parse, NAMES, text) == _outcome(reference, NAMES, text)

    def test_non_ascii_generator_never_parses(self):
        abc = Alphabet(("a", "\u00e9"))
        for text in ["\u00e9", "a*\u00e9"]:
            assert _outcome(parse_word, abc, text) is ParseError
            assert _outcome(reference_parse_word, abc, text) is ParseError


class TestNesting:
    DEEP = 10_000

    def test_deep_round_brackets(self):
        text = "(" * self.DEEP + "a" + ")^2" * self.DEEP
        assert parse_word(AB, "(" * self.DEEP + "a" + ")" * self.DEEP) == parse_word(AB, "a")
        with pytest.raises(ParseError, match="power longer than"):
            parse_word(AB, text)

    def test_deep_commutators(self):
        assert parse_word(AB, "[a," * self.DEEP + "a" + "]" * self.DEEP).is_identity
        # [a,w] has about twice the letters of w
        with pytest.raises(ParseError, match="word longer than"):
            parse_word(AB, "[a," * self.DEEP + "b" + "]" * self.DEEP)

    def test_deep_lists(self):
        deep = "(" * self.DEEP + "b" + ")" * self.DEEP
        assert parse_words(AB, f"{deep}, [a, {deep}] {deep}") == parse_words(AB, "b [a,b] b")
        assert parse_subgroup(AB, deep + " a").generators == tuple(parse_words(AB, "b a"))

    @pytest.mark.parametrize("text", ["a^", "a^-", "b*(a", "[a,b", "b, a^", "a^(b"])
    def test_early_end_says_so(self, text):
        with pytest.raises(ParseError, match="end of input"):
            parse_words(AB, text)

GRIG_FILE = """
# the first Grigorchuk group
generators: a b c d
fixed: a^2 b^2 c^2 d^2 b*c*d
endomorphism sigma: a -> a*c*a, b -> d, c -> b, d -> c
iterated: (a*d)^4 (a*d*a*c*a*c)^4
"""


class TestPresentationFiles:
    def test_grigorchuk_round_trip(self, grig):
        parsed = parse_lpresentation(GRIG_FILE)
        assert parsed == grig

    def test_repeated_sections_accumulate(self, bas):
        text = (
            "generators: a b\n"
            "iterated: [a,a^b]\n"
            "endomorphism sigma: a -> b^2, b -> a\n"
        )
        assert parse_lpresentation(text) == bas

    def test_plain_finite_presentation(self):
        lp = parse_lpresentation("generators: x y\nfixed: x^2 y^2 [x,y]\n")
        assert lp.endomorphisms == ()
        assert len(lp.fixed) == 3

    def test_multiple_endomorphisms_keep_file_order(self):
        text = (
            "generators: s t\n"
            "endomorphism one: s -> t, t -> s\n"
            "endomorphism two: s -> s, t -> t*s\n"
            "iterated: t^2\n"
        )
        lp = parse_lpresentation(text)
        assert lp.endomorphism_names == ("one", "two")
        assert lp.endomorphisms[0].images[0].letters == (2,)

    def test_endomorphism_image_may_be_a_commutator(self):
        lp = parse_lpresentation(
            "generators: a b\nendomorphism s: a -> [a,b], b -> b\niterated: a^2\n"
        )
        assert [w.letters for w in lp.endomorphisms[0].images] == [(-1, -2, 1, 2), (2,)]

    def test_non_ascii_generator_name_is_refused(self):
        with pytest.raises(ParseError, match="^line 2: generator name 'α' is not ASCII$"):
            parse_lpresentation("# no word uses it\ngenerators: α b\nfixed: b^2\n")

    @pytest.mark.parametrize(
        "text",
        [
            "fixed: a^2\n",
            "generators: a a\n",
            "generators: a\nendomorphism s: a -> a, a -> a^2\n",
            "generators: a b\nendomorphism s: a -> b\n",
            "generators: a\nnonsense: a\n",
            "generators: a\ngenerators: b\n",
            "generators: a\nendomorphism s: a => a\n",
        ],
    )
    def test_file_errors(self, text):
        with pytest.raises(ParseError):
            parse_lpresentation(text)

    def test_file_loading(self, tmp_path, grig):
        path = tmp_path / "grig.lp"
        path.write_text(GRIG_FILE)
        assert load_presentation(str(path)) == grig
        with pytest.raises(ParseError):
            load_presentation(str(tmp_path / "missing.lp"))

    def test_builtin_dispatch(self, grig, bas):
        assert builtin_presentation("grigorchuk") == grig
        assert builtin_presentation("basilica") == bas
        assert builtin_presentation("burnside(1,2)") == burnside(1, 2)
        with pytest.raises(ParseError):
            builtin_presentation("unknown")
        assert load_presentation("builtin:basilica") == bas

    def test_relator_dedup_drops_duplicates_and_identities(self):
        abc = Alphabet(("x",))
        w = parse_word(abc, "x^2")
        fp = FinitePresentation(abc, (w, w, Word.identity(abc)))
        assert fp.relators == (w,)
