from __future__ import annotations

import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpcoset import (
    Alphabet,
    CosetTable,
    FinitePresentation,
    InputError,
    ParseError,
    Permutation,
    PermutationRep,
    SubgroupSpec,
    Word,
    basilica,
    burnside,
    coset_enum,
    dump_table,
    grigorchuk,
    merge_coincidences,
    parse_subgroup,
    parse_table_dump,
    parse_word,
    parse_words,
    schreier_generators,
    standardize,
    to_perm_rep,
    todd_coxeter,
    trace,
    word_image,
)
from lpcoset.coset_enum import (
    _col_of,
    _Engine,
    _prepared_relators,
    _verify_closed,
    coset_representatives,
)

from helpers import (
    _RowEngine,
    class_prepared_relators,
    congruence_quotient_size,
    enumeration_fixtures,
    felsch_todd_coxeter,
    random_word,
    raw_prepared_relators,
    raw_todd_coxeter,
    reroot,
    row_merge_coincidences,
    row_todd_coxeter,
    sweeping_todd_coxeter,
    table_from_rep,
    whole_group,
)


def cyclic_table(n: int) -> CosetTable:
    """Regular action of the cyclic group of order n on itself."""
    abc = Alphabet(("a",))
    perm = Permutation(tuple((i % n) + 1 for i in range(1, n + 1)))
    return table_from_rep(PermutationRep(abc, n, (perm,)))


@st.composite
def finite_presentations(draw):
    """2-3 generators, random relators with or without generator powers
    beside them, and 0-2 subgroup words."""
    n = draw(st.integers(2, 3))
    abc = Alphabet(("x", "y", "z")[:n])
    letter = st.sampled_from([s * g for g in range(1, n + 1) for s in (1, -1)])
    exponents = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    powers = [Word.reduce(abc, [g] * e) for g, e in enumerate(exponents, 1) if e >= 2]
    rels = draw(st.lists(st.lists(letter, min_size=1, max_size=8), min_size=1, max_size=3))
    gens = draw(st.lists(st.lists(letter, min_size=1, max_size=4), max_size=2))
    fp = FinitePresentation(abc, tuple(powers + [Word.reduce(abc, r) for r in rels]))
    return fp, SubgroupSpec(abc, tuple(Word.reduce(abc, g) for g in gens))


@st.composite
def presentations_with_a_spare_generator(draw):
    """2-3 generators and a spare one, t, which is a relator (possibly
    conjugated) in most examples: generator powers, random relators with t
    mixed in, rotated or inverted copies of some of them, powers of some of
    them, and 0-2 subgroup words."""
    n = draw(st.integers(2, 3))
    abc = Alphabet(("x", "y", "z")[:n] + ("t",))
    t = n + 1
    letter = st.sampled_from([s * g for g in range(1, n + 2) for s in (1, -1)])
    rels = []
    if draw(st.integers(0, 3)):
        conj = draw(st.lists(letter, max_size=2))
        rels.append([-x for x in reversed(conj)] + [draw(st.sampled_from((t, -t)))] + conj)
    for g, e in enumerate(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)), 1):
        if e >= 2:
            rels.append([g] * e)
    rels += draw(st.lists(st.lists(letter, min_size=1, max_size=8), min_size=1, max_size=3))
    for r in draw(st.lists(st.sampled_from(rels), max_size=3)):
        k = draw(st.integers(0, len(r)))
        r = r[k:] + r[:k]
        rels.append([-x for x in reversed(r)] if draw(st.booleans()) else r)
    for r in draw(st.lists(st.sampled_from(rels), max_size=2)):
        rels.append(r * draw(st.integers(2, 3)))
    gens = draw(st.lists(st.lists(letter, min_size=1, max_size=4), max_size=2))
    fp = FinitePresentation(abc, tuple(Word.reduce(abc, r) for r in rels))
    return fp, SubgroupSpec(abc, tuple(Word.reduce(abc, g) for g in gens))


def relator_class(w) -> frozenset:
    """Every rotation of the column word ``w`` and of its inverse."""
    inv = tuple(c ^ 1 for c in reversed(w))
    return frozenset(u[i:] + u[:i] for u in (w, inv) for i in range(len(w)))


def proper_root_powers(w) -> list[tuple[int, ...]]:
    """u^d for every proper divisor d of k, where ``w`` = u^k with u primitive."""
    n = len(w)
    p = next(p for p in range(1, n + 1) if n % p == 0 and w == w[:p] * (n // p))
    k = n // p
    return [w[:p] * d for d in range(1, k) if k % d == 0]


def assert_no_proper_powers(prepared) -> None:
    kept = set().union(*map(relator_class, prepared))
    for w in prepared:
        assert not any(u in kept for u in proper_root_powers(w)), w


def t_free(w, ngens: int) -> bool:
    """Whether the column word ``w`` avoids the last generator (Burnside's t)."""
    return all(c >> 1 != ngens - 1 for c in w)


BURNSIDE_LETTERS = [
    # (n, m, level, raw prepared letters, letters after steps 1-3: spare
    # generator deleted, one relator per class)
    (2, 3, 3, 568, 85),
    (2, 3, 5, 8020, 631),
    (2, 4, 3, 757, 113),
    (3, 2, 4, 8907, 853),
    (4, 2, 0, 3, 1),
    (4, 2, 1, 35, 9),
    (4, 2, 2, 371, 73),
    (4, 2, 3, 3507, 433),
    (4, 2, 4, 30947, 2913),
]

POWER_FREE_LETTERS = [
    # (n, m, level, prepared letters after step 4 drops proper powers)
    (2, 3, 3, 55),
    (2, 3, 5, 523),
    (2, 4, 3, 73),
    (2, 4, 4, 217),
    (2, 4, 6, 2089),
    (3, 2, 4, 751),
    (4, 2, 0, 1),
    (4, 2, 1, 9),
    (4, 2, 2, 57),
    (4, 2, 3, 393),
    (4, 2, 4, 2745),
]


class TestPreparedRelators:
    @pytest.mark.parametrize("n,m,level,raw,simplified", BURNSIDE_LETTERS)
    def test_burnside_letter_totals(self, n, m, level, raw, simplified):
        fp = burnside(n, m).covering(level)
        assert sum(map(len, raw_prepared_relators(fp))) == raw
        classes = class_prepared_relators(fp)
        assert sum(map(len, classes)) == simplified
        # step 4 only drops whole relators, keeping the order of the rest
        prepared = _prepared_relators(fp)
        kept = iter(classes)
        assert all(w in kept for w in prepared)

    @pytest.mark.parametrize("n,m,level,prepared_letters", POWER_FREE_LETTERS)
    def test_burnside_power_free_totals(self, n, m, level, prepared_letters):
        prepared = _prepared_relators(burnside(n, m).covering(level))
        assert sum(map(len, prepared)) == prepared_letters
        # the spare letter keeps exactly its own relator
        t = _col_of(n + 1)
        assert [w for w in prepared if t in w or t ^ 1 in w] == [(t,)]

    @pytest.mark.parametrize(
        "lp,level",
        [(burnside(2, 3), 4), (burnside(3, 2), 3), (grigorchuk(), 2), (basilica(), 2)],
        ids=["B(2,3)", "B(3,2)", "grigorchuk", "basilica"],
    )
    def test_one_relator_per_class(self, lp, level):
        classes = [relator_class(w) for w in _prepared_relators(lp.covering(level))]
        assert len(set(classes)) == len(classes)

    @pytest.mark.parametrize(
        "lp,level",
        [(burnside(2, 3), 5), (burnside(2, 4), 4), (burnside(3, 2), 4)],
        ids=["B(2,3)", "B(2,4)", "B(3,2)"],
    )
    def test_no_proper_power_of_a_kept_relator(self, lp, level):
        fp = lp.covering(level)
        prepared = _prepared_relators(fp)
        assert_no_proper_powers(prepared)
        # every raw relator that went is a proper power of a kept one or
        # shares a kept one's class
        kept = set().union(*map(relator_class, prepared))
        for w in raw_prepared_relators(fp):
            if t_free(w, len(lp.alphabet)) and w not in kept:
                assert any(c in kept for c in proper_root_powers(w)), w

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_self_similar_coverings_are_unchanged(self, level):
        # nothing shrinks on the low-index workloads' presentations, so the
        # descent and _split_relators see exactly the relators they saw
        for lp in (grigorchuk(), basilica()):
            fp = lp.covering(level)
            assert _prepared_relators(fp) == raw_prepared_relators(fp)

    def test_burnside_24_level_four_closes(self):
        # B(2,4) has order 2^12 and <a1> order 4; the raw relators
        # overflow this limit
        lp = burnside(2, 4)
        table = todd_coxeter(
            lp.covering(4), parse_subgroup(lp.alphabet, "a1, t"), max_cosets=4096
        )
        assert table is not None and table.size == 1024

    @pytest.mark.parametrize(
        "subgroup,index", [("1", 4), ("a1, a2, t^2, t*a1*t^-1, t*a2*t^-1", 1)]
    )
    def test_the_raw_relators_guard_the_simplification(self, subgroup, index):
        # without its relator t is a free generator: the enumeration either
        # overflows or closes on a table in which t moves a coset, and the
        # check against the raw relators rejects that table
        lp = burnside(2, 2)
        fp = lp.covering(2)
        sub = parse_subgroup(lp.alphabet, subgroup)
        assert todd_coxeter(fp, sub).size == index
        t = (_col_of(3),)

        def without_t(fp):
            return [w for w in _prepared_relators(fp) if w != t]

        with mock.patch.object(coset_enum, "_prepared_relators", without_t):
            try:
                assert todd_coxeter(fp, sub, max_cosets=1000) is None
            except RuntimeError as exc:
                assert "relator t does not close" in str(exc)

    @settings(max_examples=200, deadline=None)
    @given(presentations_with_a_spare_generator(), st.sampled_from((50, 500, 5000)))
    def test_matches_the_raw_relators(self, case, limit):
        # the same subgroup, so the same standardized table whenever both
        # close; the shorter relators may close within a limit that the raw
        # ones overflow (or the reverse), and then the other side closes
        # on the same table with more room
        fp, sub = case
        tables = [todd_coxeter(fp, sub, max_cosets=limit),
                  raw_todd_coxeter(fp, sub, max_cosets=limit)]
        if tables.count(None) == 1:
            if tables[0] is None:
                tables[0] = todd_coxeter(fp, sub, max_cosets=20 * limit)
            else:
                tables[1] = raw_todd_coxeter(fp, sub, max_cosets=20 * limit)
            assert None not in tables
        if None not in tables:
            assert standardize(tables[0]).rows == standardize(tables[1]).rows
        prepared = _prepared_relators(fp)
        assert len(set(map(relator_class, prepared))) == len(prepared)
        assert_no_proper_powers(prepared)


@pytest.mark.usefixtures("time_bound")
class TestToddCoxeter:
    def test_basilica_level_zero_index_three(self, bas):
        fp = bas.covering(0)
        sub = SubgroupSpec(bas.alphabet, tuple(parse_words(bas.alphabet, "a^3, b, a*b*a")))
        table = todd_coxeter(fp, sub)
        assert table is not None
        assert table.size == 3

    def test_whole_group_gives_one_coset(self, bas, grig):
        for lp in (bas, grig):
            table = todd_coxeter(lp.covering(1), whole_group(lp.alphabet))
            assert table.size == 1

    def test_cyclic_group_against_direct_enumeration(self):
        # oracle: multiplication table of Z/3 built directly
        abc = Alphabet(("a",))
        fp = FinitePresentation(abc, (parse_word(abc, "a^3"),))
        table = todd_coxeter(fp, SubgroupSpec(abc, ()))
        assert table.size == 3
        assert standardize(table).rows == standardize(cyclic_table(3)).rows

    def test_overflow_returns_none(self, bas):
        # the free group has no finite coset table for the trivial subgroup
        fp = FinitePresentation(bas.alphabet, ())
        assert todd_coxeter(fp, SubgroupSpec(bas.alphabet, ()), max_cosets=50) is None

    def test_empty_alphabet(self):
        abc = Alphabet(())
        table = todd_coxeter(FinitePresentation(abc, ()), SubgroupSpec(abc, ()))
        assert table.size == 1

    def test_closed_invariants(self, grig):
        fp = grig.covering(1)
        sub = SubgroupSpec(
            grig.alphabet,
            tuple(parse_words(grig.alphabet, "b, c, d, a*b*a, a*c*a, a*d*a")),
        )
        table = todd_coxeter(fp, sub)
        for c in range(1, table.size + 1):
            for r in fp.relators:
                assert trace(table, c, r) == c
        for g in sub.generators:
            assert trace(table, 1, g) == 1
        # generator actions are bijections of the cosets
        to_perm_rep(table)

    @pytest.mark.parametrize("name,fp,sub", enumeration_fixtures())
    def test_strategy_independence(self, name, fp, sub):
        felsch = felsch_todd_coxeter(fp, sub)
        hlt = todd_coxeter(fp, sub)
        assert felsch is not None and hlt is not None, name
        assert standardize(felsch).rows == standardize(hlt).rows, name
        # the sweep-until-stable reference gives the same table, and
        # overflows at the same limit
        assert sweeping_todd_coxeter(fp, sub) == hlt, name
        limited = todd_coxeter(fp, sub, max_cosets=8)
        assert sweeping_todd_coxeter(fp, sub, max_cosets=8) == limited, name

    @settings(max_examples=200, deadline=None)
    @given(finite_presentations(), st.sampled_from((50, 500, 5000)))
    def test_one_pass_matches_the_sweeping_driver(self, case, limit):
        # a second sweep could only confirm the first: the same closed
        # table, or an overflow at the same limit
        fp, sub = case
        one_pass = todd_coxeter(fp, sub, max_cosets=limit)
        assert sweeping_todd_coxeter(fp, sub, max_cosets=limit) == one_pass

    def test_dead_cosets_are_cleared(self, bas_u_result):
        # every engine that todd_coxeter or merge_coincidences builds, once
        # its coincidences are processed: each entry of a dead coset is 0,
        # and no entry of a live coset names a dead one
        engines = []

        class Recording(_Engine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                engines.append(self)

        with mock.patch("lpcoset.coset_enum._Engine", Recording):
            for _, fp, sub in enumeration_fixtures():
                todd_coxeter(fp, sub)
            merge_coincidences(bas_u_result.table, [(1, 2)])
        ndead = 0
        for eng in engines:
            p = eng.p
            dead = {c for c in range(1, len(p)) if p[c] not in (0, c)}
            live = [c for c in range(1, len(p)) if p[c] == c]
            ndead += len(dead)
            for col in eng.cols:
                assert not any(col[c] for c in dead)
                assert not any(col[c] in dead for c in live)
        assert ndead > 0

    @pytest.mark.parametrize("level", [0, 1])
    def test_index_divisibility_across_levels(self, bas, grig, level):
        from lpcoset import burnside

        fixtures = [
            (bas, "a^3, b, a*b*a"),
            (grig, "b, c, d, a*b*a, a*c*a, a*d*a"),
            (burnside(1, 2), "a1^3"),
        ]
        for lp, text in fixtures:
            sub = SubgroupSpec(lp.alphabet, tuple(parse_words(lp.alphabet, text)))
            small = todd_coxeter(lp.covering(level), sub)
            big = todd_coxeter(lp.covering(level + 1), sub)
            assert small is not None and big is not None
            assert small.size % big.size == 0

    def test_strategy_agreement_on_random_presentations(self):
        # seeded fuzz: whenever both the library and the Felsch reference
        # close, they close on the same table
        rng = random.Random(97)
        abc = Alphabet(("x", "y"))
        closed = 0
        for _ in range(40):
            relators = tuple(
                random_word(rng, abc, 6) for _ in range(rng.randrange(1, 4))
            )
            fp = FinitePresentation(abc, relators)
            sub = SubgroupSpec(
                abc, tuple(random_word(rng, abc, 4) for _ in range(rng.randrange(3)))
            )
            felsch = felsch_todd_coxeter(fp, sub, max_cosets=300)
            hlt = todd_coxeter(fp, sub, max_cosets=300)
            if felsch is None or hlt is None:
                continue
            closed += 1
            assert standardize(felsch).rows == standardize(hlt).rows
        assert closed >= 10

    def test_overflowing_run_is_a_prefix_of_a_larger_run(self):
        # the escalation schedule's cost bound, on the row-major reference,
        # whose definitions are calls that can be recorded: define is the
        # only reader of max_cosets, so a run that overflows at one limit
        # made the same definitions, in the same order, as the run at any
        # larger limit.  The library makes the reference's run
        # (TestAgainstTheRowEngine), so the bound holds for it too.
        recorded = []

        @settings(max_examples=150, deadline=None)
        @given(
            st.lists(st.lists(st.sampled_from((1, -1, 2, -2)), max_size=7), max_size=3),
            st.lists(st.lists(st.sampled_from((1, -1, 2, -2)), max_size=4), max_size=2),
            st.integers(1, 40),
            st.integers(1, 200),
        )
        def check(rels, gens, limit, extra):
            abc = Alphabet(("x", "y"))
            fp = FinitePresentation(abc, tuple(Word.reduce(abc, r) for r in rels))
            sub = SubgroupSpec(abc, tuple(Word.reduce(abc, g) for g in gens))

            def defines(max_cosets):
                calls = []
                define = _RowEngine.define

                def recording(eng, a, col):
                    calls.append((a, col))
                    return define(eng, a, col)

                with mock.patch.object(_RowEngine, "define", recording):
                    table = row_todd_coxeter(fp, sub, max_cosets=max_cosets)
                return table, calls

            small, small_calls = defines(limit)
            _, big_calls = defines(limit + extra)
            recorded.append(len(small_calls))
            if small is None:
                assert big_calls[: len(small_calls)] == small_calls
            else:
                assert big_calls == small_calls

        check()
        assert any(recorded)

    def test_columns_grow_with_the_cosets(self):
        # a 3-coset run at the default ceiling of 10^6 cosets allocates for
        # the cosets it defines, not for the ceiling
        abc = Alphabet(("a", "b"))
        fp = FinitePresentation(abc, tuple(parse_words(abc, "a^3, b")))
        sub = SubgroupSpec(abc, ())
        todd_coxeter(fp, sub)
        tracemalloc.start()
        try:
            table = todd_coxeter(fp, sub)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.size == 3
        assert peak < 2**20

    def test_divisibility_is_strict_somewhere(self):
        # burnside(1,2): the level-0 cover sees <a^3> with index 3, level 1
        # forces a^2 = 1 and the index drops to 1
        from lpcoset import burnside

        lp = burnside(1, 2)
        sub = SubgroupSpec(lp.alphabet, tuple(parse_words(lp.alphabet, "a1^3")))
        assert todd_coxeter(lp.covering(0), sub).size == 3
        assert todd_coxeter(lp.covering(1), sub).size == 1


@st.composite
def transitive_tables(draw):
    """The closed table of a two-generator action on 1-12 points, one
    generator an n-cycle so that coset 1 reaches every coset."""
    n = draw(st.integers(1, 12))
    cycle = Permutation(tuple(c % n + 1 for c in range(1, n + 1)))
    other = Permutation(tuple(draw(st.permutations(range(1, n + 1)))))
    return table_from_rep(PermutationRep(Alphabet(("s", "t")), n, (cycle, other)))


@pytest.mark.usefixtures("time_bound")
class TestAgainstTheRowEngine:
    """The column engine against the row-major reference engine of
    ``helpers``: the same definitions and coincidences in the same order
    give the same tables and the same overflow points."""

    @settings(max_examples=100, deadline=None)
    @given(finite_presentations())
    def test_todd_coxeter_at_every_limit(self, case):
        fp, sub = case
        for limit in range(1, 65):
            table = todd_coxeter(fp, sub, max_cosets=limit)
            assert table == row_todd_coxeter(fp, sub, max_cosets=limit), limit

    @settings(max_examples=200, deadline=None)
    @given(transitive_tables(), st.data())
    def test_merge_coincidences(self, table, data):
        coset = st.integers(1, table.size)
        pairs = data.draw(st.lists(st.tuples(coset, coset), min_size=1, max_size=3))
        assert merge_coincidences(table, pairs) == row_merge_coincidences(table, pairs)


class TestVerifyClosed:
    """The check on every closed table that ``todd_coxeter`` returns."""

    def s3(self, relators: str, subgroup: str):
        # a = (1 2), b = (2 3) acting on three cosets
        abc = Alphabet(("a", "b"))
        perms = (Permutation((2, 1, 3)), Permutation((1, 3, 2)))
        table = table_from_rep(PermutationRep(abc, 3, perms))
        fp = FinitePresentation(abc, tuple(parse_words(abc, relators)))
        return table, fp, SubgroupSpec(abc, tuple(parse_words(abc, subgroup)))

    def test_accepts_the_closed_table(self):
        _verify_closed(*self.s3("a^2, b^2, (a*b)^3", "b"))

    def test_incomplete_table(self):
        # a live row with an undefined entry is an engine fault, raised
        # where the engine's table is read out
        eng = _Engine.from_rows(((2, 2), (1, 0)))
        with pytest.raises(RuntimeError, match="undefined entry in a live row"):
            eng.snapshot(Alphabet(("a",)))

    def test_names_the_relator_and_the_first_coset_it_fails_from(self):
        # b fails from cosets 2 and 3, a*b*a from 1; cosets are checked in
        # order, each against every relator
        table, fp, sub = self.s3("a^2, b, a*b*a", "")
        with pytest.raises(RuntimeError) as err:
            _verify_closed(table, fp, sub)
        assert str(err.value) == f"relator {fp.relators[2]} does not close from coset 1"
        table, fp, sub = self.s3("a^2, b", "")
        with pytest.raises(RuntimeError) as err:
            _verify_closed(table, fp, sub)
        assert str(err.value) == f"relator {fp.relators[1]} does not close from coset 2"

    def test_subgroup_generator_moving_coset_one(self):
        table, fp, sub = self.s3("a^2, b^2, (a*b)^3", "b, a")
        with pytest.raises(RuntimeError) as err:
            _verify_closed(table, fp, sub)
        assert str(err.value) == f"subgroup generator {sub.generators[1]} does not fix coset 1"


class TestTrace:
    def test_basilica_trace(self, bas_u_result):
        table = bas_u_result.table
        a = Word.generator(table.alphabet, 1)
        assert trace(table, 1, a) == 2
        assert table.rows[0][0] == 2  # a from coset 1
        assert table.rows[1][1] == 1  # a^-1 from coset 2
        assert trace(table, 1, Word.identity(table.alphabet)) == 1

    def test_out_of_range_start(self, bas_u_result):
        with pytest.raises(InputError):
            trace(bas_u_result.table, 9, Word.identity(bas_u_result.table.alphabet))

    def test_trace_matches_perm_rep(self, bas_u_result):
        table = bas_u_result.table
        rep = to_perm_rep(table)
        rng = random.Random(3)
        for _ in range(100):
            w = random_word(rng, table.alphabet, 12)
            img = word_image(rep, w)
            for c in range(1, table.size + 1):
                assert trace(table, c, w) == img.apply(c)


@pytest.mark.usefixtures("time_bound")
class TestMergeCoincidence:
    def test_merge_with_itself_is_identity(self, bas_u_result):
        table = bas_u_result.table
        assert merge_coincidences(table, [(2, 2)]).rows == table.rows

    @pytest.mark.parametrize("other", [2, 3, 4, 5, 6])
    def test_regular_action_quotient_oracle(self, other):
        table = cyclic_table(6)
        merged = merge_coincidences(table, [(1, other)])
        expected = congruence_quotient_size(table, [(1, other)])
        assert merged.size == expected
        assert 6 % merged.size == 0

    def test_two_generator_regular_action(self):
        # regular action of S3 on itself; identifying 1 with any point
        # quotients by the subgroup that point represents
        abc = Alphabet(("s", "t"))
        s = Permutation.from_cycles(6, [(1, 2), (3, 5), (4, 6)])
        t = Permutation.from_cycles(6, [(1, 3, 4), (2, 5, 6)])
        table = table_from_rep(PermutationRep(abc, 6, (s, t)))
        for other in range(2, 7):
            merged = merge_coincidences(table, [(1, other)])
            assert merged.size == congruence_quotient_size(table, [(1, other)])
            assert 6 % merged.size == 0

    def test_basilica_merge_collapses_to_point(self, bas_u_result):
        merged = merge_coincidences(bas_u_result.table, [(1, 2)])
        assert merged.size == 1

    def test_merged_table_stays_closed_and_reachable(self, bas_u_result):
        merged = merge_coincidences(bas_u_result.table, [(1, 2)])
        assert standardize(merged).rows == merged.rows


class TestStandardize:
    def test_idempotent(self, bas_u_result):
        table = bas_u_result.table
        once = standardize(table)
        assert standardize(once).rows == once.rows

    def test_relabeled_copy_standardizes_identically(self, bas_u_result):
        # relabelings that keep the base coset fixed describe the same subgroup
        table = standardize(bas_u_result.table)
        relabel = {1: 1, 2: 3, 3: 2}
        rows = [None] * table.size
        for c in range(1, table.size + 1):
            rows[relabel[c] - 1] = tuple(relabel[d] for d in table.rows[c - 1])
        shuffled = CosetTable(table.alphabet, tuple(rows))
        assert standardize(shuffled).rows == table.rows

    def test_basilica_labels_are_canonical(self, bas_u_result):
        rep = to_perm_rep(standardize(bas_u_result.table))
        assert rep.perms[0] == Permutation.from_cycles(3, [(1, 2, 3)])
        assert rep.perms[1] == Permutation.from_cycles(3, [(2, 3)])

    def test_requires_closed(self, bas):
        # every table is closed: one with an undefined entry is refused
        # before any function can read it
        with pytest.raises(InputError, match="^row 2 has an undefined entry$"):
            CosetTable(bas.alphabet, ((2, 2, 2, 2), (1, 0, 1, 1)))

    def test_base_gives_the_rerooted_table(self, bas_u_result):
        table = standardize(bas_u_result.table)
        for c in range(1, table.size + 1):
            assert standardize(table, base=c).rows == reroot(table, c).rows

    def test_base_out_of_range(self, bas_u_result):
        with pytest.raises(InputError):
            standardize(bas_u_result.table, base=bas_u_result.table.size + 1)


class TestPermRepExtraction:
    def test_one_coset_table(self, grig):
        table = todd_coxeter(grig.covering(0), whole_group(grig.alphabet))
        rep = to_perm_rep(table)
        assert all(p.is_identity for p in rep.perms)

    def test_round_trip_with_table_from_rep(self, bas_u_result):
        table = bas_u_result.table
        assert table_from_rep(to_perm_rep(table)).rows == table.rows


class TestSchreier:
    def test_transversal_reaches_each_coset(self, bas_u_result):
        table = bas_u_result.table
        reps = coset_representatives(table)
        for c, w in enumerate(reps, start=1):
            assert trace(table, 1, w) == c
        assert reps[0].is_identity

    def test_generators_fix_coset_one(self, bas_u_result):
        for g in schreier_generators(bas_u_result.table):
            assert not g.is_identity
            assert trace(bas_u_result.table, 1, g) == 1

    def test_generator_count_bound(self, bas_u_result):
        table = bas_u_result.table
        n, k = table.size, len(table.alphabet)
        gens = schreier_generators(table)
        assert len(gens) <= n * k
        assert len(gens) >= n * k - (n - 1)


class TestDumpFormat:
    def test_golden_basilica_dump(self, bas_u_result):
        expected = "2\t1\t3\t1\n3\t3\t1\t3\n1\t2\t2\t2\n"
        assert dump_table(standardize(bas_u_result.table)) == expected

    def test_round_trip(self, bas, bas_u_result):
        text = dump_table(bas_u_result.table)
        assert parse_table_dump(bas.alphabet, text).rows == bas_u_result.table.rows

    def test_rejects_wrong_width(self, bas):
        with pytest.raises(ParseError):
            parse_table_dump(bas.alphabet, "1\t2\n")

    def test_rejects_inconsistent_mirror(self, bas):
        # says 1*a = 2 but 2*a^-1 = 2
        bad = "2\t1\t1\t1\n2\t2\t2\t2\n"
        with pytest.raises(ParseError):
            parse_table_dump(bas.alphabet, bad)

    def test_rejects_undefined_entry(self, bas, bas_u_result):
        text = dump_table(bas_u_result.table).replace("3", "0", 1)
        with pytest.raises(ParseError, match="undefined entry"):
            parse_table_dump(bas.alphabet, text)

    def test_comments_and_blanks_ignored(self, bas, bas_u_result):
        text = "# header\n\n" + dump_table(bas_u_result.table)
        assert parse_table_dump(bas.alphabet, text).rows == bas_u_result.table.rows


class TestTableValidation:
    def test_entry_out_of_range(self, bas):
        with pytest.raises(InputError):
            CosetTable(bas.alphabet, ((5, 1, 1, 1),))

    def test_undefined_entry(self, bas_u_result):
        # a 0 anywhere is refused, whether or not its mirror is defined
        table = bas_u_result.table
        for c, row in enumerate(table.rows, start=1):
            for col in range(len(row)):
                rows = list(table.rows)
                rows[c - 1] = row[:col] + (0,) + row[col + 1 :]
                with pytest.raises(InputError) as err:
                    CosetTable(table.alphabet, tuple(rows))
                assert str(err.value) == f"row {c} has an undefined entry"

    def test_row_width(self, bas):
        with pytest.raises(InputError):
            CosetTable(bas.alphabet, ((1, 1),))

    def test_short_row_after_an_entry_pointing_at_it(self):
        # widths are checked before any mirror is looked up
        with pytest.raises(InputError, match="^row 2 has 1 entries, expected 2$"):
            CosetTable(Alphabet(("a",)), ((2, 1), (1,)))
