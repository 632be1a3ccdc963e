from __future__ import annotations

import dataclasses
import functools
import gc
import inspect
import itertools
import random
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lpcoset.subgroups
from lpcoset import (
    CosetTable,
    FiniteIndexSubgroup,
    InputError,
    LPresentation,
    LowIndexIncomplete,
    Word,
    basilica,
    builtin_presentation,
    burnside,
    contains_subgroup,
    core,
    decide_validity,
    enumerate_cosets,
    finite_index_subgroup,
    fold_to_valid,
    format_csv,
    format_report,
    grigorchuk,
    image_group,
    intersect,
    low_index,
    mark_normal_and_maximal,
    merge_coincidences,
    parse_lpresentation,
    parse_subgroup,
    parse_word,
    parse_words,
    report_json,
    standardize,
    subgroup_equal,
    to_perm_rep,
    todd_coxeter,
)
from lpcoset.presentations import FinitePresentation
from lpcoset.subgroups import (
    _fold_by_class,
    _is_normal_table,
    _quotient_map,
    _split_relators,
)
from lpcoset.words import Alphabet

from helpers import (
    L_PRESENTED_FREE_PRODUCTS,
    conjugates,
    contains_by_generators,
    enumeration_fixtures,
    hall_counts,
    fold_and_dedup,
    fold_every_coset,
    is_normal_table,
    low_index_classes,
    plain_low_index,
    plain_low_index_tables,
    replay_image_group,
    reroot,
    row_major_low_index_classes,
    transitive_tables_by_exhaustion,
    whole_group,
)

_FREE2 = LPresentation.from_finite(FinitePresentation(Alphabet(("a", "b")), ()))

PUBLISHED_CORE_GENERATORS = (
    "b^2, a^3, a^2*b*a^-1*b^-1, a*b*a*b^-1, a*b^2*a^-1, b*a^2*b^-1*a^-1, b*a*b*a^-2"
)


@pytest.fixture(scope="module")
def bas_u(bas):
    return finite_index_subgroup(bas, parse_subgroup(bas.alphabet, "a^3, b, a*b*a"))


@pytest.fixture(scope="module")
def bas_whole(bas):
    return finite_index_subgroup(bas, whole_group(bas.alphabet))


@pytest.fixture(scope="module")
def bas_core(bas_u):
    return core(bas_u)


@pytest.fixture(scope="module")
def grig_low4(grig):
    return mark_normal_and_maximal(low_index(grig, 4))


class TestContains:
    def test_generators_are_members(self, bas_u):
        for g in bas_u.generators:
            assert bas_u.contains(g)

    def test_a_is_outside(self, bas, bas_u):
        assert not bas_u.contains(parse_word(bas.alphabet, "a"))

    def test_identity_is_member(self, bas, bas_u):
        assert bas_u.contains(Word.identity(bas.alphabet))

    def test_traced_member(self, bas, bas_u):
        assert bas_u.contains(parse_word(bas.alphabet, "b^2*a^3"))


class TestSubgroupEqual:
    def test_reflexive(self, bas_u):
        assert subgroup_equal(bas_u, bas_u)

    def test_different_index(self, bas_u, bas_whole):
        assert not subgroup_equal(bas_u, bas_whole)

    def test_distinct_index_two_subgroups(self, grig):
        slist = low_index(grig, 2)
        twos = [e.subgroup for e in slist.entries if e.subgroup.index == 2]
        assert len(twos) == 7
        for u, v in itertools.combinations(twos, 2):
            assert not subgroup_equal(u, v)

    def test_equality_matches_mutual_membership(self, grig):
        slist = low_index(grig, 2)
        subs = [e.subgroup for e in slist.entries]
        for u, v in itertools.product(subs, repeat=2):
            both_ways = contains_subgroup(u, v) and contains_subgroup(v, u)
            assert both_ways == subgroup_equal(u, v)


class TestContainsSubgroup:
    @pytest.mark.parametrize("group, max_index", [("grig", 8), ("bas", 6)])
    def test_agrees_with_generator_test_on_all_pairs(self, request, group, max_index):
        slist = low_index(request.getfixturevalue(group), max_index)
        subs = [e.subgroup for e in slist.entries]
        verdicts = set()
        for u, v in itertools.product(subs, repeat=2):
            verdict = contains_subgroup(v, u)
            assert verdict == contains_by_generators(v, u)
            verdicts.add(verdict)
        assert verdicts == {True, False}

    def test_alphabet_mismatch(self, bas_u, grig):
        whole = finite_index_subgroup(grig, whole_group(grig.alphabet))
        with pytest.raises(InputError):
            contains_subgroup(whole, bas_u)

    def test_owner_mismatch_over_the_same_alphabet(self, bas):
        # one table of index 2, once as a subgroup of the Basilica group and
        # once of <a, b | a^2, b^2>: the letters agree, the groups do not
        u = next(e.subgroup for e in low_index(bas, 2).entries if e.subgroup.index == 2)
        a2, b2 = (parse_word(bas.alphabet, w) for w in ("a^2", "b^2"))
        other = LPresentation(bas.alphabet, (a2, b2), (), ())
        v = FiniteIndexSubgroup.from_table(other, u.table)
        assert not subgroup_equal(u, v)
        for left, right in ((u, v), (v, u)):
            with pytest.raises(InputError, match="different presentations"):
                contains_subgroup(left, right)
            with pytest.raises(InputError, match="different presentations"):
                intersect(left, right)


class TestIsNormal:
    def test_whole_group(self, bas_whole):
        assert bas_whole.is_normal()

    def test_grigorchuk_index_two_all_normal(self, grig):
        slist = low_index(grig, 2)
        for e in slist.entries:
            assert e.subgroup.is_normal()

    def test_basilica_example_not_normal(self, bas_u):
        assert not bas_u.is_normal()
        # cross-check: the coset action image has order six, not three
        assert image_group(bas_u.rep, 100).order == 6

    def test_agrees_with_regular_action_criterion(self, bas):
        slist = low_index(bas, 4)
        for e in slist.entries:
            sub = e.subgroup
            regular = image_group(sub.rep, 10**4).order == sub.index
            assert sub.is_normal() == regular

    @pytest.mark.parametrize(
        "group,max_index,level",
        [("grigorchuk", 8, 1), ("grigorchuk", 8, 2), ("basilica", 6, 1)],
    )
    def test_table_test_agrees_with_conjugation_and_reference(
        self, grig, bas, group, max_index, level
    ):
        lp = grig if group == "grigorchuk" else bas
        for e in low_index(lp, max_index, level=level).entries:
            t = e.subgroup.table
            assert _is_normal_table(t) == e.subgroup.is_normal() == is_normal_table(t)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_table_test_on_random_transitive_tables(self, data):
        # tables of the free group on two generators: every transitive pair
        # of permutations is one
        n = data.draw(st.integers(1, 7))
        a, b = (data.draw(st.permutations(range(1, n + 1))) for _ in range(2))
        rows = [[0] * 4 for _ in range(n)]
        for c in range(1, n + 1):
            for col, p in ((0, a), (2, b)):
                rows[c - 1][col] = p[c - 1]
                rows[p[c - 1] - 1][col + 1] = c
        raw = CosetTable(_FREE2.alphabet, tuple(tuple(r) for r in rows))
        orbit = {1}
        frontier = [1]
        while frontier:
            c = frontier.pop()
            for d in raw.rows[c - 1]:
                if d not in orbit:
                    orbit.add(d)
                    frontier.append(d)
        assume(len(orbit) == n)
        sub = FiniteIndexSubgroup.from_table(_FREE2, raw)
        regular = image_group(sub.rep, 10**4).order == n
        assert _is_normal_table(sub.table) == is_normal_table(sub.table) == regular

    @pytest.mark.parametrize(
        "group,max_index,level", [("s3", 6, 0), ("basilica", 6, 1), ("grigorchuk", 8, 1)]
    )
    def test_self_walk_succeeds_exactly_at_the_normalizer(
        self, grig, bas, group, max_index, level
    ):
        # reference: re-rooting at c gives the table itself exactly when c
        # lies in the normalizer
        lp = {"s3": _s3_as_l_presentation(), "basilica": bas, "grigorchuk": grig}[group]
        for e in low_index(lp, max_index, level=level).entries:
            t = e.subgroup.table
            for c in range(1, t.size + 1):
                image = _quotient_map(t, t, c)
                assert (image is not None) == (reroot(t, c).rows == t.rows)
                if image is not None:
                    assert image[1] == c
                    assert sorted(image[1:]) == list(range(1, t.size + 1))


class TestIntersect:
    def test_self_intersection(self, bas_u):
        assert subgroup_equal(intersect(bas_u, bas_u), bas_u)

    def test_with_whole_group(self, bas_u, bas_whole):
        assert subgroup_equal(intersect(bas_u, bas_whole), bas_u)

    def test_index_bounds_and_divisibility(self, bas):
        slist = low_index(bas, 3)
        subs = [e.subgroup for e in slist.entries]
        for u, v in itertools.combinations(subs, 2):
            w = intersect(u, v)
            assert w.index >= max(u.index, v.index)
            assert w.index <= u.index * v.index
            assert w.index % u.index == 0
            assert w.index % v.index == 0

    def test_index_equals_orbit_of_pair(self, bas_u, bas_core):
        # oracle: walk the product action directly on the permutations
        u, v = bas_u, bas_core
        seen = {(1, 1)}
        frontier = [(1, 1)]
        while frontier:
            c, d = frontier.pop()
            for g in range(2):
                for pu, pv in (
                    (u.rep.perms[g], v.rep.perms[g]),
                    (u.rep.perms[g].inverse(), v.rep.perms[g].inverse()),
                ):
                    e = (pu.apply(c), pv.apply(d))
                    if e not in seen:
                        seen.add(e)
                        frontier.append(e)
        assert intersect(u, v).index == len(seen)

    def test_commutative(self, bas_u, bas_core):
        assert subgroup_equal(intersect(bas_u, bas_core), intersect(bas_core, bas_u))

    def test_associative_sample(self, bas):
        subs = [e.subgroup for e in low_index(bas, 3).entries if e.subgroup.index > 1]
        u, v, w = subs[0], subs[3], subs[-1]
        left = intersect(intersect(u, v), w)
        right = intersect(u, intersect(v, w))
        assert subgroup_equal(left, right)

    def test_membership_in_intersection(self, bas, bas_u, bas_core):
        w = intersect(bas_u, bas_core)
        for g in w.generators:
            assert bas_u.contains(g) and bas_core.contains(g)


class TestCore:
    def test_basilica_core_index_six(self, bas_core):
        assert bas_core.index == 6

    def test_image_group_is_nonabelian_of_order_six(self, bas_u):
        ig = image_group(bas_u.rep, 100)
        assert ig.order == 6
        elements, _ = replay_image_group(ig, bas_u.rep)
        assert any(
            p * q != q * p for p, q in itertools.product(elements, repeat=2)
        )

    def test_published_generators_are_members(self, bas, bas_core):
        for w in parse_words(bas.alphabet, PUBLISHED_CORE_GENERATORS):
            assert bas_core.contains(w)

    def test_published_generators_fold_to_the_core(self, bas, bas_core):
        sub = finite_index_subgroup(
            bas, parse_subgroup(bas.alphabet, PUBLISHED_CORE_GENERATORS)
        )
        assert subgroup_equal(sub, bas_core)

    def test_core_is_normal_and_contained(self, bas_u, bas_core):
        assert bas_core.is_normal()
        assert contains_subgroup(bas_u, bas_core)

    def test_core_of_normal_subgroup_is_itself(self, grig):
        sub = next(e.subgroup for e in low_index(grig, 2).entries if e.subgroup.index == 2)
        assert subgroup_equal(core(sub), sub)

    def test_core_equals_intersection_of_conjugates(self, bas, bas_u, bas_core):
        # conjugate the generating set by each alphabet generator and its
        # inverse, intersect until stable
        current = bas_u
        pending = [current]
        while pending:
            sub = pending.pop()
            for g in range(len(bas.alphabet)):
                for sign in (1, -1):
                    x = Word.generator(bas.alphabet, g + 1) ** sign
                    conj = finite_index_subgroup(
                        bas, [w.conjugated_by(x) for w in sub.generators]
                    )
                    merged = intersect(current, conj)
                    if not subgroup_equal(merged, current):
                        current = merged
                        pending.append(conj)
        assert subgroup_equal(current, bas_core)

    def test_regular_table_is_standardized(self, bas_core):
        assert standardize(bas_core.table).rows == bas_core.table.rows


@functools.cache
def _pool():
    """Subgroups of index at most 4 of both groups."""
    return tuple(
        e.subgroup for lp in (grigorchuk(), basilica()) for e in low_index(lp, 4).entries
    )


def _assert_valid_and_standardized(sub: FiniteIndexSubgroup) -> None:
    assert decide_validity(sub.owner, to_perm_rep(sub.table)).valid
    assert standardize(sub.table).rows == sub.table.rows


class TestConstructedTablesAreValid:
    """``core`` and ``intersect`` skip revalidation: their tables are
    valid because the coset action of a subgroup factors through the group,
    and standardized by their breadth-first numbering."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_core(self, data):
        _assert_valid_and_standardized(core(data.draw(st.sampled_from(_pool()))))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_intersect(self, data):
        u = data.draw(st.sampled_from(_pool()))
        v = data.draw(st.sampled_from([w for w in _pool() if w.owner == u.owner]))
        _assert_valid_and_standardized(intersect(u, v))

    def test_no_validity_decision(self, bas_u, bas_core, monkeypatch):
        def refuse(*args):
            raise AssertionError("decide_validity called")

        monkeypatch.setattr(lpcoset.subgroups, "decide_validity", refuse)
        assert core(bas_u).index == 6
        assert intersect(bas_u, bas_core).index == 6


class TestFromTable:
    def test_library_tables_are_standardized(self, grig, bas, bas_u, bas_core):
        # from_table(..., revalidate=False) wraps these tables as given
        built = [e.subgroup for e in low_index(grig, 8, level=2).entries]
        built += [e.subgroup for e in low_index(bas, 6).entries]
        conjugates_of_u = [
            FiniteIndexSubgroup.from_table(bas, standardize(bas_u.table, base=c))
            for c in range(2, bas_u.index + 1)
        ]
        built += [core(bas_u), intersect(bas_u, bas_core)]
        built += [intersect(bas_u, v) for v in conjugates_of_u]
        tables = [sub.table for sub in built]
        # the engine numbers its snapshot breadth-first from coset 1, so
        # todd_coxeter, merge_coincidences and enumerate_cosets return
        # standardized tables without calling standardize
        enumerated = [todd_coxeter(fp, sub) for _, fp, sub in enumeration_fixtures()]
        rng = random.Random(24)
        for t in enumerated:
            for k in (1, 1, 2, 3):
                pairs = [(rng.randint(1, t.size), rng.randint(1, t.size)) for _ in range(k)]
                tables.append(merge_coincidences(t, pairs))
        queries = [
            (bas, "a^3, b, a*b*a"),
            (grig, "b, c, d, a*b*a, a*c*a, a*d*a"),
            (burnside(1, 3), ""),
            (burnside(2, 3), "a1"),
            (burnside(3, 2), "a1*a2*a3"),
        ]
        tables += enumerated
        tables += [enumerate_cosets(lp, parse_subgroup(lp.alphabet, s)).table for lp, s in queries]
        for t in tables:
            assert standardize(t).rows == t.rows

    def test_fields_are_owner_and_table(self):
        fields = [f.name for f in dataclasses.fields(FiniteIndexSubgroup)]
        assert fields == ["owner", "table"]

    def test_invalid_table_is_an_input_error(self, bas):
        # a level-0 candidate that folding would shrink: it satisfies the
        # relators of the cover but is not a coset table of the group
        classes, _ = low_index_classes(bas.covering(0), 6)
        invalid = next(
            t for t, _ in classes if not decide_validity(bas, to_perm_rep(t)).valid
        )
        with pytest.raises(InputError, match="does not define a subgroup"):
            FiniteIndexSubgroup.from_table(bas, invalid)
        trusted = FiniteIndexSubgroup.from_table(bas, invalid, revalidate=False)
        assert trusted.table == invalid

    def test_valid_outside_table_is_accepted(self, bas_u):
        rerooted = standardize(bas_u.table, base=2)
        sub = FiniteIndexSubgroup.from_table(bas_u.owner, rerooted)
        assert sub.table == rerooted
        assert not subgroup_equal(sub, bas_u)


class TestDerivedOnRead:
    """Schreier generators are built only when ``generators`` is read."""

    @staticmethod
    def _refuse(table):
        raise AssertionError("Schreier generators built")

    def test_finite_index_subgroup_and_low_index(self, bas, monkeypatch):
        monkeypatch.setattr(lpcoset.subgroups, "schreier_generators", self._refuse)
        sub = finite_index_subgroup(bas, parse_subgroup(bas.alphabet, "a^3, b, a*b*a"))
        slist = low_index(bas, 4)
        assert sub.index == 3 and slist.counts() == {1: 1, 2: 3, 3: 7, 4: 19}
        with pytest.raises(AssertionError, match="Schreier"):
            sub.generators
        with pytest.raises(AssertionError, match="Schreier"):
            slist.entries[-1].subgroup.generators

    def test_normal_and_maximal_flags(self, bas, monkeypatch):
        expected = mark_normal_and_maximal(low_index(bas, 5))
        monkeypatch.setattr(lpcoset.subgroups, "schreier_generators", self._refuse)
        marked = mark_normal_and_maximal(low_index(bas, 5))
        assert [(e.normal, e.maximal) for e in marked.entries] == [
            (e.normal, e.maximal) for e in expected.entries
        ]

    def test_generators_are_cached(self, bas_u):
        assert bas_u.generators is bas_u.generators
        assert bas_u.rep is bas_u.rep


def _classes_in_descent_order(tables):
    """Partition complete standardized tables, given in descent order, into
    conjugacy classes, each class at the position of its first member."""
    classes = []
    for t in tables:
        if not any(t.rows in cls for cls in classes):
            classes.append(conjugates(t))
    return classes


def _descent_key(rows):
    """Descent order: the generator columns read row by row."""
    return tuple(d for row in rows for d in row[0::2])


@st.composite
def _small_presentations(draw, deep: bool = False):
    """Two or three generators, up to four short relators, ``max_index`` <=
    5 (<= 4 with three generators); with ``deep``, two generators and
    ``max_index`` 6-8, where a root's comparison can stay blocked over
    several levels.  Generator powers of either sign are mixed in, so that
    small non-normal subgroups survive, and a square among them makes its
    generator an involution beside generators that are not."""
    ngens = 2 if deep else draw(st.integers(2, 3))
    abc = Alphabet(("a", "b", "c")[:ngens])
    gens = list(range(1, ngens + 1))
    letters = st.sampled_from(gens + [-g for g in gens])
    powers = st.builds(lambda x, k: [x] * k, letters, st.integers(2, 4))
    relators = draw(
        st.lists(
            st.one_of(powers, st.lists(letters, min_size=2, max_size=8)),
            min_size=1,
            max_size=4,
        )
    )
    fp = FinitePresentation(abc, tuple(Word.reduce(abc, r) for r in relators))
    if deep:
        return fp, draw(st.integers(6, 8))
    return fp, draw(st.integers(1, 5 if ngens == 2 else 4))


def _outcome(search):
    """A descent's result as plain data: ([(rows, class size)], capped)."""
    classes, capped = search
    return [(t.rows, size) for t, size in classes], capped


def _fixed_presentation(name: str, level: int):
    if name == "dihedral12":
        abc = Alphabet(("a", "b"))
        return FinitePresentation(abc, tuple(parse_words(abc, "a^2 b^2 (a*b)^6")))
    if name.startswith("a^"):
        # the cyclic group of order n as one chain of cosets, on which every
        # entry where a comparison stops is defined on the very next step
        return parse_lpresentation(f"generators: a\nfixed: {name}").covering(level)
    return builtin_presentation(name).covering(level)


_FIXED_PRESENTATIONS = [
    ("grigorchuk", 0, 12, True),
    ("grigorchuk", 1, 12, True),
    ("grigorchuk", 2, 15, True),
    ("grigorchuk", 3, 12, True),
    ("grigorchuk", 3, 20, True),
    ("basilica", 0, 10, False),
    ("basilica", 1, 10, False),
    ("basilica", 2, 10, False),
    ("burnside(3,2)", 2, 8, True),
    ("burnside(2,3)", 2, 9, False),
    ("dihedral12", 0, 12, True),
    ("a^2", 0, 2, True),
    ("a^7", 0, 7, False),
    ("a^30", 0, 30, False),
    ("a^60", 0, 60, False),
]


@pytest.mark.usefixtures("time_bound")
class TestLowIndexSearch:
    def test_candidates_are_standardized_and_closed(self, bas):
        classes, capped = low_index_classes(bas.covering(1), 4)
        assert not capped
        for t, _ in classes:
            assert standardize(t).rows == t.rows

    def test_no_duplicate_candidates(self, bas):
        classes, _ = low_index_classes(bas.covering(1), 4)
        keys = [t.rows for t, _ in classes]
        assert len(keys) == len(set(keys))

    @settings(max_examples=100, deadline=None)
    @given(_small_presentations())
    def test_representatives_against_plain_descent(self, case):
        # reference: the plain descent keeps every complete table, so its
        # leaves are every member of every class, in descent order
        fp, max_index = case
        plain = plain_low_index_tables(fp, max_index)
        classes, capped = low_index_classes(fp, max_index)
        assert not capped
        expanded = [conjugates(t) for t, _ in classes]
        assert set().union(*expanded) == {t.rows for t in plain}
        for (t, size), members in zip(classes, expanded):
            assert size == len(members)
            assert _descent_key(t.rows) == min(map(_descent_key, members))
        keys = [_descent_key(t.rows) for t, _ in classes]
        assert keys == sorted(set(keys))
        assert sum(size for _, size in classes) == len(plain)

    @settings(max_examples=150, deadline=None)
    @given(_small_presentations(), st.one_of(st.none(), st.integers(0, 40)))
    def test_column_lists_against_row_major_descent(self, case, max_tables):
        # reference: the same search on one flat row-major table, with every
        # square relator scanned instead of its generator's two columns
        # sharing one list; the descent knows no budget, so ``max_tables``
        # checks the helper's cap against the reference's
        fp, max_index = case
        assert _outcome(low_index_classes(fp, max_index, max_tables)) == _outcome(
            row_major_low_index_classes(fp, max_index, max_tables)
        )

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_small_presentations(deep=True), st.one_of(st.none(), st.integers(0, 300)))
    def test_column_lists_against_row_major_descent_past_index_five(
        self, case, max_tables
    ):
        fp, max_index = case
        assert _outcome(low_index_classes(fp, max_index, max_tables)) == _outcome(
            row_major_low_index_classes(fp, max_index, max_tables)
        )

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.one_of(_small_presentations(), _small_presentations(deep=True)))
    def test_low_index_keeps_the_whole_classes_within_max_tables(self, case):
        # the library's own budget: for every ``max_tables`` up to the
        # candidate count, ``low_index`` raises exactly below the count, and
        # lists the folds of the leading whole classes of the reference
        # descent that fit; every k is run, so cases past 100 candidates
        # are left out
        fp, max_index = case
        lp = LPresentation.from_finite(fp)
        classes, _ = row_major_low_index_classes(lp.covering(0), max_index)
        totals = list(itertools.accumulate(size for _, size in classes))
        count = totals[-1] if totals else 0
        assume(count <= 100)
        for k in range(count + 1):
            kept = [t for (t, _), total in zip(classes, totals) if total <= k]
            if k < count:
                message = f"^stopped after {k} candidate tables$"
                with pytest.raises(LowIndexIncomplete, match=message) as info:
                    low_index(lp, max_index, level=0, max_tables=k)
                slist = info.value.partial
            else:
                slist = low_index(lp, max_index, level=0, max_tables=k)
            assert slist.complete == (k == count)
            rows = [e.subgroup.table.rows for e in slist.entries]
            assert len(rows) == len(set(rows))
            assert set(rows) == {f.rows for f in fold_every_coset(lp, kept)}

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.one_of(_small_presentations(), _small_presentations(deep=True)))
    def test_a_blocked_root_stays_blocked_on_random_relators(self, case):
        # given ``blocked``, the reference asserts at every node that a root
        # whose entry is still undefined stops where it stopped before
        fp, max_index = case
        assert _outcome(low_index_classes(fp, max_index)) == _outcome(
            row_major_low_index_classes(fp, max_index, blocked=[])
        )

    @pytest.mark.parametrize("name,level,max_index,involutions", _FIXED_PRESENTATIONS)
    def test_a_blocked_root_stays_blocked(self, name, level, max_index, involutions):
        fp = _fixed_presentation(name, level)
        blocked = []
        expected = _outcome(row_major_low_index_classes(fp, max_index, blocked=blocked))
        assert _outcome(low_index_classes(fp, max_index)) == expected
        # a root stays blocked below the node where it stopped, except on the
        # chain, where its entry is defined on the very next step
        assert bool(blocked) != name.startswith("a^")

    @pytest.mark.parametrize("name,level,max_index,involutions", _FIXED_PRESENTATIONS)
    def test_column_lists_on_fixed_presentations(
        self, name, level, max_index, involutions
    ):
        fp = _fixed_presentation(name, level)
        scanned, _ = _split_relators(fp, max_index)
        assert any(len(w) == 2 and w[0] == w[1] for w in scanned) == involutions
        expected = _outcome(row_major_low_index_classes(fp, max_index))
        assert _outcome(low_index_classes(fp, max_index)) == expected
        half = sum(size for _, size in expected[0]) // 2
        assert _outcome(low_index_classes(fp, max_index, half)) == _outcome(
            row_major_low_index_classes(fp, max_index, half)
        )

    def test_max_tables_counts_only_tables_satisfying_every_relator(self):
        # in the infinite dihedral group the actions of degree at most 5 in
        # which ab has order 4 or 5 satisfy the scanned involution relators
        # but not the deferred (ab)^6, and come before accepted tables in
        # descent order; the three Klein four-subgroups of the dihedral
        # group of order 12 form a class of three tables
        abc = Alphabet(("a", "b"))
        fp = FinitePresentation(abc, tuple(parse_words(abc, "a^2 b^2 (a*b)^6")))
        assert _split_relators(fp, 5)[1]
        full = plain_low_index_tables(fp, 5)
        dihedral = FinitePresentation(abc, tuple(parse_words(abc, "a^2 b^2")))
        unfiltered = [t.rows for t in plain_low_index_tables(dihedral, 5)]
        full_rows = [t.rows for t in full]
        first_rejected = next(
            i for i, rows in enumerate(unfiltered) if rows not in full_rows
        )
        assert first_rejected < len(full)
        whole = _classes_in_descent_order(full)
        assert any(len(cls) > 1 for cls in whole)
        for k in range(len(full) + 1):
            prefix = []
            for cls in whole:
                if sum(map(len, prefix)) + len(cls) > k:
                    break
                prefix.append(cls)
            classes, capped = low_index_classes(fp, 5, max_tables=k)
            assert [conjugates(t) for t, _ in classes] == prefix
            assert [size for _, size in classes] == [len(cls) for cls in prefix]
            assert capped == (k < len(full))

    def test_level_zero_needs_folding(self, bas):
        # at level 0 some degree-6 candidates are quotients in disguise:
        # folding plus deduplication strictly shrinks the list
        classes, _ = low_index_classes(bas.covering(0), 6)
        tables = [
            CosetTable(bas.alphabet, rows) for t, _ in classes for rows in conjugates(t)
        ]
        folded = fold_and_dedup(bas, tables)
        assert len(folded) < len(tables)


def _s3_as_l_presentation():
    """S4 = <a, b | a^2, b^3, (ab)^4> at level 0; the endomorphism a -> ab,
    b -> b^-1 sends the iterated relator a^2 to (ab)^2, whose normal closure
    is the Klein four-group, so the group is S3.  Index-6 candidates of the
    level-0 cover fold onto the non-normal subgroups of index 3, in
    different conjugates for conjugate candidates."""
    from lpcoset import LPresentation
    from lpcoset.words import FreeEndomorphism

    abc = Alphabet(("a", "b"))
    sigma = FreeEndomorphism(abc, (parse_word(abc, "a*b"), parse_word(abc, "b^-1")))
    return LPresentation(
        abc, tuple(parse_words(abc, "a^2 b^3 (a*b)^4")), (sigma,), (parse_word(abc, "a^2"),)
    )


class TestLowIndex:
    def test_s3_as_l_presentation(self):
        lp = _s3_as_l_presentation()
        for level in (0, 1, 2):
            assert low_index(lp, 6, level=level).counts() == {1: 1, 2: 1, 3: 3, 6: 1}

    def test_whole_group_only_at_index_one(self, bas):
        slist = low_index(bas, 1)
        assert len(slist.entries) == 1
        assert slist.entries[0].subgroup.index == 1

    def test_basilica_counts(self, bas):
        slist = low_index(bas, 5)
        assert slist.counts() == {1: 1, 2: 3, 3: 7, 4: 19, 5: 11}

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_level_invariance(self, bas, level):
        slist = low_index(bas, 4, level=level)
        assert slist.counts() == {1: 1, 2: 3, 3: 7, 4: 19}
        keys = [e.subgroup.table.rows for e in slist.entries]
        baseline = [e.subgroup.table.rows for e in low_index(bas, 4).entries]
        assert keys == baseline

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_grigorchuk_level_invariance(self, grig, level):
        keys = [e.subgroup.table.rows for e in low_index(grig, 8, level=level).entries]
        baseline = [e.subgroup.table.rows for e in low_index(grig, 8, level=2).entries]
        assert len(keys) == 222
        assert keys == baseline

    @pytest.mark.parametrize("level", [0, 1, 2])
    @pytest.mark.parametrize("group,max_index", [("grigorchuk", 8), ("basilica", 6)])
    def test_same_as_plain_path(self, grig, bas, group, max_index, level):
        # reference: every candidate of a descent that scans every relator,
        # folded on its own
        lp = grig if group == "grigorchuk" else bas
        expected = plain_low_index(lp, max_index, level)
        normal: dict[int, int] = {}
        for t in expected:
            if is_normal_table(t):
                normal[t.size] = normal.get(t.size, 0) + 1
        events = []
        slist = mark_normal_and_maximal(
            low_index(lp, max_index, level=level, trace=events.append)
        )
        assert [e.subgroup.table.rows for e in slist.entries] == [t.rows for t in expected]
        assert slist.normal_counts() == normal
        (candidates,) = [e.get("count") for e in events if e.kind == "low-index-candidates"]
        (classes,) = [e.get("classes") for e in events if e.kind == "low-index-classes"]
        assert classes < candidates

    @pytest.mark.parametrize("group,level", [("s3", 0), ("basilica", 0), ("grigorchuk", 1)])
    def test_class_folds_equal_folding_each_candidate(self, grig, bas, group, level):
        lp = {"s3": _s3_as_l_presentation(), "basilica": bas, "grigorchuk": grig}[group]
        fp = lp.covering(level)
        classes, _ = low_index_classes(fp, 6)
        folds = _fold_by_class(lp, [t for t, _ in classes], 10**5, None)
        plain = plain_low_index_tables(fp, 6)
        assert {f.rows for f in folds} == {fold_to_valid(lp, t)[0].rows for t in plain}
        assert len(classes) < len(plain)

    @pytest.mark.parametrize(
        "group,max_index,level", [("s3", 6, 0), ("basilica", 6, 1), ("grigorchuk", 8, 1)]
    )
    def test_class_folds_rerooted_once_per_conjugate(
        self, grig, bas, group, max_index, level
    ):
        # reference: the fold re-rooted at every one of its cosets
        lp = {"s3": _s3_as_l_presentation(), "basilica": bas, "grigorchuk": grig}[group]
        classes, _ = low_index_classes(lp.covering(level), max_index)
        for t, _ in classes:
            folds = [f.rows for f in _fold_by_class(lp, [t], 10**5, None)]
            assert len(folds) == len(set(folds))
            assert set(folds) == {f.rows for f in fold_every_coset(lp, [t])}

    def test_grigorchuk_level_two_defers_long_relators(self, grig):
        events = []
        low_index(grig, 8, level=2, trace=events.append)
        (deferred,) = [e.get("deferred") for e in events if e.kind == "low-index-classes"]
        assert deferred > 0

    def test_brute_force_oracle_equivalence(self, bas):
        # oracle: every transitive degree <= 3 action satisfying the level-2
        # covering relators, found by exhausting permutation assignments,
        # folded to validity and deduplicated
        oracle_tables = transitive_tables_by_exhaustion(bas, 3, level=2)
        expected = {t.rows for t in fold_and_dedup(bas, oracle_tables)}
        got = {e.subgroup.table.rows for e in low_index(bas, 3).entries}
        assert got == expected

    def test_sorted_by_index_then_table(self, bas):
        slist = low_index(bas, 4)
        keys = [e.subgroup.sort_key() for e in slist.entries]
        assert keys == sorted(keys)

    def test_subgroup_invariants(self, bas):
        for e in low_index(bas, 3).entries:
            sub = e.subgroup
            for g in sub.generators:
                assert sub.contains(g)
            # transitivity: the orbit of coset 1 under the generators covers
            # every coset
            seen = {1}
            frontier = [1]
            while frontier:
                c = frontier.pop()
                for p in sub.rep.perms:
                    d = p.apply(c)
                    if d not in seen:
                        seen.add(d)
                        frontier.append(d)
            assert len(seen) == sub.index

    @pytest.mark.parametrize(
        "name,rels,expected",
        [
            ("sym3", "a^2 b^3 (a*b)^2", {1: 1, 2: 1, 3: 3, 6: 1}),
            ("dihedral8", "a^2 b^4 (a*b)^2", {1: 1, 2: 3, 4: 5, 8: 1}),
            ("cyclic4", "a^4 b", {1: 1, 2: 1, 4: 1}),
        ],
    )
    def test_known_finite_groups(self, name, rels, expected):
        # classical subgroup lattices as an independent oracle
        from lpcoset import LPresentation
        from lpcoset.presentations import FinitePresentation
        from lpcoset.words import Alphabet

        abc = Alphabet(("a", "b"))
        fp = FinitePresentation(abc, tuple(parse_words(abc, rels)))
        slist = low_index(LPresentation.from_finite(fp), 8, level=0)
        assert slist.counts() == expected

    def test_presentation_without_generators(self):
        slist = low_index(parse_lpresentation("generators:\n"), 3)
        assert slist.counts() == {1: 1}
        assert [e.subgroup.table.rows for e in slist.entries] == [((),)]

    def test_candidate_cap_raises_with_partial(self, bas):
        with pytest.raises(LowIndexIncomplete) as info:
            low_index(bas, 3, max_tables=3)
        partial = info.value.partial
        assert not partial.complete
        assert 0 < len(partial.entries) <= 3

    def test_negative_candidate_cap_is_input_error(self, bas):
        with pytest.raises(InputError, match="max_tables"):
            low_index(bas, 3, max_tables=-1)

    def test_reduction_cap_is_checked_before_the_descent(self, bas):
        # a descent stopped at max_tables folds nothing, so only a check
        # before it can refuse the cap
        with pytest.raises(InputError, match="cap must be positive"):
            low_index(bas, 3, cap=0, max_tables=0)

    def test_coset_ceiling_caps_the_candidate_rows(self, bas, monkeypatch):
        full = {e.subgroup.table.rows for e in low_index(bas, 4).entries}
        monkeypatch.setattr(lpcoset.subgroups, "DEFAULT_MAX_COSETS", 20)
        # 20 rows at index 4 are 5 tables, conjugates included
        with pytest.raises(LowIndexIncomplete, match="after 5 candidate tables.* 20 rows") as info:
            low_index(bas, 4)
        partial = info.value.partial
        assert not partial.complete
        assert 0 < len(partial.entries) <= 5
        assert {e.subgroup.table.rows for e in partial.entries} <= full
        # the tighter of the two caps stops the search and names itself
        with pytest.raises(LowIndexIncomplete, match="after 3 candidate tables$"):
            low_index(bas, 4, max_tables=3)
        with pytest.raises(LowIndexIncomplete, match="20 rows"):
            low_index(bas, 4, max_tables=6)

    def test_free_covering_stops_at_the_coset_ceiling(self, monkeypatch):
        # burnside(3,2) at level 0 leaves a1, a2, a3 free: without the row
        # cap the descent to index 8 fills gigabytes
        monkeypatch.setattr(lpcoset.subgroups, "DEFAULT_MAX_COSETS", 400)
        with pytest.raises(LowIndexIncomplete, match="after 50 candidate tables") as info:
            low_index(builtin_presentation("burnside(3,2)"), 8, level=0)
        assert not info.value.partial.complete

    def test_a_descent_deeper_than_the_recursion_limit_answers_in_full(self):
        # the descent goes one choice deeper per coset, and finds the
        # subgroups of Z/60 in increasing index: under a limit 40 frames
        # above this one it still answers, with the tables of the run under
        # the default limit, since it holds its choices on a list and not
        # on the Python stack
        lp = parse_lpresentation("generators: a\nfixed: a^60\n")
        full = [e.subgroup.table.rows for e in low_index(lp, 60, level=0).entries]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 40)
        try:
            slist = low_index(lp, 60, level=0)
        finally:
            sys.setrecursionlimit(limit)
        assert slist.complete
        assert [e.subgroup.table.rows for e in slist.entries] == full
        assert slist.counts() == {d: 1 for d in range(1, 61) if 60 % d == 0}

    def test_a_budget_stop_deep_in_the_descent_closes_quietly(self):
        # the same search under the same limit, once in full and once
        # stopped by max_tables before its last class, deepest in the
        # descent: that stop names the table cap, and the suspended descent
        # is released while the limit is still low without raising (the
        # pytest settings fail a test on an unraisable exception)
        lp = parse_lpresentation("generators: a\nfixed: a^60\n")

        def stop(max_tables):
            events = []
            message = None
            limit = sys.getrecursionlimit()
            sys.setrecursionlimit(len(inspect.stack(0)) + 40)
            try:
                try:
                    low_index(lp, 60, level=0, max_tables=max_tables, trace=events.append)
                except LowIndexIncomplete as exc:
                    message = str(exc)
                gc.collect()
            finally:
                sys.setrecursionlimit(limit)
            (found,) = [
                dict(e.details)["count"] for e in events if e.kind == "low-index-candidates"
            ]
            return message, found

        message, found = stop(None)
        assert (message, found) == (None, 12)
        assert stop(found - 1) == (f"stopped after {found - 1} candidate tables", found - 1)


def _cyclic_free_product(orders) -> LPresentation:
    """The free product of cyclic groups of the given orders, 0 for Z."""
    abc = Alphabet(tuple("abc"[: len(orders)]))
    gens = [Word.generator(abc, i + 1) for i in range(len(orders))]
    return LPresentation.from_finite(
        FinitePresentation(abc, tuple(g ** m for g, m in zip(gens, orders) if m))
    )


def _nonzero(counts: dict) -> dict:
    return {k: v for k, v in counts.items() if v}


def _l_presented(name: str) -> tuple[LPresentation, tuple[int, ...]]:
    """A fresh presentation of ``helpers.L_PRESENTED_FREE_PRODUCTS`` and
    its cyclic orders."""
    text, orders = L_PRESENTED_FREE_PRODUCTS[name]
    return parse_lpresentation(text), orders


class TestHallsFormula:
    """Subgroup counts of free products of cyclic groups against
    ``helpers.hall_counts``, which counts them without coset tables."""

    @pytest.mark.parametrize(
        "orders, max_index",
        [((0, 0), 5), ((0, 2), 7), ((2, 3), 10), ((3, 3), 8), ((2, 4), 9), ((2, 2, 2), 7)],
    )
    def test_free_products(self, orders, max_index):
        slist = low_index(_cyclic_free_product(orders), max_index, level=0)
        assert slist.counts() == _nonzero(hall_counts(orders, max_index))

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_l_presented_free_product(self, level):
        # <a,b,c | | a->a, b->c, c->c | a^2, b^3> is C2*C3*C3: the
        # iterated relators give a^2, b^3 and c^3, and level 0 has no c^3
        lp, orders = _l_presented("C2*C3*C3")
        assert low_index(lp, 5, level=level).counts() == _nonzero(hall_counts(orders, 5))

    @pytest.mark.parametrize(
        "name, max_indexes",
        [
            ("C2*C2*C2", (4, 5, 6)),
            ("C4*C2", (7, 7, 7)),
            pytest.param("C2*C2*C2", (5, 6, 7), marks=pytest.mark.stretch),
            pytest.param("C4*C2", (8, 8, 8), marks=pytest.mark.stretch),
        ],
        ids=["C2*C2*C2", "C4*C2", "C2*C2*C2-deeper", "C4*C2-deeper"],
    )
    def test_l_presented_free_products_at_levels_0_to_2(self, name, max_indexes):
        # one presentation object, read at levels 0, 1 and 2 in turn
        lp, orders = _l_presented(name)
        for level, max_index in enumerate(max_indexes):
            slist = low_index(lp, max_index, level=level)
            assert slist.counts() == _nonzero(hall_counts(orders, max_index)), level

    def test_free_covering_passes_the_coset_ceiling(self, monkeypatch):
        # level 0 of C2*C2*C2 is C2*Z*Z, whose candidate tables of index 6
        # pass the coset ceiling
        lp, orders = _l_presented("C2*C2*C2")
        with pytest.raises(LowIndexIncomplete, match="the coset ceiling"):
            low_index(lp, 6, level=0)
        # what a lower ceiling lets through folds to subgroups of C2*C2*C2,
        # so no index has more than Hall's count
        monkeypatch.setattr(lpcoset.subgroups, "DEFAULT_MAX_COSETS", 6000)
        with pytest.raises(LowIndexIncomplete, match="after 1000 candidate tables") as info:
            low_index(lp, 6, level=0)
        partial = info.value.partial.counts()
        hall = hall_counts(orders, 6)
        assert partial and all(count <= hall[k] for k, count in partial.items())


class TestAbelianQuotientCounts:
    """A subgroup contains the derived subgroup exactly when its coset
    action is abelian, so the low-index entries whose generator images
    commute are the subgroups of the abelianization: Z^2 for Basilica,
    with sigma(n) subgroups of index n, (Z/2)^3 for Grigorchuk and
    (Z/3)^2 for B(2,3)."""

    @pytest.mark.parametrize(
        "name, max_index, level, expected",
        [
            ("basilica", 10, 3, {1: 1, 2: 3, 3: 4, 4: 7, 5: 6, 6: 12, 7: 8, 8: 15, 9: 13, 10: 18}),
            ("grigorchuk", 8, 2, {1: 1, 2: 7, 4: 7, 8: 1}),
            ("burnside(2,3)", 9, 2, {1: 1, 3: 4, 9: 1}),
            pytest.param(
                "grigorchuk", 16, 3, {1: 1, 2: 7, 4: 7, 8: 1}, marks=pytest.mark.stretch
            ),
        ],
    )
    def test_abelian_entries_are_the_subgroups_of_the_abelianization(
        self, name, max_index, level, expected
    ):
        counts: dict[int, int] = {}
        for e in low_index(builtin_presentation(name), max_index, level=level).entries:
            perms = e.subgroup.rep.perms
            if all(p * q == q * p for p, q in itertools.combinations(perms, 2)):
                counts[e.subgroup.index] = counts.get(e.subgroup.index, 0) + 1
        assert counts == expected


class TestMarkNormalAndMaximal:
    def test_grigorchuk_up_to_four(self, grig_low4):
        assert grig_low4.counts() == {1: 1, 2: 7, 4: 31}
        assert grig_low4.normal_counts() == {1: 1, 2: 7, 4: 7}
        # the seven subgroups of index two are the only maximal ones here
        assert grig_low4.maximal_counts() == {2: 7}

    def test_whole_group_flags(self, grig_low4):
        top = grig_low4.entries[0]
        assert top.subgroup.index == 1
        assert top.normal is True
        assert top.maximal is None

    def test_basilica_maximal_counts(self, bas):
        slist = mark_normal_and_maximal(low_index(bas, 5))
        assert slist.normal_counts() == {1: 1, 2: 3, 3: 4, 4: 7, 5: 6}
        assert slist.maximal_counts() == {2: 3, 3: 7, 5: 11}

    def test_maximality_matches_direct_containment_search(self, bas):
        slist = mark_normal_and_maximal(low_index(bas, 4))
        subs = [e.subgroup for e in slist.entries]
        for e in slist.entries:
            u = e.subgroup
            if u.index == 1:
                continue
            has_intermediate = any(
                v.index not in (1, u.index) and contains_subgroup(v, u)
                for v in subs
            )
            assert e.maximal == (not has_intermediate)


class TestReports:
    def test_text_report_shape(self, grig_low4):
        text = format_report(grig_low4, show_normal=True, show_maximal=True)
        lines = text.strip().splitlines()
        assert lines[0].split() == ["index", "subgroups", "normal", "maximal"]
        assert lines[1].split() == ["1", "1", "1", "-"]
        assert lines[2].split() == ["2", "7", "7", "7"]
        assert lines[3].split() == ["3", "0", "0", "0"]

    def test_csv_report(self, grig_low4):
        text = format_csv(grig_low4, show_normal=True)
        lines = text.strip().splitlines()
        assert lines[0] == "index,subgroups,normal"
        assert lines[1] == "1,1,1"
        assert lines[4] == "4,31,7"

    def test_json_report_round_trip(self, bas):
        import json

        slist = mark_normal_and_maximal(low_index(bas, 3))
        payload = report_json(slist, include_entries=True)
        text = json.dumps(payload, sort_keys=True)
        back = json.loads(text)
        assert back["counts"] == {"1": 1, "2": 3, "3": 7}
        assert len(back["subgroups"]) == 11
        # tables in the dump are closed coset tables for the presentation:
        # the constructor refuses any other
        from lpcoset import CosetTable

        for entry in back["subgroups"]:
            table = CosetTable(bas.alphabet, tuple(tuple(r) for r in entry["table"]))
            assert table.size == len(entry["table"])
