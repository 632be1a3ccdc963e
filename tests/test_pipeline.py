from __future__ import annotations

import functools
import random
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpcoset import (
    Alphabet,
    EnumerationConfig,
    FreeEndomorphism,
    GaveUp,
    InputError,
    LPresentation,
    Permutation,
    PermutationRep,
    PreconditionError,
    ResourceLimitError,
    SubgroupSpec,
    Word,
    basilica,
    burnside,
    cyclic_reduction_pair,
    decide_validity,
    enumerate_cosets,
    fold_invalid,
    fold_to_valid,
    grigorchuk,
    is_valid_perm_rep,
    kernel_contained,
    low_index,
    parse_lpresentation,
    parse_subgroup,
    parse_word,
    standardize,
    to_perm_rep,
    todd_coxeter,
    trace,
    word_image,
)
from lpcoset import coset_enum, perms, pipeline
from lpcoset.coset_enum import DEFAULT_MAX_COSETS, _prepared_relators, coset_representatives
from lpcoset.pipeline import _attempts, _limits
from lpcoset.presentations import abelian_rank
from lpcoset.subgroups import _quotient_map

import helpers
from helpers import (
    L_PRESENTED_FREE_PRODUCTS,
    composite,
    endo_image,
    ladder_attempts,
    ladder_enumerate_cosets,
    plain_low_index_tables,
    random_word,
    reference_reduction_pair,
    reference_validity_walk,
    reroot,
    shortcut_validity,
    sigma_power,
    table_from_rep,
    trivial_rep,
    walk_order_key,
    whole_group,
)


@pytest.fixture(scope="module")
def invalid_basilica_rep(bas):
    """Degree-6 representation of the level-0 cover that is not valid: the
    defining relator dies but its image under the substitution does not."""
    rep = PermutationRep(
        bas.alphabet,
        6,
        (
            Permutation.from_cycles(6, [(1, 2), (3, 4)]),
            Permutation.from_cycles(6, [(1, 3, 5), (2, 4, 6)]),
        ),
    )
    assert word_image(rep, bas.iterated[0]).is_identity
    return rep


@pytest.fixture(scope="module")
def burnside_fold_fixture():
    """burnside(1,2) with subgroup <a^3>: the level-0 cover reports index 3,
    but the group is cyclic of order 2, so the true index is 1."""
    lp = burnside(1, 2)
    sub = parse_subgroup(lp.alphabet, "a1^3")
    table = todd_coxeter(lp.covering(0), sub)
    assert table is not None and table.size == 3
    return lp, sub, table


class TestIsValidPermRep:
    def test_basilica_example(self, bas, bas_index3_rep):
        outcome = is_valid_perm_rep(bas, bas_index3_rep)
        assert outcome.valid
        assert list(outcome.visited) == [(), (0,), (0, 0)]
        # the walk dequeues sigma, sigma^2, sigma^3 and tests the relator at
        # the two it keeps; sigma^3 reduces to sigma, so its relator image
        # dies with sigma's, and the relator itself is covered by the
        # level-zero precondition
        assert list(outcome.relator_checks) == [(0,), (0, 0)]
        assert outcome.capped == 0

    def test_walk_substitutes_no_words(self, grig, bas):
        # the walk applies one factor at a time to a representation, so it
        # never substitutes into a word: no composite endomorphism is built
        b23 = burnside(2, 3)

        def deepest_walk(lp, max_index):
            tables = [e.subgroup.table for e in low_index(lp, max_index).entries]
            return max(tables, key=lambda t: len(is_valid_perm_rep(lp, to_perm_rep(t)).visited))

        cases = [
            (b23, enumerate_cosets(b23, parse_subgroup(b23.alphabet, "a1")).table),
            (grig, deepest_walk(grig, 8)),
            (bas, deepest_walk(bas, 6)),
        ]
        apply = FreeEndomorphism.apply
        with mock.patch.object(
            FreeEndomorphism, "apply", autospec=True, side_effect=apply
        ) as spy:
            outcomes = [is_valid_perm_rep(lp, to_perm_rep(t)) for lp, t in cases]
        assert spy.call_count == 0
        assert all(o.valid for o in outcomes)
        assert [len(o.visited) for o in outcomes] == [27, 4, 3]

    def test_walk_encodes_each_representation_once(self):
        # a representation is its tables: the walk builds the root from the
        # table's columns and each child once, from its parent's image
        # tables, and decodes no Permutation on a valid table
        b23 = burnside(2, 3)
        table = enumerate_cosets(b23, parse_subgroup(b23.alphabet, "a1")).table
        with mock.patch.object(
            PermutationRep, "from_tables", side_effect=PermutationRep.from_tables
        ) as built, mock.patch.object(
            PermutationRep, "precompose", autospec=True,
            side_effect=PermutationRep.precompose,
        ) as children, mock.patch.object(
            Permutation, "__post_init__", autospec=True,
            side_effect=Permutation.__post_init__,
        ) as decoded:
            outcome = is_valid_perm_rep(b23, to_perm_rep(table))
        assert outcome.valid
        assert len(outcome.visited) == 27
        assert built.call_count == 1 + children.call_count
        assert decoded.call_count == 0

    def test_walk_builds_inverse_tables_only_for_kept_representations(self):
        # relator checks and the precompositions from a kept word read the
        # inverse tables; equality and kernel tests read only the generator
        # tables, and the settled walk computes no probe order, so a pruned
        # representation builds none
        b23 = burnside(2, 3)
        table = enumerate_cosets(b23, parse_subgroup(b23.alphabet, "a1")).table
        with mock.patch.object(
            perms, "_inverses", side_effect=perms._inverses
        ) as inverses, mock.patch.object(
            PermutationRep, "from_tables", side_effect=PermutationRep.from_tables
        ) as built:
            outcome = is_valid_perm_rep(b23, to_perm_rep(table))
        assert outcome.valid
        # visited holds the root and every kept word
        assert inverses.call_count == len(outcome.visited) == 27
        assert built.call_count > 2 * inverses.call_count

    def test_empty_family_is_immediately_valid(self):
        abc = Alphabet(("x",))
        lp = LPresentation(abc, (), (), (parse_word(abc, "x^2"),))
        rep = PermutationRep(abc, 2, (Permutation.from_cycles(2, [(1, 2)]),))
        outcome = is_valid_perm_rep(lp, rep)
        assert outcome.valid
        assert list(outcome.visited) == [()]

    def test_abelian_quotient_is_valid(self, bas):
        # oracle: every iterated relator image is a commutator, so any
        # representation with abelian image satisfies all of them; check the
        # first several substitution images directly
        rep = PermutationRep(
            bas.alphabet,
            2,
            (Permutation.from_cycles(2, [(1, 2)]), Permutation.identity(2)),
        )
        for k in range(7):
            w = composite(bas, sigma_power(k)).apply(bas.iterated[0])
            assert word_image(rep, w).is_identity
        assert is_valid_perm_rep(bas, rep).valid

    def test_invalid_representation_with_witness(self, bas, invalid_basilica_rep):
        outcome = is_valid_perm_rep(bas, invalid_basilica_rep)
        assert not outcome.valid
        w = outcome.witness
        assert w.endo == (0,)
        # witness replays: the relator image under the composite is not trivial
        replay = word_image(invalid_basilica_rep, composite(bas, w.endo).apply(w.relator))
        assert not replay.is_identity
        assert replay == w.image
        assert replay.apply(w.coset) != w.coset

    def test_precondition_fixed_relator(self, grig):
        ident = Permutation.identity(3)
        rep = PermutationRep(
            grig.alphabet, 3, (Permutation.from_cycles(3, [(1, 2, 3)]), ident, ident, ident)
        )
        with pytest.raises(PreconditionError):
            is_valid_perm_rep(grig, rep)

    def test_precondition_iterated_relator_at_identity(self, bas):
        # a representation where [a, a^b] itself survives is rejected up front
        rep = PermutationRep(
            bas.alphabet,
            4,
            (
                Permutation.from_cycles(4, [(1, 2, 3, 4)]),
                Permutation.from_cycles(4, [(1, 2)]),
            ),
        )
        assert not word_image(rep, bas.iterated[0]).is_identity
        with pytest.raises(PreconditionError):
            is_valid_perm_rep(bas, rep)

    def test_empty_iterated_relators(self, bas):
        lp = LPresentation(bas.alphabet, (), bas.endomorphisms, ())
        rep = PermutationRep(
            bas.alphabet,
            2,
            (Permutation.from_cycles(2, [(1, 2)]), Permutation.identity(2)),
        )
        assert is_valid_perm_rep(lp, rep).valid

    def test_completeness_spot_check(self, bas, bas_index3_rep):
        # after a valid verdict, random monoid elements beyond the visited
        # horizon keep every relator image trivial
        outcome = is_valid_perm_rep(bas, bas_index3_rep)
        horizon = max(map(len, outcome.visited)) + 3
        rng = random.Random(41)
        for _ in range(200):
            k = rng.randrange(horizon + 1)
            rep = endo_image(bas_index3_rep, bas, sigma_power(k))
            for r in bas.iterated:
                assert word_image(rep, r).is_identity

    def test_burnside_multi_endomorphism_family(self):
        lp = burnside(1, 3)
        table = todd_coxeter(lp.covering(1), SubgroupSpec(lp.alphabet, ()))
        outcome = is_valid_perm_rep(lp, to_perm_rep(table))
        assert outcome.valid
        assert outcome.visited[0] == ()

    def test_tiny_cap_still_terminates_via_image_equality(self, bas, bas_index3_rep):
        # with the cap below every image-group order the kernel test always
        # answers unknown, so words pile into the visited set until the
        # power images repeat exactly (period 4 here) and the equality fast
        # path prunes; the verdict must not change
        outcome = is_valid_perm_rep(bas, bas_index3_rep, cap=2)
        assert outcome.valid
        assert list(outcome.visited) == [
            (0,) * k for k in range(5)
        ]
        assert outcome.capped >= 1


class TestCyclicReductionPair:
    def test_basilica_pair(self, bas, bas_index3_rep):
        assert cyclic_reduction_pair(bas, bas_index3_rep) == (1, 3)

    def test_trivial_representation(self, bas):
        assert cyclic_reduction_pair(bas, trivial_rep(bas.alphabet)) == (0, 1)

    def test_requires_single_endomorphism(self, bas_index3_rep):
        lp = burnside(1, 2)
        with pytest.raises(InputError):
            cyclic_reduction_pair(lp, trivial_rep(lp.alphabet))

    def test_cap_ceiling_is_a_resource_limit(self, bas, bas_index3_rep):
        # the index-3 rep's image group has 6 elements, past a cap of 1: one
        # walk finds that, and none reruns at a larger cap
        walk = mock.Mock(side_effect=is_valid_perm_rep)
        with mock.patch.object(pipeline, "is_valid_perm_rep", walk):
            with pytest.raises(ResourceLimitError, match="exceeds the cap of 1 elements"):
                cyclic_reduction_pair(bas, bas_index3_rep, cap=1)
        assert walk.call_count == 1

    def test_shortcut_checks_exactly_the_needed_powers(self, bas, bas_index3_rep):
        events = []
        outcome = decide_validity(bas, bas_index3_rep, trace=events.append)
        assert outcome.valid
        assert outcome.reduction_pair == (1, 3)
        assert list(outcome.relator_checks) == [(0,), (0, 0)]
        assert any(
            e.kind == "reduction-pair" and e.get("i") == 1 and e.get("j") == 3
            for e in events
        )


def _random_rep(draw, lp, degree: int) -> PermutationRep:
    points = list(range(1, degree + 1))
    return PermutationRep(
        lp.alphabet,
        degree,
        tuple(Permutation(tuple(draw(st.permutations(points)))) for _ in lp.alphabet.names),
    )


def _with_cap(draw, lp, phi):
    """``(lp, phi, cap)``: a cap from {1, 2, 6, 10^5} or below, at or above
    the order of the image group of ``phi``, which contains the image group
    of every power."""
    order = len(perms.image_group(phi, 10**6).transitions)
    cap = draw(st.sampled_from([1, 2, 6, 10**5, order // 2, order - 1, order, 2 * order]))
    return lp, phi, max(1, cap)


@st.composite
def _reduction_pair_inputs(draw):
    """A random Basilica representation of degree 1-8, a random Grigorchuk
    one of degree 1-7, or a low-index candidate of either group, with caps
    from :func:`_with_cap`.  A random Grigorchuk representation of degree
    8 mostly generates S_8 and pairs only after about a hundred powers,
    seconds each; ``test_matches_on_degree_eight_grigorchuk`` draws those."""
    if draw(st.booleans()):
        lp, top = draw(st.sampled_from([(grigorchuk(), 7), (basilica(), 8)]))
        phi = _random_rep(draw, lp, draw(st.integers(1, top)))
    else:
        # the one-endomorphism pools
        lp, phi = _draw_from_pools(draw, _candidate_pools()[:4])
    return _with_cap(draw, lp, phi)


def _reference_pair_or_capped_walk(lp, phi, cap):
    """``cyclic_reduction_pair`` walks once: its pair is the reference
    search's, and it refuses only when that walk left an image group past
    the cap."""
    walks = []

    def walk(*args):
        walks.append(is_valid_perm_rep(*args))
        return walks[-1]

    with mock.patch.object(pipeline, "is_valid_perm_rep", walk):
        try:
            pair = cyclic_reduction_pair(lp, phi, cap)
        except ResourceLimitError:
            pair = None
    assert len(walks) == 1
    if pair is None:
        assert walks[0].capped > 0
    else:
        assert pair == reference_reduction_pair(lp, phi)


class TestReductionPairIsTheWalksStop:
    """``cyclic_reduction_pair`` reads where the relator-free walk stops;
    ``helpers.reference_reduction_pair`` is the search it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(_reduction_pair_inputs())
    def test_matches_the_reference_search(self, case):
        _reference_pair_or_capped_walk(*case)

    @pytest.mark.stretch
    @settings(max_examples=5, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_on_degree_eight_grigorchuk(self, data):
        lp = grigorchuk()
        _reference_pair_or_capped_walk(*_with_cap(data.draw, lp, _random_rep(data.draw, lp, 8)))

    def test_cap_is_checked(self, bas, bas_index3_rep):
        with pytest.raises(InputError):
            cyclic_reduction_pair(bas, bas_index3_rep, cap=0)


class TestFolding:
    def test_fold_shrinks_burnside_table(self, burnside_fold_fixture):
        lp, sub, table = burnside_fold_fixture
        outcome = decide_validity(lp, to_perm_rep(table))
        assert not outcome.valid
        folded = fold_invalid(table, outcome.witness)
        assert folded.size < table.size
        assert table.size % folded.size == 0
        for r in lp.covering(0).relators:
            for c in range(1, folded.size + 1):
                assert trace(folded, c, r) == c

    def test_fold_to_valid_reaches_fixed_point(self, burnside_fold_fixture):
        lp, sub, table = burnside_fold_fixture
        folded, outcome = fold_to_valid(lp, table)
        assert outcome.valid
        assert folded.size == 1

    def test_fold_requires_a_moving_witness(self, bas, bas_u_result):
        outcome = decide_validity(bas, to_perm_rep(bas_u_result.table))
        assert outcome.valid
        # build a fake witness from a valid table: nothing moves, so folding
        # is refused
        from lpcoset import InvalidWitness

        fake = InvalidWitness(
            relator=bas.iterated[0],
            endo=sigma_power(1),
            image=Permutation.identity(3),
            coset=1,
        )
        with pytest.raises(PreconditionError):
            fold_invalid(bas_u_result.table, fake)

    def test_fold_on_invalid_degree_six_rep(self, bas, invalid_basilica_rep):
        table = table_from_rep(invalid_basilica_rep)
        folded, outcome = fold_to_valid(bas, table)
        assert outcome.valid
        assert 6 % folded.size == 0
        assert folded.size < 6


class TestEnumerate:
    def test_basilica_index_three(self, bas_u_result):
        assert bas_u_result.index == 3
        assert bas_u_result.level_used == 0
        assert bas_u_result.escalations == 0

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_initial_level_does_not_change_answer(self, bas, level):
        sub = parse_subgroup(bas.alphabet, "a^3, b, a*b*a")
        res = enumerate_cosets(bas, sub, EnumerationConfig(initial_level=level))
        assert res.index == 3
        assert res.level_used == level

    def test_whole_group(self, grig):
        res = enumerate_cosets(grig, whole_group(grig.alphabet))
        assert res.index == 1

    def test_grigorchuk_index_two(self, grig):
        # oracle: the quotient killing b, c, d maps onto the order-two group
        # generated by a, every relator dies, and a survives; the subgroup
        # together with a generates everything
        sub = parse_subgroup(grig.alphabet, "b, c, d, a*b*a, a*c*a, a*d*a")
        res = enumerate_cosets(grig, sub)
        assert res.index == 2

    def test_burnside_escalation(self):
        lp = burnside(1, 3)
        events = []
        res = enumerate_cosets(lp, SubgroupSpec(lp.alphabet, ()), trace=events.append)
        assert res.index == 3
        assert res.level_used == 1
        assert res.escalations == 1
        # t dies at level 0, whose covering is free on a1: the trivial
        # subgroup has infinite index there, and the attempt is skipped
        assert [str(e) for e in events] == [
            "tc-infinite generators=2 level=0 max_cosets=256 rank=1",
            "escalate level=1 max_cosets=256",
            "tc-closed cosets=3 level=1",
            "validity verdict=valid visited=3",
        ]

    def test_a_level_that_adds_no_relator_ends_the_levels(self):
        # the Coxeter presentation of S6 has no endomorphism, so level 1
        # is level 0: the trivial subgroup overflows at 256 cosets there
        # once, not once per level, and the next limit closes it
        gens = [f"s{i}" for i in range(1, 6)]
        rels = [f"{x}^2" for x in gens]
        rels += [f"({x}*{y})^3" for x, y in zip(gens, gens[1:])]
        rels += [f"({gens[i]}*{gens[j]})^2" for i in range(5) for j in range(i + 2, 5)]
        lp = parse_lpresentation(
            f"generators: {' '.join(gens)}\n" + "".join(f"fixed: {r}\n" for r in rels)
        )
        events = []
        res = enumerate_cosets(lp, SubgroupSpec(lp.alphabet, ()), trace=events.append)
        assert (res.index, res.level_used, res.escalations) == (720, 0, 1)
        assert [str(e) for e in events] == [
            "tc-overflow level=0 max_cosets=256",
            "escalate level=0 max_cosets=4096",
            "tc-closed cosets=720 level=0",
            "validity verdict=valid visited=1",
        ]

    def test_result_invariants(self, bas, bas_u_result):
        assert bas_u_result.index == bas_u_result.table.size
        assert decide_validity(bas, to_perm_rep(bas_u_result.table)).valid

    def test_gave_up_at_hard_ceiling(self):
        lp = burnside(1, 3)
        config = EnumerationConfig(initial_max_cosets=100, hard_ceiling=100)
        with pytest.raises(GaveUp) as info:
            enumerate_cosets(lp, SubgroupSpec(lp.alphabet, ()), config)
        assert info.value.max_cosets == 100

    def test_deterministic(self, bas):
        sub = parse_subgroup(bas.alphabet, "a^3, b, a*b*a")
        r1 = enumerate_cosets(bas, sub)
        r2 = enumerate_cosets(bas, sub)
        assert r1.table.rows == r2.table.rows

    def test_config_validation(self):
        with pytest.raises(InputError):
            EnumerationConfig(escalation_factor=1)
        with pytest.raises(InputError):
            EnumerationConfig(initial_level=-1)


FORMER_SCHEDULE = EnumerationConfig(initial_max_cosets=2**14, escalation_factor=4)

# (n, m, subgroup generators, index): B(1,m) is cyclic of order m, B(n,2)
# elementary abelian of order 2^n, B(2,3) the Heisenberg group of order 27
BURNSIDE_INDEXES = (
    (1, 3, "1", 3),
    (1, 5, "1", 5),
    (1, 7, "1", 7),
    (2, 2, "1", 4),
    (2, 2, "a1", 2),
    (3, 2, "1", 8),
    (3, 2, "a1*a2*a3", 4),
    (4, 2, "1", 16),
    (4, 2, "a1,a2", 4),
    (2, 3, "1", 27),
    (2, 3, "a1", 9),
    (2, 3, "[a1,a2]", 9),
)
# the rank over Q of the exponent sums of t and a subgroup's generators,
# the level-0 certificate of every subgroup of BURNSIDE_INDEXES
LEVEL_ZERO_RANKS = {"1": 1, "a1": 2, "a1*a2*a3": 2, "a1,a2": 3, "[a1,a2]": 1}


def prepared_weight(lp):
    """The level weight that ``enumerate_cosets`` orders attempts by,
    ``None`` for a level whose covering is refused."""

    def weight(level):
        try:
            cover = lp.covering(level)
        except ResourceLimitError:
            return None
        return sum(map(len, _prepared_relators(cover))) + 2 * len(lp.alphabet)

    return weight


def schedule(lp, config):
    return list(_attempts(config, prepared_weight(lp)))


class TestEscalationSchedule:
    def test_default_schedule(self):
        config = EnumerationConfig()
        assert _limits(config) == [2**8, 2**12, 2**16, 10**6]
        former = _limits(FORMER_SCHEDULE)
        assert len(former) == len(_limits(config))
        assert all(new <= old for new, old in zip(_limits(config), former))
        b23, b42 = burnside(2, 3), burnside(4, 2)
        assert [prepared_weight(b23)(level) for level in range(4)] == [7, 13, 25, 61]
        assert schedule(b23, config) == [
            (0, 256), (1, 256), (2, 256), (3, 256),
            (0, 4096), (1, 4096), (2, 4096), (3, 4096),
            (0, 65536), (1, 65536), (2, 65536), (3, 65536),
            (3, 10**6),
        ]
        assert [prepared_weight(b42)(level) for level in range(4)] == [11, 19, 67, 403]
        assert schedule(b42, config) == [
            (0, 256), (1, 256), (2, 256), (0, 4096), (1, 4096), (3, 256),
            (2, 4096), (0, 65536), (1, 65536), (3, 4096), (2, 65536), (3, 65536),
            (3, 10**6),
        ]

    def test_one_default_ceiling(self):
        assert EnumerationConfig().hard_ceiling == DEFAULT_MAX_COSETS

    @given(
        initial_level=st.integers(0, 5),
        initial_max_cosets=st.integers(1, 10**6),
        escalation_factor=st.integers(2, 64),
        hard_ceiling=st.integers(1, 10**7),
    )
    @settings(max_examples=200, deadline=None)
    def test_limits_are_the_ladder(self, **fields):
        config = EnumerationConfig(**fields)
        limits = _limits(config)
        assert limits == [limit for _, limit in ladder_attempts(config)]
        assert limits[0] == min(config.initial_max_cosets, config.hard_ceiling)
        for before, after in zip(limits, limits[1:]):
            assert after == min(before * config.escalation_factor, config.hard_ceiling)
        assert limits[-1] == config.hard_ceiling
        assert all(limit < config.hard_ceiling for limit in limits[:-1])

    @given(
        config=st.builds(
            EnumerationConfig,
            initial_level=st.integers(0, 4),
            initial_max_cosets=st.integers(1, 5000),
            escalation_factor=st.integers(2, 8),
            hard_ceiling=st.integers(1, 10**5),
        ),
        weights=st.lists(st.integers(1, 10**4), min_size=30, max_size=30),
        refused_after=st.none() | st.integers(1, 25),
    )
    @settings(max_examples=300, deadline=None)
    def test_schedule_properties(self, config, weights, refused_after):
        limits = _limits(config)
        first = config.initial_level
        top = first + len(limits) - 1
        # the covering of the refused level, if any, is never built; the
        # initial level is built by the first attempt before any weight
        refused = None if refused_after is None else first + refused_after
        read = []

        def weight(level):
            read.append(level)
            return None if level == refused else weights[level]

        attempts = _attempts(config, weight)
        assert next(attempts) == (first, limits[0])
        assert read == []
        pairs = [(first, limits[0])] + list(attempts)
        # one level per limit past the first, or up to the level before
        # the refused one
        refusing = len(limits) > 1 and refused is not None and refused <= top
        deepest = refused - 1 if refusing else top
        # each level is weighed once, in level order, up to the deepest,
        # and then the refused level, never yielded
        assert read == (list(range(first, deepest + 1 + refusing)) if len(limits) > 1 else [])
        assert all(level <= deepest for level, _ in pairs)
        assert len(set(pairs)) == len(pairs)
        assert all(limit <= config.hard_ceiling for _, limit in pairs)
        # every level up to the deepest at every limit below the ceiling,
        # then the deepest at the ceiling, last
        below = {(level, limit) for level in range(first, deepest + 1) for limit in limits[:-1]}
        assert pairs[-1] == (deepest, config.hard_ceiling)
        assert set(pairs[:-1]) == below
        # estimated work never decreases, a level weighing at least as much
        # as the one before
        heaviest = {}
        for level in range(first, deepest + 1):
            heaviest[level] = max(weights[level], heaviest.get(level - 1, 0))
        work = [(limit * heaviest[level], level) for level, limit in pairs]
        assert work == sorted(work)
        # no pair after one that is as deep or deeper with a limit as large
        for i, (level, limit) in enumerate(pairs):
            assert not any(l >= level and n >= limit for l, n in pairs[:i])

    def test_a_refused_covering_ends_the_levels(self):
        # one level per doubling would reach level 18 of B(3,3); its
        # covering refuses level 6, so the levels end at 5, where the last
        # attempt is the one at the ceiling
        lp = burnside(3, 3)
        config = EnumerationConfig(initial_max_cosets=4, escalation_factor=2)
        assert len(_limits(config)) == 19
        with pytest.raises(ResourceLimitError):
            lp.covering(6)
        read = []
        weigh = prepared_weight(lp)

        def weight(level):
            read.append(level)
            return weigh(level)

        pairs = list(_attempts(config, weight))
        assert read == [0, 1, 2, 3, 4, 5, 6]
        assert max(level for level, _ in pairs) == 5
        assert pairs[-1] == (5, 10**6)
        # a refusal right after the initial level leaves only that level
        deep = EnumerationConfig(initial_level=5, initial_max_cosets=4, hard_ceiling=100)
        assert len(_limits(deep)) == 3
        assert schedule(lp, deep) == [(5, 4), (5, 64), (5, 100)]

    def test_a_refused_covering_gives_up_at_the_level_before(self):
        # Grigorchuk's covering refuses level 15; <b, c, d>, a Klein
        # four-group, has infinite index, so no attempt closes and the run
        # gives up at level 14, not in the covering's error
        lp = grigorchuk()
        config = EnumerationConfig(
            initial_level=12, initial_max_cosets=4, escalation_factor=2, hard_ceiling=128
        )
        with pytest.raises(ResourceLimitError):
            lp.covering(15)
        with pytest.raises(GaveUp) as info:
            enumerate_cosets(lp, parse_subgroup(lp.alphabet, "b,c,d"), config)
        assert (info.value.level, info.value.max_cosets) == (14, 128)

    def test_first_attempt_honours_the_ceiling(self):
        lp = burnside(1, 3)
        events = []
        with pytest.raises(GaveUp) as info:
            enumerate_cosets(
                lp,
                SubgroupSpec(lp.alphabet, ()),
                EnumerationConfig(hard_ceiling=100),
                trace=events.append,
            )
        assert info.value.max_cosets == 100
        assert info.value.level == 0
        assert [str(e) for e in events] == [
            "tc-infinite generators=2 level=0 max_cosets=100 rank=1"
        ]

    @pytest.mark.parametrize("n, m, gens, index", BURNSIDE_INDEXES)
    def test_burnside_indexes_and_overflows(self, n, m, gens, index):
        lp = burnside(n, m)
        events = []
        res = enumerate_cosets(lp, parse_subgroup(lp.alphabet, gens), trace=events.append)
        assert res.index == index
        attempts = [
            (e.kind, e.get("level"), e.get("max_cosets"))
            for e in events
            if e.kind.startswith("tc-") or e.kind == "escalate"
        ]
        # level 0 is free on a1..an once t dies, so every proper subgroup
        # has infinite index there and the attempt is skipped; level 1 has
        # relators of full rank and overflows unless n = 1
        closed = 1 if n == 1 else 2
        expected = [("tc-infinite", 0, 256), ("escalate", 1, 256)]
        if n > 1:
            expected += [("tc-overflow", 1, 256), ("escalate", 2, 256)]
        expected.append(("tc-closed", closed, None))
        assert attempts == expected
        assert events[0].get("rank") == LEVEL_ZERO_RANKS[gens]
        assert events[0].get("generators") == n + 1
        assert res.level_used == res.escalations == closed
        # the ladder overflowed at 4,096 cosets on level 1, then closed the
        # same run at level 2
        old = ladder_enumerate_cosets(lp, parse_subgroup(lp.alphabet, gens), EnumerationConfig())
        assert (old.index, old.level_used, old.escalations) == (
            index, res.level_used, res.escalations
        )
        assert old.table.rows == res.table.rows

    @pytest.mark.parametrize("m", [3, 5, 7])
    def test_burnside_same_answer_as_former_schedule(self, m):
        lp = burnside(1, m)
        sub = SubgroupSpec(lp.alphabet, ())
        new = enumerate_cosets(lp, sub)
        old = enumerate_cosets(lp, sub, FORMER_SCHEDULE)
        assert (new.index, new.level_used, new.escalations) == (
            old.index,
            old.level_used,
            old.escalations,
        )
        assert new.table.rows == old.table.rows

    def test_first_attempt_closing_builds_one_covering(self):
        # the subgroup queries close on the first attempt: one covering and
        # one relator preparation, the enumeration's own; a fresh
        # presentation, since a shared one keeps the coverings it built
        bas = basilica()
        calls = []
        prepare = coset_enum._prepared_relators
        cover = LPresentation.covering

        def counted(name, f):
            def wrapper(*args):
                calls.append(name)
                return f(*args)

            return wrapper

        with mock.patch.object(LPresentation, "covering", counted("covering", cover)), \
                mock.patch.object(coset_enum, "_prepared_relators", counted("prepare", prepare)), \
                mock.patch.object(pipeline, "_prepared_relators", counted("prepare", prepare)):
            res = enumerate_cosets(bas, parse_subgroup(bas.alphabet, "a^3, b, a*b*a"))
        assert (res.index, res.escalations) == (3, 0)
        assert calls == ["covering", "prepare"]

    @pytest.mark.parametrize("group", ["grig", "bas"])
    def test_small_index_subgroups_close_at_level_zero(self, group, request):
        lp = request.getfixturevalue(group)
        for entry in low_index(lp, 4).entries:
            u = entry.subgroup
            sub = SubgroupSpec(lp.alphabet, u.generators)
            res = enumerate_cosets(lp, sub)
            assert res.index == u.index
            assert res.table.rows == u.table.rows
            assert (res.level_used, res.escalations) == (0, 0)
            old = ladder_enumerate_cosets(lp, sub, EnumerationConfig())
            assert (old.table.rows, old.level_used, old.escalations) == (u.table.rows, 0, 0)


class TestFoldMonotonicity:
    def test_intermediate_indices_are_multiples_of_final(self, bas, invalid_basilica_rep):
        table = table_from_rep(invalid_basilica_rep)
        sizes = [table.size]
        while True:
            outcome = decide_validity(bas, to_perm_rep(table))
            if outcome.valid:
                break
            table = fold_invalid(table, outcome.witness)
            sizes.append(table.size)
        final = sizes[-1]
        assert all(s % final == 0 for s in sizes)
        assert sorted(sizes, reverse=True) == sizes


@functools.cache
def _candidate_tables():
    """Complete candidate tables, valid and invalid, conjugates included,
    from the plain low-index descent over the level-0 and level-1 covers of
    both groups."""
    out = []
    for lp in (grigorchuk(), basilica()):
        for level in (0, 1):
            tables = plain_low_index_tables(lp.covering(level), 6)
            out.extend((lp, t) for t in tables)
    return tuple(out)


class TestConjugationInvariance:
    def test_candidates_include_both_verdicts(self):
        verdicts = {
            decide_validity(lp, to_perm_rep(t)).valid for lp, t in _candidate_tables()
        }
        assert verdicts == {True, False}

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_rerooted_table_has_the_same_verdict(self, data):
        # a conjugate subgroup is the same action seen from another coset,
        # so the representation has the same kernel
        tables = _candidate_tables()
        lp, table = tables[data.draw(st.integers(0, len(tables) - 1))]
        rerooted = reroot(table, data.draw(st.integers(1, table.size)))
        assert (
            decide_validity(lp, to_perm_rep(rerooted)).valid
            == decide_validity(lp, to_perm_rep(table)).valid
        )

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_folding_commutes_with_rerooting(self, data):
        # the fold of the conjugate candidate rooted at c is the fold of the
        # candidate rooted at the image d of c, which is reached from coset 1
        # of the fold by the same word that reaches c in the candidate
        tables = _candidate_tables()
        lp, table = tables[data.draw(st.integers(0, len(tables) - 1))]
        c = data.draw(st.integers(1, table.size))
        folded, _ = fold_to_valid(lp, table)
        d = trace(folded, 1, coset_representatives(table)[c - 1])
        assert _quotient_map(table, folded)[c] == d
        rerooted_fold, _ = fold_to_valid(lp, standardize(table, base=c))
        assert rerooted_fold.rows == standardize(folded, base=d).rows


@functools.cache
def _candidate_pools():
    """The candidate tables of the plain descent up to index 6, one pool per
    family and cover: Grigorchuk, Basilica, B(1,3) and B(2,2) at levels 0
    and 1."""
    pools = []
    for lp in (grigorchuk(), basilica(), burnside(1, 3), burnside(2, 2)):
        for level in (0, 1):
            tables = plain_low_index_tables(lp.covering(level), 6)
            pools.append(tuple((lp, t) for t in tables))
    return tuple(pools)


def _draw_from_pools(draw, pools):
    # indexes, not sampled_from, which labels a strategy by its elements
    pool = pools[draw(st.integers(0, len(pools) - 1))]
    lp, table = pool[draw(st.integers(0, len(pool) - 1))]
    return lp, to_perm_rep(table)


class TestOneValidityWalk:
    """The walk prunes a word before testing its relators; with a single
    endomorphism it then tests what ``helpers.shortcut_validity`` tests."""

    @pytest.mark.parametrize(
        "group, level, max_index, verdicts",
        [
            ("grig", 2, 8, {True}),
            ("grig", 1, 8, {True, False}),
            ("bas", 1, 6, {True}),
            ("bas", 0, 6, {True, False}),
        ],
    )
    def test_walk_matches_the_shortcut(self, request, group, level, max_index, verdicts):
        # every candidate of the cover, and every invalid one down its folds
        lp = request.getfixturevalue(group)
        seen = set()
        for table in plain_low_index_tables(lp.covering(level), max_index):
            while True:
                rep = to_perm_rep(table)
                walk = is_valid_perm_rep(lp, rep)
                ref = shortcut_validity(lp, rep)
                seen.add(walk.valid)
                assert walk.valid == ref.valid
                if walk.valid:
                    assert walk == ref
                    break
                assert walk.witness == ref.witness
                assert walk.relator_checks == ref.relator_checks
                # the shortcut lists every power below j, the walk stops at
                # the witness
                assert walk.visited == ref.visited[: len(walk.visited)]
                assert walk.reduction_pair is None
                table = fold_invalid(table, walk.witness)
        assert seen == verdicts

    def test_no_pair_for_several_endomorphisms(self, burnside_fold_fixture):
        lp, _, table = burnside_fold_fixture
        folded, outcome = fold_to_valid(lp, table)
        assert outcome.valid and len(lp.endomorphisms) > 1
        assert outcome.reduction_pair is None

    def test_invalid_decision_logs_no_pair(self, bas, invalid_basilica_rep):
        events = []
        outcome = decide_validity(bas, invalid_basilica_rep, trace=events.append)
        assert not outcome.valid
        assert [e.kind for e in events] == ["validity"]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_pruned_words_need_no_relator_check(self, data):
        # a valid verdict holds beyond the walk's horizon: every iterated
        # relator dies under every endomorphism word up to two factors past
        # the longest kept word, pruned words included
        # indexes, not sampled_from: hypothesis labels a sampled_from
        # strategy by its elements, which costs seconds on these pools
        pools = _candidate_pools()
        pool = pools[data.draw(st.integers(0, len(pools) - 1))]
        lp, table = pool[data.draw(st.integers(0, len(pool) - 1))]
        phi = to_perm_rep(table)
        outcome = is_valid_perm_rep(lp, phi)
        if not outcome.valid:
            w = outcome.witness
            replay = word_image(phi, composite(lp, w.endo).apply(w.relator))
            assert replay == w.image
            assert replay.apply(w.coset) != w.coset
            return
        horizon = max(map(len, outcome.visited)) + 2
        layer = [phi]
        for length in range(horizon + 1):
            if length:
                layer = [rep.precompose(e) for rep in layer for e in lp.endomorphisms]
            for rep in layer:
                for r in lp.iterated:
                    assert word_image(rep, r).is_identity


@functools.cache
def _certificate_cases() -> tuple[tuple[str, LPresentation, SubgroupSpec], ...]:
    """(group, presentation, subgroup) triples: the subgroups of
    BURNSIDE_INDEXES, every subgroup of index at most 4 of the Grigorchuk
    and Basilica groups, and three random subgroups of one to three
    generators of every group here and of L_PRESENTED_FREE_PRODUCTS."""
    groups = {}
    cases = []
    for n, m, gens, _ in BURNSIDE_INDEXES:
        lp = groups.setdefault(f"burnside({n},{m})", burnside(n, m))
        cases.append((f"burnside({n},{m})", lp, parse_subgroup(lp.alphabet, gens)))
    for name, (text, _) in L_PRESENTED_FREE_PRODUCTS.items():
        groups[name] = parse_lpresentation(text)
    for name, lp in (("grigorchuk", grigorchuk()), ("basilica", basilica())):
        groups[name] = lp
        cases.extend(
            (name, lp, SubgroupSpec(lp.alphabet, e.subgroup.generators))
            for e in low_index(lp, 4).entries
        )
    rng = random.Random(25)
    for name, lp in groups.items():
        for _ in range(3):
            gens = tuple(random_word(rng, lp.alphabet, 4) for _ in range(rng.randint(1, 3)))
            cases.append((name, lp, SubgroupSpec(lp.alphabet, gens)))
    return tuple(cases)


def _enumeration_outcome(lp, sub):
    """The table, level and escalations of ``enumerate_cosets`` at a 2^16
    ceiling, or where and how it gave up."""
    try:
        res = enumerate_cosets(lp, sub, EnumerationConfig(hard_ceiling=65536))
    except GaveUp as exc:
        return exc.level, exc.max_cosets, str(exc)
    return res.table.rows, res.level_used, res.escalations


class TestInfiniteIndexCertificate:
    """An attempt whose covering's abelianization gives the subgroup
    infinite index is skipped (``abelian_rank`` below the number of
    generators)."""

    def test_certified_attempts_never_close(self):
        seen = set()
        for name, lp, sub in _certificate_cases():
            for level in range(3):
                fp = lp.covering(level)
                certified = abelian_rank(fp, sub.generators) < len(lp.alphabet)
                closed = todd_coxeter(fp, sub, max_cosets=2**12) is not None
                assert not (certified and closed), (name, level, [str(g) for g in sub.generators])
                seen.add((certified, closed))
        # the set has certified pairs, and pairs that close
        assert seen == {(True, False), (False, True), (False, False)}

    def test_skipping_changes_no_answer(self):
        for name, lp, sub in _certificate_cases():
            skipped = _enumeration_outcome(lp, sub)
            with mock.patch.object(pipeline, "abelian_rank", lambda fp, words: len(fp.alphabet)):
                enumerated = _enumeration_outcome(lp, sub)
            assert skipped == enumerated, (name, [str(g) for g in sub.generators])

    def test_skipped_attempts_enumerate_nothing(self):
        # every level of the Basilica group has commutator relators only,
        # so <a> is certified at each and the give-up runs no enumeration
        lp = basilica()
        events = []
        with mock.patch.object(pipeline, "todd_coxeter", wraps=todd_coxeter) as tc:
            with pytest.raises(GaveUp) as info:
                enumerate_cosets(lp, parse_subgroup(lp.alphabet, "a"), trace=events.append)
        assert tc.call_count == 0
        assert (info.value.level, info.value.max_cosets) == (3, DEFAULT_MAX_COSETS)
        # the thirteen attempts of the schedule, each one counted
        attempts = [(level, limit) for limit in (2**8, 2**12, 2**16) for level in range(4)]
        attempts.append((3, DEFAULT_MAX_COSETS))
        expected = []
        for i, (level, limit) in enumerate(attempts):
            if i:
                expected.append(f"escalate level={level} max_cosets={limit}")
            expected.append(f"tc-infinite generators=2 level={level} max_cosets={limit} rank=1")
        assert [str(e) for e in events] == expected


@functools.cache
def _burnside_covering_tables():
    """The level-2 covering tables of every subgroup of BURNSIDE_INDEXES,
    the inputs of the burnside-escalation workload's walks."""
    out = []
    for n, m, gens, index in BURNSIDE_INDEXES:
        lp = burnside(n, m)
        table = todd_coxeter(lp.covering(2), parse_subgroup(lp.alphabet, gens), max_cosets=256)
        assert table is not None and table.size == index
        out.append((lp, table))
    return tuple(out)


def _random_burnside_rep(draw):
    """B(n, m) for (n, m) in (1, 3), (2, 2), (2, 3), (3, 2), with random
    a_i and t the identity, which kills the fixed relator t and t^m: the
    walk then reaches relator checks, and mostly a witness."""
    n, m = draw(st.sampled_from([(1, 3), (2, 2), (2, 3), (3, 2)]))
    lp = burnside(n, m)
    degree = draw(st.integers(1, 6))
    points = list(range(1, degree + 1))
    a = [Permutation(tuple(draw(st.permutations(points)))) for _ in range(n)]
    return lp, PermutationRep(lp.alphabet, degree, (*a, Permutation.identity(degree)))


@functools.cache
def _free_products() -> tuple[LPresentation, ...]:
    return tuple(parse_lpresentation(text) for text, _ in L_PRESENTED_FREE_PRODUCTS.values())


@functools.cache
def _free_product_pools():
    """The candidate tables of the plain descent up to index 4 of every
    group of L_PRESENTED_FREE_PRODUCTS at levels 0 and 1: their
    endomorphisms fix a and c, x3, and b, whose images generate the image
    group of some tables and not of others."""
    pools = []
    for lp in _free_products():
        for level in (0, 1):
            tables = plain_low_index_tables(lp.covering(level), 4)
            pools.append(tuple((lp, t) for t in tables))
    return tuple(pools)


@st.composite
def _walk_inputs(draw):
    """``(lp, phi, cap)``, caps from :func:`_with_cap`, so that some are
    below the order of the root's image group and the walk cannot settle.
    ``phi`` is one of:

    - a random Grigorchuk or Basilica representation of degree 1-8, with
      the relators kept (mostly refused) or dropped (walked to the stop;
      Grigorchuk to degree 7, see :func:`_reduction_pair_inputs`);
    - a candidate table of the plain descent (:func:`_candidate_pools`);
      no Grigorchuk or Basilica endomorphism fixes a generator, and every
      Burnside one fixes a1..an, which generate the image group;
    - a covering table of the burnside-escalation workload, or a random
      Burnside representation: walks that settle;
    - a random representation of degree 1-6 or a candidate table
      (:func:`_free_product_pools`) of a group of
      L_PRESENTED_FREE_PRODUCTS: fixed generators that may or may not
      generate the image group.
    """
    kind = draw(st.integers(0, 5))
    if kind == 0:
        # (group, top degree with the relators, top degree without)
        lp, top, free_top = draw(st.sampled_from([(grigorchuk(), 8, 7), (basilica(), 8, 8)]))
        if draw(st.booleans()):
            lp, top = replace(lp, fixed=(), iterated=()), free_top
        phi = _random_rep(draw, lp, draw(st.integers(1, top)))
    elif kind == 1:
        lp, phi = _draw_from_pools(draw, _candidate_pools())
    elif kind == 2:
        tables = _burnside_covering_tables()
        lp, table = tables[draw(st.integers(0, len(tables) - 1))]
        phi = to_perm_rep(table)
    elif kind == 3:
        lp, phi = _random_burnside_rep(draw)
    elif kind == 4:
        lp = _free_products()[draw(st.integers(0, 2))]
        if draw(st.booleans()):
            lp = replace(lp, fixed=(), iterated=())
        phi = _random_rep(draw, lp, draw(st.integers(1, 6)))
    else:
        lp, phi = _draw_from_pools(draw, _free_product_pools())
    return _with_cap(draw, lp, phi)


def _outcome_or_refusal(walk, lp, phi, cap):
    try:
        return walk(lp, phi, cap)
    except PreconditionError as exc:
        return str(exc)


def _recorded_kernel_tests(module, walk, lp, phi):
    """The outcome of ``walk`` and its kernel tests ``(sigma, rho, answer,
    orders)`` by generator tables, with ``kernel_contained`` patched in
    ``module``; ``orders`` is :func:`perms.orders_divide` on the pair."""
    tests = []

    def test(sigma, rho, *args):
        answer = kernel_contained(sigma, rho, *args)
        tests.append((sigma.generators, rho.generators, answer, perms.orders_divide(sigma, rho)))
        return answer

    with mock.patch.object(module, "kernel_contained", test):
        return walk(lp, phi), tests


def _settles(lp, phi) -> bool:
    """Do the generators that every endomorphism maps to themselves have
    images under ``phi`` that generate its image group?"""
    fixed = [
        g
        for g in range(len(lp.alphabet))
        if all(e.apply(Word(lp.alphabet, (g + 1,))) == Word(lp.alphabet, (g + 1,))
               for e in lp.endomorphisms)
    ]
    degree = phi.degree
    ident = Permutation.identity(degree)
    fixed_only = PermutationRep(
        lp.alphabet, degree, [p if g in fixed else ident for g, p in enumerate(phi.perms)]
    )
    return perms.image_group(fixed_only, 10**6).order == perms.image_group(phi, 10**6).order


@functools.cache
def _workload_candidates():
    """``(lp, phi)`` for every walk that the grigorchuk-lowindex and
    basilica-lowindex benchmark jobs run: all subgroups of index <= 15 of
    the Grigorchuk group at level 2, and <= 10 of the Basilica group at
    level 1, folds included."""
    walks = []
    for lp, max_index, level in ((grigorchuk(), 15, 2), (basilica(), 10, 1)):
        with mock.patch.object(
            pipeline, "is_valid_perm_rep", wraps=pipeline.is_valid_perm_rep
        ) as walk:
            low_index(lp, max_index, level=level)
        walks.extend(call.args[:2] for call in walk.call_args_list)
    return tuple(walks)


class TestSpanFilter:
    """The walk settles, and runs no kernel test, when the root's images of
    the generators that every endomorphism fixes generate its image group;
    ``helpers.reference_validity_walk`` is the walk that tests every kept
    word."""

    @settings(max_examples=300, deadline=None)
    @given(_walk_inputs())
    def test_matches_the_reference_walk(self, case):
        # every field but capped: the reference also builds the image groups
        # of tests that the element orders refuse, so only its count can be
        # higher
        ours = _outcome_or_refusal(is_valid_perm_rep, *case)
        theirs = _outcome_or_refusal(reference_validity_walk, *case)
        if isinstance(theirs, str):
            assert ours == theirs
        else:
            assert ours.capped <= theirs.capped
            assert replace(ours, capped=0) == replace(theirs, capped=0)

    @pytest.mark.parametrize("n, m, gens, index", BURNSIDE_INDEXES)
    def test_burnside_walks_run_no_kernel_test(self, n, m, gens, index):
        # every Burnside endomorphism fixes a1..an, whose images generate
        # the image group: the walk settles on two closures, and builds no
        # image group
        lp = burnside(n, m)
        table = enumerate_cosets(lp, parse_subgroup(lp.alphabet, gens)).table
        assert table.size == index
        with mock.patch.object(
            pipeline, "kernel_contained", wraps=pipeline.kernel_contained
        ) as tests, mock.patch.object(
            pipeline, "image_group", wraps=pipeline.image_group
        ) as groups:
            outcome = is_valid_perm_rep(lp, to_perm_rep(table))
        assert outcome == reference_validity_walk(lp, to_perm_rep(table))
        assert outcome.valid
        assert tests.call_count == 0
        assert groups.call_count == 0

    def test_a_settled_walk_tests_nothing_and_the_others_test_as_the_reference(self):
        # no Grigorchuk or Basilica endomorphism fixes a generator, so their
        # walks settle only on a trivial image group; the free products'
        # fixed generators generate the image group of some tables only.  A
        # walk that does not settle runs the reference's kernel tests in
        # its order, less those that the element orders refuse, and each of
        # these answers no in the reference
        pools = _candidate_pools()[:4] + _free_product_pools()
        sides = {True: 0, False: 0}
        answers = []
        refused = 0
        for pool in pools:
            for lp, table in pool:
                phi = to_perm_rep(table)
                walk, ours = _recorded_kernel_tests(pipeline, is_valid_perm_rep, lp, phi)
                reference, theirs = _recorded_kernel_tests(
                    helpers, reference_validity_walk, lp, phi
                )
                assert walk == reference
                settled = _settles(lp, phi)
                sides[settled] += 1
                assert ours == ([] if settled else [t for t in theirs if t[3]])
                assert not any(answer for _, _, answer, orders in theirs if not orders)
                refused += sum(not orders for *_, orders in theirs)
                answers.extend(answer for _, _, answer, _ in ours)
        assert sides[True] > 0 and sides[False] > 0 and refused > 0
        assert any(answers) and not all(answers)

    def test_the_orders_refuse_no_contained_kernel_on_the_workload_candidates(self):
        refused = contained = 0
        for lp, phi in _workload_candidates():
            _, tests = _recorded_kernel_tests(helpers, reference_validity_walk, lp, phi)
            for *_, answer, orders in tests:
                assert orders or answer is False
                refused += not orders
                contained += answer is True
        assert refused > 0 and contained > 0


class TestWalkOrder:
    def test_kept_words_come_in_walk_order(self):
        # the walk keeps words in length-then-rightmost-lexicographic order,
        # and its relator checks are the kept words after the root, then the
        # witness's word when there is one
        pools = [_burnside_covering_tables()]
        for n, m in [(2, 2), (1, 3), (2, 3)]:
            lp = burnside(n, m)
            for level in (0, 1):
                pools.append([(lp, t) for t in plain_low_index_tables(lp.covering(level), 4)])
        verdicts = set()
        longest = 0
        for pool in pools + list(_free_product_pools()):
            for lp, table in pool:
                outcome = is_valid_perm_rep(lp, to_perm_rep(table))
                keys = [walk_order_key(w) for w in outcome.visited]
                assert all(u < v for u, v in zip(keys, keys[1:]))
                checks = outcome.visited[1:]
                if not outcome.valid:
                    checks += (outcome.witness.endo,)
                assert outcome.relator_checks == checks
                verdicts.add(outcome.valid)
                longest = max(longest, len(outcome.visited[-1]))
        assert verdicts == {True, False}
        assert longest >= 3
