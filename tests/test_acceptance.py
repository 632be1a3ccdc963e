"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything here is exact integer or symbolic comparison; the only stated
tolerances are wall-clock budgets.  Run with ``pytest tests/test_acceptance.py
-v -s`` to see the per-criterion lines.  The index-16 reproduction is a
stretch target excluded from the default run (``-m stretch`` opts in).
"""

from __future__ import annotations

import io
import itertools
import random
import time

import pytest

from lpcoset import (
    Permutation,
    core,
    finite_index_subgroup,
    image_group,
    low_index,
    mark_normal_and_maximal,
    parse_subgroup,
    parse_words,
    standardize,
    subgroup_equal,
    to_perm_rep,
    todd_coxeter,
)
from lpcoset.cli import main
from lpcoset.words import free_reduce

from helpers import (
    breadth_first_words,
    brute_force_reduce,
    endo_image,
    enumeration_fixtures,
    felsch_todd_coxeter,
    fold_and_dedup,
    random_raw_letters,
    random_word,
    reduces,
    replay_image_group,
    sigma_power,
    transitive_tables_by_exhaustion,
    walk_order_key,
)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def grig8(grig):
    return mark_normal_and_maximal(low_index(grig, 8))


def test_criterion_1_basilica_worked_example():
    start = time.perf_counter()
    code, out, err = run_cli(
        "index", "builtin:basilica", "--subgroup", "a^3,b,a*b*a", "-v"
    )
    elapsed = time.perf_counter() - start
    ok = (
        code == 0
        and "index: 3" in out
        and "reduction-pair i=1 j=3" in err
        and elapsed < 1.0
    )
    report(1, ok, f"index 3 with reduction pair (1,3) in {elapsed:.3f}s")


def test_criterion_2_basilica_permutation_images(bas, bas_u_result):
    rep = to_perm_rep(standardize(bas_u_result.table))
    checks = {
        "a": (rep.perms[0], Permutation.from_cycles(3, [(1, 2, 3)])),
        "b": (rep.perms[1], Permutation.from_cycles(3, [(2, 3)])),
    }
    rep1 = endo_image(rep, bas, sigma_power(1))
    rep2 = endo_image(rep, bas, sigma_power(2))
    checks["a^(s p)"] = (rep1.perms[0], Permutation.identity(3))
    checks["b^(s p)"] = (rep1.perms[1], Permutation.from_cycles(3, [(1, 2, 3)]))
    checks["a^(s2 p)"] = (rep2.perms[0], Permutation.from_cycles(3, [(1, 3, 2)]))
    checks["b^(s2 p)"] = (rep2.perms[1], Permutation.identity(3))
    bad = [name for name, (got, want) in checks.items() if got != want]
    report(2, not bad, f"all six permutation images exact (failures: {bad or 'none'})")


def test_criterion_3_basilica_core(bas):
    start = time.perf_counter()
    u = finite_index_subgroup(bas, parse_subgroup(bas.alphabet, "a^3, b, a*b*a"))
    h = core(u)
    ig = image_group(u.rep, 1000)
    elements, _ = replay_image_group(ig, u.rep)
    nonabelian = any(
        p * q != q * p for p, q in itertools.combinations(elements, 2)
    )
    published = parse_words(
        bas.alphabet,
        "b^2, a^3, a^2*b*a^-1*b^-1, a*b*a*b^-1, a*b^2*a^-1, b*a^2*b^-1*a^-1, b*a*b*a^-2",
    )
    members = all(h.contains(w) for w in published)
    refolded = finite_index_subgroup(bas, published)
    elapsed = time.perf_counter() - start
    ok = (
        h.index == 6
        and ig.order == 6
        and nonabelian
        and members
        and subgroup_equal(refolded, h)
        and elapsed < 1.0
    )
    report(
        3,
        ok,
        f"core has index {h.index}, image order {ig.order} nonabelian={nonabelian}, "
        f"7 published generators inside, published set folds back to the core "
        f"({elapsed:.3f}s)",
    )


def test_criterion_4_grigorchuk_low_index():
    start = time.perf_counter()
    code, out, _ = run_cli(
        "low-index", "builtin:grigorchuk", "--max-index", "8", "--normal"
    )
    elapsed = time.perf_counter() - start
    rows = [line.split() for line in out.strip().splitlines()[1:]]
    got = {int(idx): (int(count), int(normal)) for idx, count, normal in rows}
    expected = {
        1: (1, 1),
        2: (7, 7),
        3: (0, 0),
        4: (31, 7),
        5: (0, 0),
        6: (0, 0),
        7: (0, 0),
        8: (183, 7),
    }
    ok = code == 0 and got == expected and elapsed < 600.0
    report(
        4,
        ok,
        f"counts 1,7,31,183 at 1,2,4,8 with normal 1,7,7,7 and zero elsewhere "
        f"in {elapsed:.1f}s (< 600s)",
    )


def test_criterion_5_basilica_low_index(bas):
    start = time.perf_counter()
    code, out, _ = run_cli(
        "low-index", "builtin:basilica", "--max-index", "6", "--normal", "--maximal"
    )
    elapsed = time.perf_counter() - start
    rows = [line.split() for line in out.strip().splitlines()[1:]]
    counts = [int(r[1]) for r in rows]
    normal = [int(r[2]) for r in rows]
    maximal = [r[3] for r in rows]
    ok = (
        code == 0
        and counts == [1, 3, 7, 19, 11, 39]
        and normal == [1, 3, 4, 7, 6, 13]
        and maximal == ["-", "3", "7", "0", "11", "0"]
        and elapsed < 600.0
    )
    report(
        5,
        ok,
        f"counts (1,3,7,19,11,39), normal (1,3,4,7,6,13), maximal (3,7,0,11,0) "
        f"in {elapsed:.1f}s",
    )


def test_criterion_6_only_index_two_subgroups_are_maximal(grig8):
    flagged = [e for e in grig8.entries if e.maximal]
    ok = len(flagged) == 7 and all(e.subgroup.index == 2 for e in flagged)
    report(6, ok, f"{len(flagged)} maximal subgroups, all of index 2")


class TestCriterion7PropertySuites:
    def test_free_reduction_and_homomorphism_laws(self, grig):
        rng = random.Random(2024)
        sigma = grig.endomorphisms[0]
        for _ in range(1000):
            raw = random_raw_letters(rng, 4, 16)
            once = free_reduce(raw)
            assert free_reduce(once) == once
            assert once == brute_force_reduce(raw)
            u = random_word(rng, grig.alphabet, 10)
            v = random_word(rng, grig.alphabet, 10)
            assert sigma.apply(u * v) == sigma.apply(u) * sigma.apply(v)
        report(7, True, "1000 random reduction and substitution cases")

    def test_order_axioms_and_breadth_first_realization(self):
        # endomorphism words in a family of two, factor tuples, breadth first
        # with each factor prepended in family order as the validity walk does
        words = breadth_first_words(2, 6)
        assert len(words) == 2**7 - 1
        keys = [walk_order_key(w) for w in words]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        sample = keys[:40]
        for u, v in itertools.combinations(sample, 2):
            assert (u < v) != (v < u)
        for u, v, w in itertools.combinations(sorted(sample), 3):
            assert u < v and v < w and u < w
        report(7, True, "ordering axioms and breadth-first realization, 127 words")

    def test_reduction_relation_reflexive_and_transitive(self, bas, bas_index3_rep):
        words = [sigma_power(k) for k in range(6)]
        for w in words:
            assert reduces(bas, w, w, bas_index3_rep) is True
        for d, e, f in itertools.product(words, repeat=3):
            if reduces(bas, d, e, bas_index3_rep) and reduces(bas, e, f, bas_index3_rep):
                assert reduces(bas, d, f, bas_index3_rep) is True
        report(7, True, "reduction relation reflexivity and transitivity samples")

    def test_strategy_independence_on_ten_fixtures(self):
        fixtures = enumeration_fixtures()
        assert len(fixtures) == 10
        for name, fp, sub in fixtures:
            felsch = felsch_todd_coxeter(fp, sub)
            hlt = todd_coxeter(fp, sub)
            assert standardize(felsch).rows == standardize(hlt).rows, name
        report(7, True, "identical standardized tables on 10 fixtures")

    def test_low_index_level_invariance(self, bas):
        baseline = [e.subgroup.table.rows for e in low_index(bas, 4, level=1).entries]
        for level in (0, 2):
            got = [e.subgroup.table.rows for e in low_index(bas, 4, level=level).entries]
            assert got == baseline
        report(7, True, "low-index output equal at covering levels 0, 1, 2")

    def test_brute_force_low_index_oracle(self, bas):
        oracle = {
            t.rows
            for t in fold_and_dedup(bas, transitive_tables_by_exhaustion(bas, 3, 2))
        }
        got = {e.subgroup.table.rows for e in low_index(bas, 3).entries}
        assert got == oracle
        report(7, True, "exhaustive transitive-table oracle matches low-index, n <= 3")


def test_criterion_8_burnside_sanity():
    start = time.perf_counter()
    code, out, _ = run_cli("index", "builtin:burnside(1,3)", "--subgroup", "")
    elapsed = time.perf_counter() - start
    ok = code == 0 and "index: 3" in out and elapsed < 1.0
    report(8, ok, f"trivial subgroup of burnside(1,3) has index 3 in {elapsed:.3f}s")


GRIGORCHUK_COUNTS_TO_16 = {1: 1, 2: 7, 4: 31, 8: 183, 16: 1827}


@pytest.mark.stretch
def test_stretch_grigorchuk_index_16(grig):
    # level 2 keeps the candidate list near the true subgroup count; level 1
    # explodes combinatorially at this size
    slist = mark_normal_and_maximal(low_index(grig, 16, level=2))
    assert slist.counts() == GRIGORCHUK_COUNTS_TO_16
    assert slist.normal_counts() == {1: 1, 2: 7, 4: 7, 8: 7, 16: 5}


@pytest.mark.stretch
def test_stretch_grigorchuk_index_24(grig):
    # The oracle does not depend on the library: the Grigorchuk group is a
    # 2-group, so every finite index is a power of 2, and no power of 2
    # lies between 16 and 24; the counts up to 16 are the published ones
    # above.  Level 2 as there; level 1 takes about a minute at this size,
    # so the level invariance of the output is checked at smaller indexes
    # only.
    assert low_index(grig, 24, level=2).counts() == GRIGORCHUK_COUNTS_TO_16


@pytest.mark.stretch
def test_stretch_basilica_through_index_12(bas):
    slist = mark_normal_and_maximal(low_index(bas, 12))
    subgroups = [1, 3, 7, 19, 11, 39, 15, 163, 115, 83, 23, 355]
    normal = [1, 3, 4, 7, 6, 13, 8, 19, 13, 19, 12, 31]
    maximal = [3, 7, 0, 11, 0, 15, 0, 9, 0, 23, 0]
    counts = slist.counts()
    normals = slist.normal_counts()
    maximals = slist.maximal_counts()
    assert [counts.get(i, 0) for i in range(1, 13)] == subgroups
    assert [normals.get(i, 0) for i in range(1, 13)] == normal
    assert [maximals.get(i, 0) for i in range(2, 13)] == maximal
