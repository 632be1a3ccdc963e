"""Oracle-style helpers shared by the unit tests and the acceptance suite.

Everything here recomputes expected values by a route independent of the
code path under test: brute-force closures, exhaustive searches over
permutation assignments, and partition refinement.
"""

from __future__ import annotations

import itertools
import random

from lpcoset import (
    CosetTable,
    EndoWord,
    Permutation,
    PermutationRep,
    SubgroupSpec,
    fold_to_valid,
    standardize,
    word_image,
)
from lpcoset.coset_enum import table_from_rep
from lpcoset.words import Word


def sigma_power(lp, k: int) -> EndoWord:
    """The k-th power of the single endomorphism of ``lp`` as an endomorphism word."""
    return EndoWord(lp.alphabet, lp.endomorphisms, (0,) * k)


def random_raw_letters(rng: random.Random, ngens: int, max_len: int) -> list[int]:
    length = rng.randrange(max_len + 1)
    return [rng.choice([1, -1]) * rng.randrange(1, ngens + 1) for _ in range(length)]


def random_word(rng: random.Random, alphabet, max_len: int) -> Word:
    return Word.reduce(alphabet, random_raw_letters(rng, len(alphabet), max_len))


def brute_force_reduce(letters) -> tuple[int, ...]:
    """Quadratic cancellation: rescan from the start after every hit."""
    out = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i] == -out[i + 1]:
                del out[i : i + 2]
                changed = True
                break
    return tuple(out)


def congruence_quotient_size(table: CosetTable, seed_pairs) -> int:
    """Partition refinement oracle for coincidence processing.

    Starts from the seeded identifications and closes under the action:
    whenever two cosets are identified, so are their images under every
    column.  Returns the number of classes.
    """
    n = table.size
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        x, y = find(x), find(y)
        if x != y:
            parent[max(x, y)] = min(x, y)
            return True
        return False

    pending = list(seed_pairs)
    while pending:
        c, d = pending.pop()
        if not union(c, d):
            continue
        changed = True
        while changed:
            changed = False
            for a in range(1, n + 1):
                for col in range(2 * len(table.alphabet)):
                    b = table.rows[a - 1][col]
                    ra, rb = find(a), find(b)
                    for a2 in range(1, n + 1):
                        if find(a2) == ra and a2 != a:
                            b2 = table.rows[a2 - 1][col]
                            if union(b2, b):
                                changed = True
    return len({find(c) for c in range(1, n + 1)})


def transitive_tables_by_exhaustion(lp, max_index: int, level: int):
    """Every transitive coset table of degree <= max_index satisfying the
    covering relators, found by trying all tuples of permutations."""
    fp = lp.covering(level)
    ngens = len(lp.alphabet)
    found = []
    for degree in range(1, max_index + 1):
        perms = [
            Permutation(tuple(p))
            for p in itertools.permutations(range(1, degree + 1))
        ]
        for choice in itertools.product(perms, repeat=ngens):
            rep = PermutationRep(lp.alphabet, degree, choice)
            seen = {1}
            frontier = [1]
            while frontier:
                c = frontier.pop()
                for p in choice:
                    for d in (p.apply(c), p.inverse().apply(c)):
                        if d not in seen:
                            seen.add(d)
                            frontier.append(d)
            if len(seen) != degree:
                continue
            if any(not word_image(rep, r).is_identity for r in fp.relators):
                continue
            found.append(standardize(table_from_rep(rep)))
    unique = []
    keys = set()
    for t in found:
        if t.rows not in keys:
            keys.add(t.rows)
            unique.append(t)
    return unique


def reroot(table: CosetTable, root: int) -> CosetTable:
    """The standardized table of the same action with ``root`` as coset 1:
    the table of the conjugate subgroup stabilizing ``root``."""
    swap = {1: root, root: 1}
    rows = []
    for c in range(1, table.size + 1):
        rows.append(tuple(swap.get(d, d) for d in table.rows[swap.get(c, c) - 1]))
    return standardize(CosetTable(table.alphabet, tuple(rows)))


def fold_and_dedup(lp, tables, cap: int = 10**5):
    folded = []
    keys = set()
    for t in tables:
        ft, _ = fold_to_valid(lp, t, cap)
        if ft.rows not in keys:
            keys.add(ft.rows)
            folded.append(ft)
    return folded


def enumeration_fixtures():
    """Ten (presentation name, finite presentation, subgroup) triples used
    for the strategy-independence checks."""
    from lpcoset import basilica, grigorchuk, parse_words
    from lpcoset.presentations import FinitePresentation, parse_word
    from lpcoset.words import Alphabet

    out = []

    def add(name, fp, sub_words):
        out.append((name, fp, SubgroupSpec(fp.alphabet, tuple(sub_words))))

    a1 = Alphabet(("a",))
    add("cyclic9", FinitePresentation(a1, (parse_word(a1, "a^9"),)), [])
    a2 = Alphabet(("a", "b"))
    add(
        "s3",
        FinitePresentation(a2, tuple(parse_words(a2, "a^2 b^3 (a*b)^2"))),
        [],
    )
    add(
        "d8",
        FinitePresentation(a2, tuple(parse_words(a2, "a^2 b^4 (a*b)^2"))),
        [parse_word(a2, "b")],
    )
    add(
        "quaternion",
        FinitePresentation(a2, tuple(parse_words(a2, "a^4 a^2*b^-2 b^-1*a*b*a"))),
        [],
    )
    add(
        "free_abelian_mod",
        FinitePresentation(a2, tuple(parse_words(a2, "[a,b] a^4 b^6"))),
        [parse_word(a2, "a*b")],
    )
    bas = basilica()
    add("basilica_l0", bas.covering(0), parse_words(bas.alphabet, "a^3, b, a*b*a"))
    add("basilica_l1", bas.covering(1), parse_words(bas.alphabet, "a^3, b, a*b*a"))
    add(
        "basilica_core_l0",
        bas.covering(0),
        parse_words(
            bas.alphabet,
            "b^2, a^3, a^2*b*a^-1*b^-1, a*b*a*b^-1, a*b^2*a^-1, b*a^2*b^-1*a^-1, b*a*b*a^-2",
        ),
    )
    grig = grigorchuk()
    add(
        "grig_l0",
        grig.covering(0),
        parse_words(grig.alphabet, "b, c, d, a*b*a, a*c*a, a*d*a"),
    )
    add("grig_l1", grig.covering(1), parse_words(grig.alphabet, "b, c, a*d"))
    return out
