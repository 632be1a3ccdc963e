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
    InvalidWitness,
    Permutation,
    PermutationRep,
    SubgroupSpec,
    ValidityOutcome,
    cyclic_reduction_pair,
    dump_table,
    fold_to_valid,
    standardize,
    word_image,
)
from lpcoset.coset_enum import (
    DEFAULT_MAX_COSETS,
    _col_word,
    _Engine,
    _Overflow,
    _prepared_relators,
    _rotation_index,
    _verify_closed,
    table_from_rep,
)
from lpcoset.subgroups import _low_index_tables, _split_relators
from lpcoset.words import Word, _require_same_alphabet


def sigma_power(lp, k: int) -> EndoWord:
    """The k-th power of the single endomorphism of ``lp`` as an endomorphism word."""
    return EndoWord(lp.alphabet, lp.endomorphisms, (0,) * k)


def shortcut_validity(lp, phi: PermutationRep, cap: int = 10**5) -> ValidityOutcome:
    """Validity of ``phi`` for a one-endomorphism family by the reduction
    pair: find (i, j) with :func:`cyclic_reduction_pair`, then test the
    iterated relators at the powers 1..j-1 only.  ``phi`` must kill every
    relator at the identity.  Reference for the monoid walk's pruning,
    which must reach the same verdict, witness and reduction pair."""
    i, j = cyclic_reduction_pair(lp, phi, cap)
    powers = tuple(sigma_power(lp, k) for k in range(j))
    rep = phi
    checks = []
    for k in range(1, j):
        rep = rep.precompose(lp.endomorphisms[0])
        checks.append(powers[k])
        for r in lp.iterated:
            img = word_image(rep, r)
            if not img.is_identity:
                coset = next(c for c in range(1, img.degree + 1) if img.apply(c) != c)
                witness = InvalidWitness(r, powers[k], img, coset)
                return ValidityOutcome(False, witness, powers, tuple(checks), (i, j))
    return ValidityOutcome(True, None, powers, tuple(checks), (i, j))


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


def conjugates(table: CosetTable) -> set:
    """Rows of the distinct re-rootings of a closed standardized table: the
    tables of the conjugates of its subgroup."""
    return {reroot(table, c).rows for c in range(1, table.size + 1)}


def low_index_classes(fp, max_index: int, max_tables: int | None = None):
    """The library's descent over ``fp`` with the relators split as
    ``low_index`` splits them: ([(representative, class size)], capped)."""
    scanned, deferred = _split_relators(fp, max_index)
    return _low_index_tables(fp.alphabet, max_index, scanned, deferred, max_tables)


def fold_and_dedup(lp, tables, cap: int = 10**5):
    folded = []
    keys = set()
    for t in tables:
        ft, _ = fold_to_valid(lp, t, cap)
        if ft.rows not in keys:
            keys.add(ft.rows)
            folded.append(ft)
    return folded


def plain_low_index_tables(fp, max_index: int) -> list[CosetTable]:
    """The low-index descent without classes or deferred relators: every
    relator of ``fp`` is scanned after every deduction, and each complete
    table is kept.  Reference for the library's ``_low_index_tables``."""
    ncols = 2 * len(fp.alphabet)
    rot_by_col = _rotation_index(ncols, _prepared_relators(fp))
    tab = [0] * ((max_index + 2) * ncols)
    results = []

    def scan(a, w, trail, queue):
        # follow w forwards from a, then backwards, as far as defined
        f, i = a, 0
        while i < len(w) and tab[f * ncols + w[i]]:
            f = tab[f * ncols + w[i]]
            i += 1
        if i == len(w):
            return f == a
        b, j = a, len(w)
        while j > i and tab[b * ncols + (w[j - 1] ^ 1)]:
            b = tab[b * ncols + (w[j - 1] ^ 1)]
            j -= 1
        if j == i:
            return f == b
        if j == i + 1:
            s1, s2 = f * ncols + w[i], b * ncols + (w[i] ^ 1)
            tab[s1], tab[s2] = b, f
            trail += [s1, s2]
            queue.append((f, w[i]))
        return True

    def propagate(queue, trail):
        for a, col in queue:  # the queue grows while it is walked
            for w in rot_by_col[col]:
                if not scan(a, w, trail, queue):
                    return False
            for w in rot_by_col[col ^ 1]:
                if not scan(tab[a * ncols + col], w, trail, queue):
                    return False
        return True

    def descend(n):
        slot = next(
            (
                (c, col)
                for c in range(1, n + 1)
                for col in range(0, ncols, 2)
                if tab[c * ncols + col] == 0
            ),
            None,
        )
        if slot is None:
            rows = tuple(tuple(tab[r * ncols : (r + 1) * ncols]) for r in range(1, n + 1))
            results.append(CosetTable(fp.alphabet, rows))
            return
        a, col = slot
        targets = [b for b in range(1, n + 1) if tab[b * ncols + (col ^ 1)] == 0]
        if n < max_index:
            targets.append(n + 1)
        for b in targets:
            s1, s2 = a * ncols + col, b * ncols + (col ^ 1)
            tab[s1], tab[s2] = b, a
            trail = [s1, s2]
            if propagate([(a, col)], trail):
                descend(max(n, b))
            for s in trail:
                tab[s] = 0

    descend(1)
    return results


def contains_by_generators(v, u) -> bool:
    """Is u a subgroup of v?  Every Schreier generator of u must lie in v.
    Reference for ``contains_subgroup``, which walks the tables instead."""
    return all(v.contains(g) for g in u.generators)


def is_normal_table(table: CosetTable) -> bool:
    """Normal exactly when re-rooting at every coset gives the same table."""
    return all(reroot(table, c).rows == table.rows for c in range(1, table.size + 1))


def plain_low_index(lp, max_index: int, level: int) -> list[CosetTable]:
    """Every candidate of the plain descent folded on its own, deduplicated
    and sorted like ``low_index``'s entries."""
    tables = plain_low_index_tables(lp.covering(level), max_index)
    return sorted(
        fold_and_dedup(lp, tables), key=lambda t: (t.size, dump_table(t).encode())
    )


class _FelschEngine(_Engine):
    """The enumeration engine with a deduction stack: every edge that
    ``define``, ``coincide`` or ``scan_fill`` establishes is pushed, and
    ``process_deductions`` scans every relator rotation through it."""

    def __init__(self, ncols: int, max_cosets: int):
        super().__init__(ncols, max_cosets)
        self.deductions: list[tuple[int, int]] = []

    def define(self, a, col):
        b = super().define(a, col)
        self.deductions.append((a, col))
        return b

    def coincide(self, a, b):
        queue = []
        self._merge(a, b, queue)
        i = 0
        while i < len(queue):
            dead = queue[i]
            i += 1
            row = self.tab[dead]
            for col in range(self.ncols):
                f = row[col]
                if f == 0:
                    continue
                row[col] = 0
                if self.tab[f][col ^ 1] == dead:
                    self.tab[f][col ^ 1] = 0
                mu = self.find(dead)
                nu = self.find(f)
                t = self.tab[mu][col]
                if t != 0:
                    self._merge(nu, t, queue)
                else:
                    t = self.tab[nu][col ^ 1]
                    if t != 0:
                        self._merge(mu, t, queue)
                    else:
                        self.tab[mu][col] = nu
                        self.tab[nu][col ^ 1] = mu
                self.deductions.append((mu, col))

    def scan(self, a, w):
        """Trace the cycle ``w`` based at ``a``; deduce or coincide, never
        define."""
        tab = self.tab
        f, i, r = a, 0, len(w)
        while i < r and tab[f][w[i]]:
            f = tab[f][w[i]]
            i += 1
        if i == r:
            if f != a:
                self.coincide(f, a)
            return
        b, j = a, r
        while j > i and tab[b][w[j - 1] ^ 1]:
            b = tab[b][w[j - 1] ^ 1]
            j -= 1
        if j == i:
            if f != b:
                self.coincide(f, b)
        elif j == i + 1:
            tab[f][w[i]] = b
            tab[b][w[i] ^ 1] = f
            self.deductions.append((f, w[i]))

    def scan_fill(self, a, w):
        tab = self.tab
        f, i = a, 0
        b, j = a, len(w)
        while True:
            while i < j and tab[f][w[i]]:
                f = tab[f][w[i]]
                i += 1
            if i == j:
                if f != b:
                    self.coincide(f, b)
                return
            while j > i and tab[b][w[j - 1] ^ 1]:
                b = tab[b][w[j - 1] ^ 1]
                j -= 1
            if j == i:
                if f != b:
                    self.coincide(f, b)
                return
            if j == i + 1:
                tab[f][w[i]] = b
                tab[b][w[i] ^ 1] = f
                self.deductions.append((f, w[i]))
                return
            f = self.define(f, w[i])
            i += 1

    def process_deductions(self, rot_by_col):
        while self.deductions:
            a, col = self.deductions.pop()
            if self.p[a] == a:
                for w in rot_by_col[col]:
                    self.scan(a, w)
                    if self.p[a] != a:
                        break
            if self.p[a] != a:
                continue
            b = self.tab[a][col]
            if b and self.p[b] == b:
                for w in rot_by_col[col ^ 1]:
                    self.scan(b, w)
                    if self.p[b] != b:
                        break


def felsch_todd_coxeter(fp, sub, *, max_cosets: int = DEFAULT_MAX_COSETS):
    """Deduction-driven (Felsch) Todd-Coxeter: cosets are defined in row
    order, and the consequences of each new edge are propagated through
    every relator rotation before the next definition.  Reference for the
    library's relator-driven ``todd_coxeter``; None on overflow."""
    _require_same_alphabet(fp.alphabet, sub.alphabet)
    eng = _FelschEngine(2 * len(fp.alphabet), max_cosets)
    rot_by_col = _rotation_index(eng.ncols, _prepared_relators(fp))
    try:
        for g in sub.generators:
            w = _col_word(g)
            if w:
                eng.scan_fill(1, w)
                eng.process_deductions(rot_by_col)
        a = 1
        while a < len(eng.tab):
            if eng.p[a] == a:
                for col in range(eng.ncols):
                    if eng.p[a] != a:
                        break
                    if eng.tab[a][col] == 0:
                        eng.define(a, col)
                        eng.process_deductions(rot_by_col)
            a += 1
    except _Overflow:
        return None
    table = eng.snapshot(fp.alphabet)
    _verify_closed(table, fp, sub)
    return table


def enumeration_fixtures():
    """Ten (presentation name, finite presentation, subgroup) triples on
    which ``todd_coxeter`` is checked against ``felsch_todd_coxeter``."""
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
