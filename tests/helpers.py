"""Oracle-style helpers shared by the unit tests and the acceptance suite.

Everything here recomputes expected values by a route independent of the
code path under test: brute-force closures, exhaustive searches over
permutation assignments, and partition refinement.
"""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction
from math import factorial, prod
from typing import Iterable, Sequence
from unittest import mock

from lpcoset import (
    CosetTable,
    FreeEndomorphism,
    ImageGroup,
    InvalidWitness,
    Permutation,
    PermutationRep,
    SubgroupSpec,
    ValidityOutcome,
    dump_table,
    enumerate_cosets,
    fold_to_valid,
    image_group,
    kernel_contained,
    standardize,
    todd_coxeter,
    word_image,
)
from lpcoset import coset_enum, pipeline
from lpcoset.coset_enum import (
    DEFAULT_MAX_COSETS,
    _col_word,
    _cyclically_reduce,
    _closed_table,
    _prepared_relators,
    _verify_closed,
)
from lpcoset.perms import _closure
from lpcoset.presentations import MAX_WORD_LETTERS, FinitePresentation
from lpcoset.errors import InputError, ParseError, PreconditionError, ResourceLimitError
from lpcoset.subgroups import _low_index_tables, _split_relators
from lpcoset.words import Alphabet, Word, _require_same_alphabet, commutator


def sigma_power(k: int) -> tuple[int, ...]:
    """The k-th power of the single endomorphism of a presentation as an
    endomorphism word, the tuple of its factors."""
    return (0,) * k


def walk_order_key(factors: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Key of the validity walk's order on endomorphism words: length, then
    lexicographic from the rightmost factor."""
    return (len(factors), tuple(reversed(factors)))


def breadth_first_words(size: int, max_len: int) -> list[tuple[int, ...]]:
    """Every word of at most ``max_len`` factors in a family of ``size``
    endomorphisms, breadth first with each factor prepended in family
    order, as the validity walk extends a kept word."""
    words = [()]
    for factors in words:
        if len(factors) < max_len:
            words.extend((k, *factors) for k in range(size))
    return words


def identity_endomorphism(alphabet) -> FreeEndomorphism:
    """The endomorphism that maps every generator to itself."""
    return FreeEndomorphism(
        alphabet, tuple(Word.generator(alphabet, i + 1) for i in range(len(alphabet)))
    )


def compose(e: FreeEndomorphism, f: FreeEndomorphism) -> FreeEndomorphism:
    """The endomorphism that applies ``e`` first, then ``f``."""
    _require_same_alphabet(e.alphabet, f.alphabet)
    return FreeEndomorphism(e.alphabet, tuple(f.apply(img) for img in e.images))


def composite(lp, factors: tuple[int, ...]) -> FreeEndomorphism:
    """The free-group endomorphism of the word ``factors`` in the family of
    ``lp``: its factors composed, the leftmost applied first.  Reference for
    the factor-by-factor application of the validity walk and
    ``LPresentation.covering``."""
    comp = identity_endomorphism(lp.alphabet)
    for k in reversed(factors):
        comp = compose(lp.endomorphisms[k], comp)
    return comp


def endo_image(phi: PermutationRep, lp, factors: tuple[int, ...]) -> PermutationRep:
    """The representation of the composite of ``factors`` followed by
    ``phi``, built by peeling factors off the left.  Reference for the chain
    of :meth:`PermutationRep.precompose` calls that the validity walk
    makes."""
    _require_same_alphabet(phi.alphabet, lp.alphabet)
    rep = phi
    for k in reversed(factors):
        rep = rep.precompose(lp.endomorphisms[k])
    return rep


def reduces(
    lp, delta: tuple[int, ...], sigma: tuple[int, ...], phi: PermutationRep, cap: int = 1000
):
    """Does ``delta`` reduce to ``sigma`` under ``phi``, that is, does
    ker(sigma-then-phi) lie inside ker(delta-then-phi)?  ``None`` when the
    image-group enumeration overruns ``cap``."""
    target = endo_image(phi, lp, sigma)
    ig = image_group(target, cap)
    return None if ig is None else kernel_contained(target, endo_image(phi, lp, delta), ig)


def table_from_rep(rep: PermutationRep) -> CosetTable:
    """The closed table whose generator actions are the given permutations."""
    rows = []
    for c in range(1, rep.degree + 1):
        row = []
        for g in range(len(rep.alphabet)):
            row.append(rep.perms[g].apply(c))
            row.append(rep.perms[g].inverse().apply(c))
        rows.append(tuple(row))
    return CosetTable(rep.alphabet, tuple(rows))


def whole_group(alphabet) -> SubgroupSpec:
    """The subgroup generated by every generator."""
    return SubgroupSpec(
        alphabet, tuple(Word.generator(alphabet, i + 1) for i in range(len(alphabet)))
    )


def trivial_rep(alphabet, degree: int = 1) -> PermutationRep:
    """Every generator acts as the identity on ``degree`` points."""
    ident = Permutation.identity(degree)
    return PermutationRep(alphabet, degree, tuple(ident for _ in alphabet.names))


def replay_image_group(ig: ImageGroup, phi: PermutationRep):
    """``(elements, words)`` of the image group of ``phi`` rebuilt from
    ``ig.transitions``: element j is discovered by the first edge in
    breadth-first order that reaches j, and ``words[j]`` is the shortest
    positive word for element j, ties broken by generator order."""
    elements = [Permutation.identity(phi.degree)]
    words = [Word.identity(phi.alphabet)]
    for i, row in enumerate(ig.transitions):
        for g, j in enumerate(row):
            if j == len(elements):
                elements.append(elements[i] * phi.perms[g])
                words.append(Word(phi.alphabet, words[i].letters + (g + 1,)))
    return tuple(elements), tuple(words)


def probe_words(m: int) -> tuple[tuple[int, ...], ...]:
    """The letters of the probe words on ``m`` generators, in the order of
    ``PermutationRep.probe_orders``: each generator, x_i x_j and
    x_i x_j^-1 for i < j, then x_i x_j^2 for i != j."""
    words = [(i,) for i in range(1, m + 1)]
    pairs = [(i, j) for i in range(1, m + 1) for j in range(1, m + 1) if i != j]
    words += [w for i, j in pairs if i < j for w in ((i, j), (i, -j))]
    words += [(i, j, j) for i, j in pairs]
    return tuple(words)


def reference_reduction_pair(
    lp, phi: PermutationRep, cap: int = 10**5, cap_ceiling: int = 10**7
) -> tuple[int, int]:
    """The former search of ``pipeline.cyclic_reduction_pair``: for j = 1,
    2, ... and i < j, the first pair with equal generator images or the
    kernel of the i-th power inside the j-th power's, each image group
    enumerated at a cap doubled from ``cap`` until it completes, and
    :class:`ResourceLimitError` once it would pass ``cap_ceiling``.
    Reference for the validity walk's stop on the relator-free
    presentation."""
    if len(lp.endomorphisms) != 1:
        raise InputError("cyclic reduction needs exactly one endomorphism")
    if cap < 1:
        raise InputError("cap must be positive")
    sigma = lp.endomorphisms[0]
    reps = [phi]
    groups: dict[int, ImageGroup] = {}
    j = 0
    while True:
        reps.append(reps[-1].precompose(sigma))
        j += 1
        for i in range(j):
            if reps[i].generators == reps[j].generators:
                return (i, j)
            ig = groups.get(i)
            attempt = cap
            while ig is None:
                # a completed enumeration is the whole group, reusable at
                # any cap, so only failures force a retry
                ig = image_group(reps[i], attempt)
                if ig is None:
                    attempt *= 2
                    if attempt > cap_ceiling:
                        raise ResourceLimitError(
                            f"image-group enumeration exceeded the cap ceiling {cap_ceiling}"
                        )
            groups[i] = ig
            if kernel_contained(reps[i], reps[j], ig):
                return (i, j)


def shortcut_validity(lp, phi: PermutationRep, cap: int = 10**5) -> ValidityOutcome:
    """Validity of ``phi`` for a one-endomorphism family by the reduction
    pair: find (i, j) with :func:`reference_reduction_pair`, then test the
    iterated relators at the powers 1..j-1 only.  ``phi`` must kill every
    relator at the identity.  Reference for the monoid walk's pruning,
    which must reach the same verdict, witness and reduction pair."""
    i, j = reference_reduction_pair(lp, phi, cap)
    powers = tuple(sigma_power(k) for k in range(j))
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


def reference_validity_walk(lp, phi: PermutationRep, cap: int = 10**5) -> ValidityOutcome:
    """The validity walk that never settles: a dequeued word whose
    tables differ from every kept word's is kernel-tested against every
    kept word in walk order, each kept word's image group built at its
    first test.  Reference for ``pipeline.is_valid_perm_rep``, which must
    give the same outcome, ``capped`` included."""
    for name, relators in (("fixed", lp.fixed), ("iterated", lp.iterated)):
        w = pipeline._relator_witness(relators, phi, ())
        if w is not None:
            raise PreconditionError(
                f"{name} relator {w.relator} is not in the kernel of the representation"
            )
    family = lp.endomorphisms
    visited = [((), phi)]
    groups: list[ImageGroup | None] = []
    by_images = {phi.generators: 0}
    queue = [((k,), phi) for k in range(len(family))]
    head = 0
    checks: list[tuple[int, ...]] = []
    witness = None
    pair = None
    while head < len(queue):
        delta, parent = queue[head]
        head += 1
        rep_d = parent.precompose(family[delta[0]])
        kept = by_images.get(rep_d.generators)
        if kept is None:
            for i, (_, sigma) in enumerate(visited):
                if i == len(groups):
                    groups.append(image_group(sigma, cap))
                if groups[i] is not None and kernel_contained(sigma, rep_d, groups[i]):
                    kept = i
                    break
        if kept is not None:
            if len(family) == 1:
                pair = (kept, len(delta))
            continue
        checks.append(delta)
        witness = pipeline._relator_witness(lp.iterated, rep_d, delta)
        if witness is not None:
            break
        by_images[rep_d.generators] = len(visited)
        visited.append((delta, rep_d))
        queue.extend(((k, *delta), rep_d) for k in range(len(family)))
    return ValidityOutcome(
        valid=witness is None,
        witness=witness,
        visited=tuple(endo for endo, _ in visited),
        relator_checks=tuple(checks),
        reduction_pair=pair,
        capped=groups.count(None),
    )


def random_raw_letters(rng: random.Random, ngens: int, max_len: int) -> list[int]:
    length = rng.randrange(max_len + 1)
    return [rng.choice([1, -1]) * rng.randrange(1, ngens + 1) for _ in range(length)]


def random_word(rng: random.Random, alphabet, max_len: int) -> Word:
    return Word.reduce(alphabet, random_raw_letters(rng, len(alphabet), max_len))


def checked_word_letters(alphabet: Alphabet, letters) -> tuple[int, ...]:
    """The former checks of ``Word.__post_init__``: every letter valid
    for the alphabet, then no adjacent inverse pair; raises the same
    :class:`InputError` messages.  Reference for its one-pass loop."""
    letters = tuple(letters)
    for x in letters:
        if not (isinstance(x, int) and x != 0 and abs(x) <= len(alphabet.names)):
            raise InputError(f"letter {x} out of range for {alphabet.names}")
    for a, b in zip(letters, letters[1:]):
        if a == -b:
            raise InputError(f"word {letters} is not freely reduced")
    return letters


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


def reference_standardize(table: CosetTable, base: int = 1) -> CosetTable:
    """The former ``coset_enum.standardize``, with its own breadth-first
    loop.  Reference for the closure it now shares with ``image_group``."""
    n = table.size
    if not 1 <= base <= n:
        raise InputError(f"coset {base} out of range 1..{n}")
    ngens = len(table.alphabet)
    newid = {base: 1}
    order = [base]
    i = 0
    while i < len(order):
        c = order[i]
        i += 1
        for g in range(ngens):
            d = table.rows[c - 1][2 * g]
            if d not in newid:
                newid[d] = len(order) + 1
                order.append(d)
    if len(order) != n:
        raise PreconditionError(f"table is not transitive from coset {base}")
    rows: list[tuple[int, ...]] = [()] * n
    for c in range(1, n + 1):
        rows[newid[c] - 1] = tuple(newid[d] for d in table.rows[c - 1])
    return CosetTable(table.alphabet, tuple(rows))


def reference_intersect_table(u_table: CosetTable, v_table: CosetTable) -> CosetTable:
    """The table the former ``subgroups.intersect`` built: the action on
    pairs of cosets reachable from (1, 1), numbered breadth-first."""
    ngens = len(u_table.alphabet)
    index_of = {(1, 1): 1}
    order = [(1, 1)]
    rows: list[list[int]] = []
    i = 0
    while i < len(order):
        c, d = order[i]
        i += 1
        row = [0] * (2 * ngens)
        for g in range(ngens):
            target = (u_table.rows[c - 1][2 * g], v_table.rows[d - 1][2 * g])
            t = index_of.get(target)
            if t is None:
                t = len(order) + 1
                index_of[target] = t
                order.append(target)
            row[2 * g] = t
        rows.append(row)
    for c, row in enumerate(rows, start=1):
        for g in range(ngens):
            rows[row[2 * g] - 1][2 * g + 1] = c
    return CosetTable(u_table.alphabet, tuple(tuple(r) for r in rows))


def reference_core_table(rep: PermutationRep, cap: int) -> CosetTable:
    """The table the former ``subgroups.core`` built from the image group
    of ``rep``: the group acting on itself by right multiplication."""
    ig = image_group(rep, cap)
    if ig is None:
        raise ResourceLimitError(
            f"image group of the coset action exceeds {cap} elements"
        )
    ngens = len(rep.alphabet)
    rows: list[list[int]] = [[0] * (2 * ngens) for _ in range(ig.order)]
    for i, row in enumerate(ig.transitions):
        for g in range(ngens):
            rows[i][2 * g] = row[g] + 1
            rows[row[g]][2 * g + 1] = i + 1
    return CosetTable(rep.alphabet, tuple(tuple(r) for r in rows))


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
    ``low_index`` splits them, read class by class until the next class
    would pass ``max_tables`` tables, conjugates included: ([(representative,
    class size)], capped).  The descent knows no budget, so this cap is the
    helper's own; ``low_index`` applies the library's."""
    scanned, deferred = _split_relators(fp, max_index)
    classes = []
    total = 0
    for table, size in _low_index_tables(fp.alphabet, max_index, scanned, deferred):
        if max_tables is not None and total + size > max_tables:
            return classes, True
        total += size
        classes.append((table, size))
    return classes, False


class _SearchCapped(Exception):
    pass


def row_major_rotation_index(ncols: int, relators: Iterable[tuple[int, ...]]):
    """Rotations of each relator and its inverse, bucketed by first column:
    ``buckets[col]`` holds every relator cycle through an edge in column
    ``col``, read forwards from the edge's source."""
    buckets: list[list[tuple[int, ...]]] = [[] for _ in range(ncols)]
    seen: list[set] = [set() for _ in range(ncols)]
    for w in relators:
        for u in (w, tuple(c ^ 1 for c in reversed(w))):
            for i in range(len(u)):
                rot = u[i:] + u[:i]
                if rot not in seen[rot[0]]:
                    seen[rot[0]].add(rot)
                    buckets[rot[0]].append(rot)
    return buckets


def row_major_low_index_tables(
    alphabet: Alphabet,
    max_index: int,
    scanned: Sequence[tuple[int, ...]],
    deferred: Sequence[tuple[int, ...]],
    max_tables: int | None = None,
    blocked: list | None = None,
) -> tuple[list[tuple[CosetTable, int]], bool]:
    """The low-index descent on one flat row-major table, as the library ran
    it before the table became one list per column: reference for
    ``subgroups._low_index_tables``, which must give the same
    representatives, class sizes, order and ``capped`` flag.  It still
    compares every undecided root from coset 1, so it is the differential
    reference for the library's skip of a root whose comparison stopped at
    an entry that is still undefined.

    Given a list ``blocked``, it also checks the invariant that skip rests
    on.  Each undecided root keeps the place where its comparison stopped,
    as (row, column, flat index of the undefined entry); at every
    descendant node where that entry is still undefined, the full
    comparison must stop at the same place, or an ``AssertionError`` is
    raised.  Each place so checked is appended to ``blocked``.

    The least standardized closed table of each conjugacy class of those
    over ``alphabet`` with at most ``max_index`` cosets satisfying the
    relators ``scanned`` and ``deferred`` (see ``_split_relators``).

    Returns ([(representative, class size), ...], capped).  Descent order:
    locate the first undefined slot scanning rows then generators; try
    every existing coset whose matching inverse slot is free, then one
    fresh coset, so the leaves come out in lexicographic order of their
    generator columns.  Consequences of the scanned relators propagate
    through rotation scans; a scan that closes wrongly kills the branch,
    since the merged table is found on another branch with the smaller
    assignment made directly.  Each new edge a -col-> b is scanned once per
    relator cycle through it, forwards from a: the rotation index holds the
    inverse relators too, so a cycle that crosses the edge backwards is in
    ``rot_by_col[col]`` read the other way, and a scan that meets in the
    middle deduces the same entry from either end.

    After each propagation the partial table is compared with itself
    re-rooted at cosets c >= 2 (Sims, *Computation with Finitely
    Presented Groups*, 1994, section 5.6): cosets are renumbered
    breadth-first from c and rows compared in row-major order over the
    generator columns, up to the first entry undefined on either side.  A
    re-rooting that is smaller there is smaller in every completion, so
    the branch is cut.  One that is larger at a defined entry stays larger
    in every completion, since entries are only added below a node, so it
    is dropped for the whole subtree; only the roots still undecided (an
    undefined entry came first) and each fresh coset are compared again
    further down.  At a complete table every remaining root is decided,
    and those that tie all the way give the class size, n / (1 + ties).
    A complete table is kept when the deferred relators close at every
    coset, which holds for all of its conjugates or none.  ``max_tables``
    counts complete tables, conjugates included, and the search stops
    before the class that would pass it.
    """
    if not 1 <= max_index <= DEFAULT_MAX_COSETS:
        raise InputError(f"max_index must be in 1..{DEFAULT_MAX_COSETS}, the coset ceiling")
    if max_tables is not None and max_tables < 0:
        raise InputError("max_tables must be >= 0")
    ngens = len(alphabet)
    ncols = 2 * ngens
    rot_by_col = row_major_rotation_index(ncols, scanned)
    tab = [0] * ((max_index + 2) * ncols)
    results: list[tuple[CosetTable, int]] = []
    capped = False
    total = 0
    poscols = [2 * g for g in range(ngens)]

    def scan(a: int, w: tuple[int, ...], trail: list[int], queue: list) -> bool:
        f = a
        i = 0
        r = len(w)
        while i < r:
            t = tab[f * ncols + w[i]]
            if t == 0:
                break
            f = t
            i += 1
        else:
            return f == a
        b = a
        j = r
        while j > i:
            t = tab[b * ncols + (w[j - 1] ^ 1)]
            if t == 0:
                break
            b = t
            j -= 1
        if j == i:
            return f == b
        if j == i + 1:
            col = w[i]
            s1 = f * ncols + col
            s2 = b * ncols + (col ^ 1)
            tab[s1] = b
            tab[s2] = f
            trail.append(s1)
            trail.append(s2)
            queue.append((f, col))
        return True

    def propagate(queue: list, trail: list[int]) -> bool:
        qi = 0
        while qi < len(queue):
            a, col = queue[qi]
            qi += 1
            for w in rot_by_col[col]:
                if not scan(a, w, trail, queue):
                    return False
        return True

    def compare_rerooted(root: int) -> int | tuple[int, int, int]:
        """-1 when the table re-rooted at ``root`` is smaller at the first
        entry where the two differ, 1 when it is larger there, 0 when they
        agree everywhere; when an undefined entry comes first, the place
        where the comparison stopped, as (row, column, flat index of the
        undefined entry)."""
        newid = [0] * (n + 1)
        newid[root] = 1
        order = [0, root]
        for r in range(1, n + 1):
            src = order[r] * ncols
            dst = r * ncols
            for col in poscols:
                t = tab[src + col]
                u = tab[dst + col]
                if t == 0 or u == 0:
                    return r, col, (dst if t else src) + col
                m = newid[t]
                if m == 0:
                    m = newid[t] = len(order)
                    order.append(t)
                if m != u:
                    return -1 if m < u else 1
        return 0

    def closes_everywhere(w: tuple[int, ...]) -> bool:
        for a in range(1, n + 1):
            f = a
            for col in w:
                f = tab[f * ncols + col]
            if f != a:
                return False
        return True

    n = 1

    def descend(
        c0: int, g0: int, roots: list[tuple[int, tuple | None]], ties: int
    ) -> None:
        nonlocal n, capped, total
        c, gi = c0, g0
        slot = None
        while c <= n:
            base = c * ncols
            while gi < ngens:
                if tab[base + poscols[gi]] == 0:
                    slot = (c, poscols[gi])
                    break
                gi += 1
            if slot:
                break
            c += 1
            gi = 0
        if slot is None:
            if not all(closes_everywhere(w) for w in deferred):
                return
            if not all(closes_everywhere(w) for w in scanned):
                raise RuntimeError("low-index search produced an inconsistent table")
            size = n // (1 + ties)
            if max_tables is not None and total + size > max_tables:
                capped = True
                raise _SearchCapped
            total += size
            rows = tuple(
                tuple(tab[r * ncols : r * ncols + ncols]) for r in range(1, n + 1)
            )
            results.append((CosetTable(alphabet, rows), size))
            return
        a, col = slot
        invcol = col ^ 1
        candidates = [b for b in range(1, n + 1) if tab[b * ncols + invcol] == 0]
        fresh = n < max_index
        for b in candidates + ([n + 1] if fresh else []):
            is_new = b > n
            if is_new:
                n += 1
            s1 = a * ncols + col
            s2 = b * ncols + invcol
            tab[s1] = b
            tab[s2] = a
            trail = [s1, s2]
            if propagate([(a, col)], trail):
                undecided = []
                ties = 0
                for root, stop in (roots + [(b, None)] if is_new else roots):
                    verdict = compare_rerooted(root)
                    if blocked is not None and stop and not tab[stop[2]]:
                        assert verdict == stop, (
                            f"root {root} stopped at {stop} and, with that entry"
                            f" still undefined, at {verdict} further down"
                        )
                        blocked.append(stop)
                    if isinstance(verdict, tuple):
                        undecided.append((root, verdict))
                    elif verdict < 0:
                        break
                    elif verdict == 0:
                        ties += 1
                else:
                    descend(c, gi, undecided, ties)
            for s in trail:
                tab[s] = 0
            if is_new:
                n -= 1

    try:
        descend(1, 0, [], 0)
    except _SearchCapped:
        pass
    return results, capped


def row_major_low_index_classes(
    fp, max_index: int, max_tables: int | None = None, blocked: list | None = None
):
    """``low_index_classes`` run through the row-major reference descent."""
    scanned, deferred = _split_relators(fp, max_index)
    return row_major_low_index_tables(
        fp.alphabet, max_index, scanned, deferred, max_tables, blocked
    )


def fold_and_dedup(lp, tables, cap: int = 10**5):
    folded = []
    keys = set()
    for t in tables:
        ft, _ = fold_to_valid(lp, t, cap)
        if ft.rows not in keys:
            keys.add(ft.rows)
            folded.append(ft)
    return folded


def fold_every_coset(lp, reps, cap: int = 10**5) -> list[CosetTable]:
    """Each representative's fold re-rooted at every one of its cosets,
    repeats included.  Reference for ``_fold_by_class``, which re-roots
    the fold once per conjugate."""
    folds = []
    for t in reps:
        folded, _ = fold_to_valid(lp, t, cap)
        folds.append(folded)
        folds.extend(standardize(folded, base=d) for d in range(2, folded.size + 1))
    return folds


def plain_low_index_tables(fp, max_index: int) -> list[CosetTable]:
    """The low-index descent without classes or deferred relators: every
    relator of ``fp`` is scanned after every deduction, and each complete
    table is kept, and ``propagate`` scans the cycles through each new edge
    from both of its ends.  Reference for the library's
    ``_low_index_tables``, which scans each cycle once and decides each
    re-rooting once per subtree.  It reads the library's
    ``_prepared_relators``, so it tests the descent alone."""
    ncols = 2 * len(fp.alphabet)
    rot_by_col = row_major_rotation_index(ncols, _prepared_relators(fp))
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


class _Overflow(Exception):
    pass


class _RowEngine:
    """The enumeration engine on rows: ``tab[c][col]`` is the image of
    coset c under the column's signed letter, rows are 1-based with
    ``tab[0]`` unused, and the row of a dead coset is ``None``.  Reference
    for the library's ``coset_enum._Engine``, which keeps one list per
    column and runs its scan inside ``todd_coxeter``'s loop."""

    def __init__(self, ncols: int, max_cosets: int):
        self.ncols = ncols
        self.tab: list[list[int] | None] = [None, [0] * ncols]
        self.p = [0, 1]
        self.ndead = 0
        self.max_cosets = max_cosets

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], ncols: int) -> "_RowEngine":
        eng = cls(ncols, max_cosets=len(rows) + 1)
        eng.tab = [None] + [list(r) for r in rows]
        eng.p = list(range(len(rows) + 1))
        return eng

    @property
    def alive(self) -> int:
        return len(self.tab) - 1 - self.ndead

    def find(self, c: int) -> int:
        p = self.p
        root = c
        while p[root] != root:
            root = p[root]
        while p[c] != root:
            p[c], c = root, p[c]
        return root

    def define(self, a: int, col: int) -> int:
        """Adjoin a fresh coset as the image of ``a`` under ``col``."""
        if self.alive >= self.max_cosets:
            raise _Overflow
        b = len(self.tab)
        self.tab.append([0] * self.ncols)
        self.p.append(b)
        self.tab[a][col] = b
        self.tab[b][col ^ 1] = a
        return b

    def _merge(self, a: int, b: int, queue: list[int]) -> None:
        a, b = self.find(a), self.find(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        self.p[b] = a
        self.ndead += 1
        queue.append(b)

    def coincide(self, a: int, b: int) -> None:
        """Identify two cosets and propagate until the table is consistent.

        Rows of dying cosets are migrated eagerly onto their survivors and
        then freed; an edge that lands on an already defined entry queues a
        further merge.
        """
        queue: list[int] = []
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
            self.tab[dead] = None

    def scan_fill(self, a: int, w: Sequence[int]) -> None:
        """Trace the cycle ``w`` based at ``a``, defining new cosets until
        it closes; a closing gap of one letter is filled in, and two ends
        that meet at different cosets coincide."""
        tab = self.tab
        f = a
        i = 0
        r = len(w)
        b = a
        j = r
        while True:
            while i < j:
                t = tab[f][w[i]]
                if t == 0:
                    break
                f = t
                i += 1
            if i == j:
                if f != b:
                    self.coincide(f, b)
                return
            while j > i:
                t = tab[b][w[j - 1] ^ 1]
                if t == 0:
                    break
                b = t
                j -= 1
            if j == i:
                if f != b:
                    self.coincide(f, b)
                return
            if j == i + 1:
                tab[f][w[i]] = b
                tab[b][w[i] ^ 1] = f
                return
            f = self.define(f, w[i])
            i += 1

    def snapshot(self, alphabet: Alphabet) -> CosetTable:
        """The live cosets as a standardized closed table."""
        tab, p, find = self.tab, self.p, self.find
        if any(0 in tab[c] for c in range(1, len(tab)) if p[c] == c):
            raise RuntimeError("enumeration left an undefined entry in a live row")
        transitions = _closure(1, range(0, self.ncols, 2), lambda c, col: find(tab[c][col]))
        if len(transitions) != self.alive:
            raise PreconditionError("table is not transitive from coset 1")
        return _closed_table(alphabet, transitions)


def row_todd_coxeter(fp, sub, *, max_cosets: int = DEFAULT_MAX_COSETS):
    """One HLT pass on ``_RowEngine``, one ``scan_fill`` call per (coset,
    relator) and one ``define`` call per definition.  Reference for the
    library's ``todd_coxeter``, which must make the same definitions and
    coincidences in the same order; None on overflow."""
    _require_same_alphabet(fp.alphabet, sub.alphabet)
    if max_cosets < 1:
        raise InputError("max_cosets must be positive")
    relators = _prepared_relators(fp)
    eng = _RowEngine(2 * len(fp.alphabet), max_cosets)
    try:
        for g in sub.generators:
            eng.scan_fill(1, _col_word(g))
        a = 1
        while a < len(eng.tab):
            if eng.p[a] == a:
                for w in relators:
                    eng.scan_fill(a, w)
                    if eng.p[a] != a:
                        break
                if eng.p[a] == a:
                    for col in range(eng.ncols):
                        if eng.tab[a][col] == 0:
                            eng.define(a, col)
            a += 1
    except _Overflow:
        return None
    table = eng.snapshot(fp.alphabet)
    _verify_closed(table, fp, sub)
    return table


def row_merge_coincidences(table: CosetTable, pairs) -> CosetTable:
    """The quotient of ``table`` by the coset ``pairs`` on ``_RowEngine``.
    Reference for the library's ``merge_coincidences``."""
    eng = _RowEngine.from_rows(table.rows, 2 * len(table.alphabet))
    for c, d in pairs:
        eng.coincide(eng.find(c), eng.find(d))
    return eng.snapshot(table.alphabet)


class _FelschEngine(_RowEngine):
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
            self.tab[dead] = None

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
    library's relator-driven ``todd_coxeter``; None on overflow.  It reads
    the library's ``_prepared_relators``, so it tests the driver alone."""
    _require_same_alphabet(fp.alphabet, sub.alphabet)
    eng = _FelschEngine(2 * len(fp.alphabet), max_cosets)
    rot_by_col = row_major_rotation_index(eng.ncols, _prepared_relators(fp))
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


def sweeping_todd_coxeter(fp, sub, *, max_cosets: int = DEFAULT_MAX_COSETS):
    """Relator-driven (HLT) Todd-Coxeter that repeats its sweep (subgroup
    generators from coset 1, then every relator from every live coset in id
    order, filling each row after its scans) until a sweep defines and
    merges nothing.  Reference for the library's single-pass
    ``todd_coxeter``; None on overflow.  It reads the library's
    ``_prepared_relators``, so it tests the driver alone."""
    _require_same_alphabet(fp.alphabet, sub.alphabet)
    relators = _prepared_relators(fp)
    subgens = [w for w in (_col_word(g) for g in sub.generators) if w]
    eng = _RowEngine(2 * len(fp.alphabet), max_cosets)
    try:
        while True:
            before = (len(eng.tab), eng.ndead)
            for w in subgens:
                eng.scan_fill(1, w)
            a = 1
            while a < len(eng.tab):
                if eng.p[a] == a:
                    for w in relators:
                        eng.scan_fill(a, w)
                        if eng.p[a] != a:
                            break
                    if eng.p[a] == a:
                        for col in range(eng.ncols):
                            if eng.tab[a][col] == 0:
                                eng.define(a, col)
                a += 1
            if (len(eng.tab), eng.ndead) == before:
                break
    except _Overflow:
        return None
    table = eng.snapshot(fp.alphabet)
    _verify_closed(table, fp, sub)
    return table


def raw_prepared_relators(fp) -> list[tuple[int, ...]]:
    """Every relator of ``fp`` as a cyclically reduced column word, empty
    words and exact repeats dropped, in order.  Reference for the Tietze
    pass of the library's ``_prepared_relators``."""
    out = []
    seen = set()
    for r in fp.relators:
        w = _cyclically_reduce(_col_word(r))
        if w and w not in seen:
            seen.add(w)
            out.append(w)
    return out


def class_prepared_relators(fp) -> list[tuple[int, ...]]:
    """Steps 1-3 of the library's ``_prepared_relators``: cyclically
    reduce, delete every generator whose reduced relator is that single
    letter from the other relators, and keep the first relator of each
    class under rotation and inversion.  Reference for what step 4, the
    proper-power drop, removes."""
    words = [_cyclically_reduce(_col_word(r)) for r in fp.relators]
    trivial = {w[0] >> 1 for w in words if len(w) == 1}
    out = []
    seen = set()
    for w in words:
        if len(w) > 1:
            w = _cyclically_reduce(c for c in w if c >> 1 not in trivial)
        if w and w not in seen:
            inv = tuple(c ^ 1 for c in reversed(w))
            seen.update(u[i:] + u[:i] for u in (w, inv) for i in range(len(w)))
            out.append(w)
    return out


def raw_todd_coxeter(fp, sub, *, max_cosets: int = DEFAULT_MAX_COSETS):
    """The library's ``todd_coxeter`` scanning ``raw_prepared_relators``
    in place of the simplified relators; None on overflow."""
    with mock.patch.object(coset_enum, "_prepared_relators", raw_prepared_relators):
        return todd_coxeter(fp, sub, max_cosets=max_cosets)


# The word grammar as a token list and a recursive descent, one Word per
# factor, with list items split off by a character walk first.  Reference
# for ``presentations._parse``, which scans once with an explicit bracket
# stack; it raises RecursionError at a few hundred nested brackets.

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<int>\d+)|(?P<sym>[-*^()\[\],]))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos:].strip()[0]!r} in {text!r}")
            break
        if m.group("name"):
            tokens.append(("name", m.group("name")))
        elif m.group("int"):
            tokens.append(("int", m.group("int")))
        else:
            tokens.append(("sym", m.group("sym")))
        pos = m.end()
    return tokens


class _WordParser:
    def __init__(self, alphabet: Alphabet, text: str):
        self.alphabet = alphabet
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def fail(self, why: str):
        raise ParseError(f"{why} in word {self.text!r}")

    def parse(self) -> Word:
        w = self.expr()
        if self.pos != len(self.tokens):
            self.fail(f"trailing input at token {self.peek()[1]!r}")
        return w

    def check_length(self, n: int) -> None:
        if n > MAX_WORD_LETTERS:
            self.fail(f"word longer than {MAX_WORD_LETTERS} letters")

    def expr(self, stop=(")", "]", ",")) -> Word:
        # the product so far stays freely reduced, and each factor is, so
        # appending one cancels only where the two meet
        letters: list[int] = []
        first = True
        while True:
            kind, val = self.peek()
            if kind is None or (kind == "sym" and val in stop):
                if first:
                    self.fail("empty word expression")
                return Word(self.alphabet, tuple(letters))
            if kind == "sym" and val == "*":
                if first:
                    self.fail("leading '*'")
                self.take()
                kind, val = self.peek()
                if kind is None or kind == "sym" and val in stop:
                    self.fail("dangling '*'")
            f = self.factor().letters
            k = 0
            while k < len(f) and letters and letters[-1] == -f[k]:
                letters.pop()
                k += 1
            letters += f[k:]
            self.check_length(len(letters))
            first = False

    def factor(self) -> Word:
        w = self.primary()
        while self.peek() == ("sym", "^"):
            self.take()
            kind, val = self.peek()
            if kind == "int" or (kind == "sym" and val == "-"):
                sign = 1
                if kind == "sym":
                    self.take()
                    sign = -1
                    kind, val = self.peek()
                    if kind != "int":
                        self.fail("expected integer exponent after '-'")
                self.take()
                # w^n has m + (n - 1)|c| <= n * m letters, m = |w| and c the cyclic
                # core of w; n cut to one digit more than the bound still passes it
                n = int(val.lstrip("0")[: len(str(MAX_WORD_LETTERS)) + 1] or "0")
                m = len(w.letters)
                if m * n > MAX_WORD_LETTERS and m + (n - 1) * (len(w**2) - m) > MAX_WORD_LETTERS:
                    self.fail(f"power longer than {MAX_WORD_LETTERS} letters")
                w = w ** (sign * n)
            else:
                w = w.conjugated_by(self.primary())
                self.check_length(len(w))
        return w

    def primary(self) -> Word:
        kind, val = self.take()
        if kind == "name":
            if val not in self.alphabet:
                self.fail(f"unknown generator {val!r}")
            return Word.generator(self.alphabet, self.alphabet.code(val))
        if kind == "int" and val == "1":
            return Word.identity(self.alphabet)
        if kind == "sym" and val == "(":
            w = self.expr()
            if self.take() != ("sym", ")"):
                self.fail("expected ')'")
            return w
        if kind == "sym" and val == "[":
            u = self.expr()
            if self.take() != ("sym", ","):
                self.fail("expected ',' in commutator")
            v = self.expr()
            if self.take() != ("sym", "]"):
                self.fail("expected ']'")
            w = commutator(u, v)
            self.check_length(len(w))
            return w
        self.fail(f"unexpected token {val!r}")


def reference_parse_word(alphabet, text: str) -> Word:
    """``parse_word`` through :class:`_WordParser`."""
    if not text.strip():
        return Word.identity(alphabet)
    return _WordParser(alphabet, text).parse()


def _split_top_level(text: str) -> list[str]:
    """Split on commas and whitespace that sit outside brackets."""
    items = []
    depth = 0
    current = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced brackets in {text!r}")
        if depth == 0 and (ch == "," or ch.isspace()):
            if current:
                items.append("".join(current))
                current = []
            continue
        current.append(ch)
    if depth != 0:
        raise ParseError(f"unbalanced brackets in {text!r}")
    if current:
        items.append("".join(current))
    return items


def reference_parse_words(alphabet, text: str) -> list[Word]:
    """``parse_words`` through :func:`_split_top_level` and :class:`_WordParser`."""
    return [reference_parse_word(alphabet, item) for item in _split_top_level(text)]


def reference_parse_subgroup(alphabet, text: str) -> SubgroupSpec:
    return SubgroupSpec(alphabet, tuple(reference_parse_words(alphabet, text)))


def power_by_products(w: Word, n: int) -> Word:
    """``w ** n`` one factor at a time, every product reducing the whole
    prefix again.  Reference for ``Word.__pow__``."""
    if n < 0:
        return power_by_products(w.inverse(), -n)
    out = Word.identity(w.alphabet)
    for _ in range(n):
        out = out * w
    return out


class _ProductParser(_WordParser):
    """The word grammar with every product and power formed one factor at
    a time.  Reference for ``_WordParser``, which appends each factor's
    letters to the reduced product so far, cancelling where they meet."""

    def expr(self, stop=(")", "]", ",")) -> Word:
        out = Word.identity(self.alphabet)
        first = True
        while True:
            kind, val = self.peek()
            if kind is None or (kind == "sym" and val in stop):
                if first:
                    self.fail("empty word expression")
                return out
            if kind == "sym" and val == "*":
                if first:
                    self.fail("leading '*'")
                self.take()
                kind, val = self.peek()
                if kind is None or kind == "sym" and val in stop:
                    self.fail("dangling '*'")
            out = out * self.factor()
            first = False

    def factor(self) -> Word:
        w = self.primary()
        while self.peek() == ("sym", "^"):
            self.take()
            kind, val = self.peek()
            if kind == "int" or (kind == "sym" and val == "-"):
                sign = 1
                if kind == "sym":
                    self.take()
                    sign = -1
                    kind, val = self.peek()
                    if kind != "int":
                        self.fail("expected integer exponent after '-'")
                self.take()
                w = power_by_products(w, sign * int(val))
            else:
                w = w.conjugated_by(self.primary())
        return w


def parse_word_by_products(alphabet, text: str) -> Word:
    """``parse_word`` through :class:`_ProductParser`."""
    if not text.strip():
        return Word.identity(alphabet)
    return _ProductParser(alphabet, text).parse()


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


def ladder_attempts(config):
    """The ``(level, max_cosets)`` pair of every Todd-Coxeter attempt on
    the ladder that ties depth to the limit.

    Each attempt is one level deeper and has ``escalation_factor`` times
    the coset limit of the one before; every limit, the first included, is
    clamped to ``hard_ceiling``, and the attempt at the ceiling is the last.
    Reference for the cost-ordered ``pipeline._attempts``.
    """
    level = config.initial_level
    limit = min(config.initial_max_cosets, config.hard_ceiling)
    while True:
        yield level, limit
        if limit >= config.hard_ceiling:
            return
        level += 1
        limit = min(limit * config.escalation_factor, config.hard_ceiling)


def ladder_enumerate_cosets(lp, sub, config, trace=None):
    """The library's ``enumerate_cosets`` on :func:`ladder_attempts`."""
    with mock.patch.object(
        pipeline, "_attempts", lambda config, weight: ladder_attempts(config)
    ):
        return enumerate_cosets(lp, sub, config, trace)


def composite_covering(lp, level: int):
    """The covering presentation at ``level`` built by composing every
    endomorphism word of length at most ``level``, in increasing order, and
    applying the composite to each iterated relator.  Reference for
    ``LPresentation.covering``, which composes nothing."""
    words = breadth_first_words(len(lp.endomorphisms), level)
    relators = list(lp.fixed)
    for factors in words:
        relators.extend(composite(lp, factors).apply(r) for r in lp.iterated)
    return FinitePresentation(lp.alphabet, tuple(relators))


def hall_counts(orders: Sequence[int], n: int) -> dict[int, Fraction]:
    """Subgroups of each index 1..n of the free product of cyclic groups of
    the given orders, m = 0 standing for Z, by Hall's formula (M. Hall,
    1949): with h_k the number of homomorphisms into S_k,
    a_k = h_k / (k-1)! - sum over i < k of h_{k-i} / (k-i)! * a_i.

    A homomorphism of a free product is one per factor, so h_k is the
    product over the factors of t_m(k), the number of x in S_k with
    x^m = 1: t_m(0) = 1 and t_m(k) = sum over d | m, d <= k, of
    (k-1)! / (k-d)! * t_m(k-d), the cycle through k having length d; Z has
    t_0(k) = k!.  Exact fractions, so a slip in the formula shows as a
    non-integer count.
    """

    def roots(m: int) -> list[int]:
        t = [1]
        for k in range(1, n + 1):
            if m == 0:
                t.append(factorial(k))
            else:
                t.append(sum(
                    factorial(k - 1) // factorial(k - d) * t[k - d]
                    for d in range(1, min(m, k) + 1) if m % d == 0
                ))
        return t

    factors = [roots(m) for m in orders]
    h = [prod(t[k] for t in factors) for k in range(n + 1)]
    a: dict[int, Fraction] = {}
    for k in range(1, n + 1):
        a[k] = Fraction(h[k], factorial(k - 1)) - sum(
            Fraction(h[k - i], factorial(k - i)) * a[i] for i in range(1, k)
        )
    return a


# L-presentations of free products of cyclic groups, as presentation-file
# text, each with the orders that ``hall_counts`` takes.  Their coverings
# are free products too, of more factors or of Z in place of a cyclic
# group below the level where every relator of the group is present, so a
# low-index count that depended on the level would show against Hall's.
L_PRESENTED_FREE_PRODUCTS = {
    # a^2, b^3 and the images c^3 of b^3: C2*C3*C3 from level 1 on
    "C2*C3*C3": (
        "generators: a b c\nendomorphism: a -> a, b -> c, c -> c\niterated: a^2 b^3\n",
        (2, 3, 3),
    ),
    # the shift x1 -> x2 -> x3 -> x3 gives x2^2 at level 1 and x3^2 at 2
    "C2*C2*C2": (
        "generators: x1 x2 x3\nendomorphism: x1 -> x2, x2 -> x3, x3 -> x3\niterated: x1^2\n",
        (2, 2, 2),
    ),
    # the images of a^4 are its conjugates b^k*a^4*b^-k, so C4*C2 at every level
    "C4*C2": (
        "generators: a b\nendomorphism: a -> b*a*b^-1, b -> b\niterated: a^4 b^2\n",
        (4, 2),
    ),
}


def fraction_rank(rows: Sequence[Sequence[int]]) -> int:
    """The rank over Q by Gauss-Jordan elimination on ``Fraction``
    entries.  Reference for ``presentations._echelon_insert``, which stays
    in the integers."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def exponent_sum_vector(w: Word) -> list[int]:
    """The exponent sum of every generator in ``w``, letter by letter."""
    v = [0] * len(w.alphabet)
    for x in w.letters:
        v[abs(x) - 1] += 1 if x > 0 else -1
    return v
