"""Subgroup applications on top of the enumerator: membership, equality,
normality, intersections, cores, and the enumeration of every subgroup up
to a given index.

Low-index search works on a covering presentation: a backtracking descent
over partial coset tables that introduces cosets in first-use order (so
every complete table comes out standardized and each subgroup appears
exactly once), propagates relator consequences after each choice, and
abandons a branch as soon as a forced coincidence appears.  Only relators
of length at most twice the index bound are propagated; the longer ones
are deferred and traced on each complete table.  Candidates are then folded
to validity against the L-presentation and deduplicated; this yields all
subgroups of the L-presented group regardless of the covering level,
because a subgroup of index at most n pulls back to one of the same index
in every covering group.  Folding is decided once per conjugacy class of
candidates: the other members of a class are the representative re-rooted
at another coset, and they fold to the representative's fold re-rooted at
the image of that coset.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .coset_enum import (
    CosetTable,
    _prepared_relators,
    _rotation_index,
    dump_table,
    schreier_generators,
    standardize,
    to_perm_rep,
    trace as table_trace,
)
from .errors import InputError, LowIndexIncomplete, ResourceLimitError
from .perms import PermutationRep, image_group
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
from .words import Word, _require_same_alphabet


@dataclass(frozen=True)
class FiniteIndexSubgroup:
    """A finite-index subgroup pinned down by its standardized coset table.

    ``generators`` are the Schreier generators of the stabilizer of coset 1,
    freely reduced; they generate the subgroup together with the relations
    of the owner.
    """

    owner: LPresentation
    table: CosetTable
    rep: PermutationRep
    generators: tuple[Word, ...]

    @classmethod
    def from_table(
        cls,
        owner: LPresentation,
        table: CosetTable,
        cap: int = DEFAULT_REDUCTION_CAP,
        revalidate: bool = True,
    ) -> "FiniteIndexSubgroup":
        table = standardize(table)
        rep = to_perm_rep(table)
        if revalidate:
            outcome = decide_validity(owner, rep, cap)
            if not outcome.valid:
                raise InputError(
                    "table does not define a subgroup of the presented group "
                    f"(relator {outcome.witness.relator} fails)"
                )
        return cls(owner, table, rep, schreier_generators(table))

    @property
    def index(self) -> int:
        return self.table.size

    def contains(self, w: Word) -> bool:
        """Membership: the word must stabilize coset 1."""
        _require_same_alphabet(self.owner.alphabet, w.alphabet)
        return table_trace(self.table, 1, w) == 1

    def is_normal(self) -> bool:
        """Conjugation test: both conjugates of every stored generator by
        every alphabet generator must stay inside."""
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
    """Is u a subgroup of v?  Tested on u's generators."""
    return all(v.contains(g) for g in u.generators)


def finite_index_subgroup(
    lp: LPresentation,
    sub: SubgroupSpec | Sequence[Word],
    config: EnumerationConfig = EnumerationConfig(),
    trace: Trace | None = None,
) -> FiniteIndexSubgroup:
    """Enumerate, validate, and wrap the subgroup generated by ``sub``."""
    if not isinstance(sub, SubgroupSpec):
        sub = SubgroupSpec(lp.alphabet, tuple(sub))
    result = enumerate_cosets(lp, sub, config, trace)
    return FiniteIndexSubgroup(
        owner=lp,
        table=result.table,
        rep=result.rep,
        generators=schreier_generators(result.table),
    )


def intersect(
    u: FiniteIndexSubgroup, v: FiniteIndexSubgroup, cap: int = DEFAULT_REDUCTION_CAP
) -> FiniteIndexSubgroup:
    """Intersection via the action on pairs of cosets reachable from (1, 1);
    the stabilizer of the base pair is exactly the intersection."""
    if u.owner != v.owner:
        raise InputError("subgroups of different presentations")
    ngens = len(u.owner.alphabet)
    index_of = {(1, 1): 1}
    order = [(1, 1)]
    rows: list[list[int]] = []
    i = 0
    while i < len(order):
        c, d = order[i]
        i += 1
        row = [0] * (2 * ngens)
        for g in range(ngens):
            target = (u.table.rows[c - 1][2 * g], v.table.rows[d - 1][2 * g])
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
    table = CosetTable(u.owner.alphabet, tuple(tuple(r) for r in rows))
    return FiniteIndexSubgroup.from_table(u.owner, table, cap)


def core(u: FiniteIndexSubgroup, cap: int = DEFAULT_REDUCTION_CAP) -> FiniteIndexSubgroup:
    """The kernel of the coset action: the image group acting on itself by
    right multiplication, i.e. the largest normal subgroup inside u."""
    ig = image_group(u.rep, cap)
    if ig is None:
        raise ResourceLimitError(
            f"image group of the coset action exceeds {cap} elements"
        )
    ngens = len(u.owner.alphabet)
    rows: list[list[int]] = [[0] * (2 * ngens) for _ in range(ig.order)]
    for i, row in enumerate(ig.transitions):
        for g in range(ngens):
            rows[i][2 * g] = row[g] + 1
            rows[row[g]][2 * g + 1] = i + 1
    table = CosetTable(u.owner.alphabet, tuple(tuple(r) for r in rows))
    return FiniteIndexSubgroup.from_table(u.owner, table, cap)


# --- low-index enumeration -------------------------------------------------


class _SearchCapped(Exception):
    pass


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
    is rescanned after each deduction.  On the level-2 Grigorchuk cover at
    index 15 the descent then reaches 705 complete tables instead of 246,
    and the deferred relator of length 32 rejects the other 459 at the
    leaves, which measured cheaper than scanning it during the descent.
    """
    bound = 2 * max_index
    scanned: list[tuple[int, ...]] = []
    deferred: list[tuple[int, ...]] = []
    for w in _prepared_relators(fp):
        (scanned if len(w) <= bound else deferred).append(w)
    return scanned, deferred


def _low_index_tables(
    fp: FinitePresentation, max_index: int, max_tables: int | None = None
) -> tuple[list[CosetTable], bool]:
    """All standardized closed tables with at most ``max_index`` cosets
    satisfying the relators of ``fp``.

    Returns (tables, capped).  Descent order: locate the first undefined
    slot scanning rows then generators; try every existing coset whose
    matching inverse slot is free, then one fresh coset.  Consequences of
    the scanned relators (see :func:`_split_relators`) propagate through
    rotation scans; a scan that closes wrongly kills the branch, since the
    merged table is found on another branch with the smaller assignment
    made directly.  A complete table is kept when the deferred relators
    close at every coset; only kept tables count against ``max_tables``.
    The leaves come out in lexicographic order of their generator columns
    whichever relators are scanned, so deferring changes no output order.
    """
    if max_index < 1:
        raise InputError("max_index must be >= 1")
    ngens = len(fp.alphabet)
    ncols = 2 * ngens
    scanned, deferred = _split_relators(fp, max_index)
    rot_by_col = _rotation_index(ncols, scanned)
    tab = [0] * ((max_index + 2) * ncols)
    results: list[CosetTable] = []
    capped = False
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
            b = tab[a * ncols + col]
            for w in rot_by_col[col ^ 1]:
                if not scan(b, w, trail, queue):
                    return False
        return True

    def closes_everywhere(w: tuple[int, ...]) -> bool:
        for a in range(1, n + 1):
            f = a
            for col in w:
                f = tab[f * ncols + col]
            if f != a:
                return False
        return True

    n = 1

    def descend(c0: int, g0: int) -> None:
        nonlocal n, capped
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
            if max_tables is not None and len(results) >= max_tables:
                capped = True
                raise _SearchCapped
            rows = tuple(
                tuple(tab[r * ncols : r * ncols + ncols]) for r in range(1, n + 1)
            )
            results.append(CosetTable(fp.alphabet, rows))
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
                descend(c, gi)
            for s in trail:
                tab[s] = 0
            if is_new:
                n -= 1

    try:
        descend(1, 0)
    except _SearchCapped:
        pass
    return results, capped


def _quotient_map(table: CosetTable, quotient: CosetTable) -> list[int]:
    """Image of each coset of ``table`` (1-based, slot 0 unused) under the
    homomorphism of tables onto ``quotient`` that sends coset 1 to coset 1,
    found by walking both tables in lockstep."""
    image = [0] * (table.size + 1)
    image[1] = 1
    order = [1]
    for c in order:
        row, qrow = table.rows[c - 1], quotient.rows[image[c] - 1]
        for col in range(0, len(row), 2):
            d = row[col]
            if not image[d]:
                image[d] = qrow[col]
                order.append(d)
    return image


def _fold_by_class(
    lp: LPresentation, tables: Sequence[CosetTable], cap: int, trace: Trace | None
) -> tuple[list[CosetTable], int]:
    """``fold_to_valid`` of every closed standardized table, deciding only
    the first table of each conjugacy class.  Returns the folded tables in
    input order and the number of classes.

    A conjugate is the representative re-rooted at some coset c.  Validity
    depends only on the kernel of the action, which re-rooting keeps, and
    each fold merges a partition that relabelling carries along; so the
    conjugate folds to the representative's fold re-rooted at the image of
    c under the quotient map.
    """
    # rows of each re-rooting of a representative -> (the representative's
    # fold, the coset of that fold where the re-rooting's coset 1 lands)
    decided: dict[tuple, tuple[CosetTable, int]] = {}
    classes = 0
    folds = []
    for t in tables:
        if t.rows not in decided:
            classes += 1
            folded, _ = fold_to_valid(lp, t, cap, trace)
            image = _quotient_map(t, folded)
            for c in range(1, t.size + 1):
                decided.setdefault(standardize(t, base=c).rows, (folded, image[c]))
        folded, root = decided[t.rows]
        folds.append(folded if root == 1 else standardize(folded, base=root))
    return folds, classes


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

    def counts(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for e in self.entries:
            out[e.subgroup.index] = out.get(e.subgroup.index, 0) + 1
        return out

    def normal_counts(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for e in self.entries:
            if e.normal:
                out[e.subgroup.index] = out.get(e.subgroup.index, 0) + 1
        return out

    def maximal_counts(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for e in self.entries:
            if e.maximal:
                out[e.subgroup.index] = out.get(e.subgroup.index, 0) + 1
        return out


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
    not depend on the level.  When the candidate cap is hit a
    :class:`LowIndexIncomplete` is raised carrying the folded portion.
    """
    fp = lp.covering(level)
    _emit(trace, "low-index", level=level, max_index=max_index, relators=len(fp.relators))
    tables, capped = _low_index_tables(fp, max_index, max_tables)
    _emit(trace, "low-index-candidates", count=len(tables))
    folds, classes = _fold_by_class(lp, tables, cap, trace)
    entries = []
    seen = set()
    for folded in folds:
        if folded.rows in seen:
            continue
        seen.add(folded.rows)
        entries.append(
            SubgroupEntry(
                FiniteIndexSubgroup.from_table(lp, folded, cap, revalidate=False)
            )
        )
    _emit(
        trace,
        "low-index-classes",
        classes=classes,
        deferred=len(_split_relators(fp, max_index)[1]),
    )
    entries.sort(key=lambda e: e.subgroup.sort_key())
    result = SubgroupList(lp, max_index, tuple(entries), complete=not capped)
    _emit(trace, "low-index-subgroups", count=len(entries))
    if capped:
        raise LowIndexIncomplete(
            f"stopped after {max_tables} candidate tables", partial=result
        )
    return result


def mark_normal_and_maximal(slist: SubgroupList) -> SubgroupList:
    """Fill in the normal and maximal flags.

    Maximality is decided inside the list: any subgroup strictly between U
    and the whole group has index a proper divisor of U's, hence at most
    ``max_index``, hence present.  The whole group's maximal flag stays
    blank by convention.
    """
    subs = [e.subgroup for e in slist.entries]
    marked = []
    for u in subs:
        normal = u.is_normal()
        if u.index == 1:
            maximal = None
        else:
            maximal = True
            for v in subs:
                if v.index == 1 or v.index >= u.index:
                    continue
                if u.index % v.index != 0:
                    continue
                if contains_subgroup(v, u):
                    maximal = False
                    break
        marked.append(SubgroupEntry(u, normal=normal, maximal=maximal))
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
    """The same rows as :func:`format_report`, comma-separated (empty maximal
    cell at index 1)."""
    rows = _report_rows(slist, show_normal, show_maximal, "")
    return "\n".join(",".join(row) for row in rows) + "\n"


def report_json(slist: SubgroupList, include_entries: bool = False) -> dict:
    counts = slist.counts()
    payload: dict = {
        "max_index": slist.max_index,
        "complete": slist.complete,
        "counts": {str(i): counts.get(i, 0) for i in range(1, slist.max_index + 1)},
    }
    if any(e.normal is not None for e in slist.entries):
        normal = slist.normal_counts()
        maximal = slist.maximal_counts()
        payload["normal_counts"] = {
            str(i): normal.get(i, 0) for i in range(1, slist.max_index + 1)
        }
        payload["maximal_counts"] = {
            str(i): maximal.get(i, 0) for i in range(1, slist.max_index + 1)
        }
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
