"""Todd-Coxeter coset enumeration over a finite presentation.

Two table forms: a mutable engine used while enumerating (rows indexed by
coset id with a union-find over ids and a coincidence queue) and an
immutable snapshot (:class:`CosetTable`) used by everything else.  Signed
letters map to column indices so that a column's inverse is ``col ^ 1``.
Coset ids are dense positive integers; ids freed by coincidences are never
reused within a run, and snapshots are compressed back to 1..n preserving
id order.

The enumeration is relator driven (HLT, Havas, "Coset enumeration
strategies", ISSAC 1991): one HLT pass scans the relators coset by coset,
defining cosets wherever a scan gets stuck.  Its cost grows with the total
length of the relators it scans, so the presentation is simplified first
(:func:`_prepared_relators`): a generator that is itself a relator leaves
the other relators, one relator is kept per class under rotation and
inversion, and a proper power of a kept relator goes.  The low-index
descent reads the same prepared relators.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InputError, ParseError, PreconditionError
from .perms import PermutationRep
from .presentations import FinitePresentation, SubgroupSpec
from .words import Alphabet, Word, _require_same_alphabet

DEFAULT_MAX_COSETS = 10**6


def _col_of(letter: int) -> int:
    return 2 * (letter - 1) if letter > 0 else 2 * (-letter - 1) + 1


def _col_word(w: Word) -> tuple[int, ...]:
    return tuple(_col_of(x) for x in w.letters)


def _cyclically_reduce(w: Iterable[int]) -> tuple[int, ...]:
    """Free and then cyclic reduction of a column word."""
    out: list[int] = []
    for c in w:
        if out and out[-1] == c ^ 1:
            out.pop()
        else:
            out.append(c)
    i, j = 0, len(out)
    while j - i >= 2 and out[i] == out[j - 1] ^ 1:
        i += 1
        j -= 1
    return tuple(out[i:j])


@dataclass(frozen=True)
class CosetTable:
    """Action of the generators on cosets 1..n; entry 0 means undefined.

    ``rows[c - 1][col]`` is the image of coset c under the column's signed
    letter.  Whenever an entry is defined its mirror is too, so defined
    entries always satisfy the action-consistency invariant.
    """

    alphabet: Alphabet
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        ncols = 2 * len(self.alphabet)
        for c, row in enumerate(rows, start=1):
            if len(row) != ncols:
                raise InputError(f"row {c} has {len(row)} entries, expected {ncols}")
            for col, d in enumerate(row):
                if d == 0:
                    continue
                if not 1 <= d <= n:
                    raise InputError(f"entry {d} out of range in row {c}")
                if rows[d - 1][col ^ 1] != c:
                    raise InputError(
                        f"action inconsistency: {c} -> {d} lacks mirror on column {col ^ 1}"
                    )

    @property
    def size(self) -> int:
        return len(self.rows)

    @property
    def is_closed(self) -> bool:
        return all(all(d != 0 for d in row) for row in self.rows)


def trace(table: CosetTable, start: int, w: Word) -> int | None:
    """Follow ``w`` letter by letter from ``start``; None when undefined."""
    if not 1 <= start <= table.size:
        raise InputError(f"coset {start} out of range 1..{table.size}")
    _require_same_alphabet(table.alphabet, w.alphabet)
    c = start
    rows = table.rows
    for x in w.letters:
        c = rows[c - 1][_col_of(x)]
        if c == 0:
            return None
    return c


class _Overflow(Exception):
    pass


class _Engine:
    """Mutable enumeration state; rows are 1-based with ``tab[0]`` unused,
    and the row of a dead coset is ``None``."""

    def __init__(self, ncols: int, max_cosets: int):
        self.ncols = ncols
        self.tab: list[list[int] | None] = [None, [0] * ncols]
        self.p = [0, 1]
        self.ndead = 0
        self.max_cosets = max_cosets

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], ncols: int) -> "_Engine":
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
        """Compress live cosets to 1..n in id order."""
        live = [c for c in range(1, len(self.tab)) if self.p[c] == c]
        newid = {c: i + 1 for i, c in enumerate(live)}
        rows = []
        for c in live:
            row = []
            for d in self.tab[c]:
                row.append(newid[self.find(d)] if d else 0)
            rows.append(tuple(row))
        return CosetTable(alphabet, tuple(rows))


def _prepared_relators(fp: FinitePresentation) -> list[tuple[int, ...]]:
    """The relators of ``fp`` as column words after one Tietze pass
    (Holt, Eick and O'Brien, *Handbook of Computational Group Theory*,
    2005, section 5.1), in the order of the relators they come from:

    1. cyclically reduce every relator;
    2. a generator g whose reduced relator is the single letter g^±1 acts
       as the identity in every table satisfying that relator: keep that
       relator, delete g's letters from every other relator, and free- and
       cyclically reduce what is left;
    3. drop empty words, and keep the first relator of each class under
       rotation and inversion, since a relator-driven scan from every coset
       meets every rotation of a kept one and its inverse anyway;
    4. drop a relator u^k when another relator lies in the class of u^d
       for a proper divisor d of k (a1^6 beside a1^3), in either order:
       u^k closes wherever u^d does.

    A closed table satisfies the prepared relators exactly when it
    satisfies those of ``fp``.  The enumeration relies on that, so
    :func:`_verify_closed` checks ``fp.relators`` as given: a fault here
    raises there instead of returning a wrong table.  The result is kept
    on ``fp``, so a presentation is prepared once however often it is
    enumerated or weighed.
    """
    if fp._prepared is not None:
        return fp._prepared
    words = [_cyclically_reduce(_col_word(r)) for r in fp.relators]
    trivial = {w[0] >> 1 for w in words if len(w) == 1}
    if trivial:
        words = [
            w if len(w) == 1 else _cyclically_reduce(c for c in w if c >> 1 not in trivial)
            for w in words
        ]
    words = [w for w in words if w]
    roots = [_root_length(w) for w in words]
    # the class of u^k is the class of its root u together with k, so a
    # word whose root length no other word shares needs no key
    shared = Counter(roots)
    keys = [_power_key(w, p) if shared[p] > 1 else None for w, p in zip(words, roots)]
    present = set(keys)
    out = []
    seen = set()
    for w, key in zip(words, keys):
        if key is not None:
            root, k = key
            if key in seen or any((root, d) in present for d in range(1, k) if k % d == 0):
                continue
            seen.add(key)
        out.append(w)
    object.__setattr__(fp, "_prepared", out)
    return out


def _power_key(w: tuple[int, ...], p: int) -> tuple[bytes, int]:
    """The class of ``w`` = u^k under rotation and inversion, as the least
    rotation of u or its inverse together with k, for u of length ``p``."""
    fwd = array("L", w[:p]) * 2
    inv = array("L", [c ^ 1 for c in reversed(w[:p])]) * 2
    low = min(min(fwd), min(inv))
    root = min(u[i : i + p] for u in (fwd, inv) for i in range(p) if u[i] == low)
    return root.tobytes(), len(w) // p


def _root_length(w: tuple[int, ...]) -> int:
    """The length p of the shortest u with ``w`` = u^(len(w) / p)."""
    n = len(w)
    for p in range(1, n // 2 + 1):
        if n % p == 0 and w[:p] * (n // p) == w:
            return p
    return n


def todd_coxeter(
    fp: FinitePresentation,
    sub: SubgroupSpec,
    *,
    max_cosets: int = DEFAULT_MAX_COSETS,
) -> CosetTable | None:
    """Enumerate the cosets of ``sub`` modulo the relators of ``fp``.

    One HLT pass: scan the subgroup generators from coset 1, then every
    relator from every live coset in id order, defining the missing
    entries of a coset's row once its relators are scanned.  A second pass
    could only confirm: a relator cycle closed at a coset stays closed
    when coincidences identify cosets, and a merge keeps the smaller id, so
    every coset alive at the end was processed while alive.  Only
    :meth:`_Engine.define` reads ``max_cosets``, and the run is otherwise
    deterministic, so a run that overflows is a prefix of the same run
    with a larger limit.

    Returns the closed table, or ``None`` when the limit was hit (a normal
    outcome that callers treat as a signal to escalate).  The closed table
    is verified before being returned: every relator closes from every
    coset and every subgroup generator closes from coset 1.
    """
    _require_same_alphabet(fp.alphabet, sub.alphabet)
    if max_cosets < 1:
        raise InputError("max_cosets must be positive")
    relators = _prepared_relators(fp)
    eng = _Engine(2 * len(fp.alphabet), max_cosets)
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


def _verify_closed(table: CosetTable, fp: FinitePresentation, sub: SubgroupSpec) -> None:
    if not table.is_closed:
        raise RuntimeError("enumeration stopped with an incomplete table")
    # the first coset that some relator moves, with the first such relator
    rep = to_perm_rep(table)
    moved = min(rep.outside_kernel(fp.relators), key=lambda m: m[2], default=None)
    if moved is not None:
        raise RuntimeError(f"relator {moved[0]} does not close from coset {moved[2]}")
    for g in sub.generators:
        if trace(table, 1, g) != 1:
            raise RuntimeError(f"subgroup generator {g} does not fix coset 1")


def merge_coincidences(
    table: CosetTable, pairs: Iterable[tuple[int, int]]
) -> CosetTable:
    ncols = 2 * len(table.alphabet)
    eng = _Engine.from_rows(table.rows, ncols)
    for c, d in pairs:
        if not (1 <= c <= table.size and 1 <= d <= table.size):
            raise InputError(f"coset pair ({c}, {d}) out of range")
        eng.coincide(eng.find(c), eng.find(d))
    return eng.snapshot(table.alphabet)


def standardize(table: CosetTable, base: int = 1) -> CosetTable:
    """Relabel cosets in breadth-first discovery order over the generators,
    starting from ``base`` as the new coset 1.

    Two closed tables describe the same subgroup of the same presentation
    exactly when their standardized forms are identical.  With ``base`` = c
    the result is the table of the conjugate subgroup stabilizing coset c.
    """
    if not table.is_closed:
        raise PreconditionError("standardize requires a closed table")
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


def to_perm_rep(table: CosetTable) -> PermutationRep:
    """The permutation action of each generator on the cosets.  A closed
    table's generator columns are permutations, because every entry has its
    mirror, so they are not checked again."""
    if not table.is_closed:
        raise PreconditionError("permutation representation requires a closed table")
    cols = [[row[2 * g] - 1 for row in table.rows] for g in range(len(table.alphabet))]
    return PermutationRep.from_tables(table.alphabet, table.size, cols)


def coset_representatives(table: CosetTable) -> list[Word]:
    """Shortest transversal words, breadth-first, generators before inverses."""
    if not table.is_closed:
        raise PreconditionError("transversal requires a closed table")
    ngens = len(table.alphabet)
    step_letters = [g + 1 for g in range(ngens)] + [-(g + 1) for g in range(ngens)]
    reps: list[Word | None] = [None] * (table.size + 1)
    reps[1] = Word.identity(table.alphabet)
    order = [1]
    i = 0
    while i < len(order):
        c = order[i]
        i += 1
        for x in step_letters:
            d = table.rows[c - 1][_col_of(x)]
            if reps[d] is None:
                reps[d] = reps[c] * Word.generator(table.alphabet, abs(x)) ** (
                    1 if x > 0 else -1
                )
                order.append(d)
    return [reps[c] for c in range(1, table.size + 1)]


def schreier_generators(table: CosetTable) -> tuple[Word, ...]:
    """Generators of the subgroup fixing coset 1: u * x * (rep of u x)^-1.

    Freely reduced, identity entries dropped, exact duplicates kept once.
    """
    reps = coset_representatives(table)
    out = []
    seen = set()
    for c in range(1, table.size + 1):
        for g in range(len(table.alphabet)):
            d = table.rows[c - 1][2 * g]
            word = reps[c - 1] * Word.generator(table.alphabet, g + 1) * reps[d - 1].inverse()
            if word.is_identity or word.letters in seen:
                continue
            seen.add(word.letters)
            out.append(word)
    return tuple(out)


def dump_table(table: CosetTable) -> str:
    """One line per coset: targets under generators, then under inverses."""
    ngens = len(table.alphabet)
    cols = [2 * g for g in range(ngens)] + [2 * g + 1 for g in range(ngens)]
    lines = []
    for row in table.rows:
        lines.append("\t".join(str(row[col]) for col in cols))
    return "\n".join(lines) + "\n"


def parse_table_dump(alphabet: Alphabet, text: str) -> CosetTable:
    ngens = len(alphabet)
    cols = [2 * g for g in range(ngens)] + [2 * g + 1 for g in range(ngens)]
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2 * ngens:
            raise ParseError(
                f"line {lineno}: expected {2 * ngens} entries, got {len(parts)}"
            )
        try:
            values = [int(p) for p in parts]
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer table entry") from None
        row = [0] * (2 * ngens)
        for col, v in zip(cols, values):
            row[col] = v
        rows.append(tuple(row))
    if not rows:
        raise ParseError("table dump has no rows")
    try:
        return CosetTable(alphabet, tuple(rows))
    except InputError as exc:
        raise ParseError(f"inconsistent table dump: {exc}") from exc
