"""Todd-Coxeter coset enumeration over a finite presentation.

Two table forms: a mutable engine used while enumerating (one list per
column indexed by coset id, with a union-find over ids and a coincidence
queue) and an immutable closed table (:class:`CosetTable`) used by
everything else.  Signed letters map to column indices so that a column's
inverse is ``col ^ 1``.  Coset ids are dense positive integers; ids freed by
coincidences are never reused within a run, and a snapshot numbers the
live cosets breadth-first from coset 1, so every table the enumerator
returns is standardized.

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
from itertools import chain, count, repeat
from typing import Iterable, Sequence

from .errors import InputError, ParseError, PreconditionError
from .perms import PermutationRep, _closure
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
    """Closed action of the generators on cosets 1..n.

    ``rows[c - 1][col]`` is the image of coset c under the column's signed
    letter.  Every entry is defined and has its mirror, so each column is a
    permutation of the cosets and the inverse column its inverse.
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
            if 0 in row:
                raise InputError(f"row {c} has an undefined entry")
        for c, row in enumerate(rows, start=1):
            for col, d in enumerate(row):
                if not 1 <= d <= n:
                    raise InputError(f"entry {d} out of range in row {c}")
                if rows[d - 1][col ^ 1] != c:
                    raise InputError(
                        f"action inconsistency: {c} -> {d} lacks mirror on column {col ^ 1}"
                    )

    @property
    def size(self) -> int:
        return len(self.rows)


def trace(table: CosetTable, start: int, w: Word) -> int:
    """Follow ``w`` letter by letter from ``start``."""
    if not 1 <= start <= table.size:
        raise InputError(f"coset {start} out of range 1..{table.size}")
    _require_same_alphabet(table.alphabet, w.alphabet)
    c = start
    rows = table.rows
    for x in w.letters:
        c = rows[c - 1][_col_of(x)]
    return c


class _Engine:
    """Mutable enumeration state on columns: ``cols[col][c]`` is the image
    of coset c under the column's signed letter, 0 where undefined, with
    index 0 unused.  ``p`` is the union-find over coset ids: ``p[c]`` is c
    for a live coset, a smaller id for a dead one, and 0 for an id not yet
    handed out.  ``pairs`` holds each column with its inverse column.  The
    lists grow in place (:meth:`grow`), so a list bound once stays the
    engine's list, and every entry of a dead coset is 0."""

    def __init__(self, cols: list[list[int]], p: list[int]):
        self.cols = cols
        self.p = p
        self.pairs = [(col, cols[c ^ 1]) for c, col in enumerate(cols)]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "_Engine":
        return cls([[0, *col] for col in zip(*rows)], list(range(len(rows) + 1)))

    def grow(self) -> None:
        """Double the room for coset ids."""
        n = len(self.p)
        for col in self.cols:
            col += [0] * n
        self.p += [0] * n

    def find(self, c: int) -> int:
        p = self.p
        root = c
        while p[root] != root:
            root = p[root]
        while p[c] != root:
            p[c], c = root, p[c]
        return root

    def _merge(self, a: int, b: int, queue: list[int]) -> None:
        a, b = self.find(a), self.find(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        self.p[b] = a
        queue.append(b)

    def coincide(self, a: int, b: int) -> int:
        """Identify two cosets and propagate until the table is consistent;
        returns the number of cosets that died.

        The entries of dying cosets are migrated eagerly onto their
        survivors and cleared; an edge that lands on an already defined
        entry queues a further merge.
        """
        find, merge, pairs = self.find, self._merge, self.pairs
        queue: list[int] = []
        merge(a, b, queue)
        # the queue grows as it is walked
        for dead in queue:
            for column, inverse in pairs:
                f = column[dead]
                if not f:
                    continue
                column[dead] = 0
                if inverse[f] == dead:
                    inverse[f] = 0
                mu = find(dead)
                nu = find(f)
                t = column[mu]
                if t:
                    merge(nu, t, queue)
                else:
                    t = inverse[nu]
                    if t:
                        merge(mu, t, queue)
                    else:
                        column[mu] = nu
                        inverse[nu] = mu
        return len(queue)

    def snapshot(self, alphabet: Alphabet) -> CosetTable:
        """The live cosets as a standardized closed table: numbered
        breadth-first from coset 1 over the generator columns, as
        :func:`standardize` numbers them.

        An undefined entry of a live coset is a fault of the enumeration
        and raises ``RuntimeError``; live cosets that coset 1 does not reach
        raise :class:`PreconditionError`."""
        cols, p, find = self.cols, self.p, self.find
        live = [c for c in range(1, len(p)) if p[c] == c]
        if not all(col[c] for col in cols for c in live):
            raise RuntimeError("enumeration left an undefined entry in a live row")
        transitions = _closure(1, cols[0::2], lambda c, col: find(col[c]))
        if len(transitions) != len(live):
            raise PreconditionError("table is not transitive from coset 1")
        return _closed_table(alphabet, transitions)


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
    enumerated or weighed; an L-presentation keeps its coverings, so each
    of its levels is prepared once in the life of the object.
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
    every coset alive at the end was processed while alive.  The two
    definition steps of the loop below, in the scan and in the fill, are
    the only readers of ``max_cosets``, and the run is otherwise
    deterministic, so a run that overflows is a prefix of the same run
    with a larger limit.

    Returns the closed table, standardized, or ``None`` when the limit was
    hit (a normal outcome that callers treat as a signal to escalate).  The
    table is verified before being returned: every relator closes from
    every coset and every subgroup generator closes from coset 1.
    """
    _require_same_alphabet(fp.alphabet, sub.alphabet)
    if max_cosets < 1:
        raise InputError("max_cosets must be positive")
    # room for 15 cosets to start with
    eng = _Engine([[0] * 16 for _ in range(2 * len(fp.alphabet))], [0, 1] + [0] * 14)
    cols, p, row, coincide = eng.cols, eng.p, eng.pairs, eng.coincide
    # each word bound to the columns of its letters and of their inverses,
    # in order: a column index reads ``column`` and ``inverse``, and a
    # signed letter x reads ``fwd`` and ``bwd``, a generator from the
    # front and an inverse from the back
    column, inverse = cols.__getitem__, [inv for _, inv in row].__getitem__
    fwd = [None, *cols[0::2], *reversed(cols[1::2])].__getitem__
    bwd = [None, *cols[1::2], *reversed(cols[0::2])].__getitem__
    subgens = [(tuple(map(fwd, g.letters)), tuple(map(bwd, g.letters))) for g in sub.generators]
    relators = [(tuple(map(column, w)), tuple(map(inverse, w))) for w in _prepared_relators(fp)]
    # the subgroup generators from coset 1, then the relators from each
    # coset in id order, each followed by filling the coset's row
    passes = chain([(1, subgens, ())], zip(count(1), repeat(relators), repeat(row)))
    alive = 1
    fresh = 2
    for a, cycles, fill in passes:
        if a == fresh:
            break
        if p[a] != a:
            continue
        for fw, bw in cycles:
            # scan the cycle from a: forwards to f at letter i, backwards
            # to b at letter j
            f = b = a
            i = 0
            j = len(fw)
            while True:
                while i < j:
                    t = fw[i][f]
                    if not t:
                        break
                    f = t
                    i += 1
                else:
                    if f != b:
                        alive -= coincide(f, b)
                    break
                while j > i:
                    t = bw[j - 1][b]
                    if not t:
                        break
                    b = t
                    j -= 1
                else:
                    if f != b:
                        alive -= coincide(f, b)
                    break
                if j == i + 1:
                    fw[i][f] = b
                    bw[i][b] = f
                    break
                # define f's image under letter i as a fresh coset
                if alive >= max_cosets:
                    return None
                alive += 1
                if fresh == len(p):
                    eng.grow()
                p[fresh] = fresh
                fw[i][f] = fresh
                bw[i][fresh] = f
                f = fresh
                fresh += 1
                i += 1
            if p[a] != a:
                break
        else:
            for fw, bw in fill:
                if not fw[a]:
                    # define a's image under the column as a fresh coset
                    if alive >= max_cosets:
                        return None
                    alive += 1
                    if fresh == len(p):
                        eng.grow()
                    p[fresh] = fresh
                    fw[a] = fresh
                    bw[fresh] = a
                    fresh += 1
    table = eng.snapshot(fp.alphabet)
    _verify_closed(table, fp, sub)
    return table


def _verify_closed(table: CosetTable, fp: FinitePresentation, sub: SubgroupSpec) -> None:
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
    """The quotient of ``table`` in which each pair of cosets coincides,
    standardized.  Coset 1 must reach every coset of the quotient, as it
    does when ``table`` is transitive; otherwise :class:`PreconditionError`."""
    eng = _Engine.from_rows(table.rows)
    for c, d in pairs:
        if not (1 <= c <= table.size and 1 <= d <= table.size):
            raise InputError(f"coset pair ({c}, {d}) out of range")
        eng.coincide(c, d)
    return eng.snapshot(table.alphabet)


def standardize(table: CosetTable, base: int = 1) -> CosetTable:
    """Relabel cosets in breadth-first discovery order over the generators,
    starting from ``base`` as the new coset 1.

    Two closed tables describe the same subgroup of the same presentation
    exactly when their standardized forms are identical.  With ``base`` = c
    the result is the table of the conjugate subgroup stabilizing coset c.
    """
    n = table.size
    if not 1 <= base <= n:
        raise InputError(f"coset {base} out of range 1..{n}")
    transitions = _closure(base - 1, _generator_columns(table), lambda c, col: col[c])
    if len(transitions) != n:
        raise PreconditionError(f"table is not transitive from coset {base}")
    return _closed_table(table.alphabet, transitions)


def _closed_table(alphabet: Alphabet, transitions: Sequence[Sequence[int]]) -> CosetTable:
    """The closed table whose generator columns are the 0-based row-major
    ``transitions``, as :func:`perms._closure` numbers them: coset i + 1
    times generator g + 1 is coset ``transitions[i][g]`` + 1.  Each inverse
    column is filled in as the inverse of its generator's column."""
    ngens = len(alphabet)
    rows = [[0] * (2 * ngens) for _ in transitions]
    for c, (row, targets) in enumerate(zip(rows, transitions), start=1):
        for g, d in enumerate(targets):
            row[2 * g] = d + 1
            rows[d][2 * g + 1] = c
    return CosetTable(alphabet, rows)


def _generator_columns(table: CosetTable) -> list[list[int]]:
    """The 0-based generator columns of a closed table."""
    return [[row[2 * g] - 1 for row in table.rows] for g in range(len(table.alphabet))]


def to_perm_rep(table: CosetTable) -> PermutationRep:
    """The permutation action of each generator on the cosets.  A closed
    table's generator columns are permutations, because every entry has its
    mirror, so they are not checked again."""
    return PermutationRep.from_tables(table.alphabet, table.size, _generator_columns(table))


def coset_representatives(table: CosetTable) -> list[Word]:
    """Shortest transversal words, breadth-first, generators before inverses."""
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
