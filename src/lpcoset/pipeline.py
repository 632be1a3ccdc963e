"""Validity decision for a permutation representation of an L-presented
group, coincidence fold-back, and the complete index computation.

A closed coset table for a covering presentation gives an upper bound on
the index; it is the true index exactly when every image of every iterated
relator under the endomorphism monoid dies in the representation.  The
decision procedure walks the monoid breadth first, pruning every
endomorphism word whose kernel already contains the kernel of a previously
kept word before it tests that word's relators; with a single endomorphism
the walk stops at the first power that reduces to an earlier one, the
reduction pair.  Kernel containment is decided through Schreier generators
of the image group, with a generator-image equality fast path that also
guarantees termination.  A failed check hands back a witness whose
coincidences fold the table down without another enumeration.

Every walk word's image lies in the image group of the root.  So a kernel
test of a kept word whose images, on the generators where it agrees with
the new word, already generate that group could succeed only on equal
generator images, which the fast path has ruled out: the walk skips it
(the span filter), and skips at once the bucket of kept words that share
such an agreement.  A kept word's image group is built only when a test
needs it.  The filter is on only when the root's image group is within
the reduction cap, and then so is every kept word's, a subgroup of it, so
the count of image groups past the cap is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterator, Sequence

from .coset_enum import (
    DEFAULT_MAX_COSETS,
    CosetTable,
    _prepared_relators,
    merge_coincidences,
    standardize,  # no caller here; perfbench/tracer.py patches it (ROADMAP 5)
    to_perm_rep,
    todd_coxeter,
)
from .errors import GaveUp, InputError, PreconditionError, ResourceLimitError
from .perms import (
    ImageGroup,
    Permutation,
    PermutationRep,
    _closure,
    image_group,
    kernel_contained,
)
from .presentations import LPresentation, SubgroupSpec, abelian_rank
from .words import EndoWord, Word, _require_same_alphabet

DEFAULT_REDUCTION_CAP = 10**5

Trace = Callable[["TraceEvent"], None]


@dataclass(frozen=True)
class TraceEvent:
    """One structured log line: an event kind plus sorted key=value details."""

    kind: str
    details: tuple[tuple[str, object], ...]

    def __str__(self) -> str:
        parts = [self.kind]
        parts.extend(f"{k}={v}" for k, v in self.details)
        return " ".join(parts)

    def get(self, key: str):
        for k, v in self.details:
            if k == key:
                return v
        return None


def _emit(trace: Trace | None, kind: str, **details) -> None:
    if trace is not None:
        trace(TraceEvent(kind, tuple(sorted(details.items()))))


@dataclass(frozen=True)
class InvalidWitness:
    """A relator image outside the kernel: which relator, which
    endomorphism word, the offending permutation, and one coset it moves."""

    relator: Word
    endo: EndoWord
    image: Permutation
    coset: int


@dataclass(frozen=True)
class ValidityOutcome:
    """The verdict of :func:`is_valid_perm_rep`, its witness when invalid,
    the kept words in walk order (the root first), the words whose
    relators were checked, the reduction pair of a valid one-endomorphism
    walk, and ``capped``: the number of kept words whose image group some
    kernel test needed and found past the cap."""

    valid: bool
    witness: InvalidWitness | None
    visited: tuple[EndoWord, ...]
    relator_checks: tuple[EndoWord, ...]
    reduction_pair: tuple[int, int] | None = None
    capped: int = 0


def _relator_witness(
    relators: Sequence[Word], rep: PermutationRep, endo: EndoWord
) -> InvalidWitness | None:
    """Witness for ``endo``: the first of ``relators`` that ``rep`` does not
    kill.  Images are compared encoded; only a witness's is decoded."""
    for r, img, coset in rep.outside_kernel(relators):
        return InvalidWitness(r, endo, rep.permutation(img), coset)
    return None


class _KeptWords:
    """The representations of the validity walk's kept words, in walk
    order, and the search for the first whose kernel lies in a new word's
    (:func:`is_valid_perm_rep`).

    An agreement is ``((g, table), ...)`` over the generators g on which a
    kept word and the new one have equal tables; whether its tables
    generate im(phi), phi the root, is decided once per agreement.  A
    spanning one keys the bucket of every kept word with those tables.
    ``order`` is |im(phi)|, read at the first search; it is 0 when the
    root's image group is past the cap, and the filter is then off.
    """

    def __init__(self, phi: PermutationRep, cap: int):
        self.reps = [phi]
        self.cap = cap
        self.groups: dict[int, ImageGroup | None] = {}
        self.order: int | None = None  # |im(phi)|, 0 once past the cap
        self.spanning: dict[tuple, bool] = {}
        self.buckets: dict[tuple, set[int]] = {}
        self.loose = [0]  # the kept words in no bucket, in walk order

    def add(self, rep: PermutationRep) -> None:
        i = len(self.reps)
        self.reps.append(rep)
        homes = [members for key, members in self.buckets.items() if _agrees(rep, key)]
        for members in homes:
            members.add(i)
        if not homes:
            self.loose.append(i)

    def first_containing(self, rho: PermutationRep) -> int | None:
        """The index of the first kept word whose kernel lies in ker(rho),
        or ``None``; rho's tables differ from every kept word's."""
        if self.order is None:
            group = self.groups[0] = image_group(self.reps[0], self.cap)
            self.order = 0 if group is None else group.order
        if not self.order:
            return next((i for i in range(len(self.reps)) if self._contained(i, rho)), None)
        matched, unmatched = [], []
        for key, members in self.buckets.items():
            (matched if _agrees(rho, key) else unmatched).append(members)
        candidates = sorted(set(self.loose).union(*unmatched)) if unmatched else self.loose
        for i in candidates:
            if matched and any(i in members for members in matched):
                continue
            pairs = zip(self.reps[i].generators, rho.generators)
            agreement = tuple([(g, t) for g, (t, u) in enumerate(pairs) if t == u])
            # an empty one spans only a trivial im(phi), where no search runs
            if agreement and self._spans(agreement):
                members = {j for j, rep in enumerate(self.reps) if _agrees(rep, agreement)}
                self.buckets[agreement] = members
                self.loose = [j for j in self.loose if j not in members]
                matched.append(members)
            elif self._contained(i, rho):
                return i
        return None

    def _contained(self, i: int, rho: PermutationRep) -> bool:
        if i not in self.groups:
            self.groups[i] = image_group(self.reps[i], self.cap)
        group = self.groups[i]
        # an image group past the cap gives a conservative "no reduction"
        return group is not None and kernel_contained(self.reps[i], rho, self.cap, group)

    def _spans(self, agreement: tuple) -> bool:
        spans = self.spanning.get(agreement)
        if spans is None:
            phi = self.reps[0]
            tables = [t for _, t in agreement]
            spans = len(_closure(phi.identity, tables, phi.compose)) == self.order
            self.spanning[agreement] = spans
        return spans


def _agrees(rep: PermutationRep, agreement: tuple) -> bool:
    generators = rep.generators
    return all(generators[g] == t for g, t in agreement)


def is_valid_perm_rep(
    lp: LPresentation, phi: PermutationRep, cap: int = DEFAULT_REDUCTION_CAP
) -> ValidityOutcome:
    """Decide whether the coset count of ``phi`` is the true index.

    Breadth-first walk over the endomorphism monoid: dequeue a word and
    prune it if its kernel contains the kernel of a kept word sigma (equal
    generator images, then :func:`kernel_contained`, in walk order); its
    relator images then die with sigma's, so it needs no relator test.
    Otherwise test the iterated relators under it, keep it, and enqueue its
    one-step extensions.  The queue drains because representations repeat
    once the finitely many generator-image tuples are exhausted, and
    repeats always reduce.  With one endomorphism the walk stops at the
    first pruned power j, reducing to the i-th; a valid outcome records
    ``(i, j)`` as ``reduction_pair``.

    Kernel tests run only where they can succeed (the span filter).  Every
    walk word sigma is phi after an endomorphism, so im(sigma) lies in
    im(phi).  If ker(sigma) lies in ker(rho), then sigma(x) -> rho(x) on the
    generators extends to a homomorphism theta of im(sigma) onto im(rho).
    Should sigma and rho agree on generators A with sigma(A) generating
    im(phi), theta is the identity, so rho = sigma on every generator: the
    equality that the walk checks first, and a new word's tables differ
    from every kept word's.  So sigma is skipped, in walk order as before,
    and the first kept word that contains is the same.  Such an agreement
    keys a bucket of kept words that a matching new word skips whole.
    A kept word's image group is built only when a test needs it.

    ``capped`` counts the kept words whose image group some kernel test
    needed and found past ``cap``, so that no kernel containment in them was
    tested.  The filter leaves it unchanged: it is on only when im(phi) is
    within ``cap``, and then so is every kept word's image group, a
    subgroup of im(phi).
    """
    _require_same_alphabet(lp.alphabet, phi.alphabet)
    if cap < 1:
        raise InputError("cap must be positive")
    identity = lp.identity_endo_word()
    # fixed relators and iterated ones at the identity word are relators of
    # every covering presentation: every enumerated table kills them
    for name, relators in (("fixed", lp.fixed), ("iterated", lp.iterated)):
        w = _relator_witness(relators, phi, identity)
        if w is not None:
            raise PreconditionError(
                f"{name} relator {w.relator} is not in the kernel of the representation"
            )
    visited = [identity]
    kept_words = _KeptWords(phi, cap)
    by_images = {phi.generators: 0}
    queue: list[tuple[EndoWord, PermutationRep]] = [(e, phi) for e in identity.descendants()]
    head = 0
    checks: list[EndoWord] = []
    witness = None
    pair = None
    while head < len(queue):
        delta, parent = queue[head]
        head += 1
        # built on dequeue from the kept parent, so only kept ones stay alive
        rep_d = parent.precompose(delta.family[delta.factors[0]])
        kept = by_images.get(rep_d.generators)
        if kept is None:
            kept = kept_words.first_containing(rep_d)
        if kept is not None:
            if len(delta.family) == 1:
                pair = (kept, delta.length)
            continue
        checks.append(delta)
        witness = _relator_witness(lp.iterated, rep_d, delta)
        if witness is not None:
            break
        by_images[rep_d.generators] = len(visited)
        visited.append(delta)
        kept_words.add(rep_d)
        queue.extend((child, rep_d) for child in delta.descendants())
    return ValidityOutcome(
        valid=witness is None,
        witness=witness,
        visited=tuple(visited),
        relator_checks=tuple(checks),
        reduction_pair=pair,
        capped=list(kept_words.groups.values()).count(None),
    )


def cyclic_reduction_pair(
    lp: LPresentation, phi: PermutationRep, cap: int = DEFAULT_REDUCTION_CAP
) -> tuple[int, int]:
    """For a single-endomorphism family: least j, then least i < j, with the
    kernel of the i-th power's representation inside the j-th power's.

    This is where :func:`is_valid_perm_rep` stops on ``lp`` without its
    relators, which then cannot stop the walk early.  Such a pair always
    exists because there are finitely many candidate representations.  An
    image group past ``cap`` leaves a kernel containment untested, so the
    pair found may not be the least: that raises
    :class:`ResourceLimitError`.
    """
    if len(lp.endomorphisms) != 1:
        raise InputError("cyclic reduction needs exactly one endomorphism")
    outcome = is_valid_perm_rep(replace(lp, fixed=(), iterated=()), phi, cap)
    if outcome.capped:
        raise ResourceLimitError(f"image group of a power exceeds the cap of {cap} elements")
    return outcome.reduction_pair


def decide_validity(
    lp: LPresentation,
    phi: PermutationRep,
    cap: int = DEFAULT_REDUCTION_CAP,
    trace: Trace | None = None,
) -> ValidityOutcome:
    """:func:`is_valid_perm_rep`, with the reduction pair (valid
    one-endomorphism outcomes only) and the verdict sent to ``trace``."""
    outcome = is_valid_perm_rep(lp, phi, cap)
    if outcome.reduction_pair is not None:
        i, j = outcome.reduction_pair
        _emit(trace, "reduction-pair", i=i, j=j)
    if outcome.valid:
        _emit(trace, "validity", verdict="valid", visited=len(outcome.visited))
    else:
        w = outcome.witness
        _emit(
            trace,
            "validity",
            verdict="invalid",
            relator=str(w.relator),
            endo=w.endo.describe(lp.endomorphism_names),
            coset=w.coset,
        )
    return outcome


def fold_invalid(table: CosetTable, witness: InvalidWitness) -> CosetTable:
    """Merge every coset with its image under the offending relator word.

    The quotient of a closed table stays closed, so no re-enumeration is
    needed; it comes out standardized (:func:`merge_coincidences`).
    """
    img = witness.image
    if img.degree != table.size:
        raise InputError("witness degree does not match the table")
    pairs = [(c, img.apply(c)) for c in range(1, table.size + 1) if img.apply(c) != c]
    if not pairs:
        raise PreconditionError("witness does not move any coset; nothing to fold")
    return merge_coincidences(table, pairs)


def fold_to_valid(
    lp: LPresentation,
    table: CosetTable,
    cap: int = DEFAULT_REDUCTION_CAP,
    trace: Trace | None = None,
) -> tuple[CosetTable, ValidityOutcome]:
    """Fold a closed covering table until its representation is valid.

    Returns the table and the final (valid) outcome: ``table`` itself
    when it is valid, else its last fold, standardized by
    :func:`merge_coincidences`.  The index strictly decreases with every
    fold, so this terminates.
    """
    while True:
        outcome = decide_validity(lp, to_perm_rep(table), cap, trace)
        if outcome.valid:
            return table, outcome
        before = table.size
        table = fold_invalid(table, outcome.witness)
        _emit(trace, "fold", cosets_before=before, cosets_after=table.size)


@dataclass(frozen=True)
class EnumerationConfig:
    initial_level: int = 0
    initial_max_cosets: int = 2**8
    escalation_factor: int = 16
    hard_ceiling: int = DEFAULT_MAX_COSETS
    reduction_cap: int = DEFAULT_REDUCTION_CAP

    def __post_init__(self):
        for name in ("initial_max_cosets", "hard_ceiling", "reduction_cap"):
            if getattr(self, name) < 1:
                raise InputError(f"{name} must be positive")
        if self.initial_level < 0:
            raise InputError("initial_level must be >= 0")
        if self.escalation_factor < 2:
            raise InputError("escalation_factor must be >= 2")


@dataclass(frozen=True)
class EnumerationResult:
    """A closed, valid, standardized table for the subgroup and how hard it
    was to get."""

    table: CosetTable
    level_used: int
    escalations: int

    @property
    def index(self) -> int:
        return self.table.size


def _limits(config: EnumerationConfig) -> list[int]:
    """The coset limits: ``initial_max_cosets`` times successive powers of
    ``escalation_factor``, each clamped to ``hard_ceiling``, which is the
    last."""
    limits = [min(config.initial_max_cosets, config.hard_ceiling)]
    while limits[-1] < config.hard_ceiling:
        limits.append(min(limits[-1] * config.escalation_factor, config.hard_ceiling))
    return limits


def _deepest_level(config: EnumerationConfig, endomorphisms: int, generators: int) -> int:
    """The deepest covering level an attempt may use: ``initial_level``
    plus one level per limit past the first, lowered to the deepest level
    whose covering has at most ``hard_ceiling / (2 * generators)``
    endomorphism words, the entries of a table at the ceiling, but not
    below ``initial_level``.

    Level L has ``sum(e**i for i <= L)`` words for e endomorphisms, so this
    is known before any covering is built.
    """
    e = endomorphisms
    level = config.initial_level
    top = level + len(_limits(config)) - 1
    words = sum(e**i for i in range(level + 1))
    while level < top:
        words += e ** (level + 1)
        if words * 2 * generators > config.hard_ceiling:
            break
        level += 1
    return level


def _attempts(
    config: EnumerationConfig,
    endomorphisms: int,
    generators: int,
    weight: Callable[[int], int],
) -> Iterator[tuple[int, int]]:
    """The ``(level, max_cosets)`` pair of every Todd-Coxeter attempt for
    a presentation with the given numbers of endomorphisms and generators.

    The first pair is ``initial_level`` at the first limit, and the last is
    the deepest level (:func:`_deepest_level`) at the ceiling, the only
    attempt there.  In between come the pairs of the levels from
    ``initial_level`` to the deepest with the limits below the ceiling, in
    increasing estimated work ``limit * weight(level)``, ties to the
    shallower level.  A level counts as at least as heavy as the one
    before, so no pair comes after one at a level as deep or deeper with a
    limit as large or larger, whose overflow would have implied its own.

    Neither weights nor the deepest level are computed before the first
    pair.  ``weight`` is read once per level, in level order: the next
    level is weighed only when its least possible work, the weight of the
    level before at the first limit, is the least open one.
    """
    limits = _limits(config)
    first = config.initial_level
    yield first, limits[0]
    if len(limits) == 1:
        return
    deepest = _deepest_level(config, endomorphisms, generators)
    below = limits[:-1]
    weights = [weight(first)]
    tried = [1]
    while True:
        open_pairs = [
            (below[k] * w, i) for i, (w, k) in enumerate(zip(weights, tried)) if k < len(below)
        ]
        if first + len(weights) <= deepest:
            open_pairs.append((below[0] * weights[-1], len(weights)))
        if not open_pairs:
            break
        _, i = min(open_pairs)
        if i == len(weights):
            weights.append(max(weight(first + i), weights[-1]))
            tried.append(0)
            continue
        yield first + i, below[tried[i]]
        tried[i] += 1
    yield deepest, limits[-1]


def enumerate_cosets(
    lp: LPresentation,
    sub: SubgroupSpec,
    config: EnumerationConfig = EnumerationConfig(),
    trace: Trace | None = None,
) -> EnumerationResult:
    """Compute the index of the subgroup, escalating truncation level and
    coset limit on overflow and folding coincidences on invalid tables.

    The attempts follow :func:`_attempts`: by default 2^8 cosets at the
    initial level, then the levels up to three deeper at 2^8, 2^12 and
    2^16 cosets in increasing estimated work, then the deepest level at
    the hard ceiling.  A level whose covering group gives the subgroup
    infinite index overflows at every limit, so the order keeps the
    overflows cheap:

    - Overflow cost is monotone in the limit.  ``_Engine.define`` is the
      only reader of ``max_cosets`` in :func:`todd_coxeter`, so an
      overflowing run is a prefix of the same run with a larger limit, and
      a closing run is the same whatever limit lets it close.
    - A run at limit N over a covering of weight w (prepared relator
      letters plus two columns per generator) does about N * w work.
      Attempts come in increasing estimated work, and on one level the
      limits grow by ``escalation_factor`` f, so the overflows before an
      attempt cost at most f / (f - 1) of its estimated work per level
      tried (16/15 by default).
    - A covering is built only when its level's cheapest attempt is the
      cheapest open one, and none has more than ``hard_ceiling / (2 *
      generators)`` endomorphism words (:func:`_deepest_level`), so a
      small ``escalation_factor`` cannot build coverings beyond the memory
      of a table at the ceiling.
    - ``lp`` keeps every covering it builds, and each covering keeps its
      prepared relators (:meth:`LPresentation.covering`), so a level is
      built and prepared once for every query on the same presentation
      object; a weight or attempt at a level built before reads it back.
    - An attempt whose overflow is certain skips the enumerator: when the
      exponent sums of the covering's relators and the subgroup's
      generators span less than Q^m for m generators
      (:func:`abelian_rank`), H * G_L' and so H have infinite index in the
      covering group G_L.  The attempt counts as one all the same and
      traces ``tc-infinite`` in place of ``tc-overflow``.  The certificate
      concerns G_L only and says nothing about the index in the
      L-presented group, so it changes no answer.

    Termination is guaranteed only when the index is finite; hitting the
    hard ceiling raises :class:`GaveUp`, which asserts nothing about the
    index.
    """
    _require_same_alphabet(lp.alphabet, sub.alphabet)
    m = len(lp.alphabet)

    def weight(level: int) -> int:
        return sum(map(len, _prepared_relators(lp.covering(level)))) + 2 * m

    attempts = _attempts(config, len(lp.endomorphisms), m, weight)
    for escalations, (level, limit) in enumerate(attempts):
        if escalations:
            _emit(trace, "escalate", level=level, max_cosets=limit)
        cover = lp.covering(level)
        rank = abelian_rank(cover, sub.generators)
        if rank < m:
            _emit(trace, "tc-infinite", level=level, max_cosets=limit, rank=rank, generators=m)
            continue
        table = todd_coxeter(cover, sub, max_cosets=limit)
        if table is None:
            _emit(trace, "tc-overflow", level=level, max_cosets=limit)
            continue
        _emit(trace, "tc-closed", level=level, cosets=table.size)
        table, _ = fold_to_valid(lp, table, config.reduction_cap, trace)
        return EnumerationResult(table=table, level_used=level, escalations=escalations)
    raise GaveUp(
        f"no closed table within {limit} cosets at level {level}",
        level=level,
        max_cosets=limit,
    )
