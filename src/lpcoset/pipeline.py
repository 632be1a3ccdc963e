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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence

from .coset_enum import (
    DEFAULT_MAX_COSETS,
    CosetTable,
    merge_coincidences,
    standardize,
    to_perm_rep,
    todd_coxeter,
    trace as table_trace,
)
from .errors import GaveUp, InputError, PreconditionError, ResourceLimitError
from .perms import (
    ImageGroup,
    Permutation,
    PermutationRep,
    image_group,
    kernel_contained,
    word_image,
)
from .presentations import LPresentation, SubgroupSpec
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
    """A relator image outside the kernel: which relator, which composite,
    the offending permutation, and one coset it moves."""

    relator: Word
    endo: EndoWord
    image: Permutation
    coset: int


@dataclass(frozen=True)
class ValidityOutcome:
    valid: bool
    witness: InvalidWitness | None
    visited: tuple[EndoWord, ...]
    relator_checks: tuple[EndoWord, ...]
    reduction_pair: tuple[int, int] | None = None


def _check_level_zero(lp: LPresentation, phi: PermutationRep) -> None:
    """Every fixed relator and every iterated relator (at the identity
    composite) must already die under the representation; both are relators
    of every covering presentation, so any table produced by an enumeration
    satisfies this."""
    for name, relators in (("fixed", lp.fixed), ("iterated", lp.iterated)):
        for r in relators:
            if not word_image(phi, r).is_identity:
                raise PreconditionError(
                    f"{name} relator {r} is not in the kernel of the representation"
                )


def _relator_witness(
    lp: LPresentation, rep: PermutationRep, endo: EndoWord
) -> InvalidWitness | None:
    """Witness for ``endo``: the first iterated relator ``rep`` does not kill."""
    for r in lp.iterated:
        img = word_image(rep, r)
        if not img.is_identity:
            coset = next(c for c in range(1, img.degree + 1) if img.apply(c) != c)
            return InvalidWitness(r, endo, img, coset)
    return None


class _Visited:
    """One kept endomorphism word with its representation and lazy image group."""

    __slots__ = ("endo", "rep", "_group", "_exceeded")

    def __init__(self, endo: EndoWord, rep: PermutationRep):
        self.endo = endo
        self.rep = rep
        self._group: ImageGroup | None = None
        self._exceeded = False

    def group(self, cap: int) -> ImageGroup | None:
        if self._group is None and not self._exceeded:
            self._group = image_group(self.rep, cap)
            self._exceeded = self._group is None
        return self._group


def is_valid_perm_rep(
    lp: LPresentation, phi: PermutationRep, cap: int = DEFAULT_REDUCTION_CAP
) -> ValidityOutcome:
    """Decide whether the coset count of ``phi`` is the true index.

    Breadth-first walk over the endomorphism monoid: dequeue a word and
    prune it if its kernel contains the kernel of a kept word sigma (equal
    generator images, then :func:`kernel_contained`); its relator images
    then die with sigma's, so it needs no relator test.  Otherwise test the
    iterated relators under it, keep it, and enqueue its one-step
    extensions.  The queue drains because representations repeat once the
    finitely many generator-image tuples are exhausted, and repeats always
    reduce.  With one endomorphism the walk stops at the first pruned
    power j, reducing to the i-th; a valid outcome records ``(i, j)`` as
    ``reduction_pair``.
    """
    _require_same_alphabet(lp.alphabet, phi.alphabet)
    if cap < 1:
        raise InputError("cap must be positive")
    _check_level_zero(lp, phi)
    identity = lp.identity_endo_word()
    visited = [_Visited(identity, phi)]
    by_images = {phi.generator_images(): 0}
    queue: list[tuple[EndoWord, PermutationRep]] = [
        (e, phi.precompose(e.family[e.factors[0]])) for e in identity.descendants()
    ]
    head = 0
    checks: list[EndoWord] = []
    witness = None
    pair = None
    while head < len(queue):
        delta, rep_d = queue[head]
        head += 1
        kept = by_images.get(rep_d.generator_images())
        if kept is None:
            for i, entry in enumerate(visited):
                group = entry.group(cap)
                # an image group past the cap gives a conservative "no reduction"
                if group is not None and kernel_contained(entry.rep, rep_d, cap, group):
                    kept = i
                    break
        if kept is not None:
            if len(delta.family) == 1:
                pair = (kept, delta.length)
            continue
        checks.append(delta)
        witness = _relator_witness(lp, rep_d, delta)
        if witness is not None:
            break
        by_images[rep_d.generator_images()] = len(visited)
        visited.append(_Visited(delta, rep_d))
        for k in range(len(delta.family)):
            child = EndoWord(
                delta.alphabet,
                delta.family,
                (k,) + delta.factors,
                delta.family[k].then(delta.composite),
            )
            queue.append((child, rep_d.precompose(delta.family[k])))
    return ValidityOutcome(
        valid=witness is None,
        witness=witness,
        visited=tuple(v.endo for v in visited),
        relator_checks=tuple(checks),
        reduction_pair=pair,
    )


def cyclic_reduction_pair(
    lp: LPresentation,
    phi: PermutationRep,
    cap: int = DEFAULT_REDUCTION_CAP,
    cap_ceiling: int = 10**7,
) -> tuple[int, int]:
    """For a single-endomorphism family: least j, then least i < j, with the
    kernel of the i-th power's representation inside the j-th power's.

    Such a pair always exists because there are finitely many candidate
    representations.  When the image-group enumeration overruns the cap the
    test retries with a doubled cap up to ``cap_ceiling``.

    The validity decision does not call this: :func:`is_valid_perm_rep`
    finds the same pair where a one-endomorphism walk stops.  It stays as
    public API and as the reference that the walk's pair is tested against.
    """
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
            if reps[i].perms == reps[j].perms:
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
            if kernel_contained(reps[i], reps[j], attempt, ig):
                return (i, j)


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


def fold_invalid(
    table: CosetTable, witness: InvalidWitness, relators: Sequence[Word] = ()
) -> CosetTable:
    """Merge every coset with its image under the offending relator word.

    The quotient of a closed table stays closed, so no re-enumeration is
    needed; optional ``relators`` are re-traced afterwards as a guard.
    """
    img = witness.image
    if img.degree != table.size:
        raise InputError("witness degree does not match the table")
    pairs = [(c, img.apply(c)) for c in range(1, table.size + 1) if img.apply(c) != c]
    if not pairs:
        raise PreconditionError("witness does not move any coset; nothing to fold")
    folded = merge_coincidences(table, pairs)
    if not folded.is_closed:
        raise RuntimeError("folding left the table incomplete")
    for r in relators:
        for c in range(1, folded.size + 1):
            if table_trace(folded, c, r) != c:
                raise RuntimeError(f"relator {r} broken after fold")
    return folded


def fold_to_valid(
    lp: LPresentation,
    table: CosetTable,
    cap: int = DEFAULT_REDUCTION_CAP,
    trace: Trace | None = None,
) -> tuple[CosetTable, ValidityOutcome]:
    """Fold a closed covering table until its representation is valid.

    Returns the standardized table and the final (valid) outcome.  The
    index strictly decreases with every fold, so this terminates.
    """
    while True:
        outcome = decide_validity(lp, to_perm_rep(table), cap, trace)
        if outcome.valid:
            return standardize(table), outcome
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
    was to get; ``rep`` is built from the table on first read."""

    table: CosetTable
    level_used: int
    escalations: int

    @cached_property
    def rep(self) -> PermutationRep:
        return to_perm_rep(self.table)

    @property
    def index(self) -> int:
        return self.table.size


def _attempts(config: EnumerationConfig) -> Iterator[tuple[int, int]]:
    """The ``(level, max_cosets)`` pair of every Todd-Coxeter attempt.

    Each attempt is one level deeper and has ``escalation_factor`` times
    the coset limit of the one before; every limit, the first included, is
    clamped to ``hard_ceiling``, and the attempt at the ceiling is the last.
    """
    level = config.initial_level
    limit = min(config.initial_max_cosets, config.hard_ceiling)
    while True:
        yield level, limit
        if limit >= config.hard_ceiling:
            return
        level += 1
        limit = min(limit * config.escalation_factor, config.hard_ceiling)


def enumerate_cosets(
    lp: LPresentation,
    sub: SubgroupSpec,
    config: EnumerationConfig = EnumerationConfig(),
    trace: Trace | None = None,
) -> EnumerationResult:
    """Compute the index of the subgroup, escalating truncation level and
    coset limit on overflow and folding coincidences on invalid tables.

    The attempts follow :func:`_attempts`: by default 2^8 cosets at the
    initial level, then one level deeper and 16 times the limit each time,
    up to the hard ceiling.  An attempt at a level whose covering group
    gives the subgroup infinite index overflows whatever its limit, so the
    schedule keeps those overflows cheap:

    - Overflow cost is monotone in the limit.  ``_Engine.define`` is the
      only reader of ``max_cosets`` in :func:`todd_coxeter`, so an
      overflowing run is a prefix of the same run with a larger limit.
    - Each limit is 16 times the one before until the ceiling clamps it,
      and covering relators only grow with the level (total relator
      length: Grigorchuk 43, 107, 235 at levels 0-2; B(4,2) 3, 35, 371),
      so the overflows before an unclamped attempt cost at most 1/15 of
      that attempt's budget, and at most 16/15 of it before a clamped one
      (0.07 at the default ceiling).
    - At the default ceiling of 10^6 the limits are 2^8, 2^12, 2^16, 10^6
      at levels 0-3, each no larger than under the former schedule (2^14,
      then x4: 2^14, 2^16, 2^18, 10^6), with the same final attempt, so no
      input that gives up costs more than it did.  At smaller ceilings the
      last attempt can sit one level higher than under that schedule, and
      a subgroup whose enumeration at some level needs between 2^8 and
      2^14 cosets closed there before and now overflows there and is
      retried one level deeper.

    Termination is guaranteed only when the index is finite; hitting the
    hard ceiling raises :class:`GaveUp`, which asserts nothing about the
    index.
    """
    _require_same_alphabet(lp.alphabet, sub.alphabet)
    for escalations, (level, limit) in enumerate(_attempts(config)):
        if escalations:
            _emit(trace, "escalate", level=level, max_cosets=limit)
        fp = lp.covering(level)
        table = todd_coxeter(fp, sub, max_cosets=limit)
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
