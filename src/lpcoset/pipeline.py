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
from functools import cache
from typing import Callable, Iterator, Sequence

from .coset_enum import (
    DEFAULT_MAX_COSETS,
    CosetTable,
    _prepared_relators,
    merge_coincidences,
    standardize,
    to_perm_rep,
    todd_coxeter,
)
from .errors import GaveUp, InputError, PreconditionError, ResourceLimitError
from .perms import (
    ImageGroup,
    Permutation,
    PermutationRep,
    image_group,
    kernel_contained,
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
    """A relator image outside the kernel: which relator, which
    endomorphism word, the offending permutation, and one coset it moves."""

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


def _relator_witness(
    relators: Sequence[Word], rep: PermutationRep, endo: EndoWord
) -> InvalidWitness | None:
    """Witness for ``endo``: the first of ``relators`` that ``rep`` does not
    kill.  Images are compared encoded; only a witness's is decoded."""
    for r, img, coset in rep.outside_kernel(relators):
        return InvalidWitness(r, endo, rep.permutation(img), coset)
    return None


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
    identity = lp.identity_endo_word()
    # fixed relators and iterated ones at the identity word are relators of
    # every covering presentation: every enumerated table kills them
    for name, relators in (("fixed", lp.fixed), ("iterated", lp.iterated)):
        w = _relator_witness(relators, phi, identity)
        if w is not None:
            raise PreconditionError(
                f"{name} relator {w.relator} is not in the kernel of the representation"
            )
    visited = [(identity, phi)]
    groups: list[ImageGroup | None] = []
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
            for i, (_, sigma) in enumerate(visited):
                if i == len(groups):  # built on first use, in walk order
                    groups.append(image_group(sigma, cap))
                # an image group past the cap gives a conservative "no reduction"
                if groups[i] is not None and kernel_contained(sigma, rep_d, cap, groups[i]):
                    kept = i
                    break
        if kept is not None:
            if len(delta.family) == 1:
                pair = (kept, delta.length)
            continue
        checks.append(delta)
        witness = _relator_witness(lp.iterated, rep_d, delta)
        if witness is not None:
            break
        by_images[rep_d.generators] = len(visited)
        visited.append((delta, rep_d))
        queue.extend((child, rep_d) for child in delta.descendants())
    return ValidityOutcome(
        valid=witness is None,
        witness=witness,
        visited=tuple(endo for endo, _ in visited),
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


def fold_invalid(table: CosetTable, witness: InvalidWitness) -> CosetTable:
    """Merge every coset with its image under the offending relator word.

    The quotient of a closed table stays closed, so no re-enumeration is
    needed.
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

    Termination is guaranteed only when the index is finite; hitting the
    hard ceiling raises :class:`GaveUp`, which asserts nothing about the
    index.
    """
    _require_same_alphabet(lp.alphabet, sub.alphabet)
    covering = cache(lp.covering)
    columns = 2 * len(lp.alphabet)

    def weight(level: int) -> int:
        return sum(map(len, _prepared_relators(covering(level)))) + columns

    attempts = _attempts(config, len(lp.endomorphisms), len(lp.alphabet), weight)
    for escalations, (level, limit) in enumerate(attempts):
        if escalations:
            _emit(trace, "escalate", level=level, max_cosets=limit)
        table = todd_coxeter(covering(level), sub, max_cosets=limit)
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
