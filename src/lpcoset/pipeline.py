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

A generator that every endomorphism maps to itself has the same image
under every walk word as under the root.  When the root's images of these
fixed generators generate its image group, no kernel test of the walk can
succeed, so the walk is settled: it prunes by equal generator images
alone.  Every endomorphism of the free Burnside groups' L-presentation
fixes a1..an, so their walks run no kernel test.
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
from .words import Word, _require_same_alphabet, describe_endo_word

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
    endomorphism word (its factors, indices into the family, the leftmost
    applied first), the offending permutation, and one coset it moves."""

    relator: Word
    endo: tuple[int, ...]
    image: Permutation
    coset: int


@dataclass(frozen=True)
class ValidityOutcome:
    """The verdict of :func:`is_valid_perm_rep`, its witness when invalid,
    the kept words in walk order (the root first), the words whose
    relators were checked, the reduction pair of a valid one-endomorphism
    walk, and ``capped``: the number of kept words whose image group some
    kernel test needed and found past the cap.  A word is its factor
    tuple, as in :class:`InvalidWitness`."""

    valid: bool
    witness: InvalidWitness | None
    visited: tuple[tuple[int, ...], ...]
    relator_checks: tuple[tuple[int, ...], ...]
    reduction_pair: tuple[int, int] | None = None
    capped: int = 0


def _relator_witness(
    relators: Sequence[Word], rep: PermutationRep, endo: tuple[int, ...]
) -> InvalidWitness | None:
    """Witness for ``endo``: the first of ``relators`` that ``rep`` does not
    kill.  Images are compared encoded; only a witness's is decoded."""
    for r, img, coset in rep.outside_kernel(relators):
        return InvalidWitness(r, endo, rep.permutation(img), coset)
    return None


def _fixed_order(lp: LPresentation, phi: PermutationRep) -> int:
    """The order of the group generated by the images under ``phi`` of the
    fixed generators, those that every endomorphism maps to themselves."""
    fixed = [
        t
        for g, t in enumerate(phi.generators)
        if all(e.images[g].letters == (g + 1,) for e in lp.endomorphisms)
    ]
    return len(_closure(phi.identity, fixed, phi.compose))


def is_valid_perm_rep(
    lp: LPresentation, phi: PermutationRep, cap: int = DEFAULT_REDUCTION_CAP
) -> ValidityOutcome:
    """Decide whether the coset count of ``phi`` is the true index.

    Breadth-first walk over the endomorphism monoid: dequeue a word and
    prune it if its kernel contains the kernel of a kept word sigma (equal
    generator images, then :func:`kernel_contained` against every kept word
    in walk order, each kept word's image group built at its first test);
    its relator images then die with sigma's, so it needs no relator test.
    Otherwise test the iterated relators under it, keep it, and enqueue its
    one-step extensions.  A word is the tuple of its factors, indices into
    ``lp.endomorphisms`` applied left to right, and an extension prepends
    a factor, applied first.  Breadth first, children prepended in family
    order, the kept words come out in length-then-rightmost-lexicographic
    order.  The queue drains because representations repeat once the
    finitely many generator-image tuples are exhausted, and repeats always
    reduce.  With one endomorphism the walk stops at the first pruned
    power j, reducing to the i-th; a valid outcome records ``(i, j)`` as
    ``reduction_pair``.

    At the first search, where the root's image group is built, the walk
    may settle.  A generator x is fixed when every endomorphism maps it to
    the one-letter word x; then every walk word sigma, phi after
    endomorphisms, has sigma(x) = phi(x), and im(sigma) lies in im(phi).
    If ker(sigma) lies in ker(rho), then sigma(y) -> rho(y) on the
    generators extends to a homomorphism theta of im(sigma) onto im(rho),
    and theta fixes every phi(x) for fixed x.  Should these generate
    im(phi), theta is the identity, so rho = sigma on every generator: the
    equality that the walk checks first.  So when the fixed generators'
    images generate im(phi), every kernel test would fail, and the settled
    walk runs none.  The check is one closure, and is off when im(phi) is
    past ``cap``.

    ``capped`` counts the kept words whose image group some kernel test
    needed and found past ``cap``, so that no kernel containment in them was
    tested; a settled walk has none, as im(phi) is within ``cap``.
    """
    _require_same_alphabet(lp.alphabet, phi.alphabet)
    if cap < 1:
        raise InputError("cap must be positive")
    # fixed relators and iterated ones at the identity word are relators of
    # every covering presentation: every enumerated table kills them
    for name, relators in (("fixed", lp.fixed), ("iterated", lp.iterated)):
        w = _relator_witness(relators, phi, ())
        if w is not None:
            raise PreconditionError(
                f"{name} relator {w.relator} is not in the kernel of the representation"
            )
    family = lp.endomorphisms
    visited = [((), phi)]
    groups: list[ImageGroup | None] = []
    settled = False
    by_images = {phi.generators: 0}
    queue = [((k,), phi) for k in range(len(family))]
    witness = None
    pair = None
    for delta, parent in queue:
        # built on dequeue from the kept parent, so only kept ones stay alive
        rep_d = parent.precompose(family[delta[0]])
        kept = by_images.get(rep_d.generators)
        if kept is None and not groups:
            groups.append(image_group(phi, cap))
            settled = groups[0] is not None and _fixed_order(lp, phi) == groups[0].order
        if kept is None and not settled:
            for i, (_, sigma) in enumerate(visited):
                if i == len(groups):  # built on first use, in walk order
                    groups.append(image_group(sigma, cap))
                # an image group past the cap gives a conservative "no reduction"
                if groups[i] is not None and kernel_contained(sigma, rep_d, cap, groups[i]):
                    kept = i
                    break
        if kept is not None:
            if len(family) == 1:
                pair = (kept, len(delta))
            continue
        witness = _relator_witness(lp.iterated, rep_d, delta)
        if witness is not None:
            break
        by_images[rep_d.generators] = len(visited)
        visited.append((delta, rep_d))
        queue.extend(((k, *delta), rep_d) for k in range(len(family)))
    words = tuple(delta for delta, _ in visited)
    return ValidityOutcome(
        valid=witness is None,
        witness=witness,
        visited=words,
        relator_checks=words[1:] if witness is None else (*words[1:], witness.endo),
        reduction_pair=pair,
        capped=groups.count(None),
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
    if trace is None:
        return outcome
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
            endo=describe_endo_word(w.endo, lp.endomorphism_names),
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


def _attempts(
    config: EnumerationConfig, weight: Callable[[int], int | None]
) -> Iterator[tuple[int, int]]:
    """The ``(level, max_cosets)`` pair of every Todd-Coxeter attempt.

    The first pair is ``initial_level`` at the first limit, and the last is
    the deepest level at the ceiling, the only attempt there.  The deepest
    level is ``initial_level`` plus one level per limit past the first,
    or the level before the first that ``weight`` refuses (``None``).  In
    between come the pairs of the levels from ``initial_level`` to the
    deepest with the limits below the ceiling, in increasing estimated
    work ``limit * weight(level)``, ties to the shallower level.  A level
    counts as at least as heavy as the one before, so no pair comes after
    one at a level as deep or deeper with a limit as large or larger, whose
    overflow would have implied its own.

    No weight is read before the first pair.  ``weight`` is read once per
    level, in level order: the next level is weighed only when its least
    possible work, the weight of the level before at the first limit, is
    the least open one.  A refused level is never yielded, and no deeper
    one is weighed.
    """
    limits = _limits(config)
    first = config.initial_level
    yield first, limits[0]
    if len(limits) == 1:
        return
    deepest = first + len(limits) - 1
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
            w = weight(first + i)
            if w is None:
                deepest = first + i - 1
            else:
                weights.append(max(w, weights[-1]))
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
      cheapest open one.  A level that :meth:`LPresentation.covering`
      refuses (``MAX_COVERING_LETTERS``) ends the levels: the attempts go
      no deeper, and the last is the level before at the hard ceiling, so
      a small ``escalation_factor`` ends in :class:`GaveUp`, not in the
      covering's :class:`ResourceLimitError`.  Only a refused initial
      level raises that, on the first attempt.  A level that adds no
      relator (its covering is the one weighed last) ends the levels too.
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

    weighed = [None]

    def weight(level: int) -> int | None:
        try:
            cover = lp.covering(level)
        except ResourceLimitError:
            return None
        if cover is weighed[-1]:
            return None
        weighed.append(cover)
        return sum(map(len, _prepared_relators(cover))) + 2 * m

    attempts = _attempts(config, weight)
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
