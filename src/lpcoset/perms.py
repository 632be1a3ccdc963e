"""Permutations of {1..n}, representations of a free group by permutations,
image-group enumeration with Schreier words, and the kernel-containment
test between two composed representations.

Permutations act on the right and compose left to right: ``(p * q)`` means
apply ``p`` first.  This matches the convention of tracing a word through a
coset table letter by letter, so taking images of words is a homomorphism.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Literal, Sequence

from .errors import InputError, ParseError
from .words import Alphabet, EndoWord, Word, _require_same_alphabet


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1..n}; ``images[i-1]`` is the image of point i."""

    images: tuple[int, ...]

    def __post_init__(self):
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise InputError(f"{images} is not a permutation of 1..{n}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_cycles(cls, n: int, cycles: Sequence[Sequence[int]]) -> "Permutation":
        images = list(range(1, n + 1))
        for cycle in cycles:
            for p in cycle:
                if not 1 <= p <= n:
                    raise InputError(f"point {p} out of range 1..{n}")
            for i, p in enumerate(cycle):
                images[p - 1] = cycle[(i + 1) % len(cycle)]
        return cls(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    @property
    def is_identity(self) -> bool:
        return all(img == i + 1 for i, img in enumerate(self.images))

    def apply(self, point: int) -> int:
        return self.images[point - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Apply ``self`` first, then ``other``."""
        if self.degree != other.degree:
            raise InputError("degree mismatch in permutation product")
        o = other.images
        return Permutation(tuple(o[i - 1] for i in self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, img in enumerate(self.images):
            inv[img - 1] = i + 1
        return Permutation(tuple(inv))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least point."""
        seen = [False] * len(self.images)
        out = []
        for i in range(1, len(self.images) + 1):
            if seen[i - 1] or self.images[i - 1] == i:
                continue
            cycle = [i]
            seen[i - 1] = True
            j = self.images[i - 1]
            while j != i:
                cycle.append(j)
                seen[j - 1] = True
                j = self.images[j - 1]
            out.append(tuple(cycle))
        return out

    def __str__(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + ",".join(str(p) for p in c) + ")" for c in cycles)


_CYCLE_RE = re.compile(r"\(\s*([0-9,\s]*?)\s*\)")


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse cycle notation such as ``(1,2,3)`` or ``()``."""
    rest = text.strip()
    if not rest:
        raise ParseError(f"cannot parse permutation {text!r}")
    cycles = []
    pos = 0
    while pos < len(rest):
        m = _CYCLE_RE.match(rest, pos)
        if not m:
            raise ParseError(f"cannot parse permutation {text!r}")
        body = m.group(1).strip()
        if body:
            points = [int(p) for p in re.split(r"[,\s]+", body)]
            if len(points) > 1:
                cycles.append(points)
        pos = m.end()
        while pos < len(rest) and rest[pos].isspace():
            pos += 1
    return Permutation.from_cycles(degree, cycles)


@dataclass(frozen=True)
class PermutationRep:
    """One permutation of {1..degree} per generator of the alphabet."""

    alphabet: Alphabet
    degree: int
    perms: tuple[Permutation, ...]
    _inverses: dict = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        perms = tuple(self.perms)
        object.__setattr__(self, "perms", perms)
        object.__setattr__(self, "_inverses", {})
        if len(perms) != len(self.alphabet):
            raise InputError(
                f"expected {len(self.alphabet)} permutations, got {len(perms)}"
            )
        for p in perms:
            if p.degree != self.degree:
                raise InputError("permutation degree mismatch")

    @classmethod
    def trivial(cls, alphabet: Alphabet, degree: int = 1) -> "PermutationRep":
        ident = Permutation.identity(degree)
        return cls(alphabet, degree, tuple(ident for _ in alphabet.names))

    def letter_image(self, letter: int) -> Permutation:
        p = self.perms[abs(letter) - 1]
        if letter > 0:
            return p
        inv = self._inverses.get(letter)
        if inv is None:
            inv = p.inverse()
            self._inverses[letter] = inv
        return inv

    def generator_images(self) -> tuple[tuple[int, ...], ...]:
        """Hashable fingerprint of the representation."""
        return tuple(p.images for p in self.perms)

    def precompose(self, endo) -> "PermutationRep":
        """The representation w -> self(endo(w))."""
        return PermutationRep(
            self.alphabet,
            self.degree,
            tuple(word_image(self, endo.images[g]) for g in range(len(self.alphabet))),
        )


def word_image(phi: PermutationRep, w: Word) -> Permutation:
    """Image of a word: the product of its letter images."""
    _require_same_alphabet(phi.alphabet, w.alphabet)
    images = list(range(1, phi.degree + 1))
    for x in w.letters:
        p = phi.letter_image(x).images
        images = [p[i - 1] for i in images]
    return Permutation(tuple(images))


def endo_image(phi: PermutationRep, e: EndoWord) -> PermutationRep:
    """The representation of the composite ``e`` followed by ``phi``.

    Built by peeling factors off the left, so the image words that get
    traced are the short single-factor images rather than the full
    composite, whose letter count can grow geometrically in ``e.length``.
    """
    _require_same_alphabet(phi.alphabet, e.alphabet)
    rep = phi
    for k in reversed(e.factors):
        rep = rep.precompose(e.family[k])
    return rep


@dataclass(frozen=True)
class ImageGroup:
    """Closure of the generator images under products, with Schreier data.

    Only the breadth-first closure is stored.  ``closure[i]`` is element i
    (identity first) in the 0-based encoding of :func:`_encoding`;
    ``transitions[i][g]`` is the index of ``elements[i] * perms[g]`` and
    ``parents[i]`` is the (element, generator) edge that discovered element
    i.  As elements are numbered in discovery order, the transitions alone
    let products along representative words be replayed under any other
    representation without building the words.

    ``order`` is read off the closure.  ``elements`` (as :class:`Permutation`)
    and ``words`` are built on first access and cached; ``words[i]`` is the
    shortest positive representative word for ``elements[i]``, ties broken
    by generator order.
    """

    rep: PermutationRep
    closure: tuple
    transitions: tuple[tuple[int, ...], ...]
    parents: tuple[tuple[int, int], ...]

    @property
    def order(self) -> int:
        return len(self.parents)

    @cached_property
    def elements(self) -> tuple[Permutation, ...]:
        return tuple(Permutation(tuple(x + 1 for x in e)) for e in self.closure)

    @cached_property
    def words(self) -> tuple[Word, ...]:
        # representative words use positive letters only, so concatenation
        # never needs a reduction pass
        words = [Word.identity(self.rep.alphabet)]
        for i, g in self.parents[1:]:
            words.append(Word(self.rep.alphabet, words[i].letters + (g + 1,)))
        return tuple(words)


def _compose_tuples(e: tuple[int, ...], p: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(p[x] for x in e)


def _encoding(perms: Sequence[Permutation], degree: int):
    """``(tables, identity, compose)`` for closures and replays over ``perms``.

    Points are 0-based and ``compose(e, tables[g])`` applies ``e`` first.
    Degrees up to 256 run on byte strings padded to 256-entry tables, where
    a product is a single ``bytes.translate`` call; larger degrees on tuples.
    """
    if degree <= 256:
        tail = bytes(range(degree, 256))
        tables = [bytes(x - 1 for x in p.images) + tail for p in perms]
        return tables, bytes(range(degree)), bytes.translate
    tables = [tuple(x - 1 for x in p.images) for p in perms]
    return tables, tuple(range(degree)), _compose_tuples


def _closure(tables, ident, compose, cap: int):
    """Breadth-first closure of ``ident`` under right multiplication by
    ``tables``: ``(elements, transitions, parents)``, or ``None`` once past
    ``cap`` elements."""
    elements = [ident]
    index = {ident: 0}
    parents: list[tuple[int, int]] = [(-1, -1)]
    transitions: list[tuple[int, ...]] = []
    for i, e in enumerate(elements):
        row = []
        for g, t in enumerate(tables):
            x = compose(e, t)
            j = index.get(x)
            if j is None:
                if len(elements) >= cap:
                    return None
                j = len(elements)
                index[x] = j
                elements.append(x)
                parents.append((i, g))
            row.append(j)
        transitions.append(tuple(row))
    return elements, transitions, parents


def _replay_consistent(transitions, tables, ident, compose) -> bool:
    """Replay a breadth-first closure's transitions with ``tables``: does
    every edge land where the replayed target does?

    The closure numbers elements in discovery order, so an edge whose target
    is the next unseen index is that element's discovery edge and fixes its
    replayed value; every other edge is checked against it.
    """
    mirror = [ident]
    for m, row in zip(mirror, transitions):
        for t, j in zip(tables, row):
            x = compose(m, t)
            if j == len(mirror):
                mirror.append(x)
            elif x != mirror[j]:
                return False
    return True


def image_group(phi: PermutationRep, cap: int) -> ImageGroup | None:
    """Enumerate the image group of ``phi``; ``None`` once past ``cap`` elements."""
    if cap < 1:
        raise InputError("cap must be positive")
    found = _closure(*_encoding(phi.perms, phi.degree), cap)
    if found is None:
        return None
    elements, transitions, parents = found
    return ImageGroup(phi, tuple(elements), tuple(transitions), tuple(parents))


@dataclass(frozen=True)
class ReductionWitness:
    """Certificate for a successful kernel-containment test.

    ``generator_images[g]`` pairs the images of generator g under the
    target and source representations; mapping the first onto the second
    extends to a homomorphism of the image groups.
    """

    source: EndoWord
    target: EndoWord
    generator_images: tuple[tuple[Permutation, Permutation], ...]


@dataclass(frozen=True)
class ReductionResult:
    verdict: Literal["yes", "no", "unknown"]
    witness: ReductionWitness | None = None

    @property
    def is_yes(self) -> bool:
        return self.verdict == "yes"


def kernel_contained(
    rep_target: PermutationRep,
    rep_source: PermutationRep,
    cap: int,
    target_group: ImageGroup | None = None,
) -> bool | None:
    """Does ker(rep_target) lie inside ker(rep_source)?  ``None`` = cap hit.

    If the generator images coincide the answer is immediate.  Otherwise
    the target's image group is enumerated and each Schreier generator of
    its kernel (element-word times generator times inverse representative)
    is replayed under ``rep_source``; containment holds exactly when all of
    them land on the identity.
    """
    if rep_target.perms == rep_source.perms:
        return True
    ig = target_group if target_group is not None else image_group(rep_target, cap)
    if ig is None:
        return None
    return _replay_consistent(
        ig.transitions, *_encoding(rep_source.perms, rep_source.degree)
    )


def reduces_to(
    delta: EndoWord, sigma: EndoWord, phi: PermutationRep, cap: int
) -> ReductionResult:
    """Decide whether the relator checks for ``delta`` are subsumed by ``sigma``.

    Yes exactly when ker(sigma-then-phi) <= ker(delta-then-phi); unknown is
    the conservative answer when the image-group enumeration overruns
    ``cap``.
    """
    rep_d = endo_image(phi, delta)
    rep_s = endo_image(phi, sigma)
    answer = kernel_contained(rep_s, rep_d, cap)
    if answer is None:
        return ReductionResult("unknown")
    if not answer:
        return ReductionResult("no")
    pairs = tuple(
        (rep_s.perms[g], rep_d.perms[g]) for g in range(len(phi.alphabet))
    )
    return ReductionResult("yes", ReductionWitness(delta, sigma, pairs))
