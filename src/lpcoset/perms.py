"""Permutations of {1..n}, representations of a free group by permutations,
image-group enumeration, and the kernel-containment test between two
representations.

Permutations act on the right and compose left to right: ``(p * q)`` means
apply ``p`` first.  This matches the convention of tracing a word through a
coset table letter by letter, so taking images of words is a homomorphism.

A representation is stored once, as 0-based generator tables on which
every product runs; a ``Permutation`` is decoded only where a caller
reads one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import InputError
from .words import Alphabet, Word, _require_same_alphabet


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


_FULL = bytes(range(256))


class PermutationRep:
    """One permutation of {1..degree} per generator of the alphabet, stored
    once as 0-based tables: ``generators[g]`` is generator g + 1, up to
    degree 256 as bytes padded with fixed points to 256 entries (a product
    is one ``bytes.translate``), above as a tuple.  ``compose(e, t)``
    applies ``e`` first.  ``letters[x]`` is the table of letter x, and
    ``letters[-x]`` its inverse, built on first read: image groups and
    kernel tests read only ``generators``.  ``perms`` is decoded on first
    read.  The constructor checks its input; :meth:`from_tables` does not.
    Representations compare by identity."""

    def __init__(self, alphabet: Alphabet, degree: int, perms: Sequence[Permutation]):
        perms = tuple(perms)
        if len(perms) != len(alphabet):
            raise InputError(f"expected {len(alphabet)} permutations, got {len(perms)}")
        if any(p.degree != degree for p in perms):
            raise InputError("permutation degree mismatch")
        self._set_tables(alphabet, degree, [[x - 1 for x in p.images] for p in perms])
        self.perms = perms  # the decoded form is the input

    @classmethod
    def from_tables(cls, alphabet: Alphabet, degree: int, tables) -> PermutationRep:
        """Generators with the 0-based ``tables``, unchecked: they must be
        permutations of 0..degree-1, as a closed table's columns are."""
        rep = cls.__new__(cls)
        rep._set_tables(alphabet, degree, tables)
        return rep

    def _set_tables(self, alphabet: Alphabet, degree: int, tables) -> None:
        self.alphabet, self.degree = alphabet, degree
        if degree <= 256:
            pad = _FULL[degree:]
            self.generators = tuple([bytes(t) + pad for t in tables])
            self.identity, self.compose = _FULL[:degree], bytes.translate
        else:
            self.generators = tuple([tuple(t) for t in tables])
            self.identity, self.compose = tuple(range(degree)), _compose_tuples

    @cached_property
    def letters(self) -> tuple:
        invs = _inverses(self.generators, self.degree)
        return (self.identity, *self.generators, *reversed(invs))

    @cached_property
    def perms(self) -> tuple[Permutation, ...]:
        return tuple(self.permutation(t[: self.degree]) for t in self.generators)

    def image(self, letters: Sequence[int]) -> bytes | tuple[int, ...]:
        """The encoded image of the word with ``letters``."""
        img, compose, tables = self.identity, self.compose, self.letters
        for x in letters:
            img = compose(img, tables[x])
        return img

    def permutation(self, img: bytes | tuple[int, ...]) -> Permutation:
        return Permutation(tuple([x + 1 for x in img]))  # a list sizes the tuple exactly

    def outside_kernel(self, words: Iterable[Word]) -> Iterator[tuple]:
        """``(word, image, point)`` for each of ``words`` whose image is not
        the identity, in order; ``point`` is the first one it moves, 1-based."""
        identity = self.identity
        for w in words:
            img = self.image(w.letters)
            if img != identity:
                yield w, img, next(c for c, x in enumerate(img, start=1) if x != c - 1)

    def precompose(self, endo) -> "PermutationRep":
        """The representation w -> self(endo(w)), built from its image tables."""
        _require_same_alphabet(self.alphabet, endo.alphabet)
        images = [self.image(w.letters) for w in endo.images]
        return PermutationRep.from_tables(self.alphabet, self.degree, images)

    def __repr__(self) -> str:
        return f"PermutationRep({self.alphabet!r}, {self.degree}, {self.perms!r})"


def word_image(phi: PermutationRep, w: Word) -> Permutation:
    """Image of a word: the product of its letter images."""
    _require_same_alphabet(phi.alphabet, w.alphabet)
    return phi.permutation(phi.image(w.letters))


@dataclass(frozen=True)
class ImageGroup:
    """Closure of the generator images under products, as a transition table.

    Elements are numbered in breadth-first discovery order, identity first;
    ``transitions[i][g]`` is the number of element i times generator g.  The
    discovery edge of element j is the first edge in breadth-first order
    that reaches j, so the transitions alone let the closure be replayed
    under any other representation without storing elements or words.
    """

    transitions: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.transitions)


def _compose_tuples(e: tuple[int, ...], p: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(p[x] for x in e)


def _inverses(generators: Sequence, degree: int) -> list:
    """The inverse tables of encoded ``generators``, in their encoding."""
    if degree <= 256:
        return [bytes.maketrans(t, _FULL) for t in generators]
    return [tuple(sorted(range(degree), key=t.__getitem__)) for t in generators]


def _closure(phi: PermutationRep, cap: int):
    """Transitions of the breadth-first closure of the identity under right
    multiplication by the generators, or ``None`` once past ``cap`` elements."""
    ident, compose = phi.identity, phi.compose
    elements = [ident]
    index = {ident: 0}
    transitions: list[tuple[int, ...]] = []
    for e in elements:
        row = []
        for t in phi.generators:
            x = compose(e, t)
            j = index.get(x)
            if j is None:
                if len(elements) >= cap:
                    return None
                j = len(elements)
                index[x] = j
                elements.append(x)
            row.append(j)
        transitions.append(tuple(row))
    return transitions


def _replay_consistent(transitions, phi: PermutationRep) -> bool:
    """Replay a breadth-first closure's transitions with the generators of
    ``phi``: does every edge land where the replayed target does?

    The closure numbers elements in discovery order, so an edge whose target
    is the next unseen index is that element's discovery edge and fixes its
    replayed value; every other edge is checked against it.
    """
    compose = phi.compose
    mirror = [phi.identity]
    for m, row in zip(mirror, transitions):
        for t, j in zip(phi.generators, row):
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
    transitions = _closure(phi, cap)
    if transitions is None:
        return None
    return ImageGroup(tuple(transitions))


def kernel_contained(
    rep_target: PermutationRep,
    rep_source: PermutationRep,
    cap: int,
    target_group: ImageGroup | None = None,
) -> bool | None:
    """Does ker(rep_target) lie inside ker(rep_source)?  ``None`` = cap hit.

    If the generator tables coincide the answer is immediate.  Otherwise
    the target's image group is replayed on the generator tables of
    ``rep_source``: each Schreier generator of the target's kernel (element-word
    times generator times inverse representative) must land on the identity.
    """
    if rep_target.generators == rep_source.generators:
        return True
    ig = target_group if target_group is not None else image_group(rep_target, cap)
    if ig is None:
        return None
    return _replay_consistent(ig.transitions, rep_source)
