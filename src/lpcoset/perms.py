"""Permutations of {1..n}, representations of a free group by permutations,
image-group enumeration, and the kernel-containment test between two
representations.

Permutations act on the right and compose left to right: ``(p * q)`` means
apply ``p`` first.  This matches the convention of tracing a word through a
coset table letter by letter, so taking images of words is a homomorphism.

Products run on one encoding (:class:`_Encoding`), computed at most once
per representation and kept on it; a ``Permutation`` is built only for a
result that a caller reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

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


@dataclass(frozen=True)
class PermutationRep:
    """One permutation of {1..degree} per generator of the alphabet."""

    alphabet: Alphabet
    degree: int
    perms: tuple[Permutation, ...]

    def __post_init__(self):
        perms = tuple(self.perms)
        object.__setattr__(self, "perms", perms)
        if len(perms) != len(self.alphabet):
            raise InputError(
                f"expected {len(self.alphabet)} permutations, got {len(perms)}"
            )
        for p in perms:
            if p.degree != self.degree:
                raise InputError("permutation degree mismatch")

    @cached_property
    def _encoded(self) -> _Encoding:
        """The encoding, kept from first use; not a field, so never compared."""
        return _encoding([[x - 1 for x in p.images] for p in self.perms], self.degree)

    def precompose(self, endo) -> "PermutationRep":
        """The representation w -> self(endo(w)), encoded as it is built."""
        _require_same_alphabet(self.alphabet, endo.alphabet)
        enc = self._encoded
        images = [enc.image(w.letters) for w in endo.images]
        rep = PermutationRep(self.alphabet, self.degree, tuple(map(enc.permutation, images)))
        object.__setattr__(rep, "_encoded", _encoding(images, self.degree))
        return rep


def word_image(phi: PermutationRep, w: Word) -> Permutation:
    """Image of a word: the product of its letter images."""
    _require_same_alphabet(phi.alphabet, w.alphabet)
    enc = phi._encoded
    return enc.permutation(enc.image(w.letters))


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


@dataclass
class _Encoding:
    """A representation's letters as 0-based tables: ``letters[x]`` is the
    table of letter ``x``, ``letters[-x]`` that of its inverse, and
    ``compose(e, t)`` applies ``e`` first.  Degrees up to 256 run on byte
    strings padded to 256-entry tables, where a product is a single
    ``bytes.translate`` call; larger degrees on tuples.

    The inverse tables are built on the first read of ``letters``: image
    groups and kernel tests read only ``generators``, so a representation
    that the validity walk prunes never builds them."""

    generators: tuple
    identity: bytes | tuple[int, ...]
    compose: Callable

    @cached_property
    def letters(self) -> tuple:
        invs = _inverses(self.generators, len(self.identity))
        return (self.identity, *self.generators, *reversed(invs))

    def image(self, letters: Sequence[int]) -> bytes | tuple[int, ...]:
        img, compose, tables = self.identity, self.compose, self.letters
        for x in letters:
            img = compose(img, tables[x])
        return img

    def permutation(self, img: bytes | tuple[int, ...]) -> Permutation:
        return Permutation(tuple([x + 1 for x in img]))  # a list sizes the tuple exactly


def _encoding(images: Sequence[Sequence[int]], degree: int) -> _Encoding:
    """Encode the generators with 0-based ``images``."""
    if degree <= 256:
        full = bytes(range(256))
        return _Encoding(
            tuple(bytes(t) + full[degree:] for t in images), full[:degree], bytes.translate
        )
    return _Encoding(tuple(tuple(t) for t in images), tuple(range(degree)), _compose_tuples)


def _inverses(generators: Sequence, degree: int) -> list:
    """The inverse tables of encoded ``generators``, in their encoding."""
    if degree <= 256:
        full = bytes(range(256))
        return [bytes.maketrans(t, full) for t in generators]
    return [tuple(sorted(range(degree), key=t.__getitem__)) for t in generators]


def _closure(enc: _Encoding, cap: int):
    """Transitions of the breadth-first closure of the identity under right
    multiplication by the generators, or ``None`` once past ``cap`` elements."""
    ident, compose = enc.identity, enc.compose
    elements = [ident]
    index = {ident: 0}
    transitions: list[tuple[int, ...]] = []
    for e in elements:
        row = []
        for t in enc.generators:
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


def _replay_consistent(transitions, enc: _Encoding) -> bool:
    """Replay a breadth-first closure's transitions with the generators of
    ``enc``: does every edge land where the replayed target does?

    The closure numbers elements in discovery order, so an edge whose target
    is the next unseen index is that element's discovery edge and fixes its
    replayed value; every other edge is checked against it.
    """
    compose = enc.compose
    mirror = [enc.identity]
    for m, row in zip(mirror, transitions):
        for t, j in zip(enc.generators, row):
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
    transitions = _closure(phi._encoded, cap)
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

    If the generator images coincide the answer is immediate.  Otherwise
    the target's image group is replayed on the encoding that ``rep_source``
    keeps: each Schreier generator of the target's kernel (element-word
    times generator times inverse representative) must land on the identity.
    """
    if rep_target.perms == rep_source.perms:
        return True
    ig = target_group if target_group is not None else image_group(rep_target, cap)
    if ig is None:
        return None
    return _replay_consistent(ig.transitions, rep_source._encoded)
