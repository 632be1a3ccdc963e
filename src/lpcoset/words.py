"""Freely reduced words over a finite alphabet, free-group endomorphisms,
and words in a finite family of endomorphisms.

Letters are signed 1-based integers: ``i`` is the i-th generator, ``-i``
its inverse.  Every ``Word`` is freely reduced by construction, so words
compare and hash by value.  ``EndoWord`` represents an element of the free
monoid generated by an ordered family of endomorphisms by its factor
sequence alone, which applies left to right; no composite endomorphism is
built.  The family ordering induces the length-then-rightmost-lexicographic
well-ordering used by the validity search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import total_ordering
from typing import Iterable, Iterator, Sequence

from .errors import InputError


def free_reduce(letters: Iterable[int]) -> tuple[int, ...]:
    """Cancel adjacent inverse pairs until none remain."""
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


@dataclass(frozen=True)
class Alphabet:
    """Ordered generator names; positions give the 1-based letter codes."""

    names: tuple[str, ...]
    _index: dict[str, int] = field(
        init=False, repr=False, compare=False, hash=False, default=None
    )

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        index: dict[str, int] = {}
        for pos, name in enumerate(names, start=1):
            if not name.isidentifier():
                raise InputError(f"generator name {name!r} is not an identifier")
            if name in index:
                raise InputError(f"duplicate generator name {name!r}")
            index[name] = pos
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def code(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise InputError(f"unknown generator {name!r}") from None

    def is_valid_letter(self, letter: int) -> bool:
        return isinstance(letter, int) and letter != 0 and abs(letter) <= len(self.names)


def _require_same_alphabet(a: Alphabet, b: Alphabet) -> None:
    if a != b:
        raise InputError(f"alphabet mismatch: {a.names} vs {b.names}")


@dataclass(frozen=True)
class Word:
    """A freely reduced word; the constructor rejects unreduced input.

    Use :meth:`reduce` to build a word from an arbitrary letter sequence.
    """

    alphabet: Alphabet
    letters: tuple[int, ...]

    def __post_init__(self):
        letters = tuple(self.letters)
        object.__setattr__(self, "letters", letters)
        n, prev, reduced = len(self.alphabet.names), 0, True
        for x in letters:
            if not (isinstance(x, int) and 0 < abs(x) <= n):
                raise InputError(f"letter {x} out of range for {self.alphabet.names}")
            if x == -prev:
                reduced = False
            prev = x
        if not reduced:
            raise InputError(f"word {letters} is not freely reduced")

    @classmethod
    def reduce(cls, alphabet: Alphabet, letters: Iterable[int]) -> "Word":
        """The unique freely reduced word with the given letter sequence."""
        letters = tuple(letters)
        for x in letters:
            if not alphabet.is_valid_letter(x):
                raise InputError(f"letter {x} out of range for {alphabet.names}")
        return cls(alphabet, free_reduce(letters))

    @classmethod
    def identity(cls, alphabet: Alphabet) -> "Word":
        return cls(alphabet, ())

    @classmethod
    def generator(cls, alphabet: Alphabet, code: int) -> "Word":
        return cls(alphabet, (code,))

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __mul__(self, other: "Word") -> "Word":
        _require_same_alphabet(self.alphabet, other.alphabet)
        return Word(self.alphabet, free_reduce(self.letters + other.letters))

    def inverse(self) -> "Word":
        return Word(self.alphabet, tuple(-x for x in reversed(self.letters)))

    def __pow__(self, n: int) -> "Word":
        """Built as u * c^n * u^-1 for self = u * c * u^-1, c cyclically reduced."""
        if n <= 0:
            return self.inverse() ** -n if n else Word.identity(self.alphabet)
        x, k = self.letters, 0
        while 2 * k + 1 < len(x) and x[k] == -x[-1 - k]:
            k += 1
        return Word(self.alphabet, x[:k] + x[k : len(x) - k] * n + x[len(x) - k :])

    def conjugated_by(self, g: "Word") -> "Word":
        """g^-1 * self * g."""
        return g.inverse() * self * g

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        parts = []
        i = 0
        n = len(self.letters)
        while i < n:
            x = self.letters[i]
            j = i
            while j < n and self.letters[j] == x:
                j += 1
            name = self.alphabet.names[abs(x) - 1]
            exp = (j - i) if x > 0 else -(j - i)
            parts.append(name if exp == 1 else f"{name}^{exp}")
            i = j
        return "*".join(parts)


def commutator(u: Word, v: Word) -> Word:
    """[u, v] = u^-1 * v^-1 * u * v."""
    return u.inverse() * v.inverse() * u * v


@dataclass(frozen=True)
class FreeEndomorphism:
    """An endomorphism of the free group, given by one image word per generator."""

    alphabet: Alphabet
    images: tuple[Word, ...]

    def __post_init__(self):
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        if len(images) != len(self.alphabet):
            raise InputError(
                f"expected {len(self.alphabet)} images, got {len(images)}"
            )
        for img in images:
            _require_same_alphabet(self.alphabet, img.alphabet)

    def apply(self, w: Word) -> Word:
        """Substitute every letter by its image and freely reduce."""
        _require_same_alphabet(self.alphabet, w.alphabet)
        out: list[int] = []
        for x in w.letters:
            img = self.images[abs(x) - 1].letters
            if x < 0:
                img = tuple(-y for y in reversed(img))
            for y in img:
                if out and out[-1] == -y:
                    out.pop()
                else:
                    out.append(y)
        return Word(self.alphabet, tuple(out))


@total_ordering
@dataclass(frozen=True)
class EndoWord:
    """A word in an ordered family of endomorphisms.

    ``factors`` are 0-based indices into ``family``; the leftmost factor is
    applied first, as for products of endomorphisms acting on the right.
    The empty word is the identity map.  No composite endomorphism is
    formed: a caller applies the factors one at a time, as
    :meth:`PermutationRep.precompose` does in the validity walk.
    """

    alphabet: Alphabet
    family: tuple[FreeEndomorphism, ...]
    factors: tuple[int, ...]

    def __post_init__(self):
        family = tuple(self.family)
        factors = tuple(self.factors)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "factors", factors)
        for endo in family:
            _require_same_alphabet(self.alphabet, endo.alphabet)
        for k in factors:
            if not 0 <= k < len(family):
                raise InputError(f"factor index {k} out of range")

    @classmethod
    def identity(
        cls, alphabet: Alphabet, family: Sequence[FreeEndomorphism]
    ) -> "EndoWord":
        return cls(alphabet, tuple(family), ())

    @property
    def length(self) -> int:
        return len(self.factors)

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        """Key realizing the length-then-rightmost-lexicographic order."""
        return (len(self.factors), tuple(reversed(self.factors)))

    def __lt__(self, other: "EndoWord") -> bool:
        if self.family != other.family:
            raise InputError("cannot compare endomorphism words over different families")
        return self.sort_key() < other.sort_key()

    def descendants(self) -> list["EndoWord"]:
        """All one-step left extensions, in family order."""
        return [
            EndoWord(self.alphabet, self.family, (k,) + self.factors)
            for k in range(len(self.family))
        ]

    def describe(self, names: Sequence[str]) -> str:
        """Render the factor sequence using the given family names."""
        if not self.factors:
            return "id"
        parts = []
        i = 0
        n = len(self.factors)
        while i < n:
            k = self.factors[i]
            j = i
            while j < n and self.factors[j] == k:
                j += 1
            parts.append(names[k] if j - i == 1 else f"{names[k]}^{j - i}")
            i = j
        return "*".join(parts)

