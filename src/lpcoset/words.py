"""Freely reduced words over a finite alphabet, free-group endomorphisms,
and words in a finite family of endomorphisms.

Letters are signed 1-based integers: ``i`` is the i-th generator, ``-i``
its inverse.  Every ``Word`` is freely reduced by construction, so words
compare and hash by value.  A word in an ordered family of endomorphisms
is the tuple of its factors, 0-based indices into the family, applied
left to right; the empty tuple is the identity map, and no composite
endomorphism is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, groupby
from typing import Callable, Iterable, Iterator, Sequence

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


def _inverse(x: tuple[int, ...]) -> tuple[int, ...]:
    return tuple([-a for a in reversed(x)])


def _product(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    """x * y for freely reduced x and y, which cancel only where they meet."""
    k = 0
    n = min(len(x), len(y))
    while k < n and x[-1 - k] == -y[k]:
        k += 1
    return x[: len(x) - k] + y[k:]


def _power(x: tuple[int, ...], n: int, bound: int | None = None) -> tuple[int, ...] | None:
    """x^n for freely reduced x and n >= 0, built as u * c^n * u^-1 for
    x = u * c * u^-1 with c cyclically reduced; ``None`` when it would have
    more than ``bound`` letters."""
    if not n:
        return ()
    m = len(x)
    k = 0
    while 2 * k + 1 < m and x[k] == -x[-1 - k]:
        k += 1
    if bound is not None and 2 * k + n * (m - 2 * k) > bound:
        return None
    return x[:k] + x[k : m - k] * n + x[m - k :]


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


def _require_same_alphabet(a: Alphabet, b: Alphabet) -> None:
    if a is not b and a != b:
        raise InputError(f"alphabet mismatch: {a.names} vs {b.names}")


@dataclass(frozen=True)
class Word:
    """A freely reduced word; the constructor rejects unreduced input.

    Use :meth:`reduce` to build a word from an arbitrary letter sequence.
    Products, inverses, powers and endomorphism images are reduced by
    construction and built through :meth:`from_reduced`, which checks
    nothing.
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
        """The unique freely reduced word with the given letter sequence;
        every letter is checked, cancelled ones too."""
        n = len(alphabet.names)

        def checked(x: int) -> int:
            if not (isinstance(x, int) and 0 < abs(x) <= n):
                raise InputError(f"letter {x} out of range for {alphabet.names}")
            return x

        return cls(alphabet, free_reduce(map(checked, letters)))

    @classmethod
    def from_reduced(cls, alphabet: Alphabet, letters: tuple[int, ...]) -> "Word":
        """The word with the given ``letters``, unchecked: they must be a
        freely reduced tuple of letters of ``alphabet``."""
        w = cls.__new__(cls)
        object.__setattr__(w, "alphabet", alphabet)
        object.__setattr__(w, "letters", letters)
        return w

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
        return Word.from_reduced(self.alphabet, _product(self.letters, other.letters))

    def inverse(self) -> "Word":
        return Word.from_reduced(self.alphabet, _inverse(self.letters))

    def __pow__(self, n: int) -> "Word":
        x = self.letters if n >= 0 else _inverse(self.letters)
        return Word.from_reduced(self.alphabet, _power(x, abs(n)))

    def conjugated_by(self, g: "Word") -> "Word":
        """g^-1 * self * g."""
        return g.inverse() * self * g

    def __str__(self) -> str:
        names = self.alphabet.names
        return _power_notation(self.letters, lambda g: names[g - 1]) if self.letters else "1"


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
        images = self.images
        return Word.from_reduced(self.alphabet, free_reduce(chain.from_iterable(
            images[x - 1].letters if x > 0 else _inverse(images[-x - 1].letters)
            for x in w.letters
        )))


def describe_endo_word(factors: Sequence[int], names: Sequence[str]) -> str:
    """Render the endomorphism word ``factors`` with the family's ``names``."""
    return _power_notation(factors, names.__getitem__) if factors else "id"


def _power_notation(items: Iterable[int], name: Callable[[int], str]) -> str:
    """Each run of one item written ``x`` or ``x^k``, with x the ``name`` of
    the item, joined by ``*``.  A negative item is the inverse of its
    absolute value, so its exponent is negative."""
    parts = []
    for x, run in groupby(items):
        k = len(list(run)) if x >= 0 else -len(list(run))
        parts.append(name(abs(x)) if k == 1 else f"{name(abs(x))}^{k}")
    return "*".join(parts)
