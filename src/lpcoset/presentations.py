"""Finite presentations, L-presentations, subgroup generating sets, the
built-in example groups, and the text formats for all of them.

An L-presentation has four parts: an alphabet, fixed relators, an ordered
family of free-group endomorphisms, and iterated relators whose images
under every composite of the family are also relations.  Truncating the
composites at a given length yields an ordinary finite presentation (the
covering presentation) that the enumerator can work with.

Word grammar (also used for command-line subgroup words)::

    word     := factor (["*"] factor)*          juxtaposition multiplies
    factor   := primary ("^" exponent)*
    exponent := integer | primary               integer power / conjugation
    primary  := name | "1" | "(" word ")" | "[" word "," word "]"

``w^v`` is ``v^-1*w*v`` and ``[u,v]`` is ``u^-1*v^-1*u*v``.

Presentation files are line oriented, UTF-8, with ``#`` comments::

    generators: a b c d
    fixed: a^2 b^2 c^2 d^2 b*c*d
    endomorphism sigma: a -> a*c*a, b -> d, c -> b, d -> c
    iterated: (a*d)^4 (a*d*a*c*a*c)^4

Multiple ``endomorphism`` lines are allowed; their order in the file fixes
the ordering of the family.  A file with no ``endomorphism`` or
``iterated`` lines is a plain finite presentation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import InputError, ParseError
from .words import (
    Alphabet,
    EndoWord,
    FreeEndomorphism,
    Word,
    _require_same_alphabet,
    commutator,
)


def _dedup_relators(alphabet: Alphabet, relators) -> tuple[Word, ...]:
    """Drop empty words and exact duplicates, keeping first-seen order."""
    seen = set()
    out = []
    for r in relators:
        _require_same_alphabet(alphabet, r.alphabet)
        if r.is_identity or r.letters in seen:
            continue
        seen.add(r.letters)
        out.append(r)
    return tuple(out)


@dataclass(frozen=True)
class FinitePresentation:
    alphabet: Alphabet
    relators: tuple[Word, ...]
    # the column words of coset_enum._prepared_relators, set on first use
    _prepared: list = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "relators", _dedup_relators(self.alphabet, self.relators)
        )


@dataclass(frozen=True)
class SubgroupSpec:
    """A finite generating set for a subgroup, given as words."""

    alphabet: Alphabet
    generators: tuple[Word, ...]

    def __post_init__(self):
        gens = []
        for g in self.generators:
            _require_same_alphabet(self.alphabet, g.alphabet)
            if not g.is_identity:
                gens.append(g)
        object.__setattr__(self, "generators", tuple(gens))



@dataclass(frozen=True)
class LPresentation:
    """Alphabet, fixed relators, endomorphism family, iterated relators."""

    alphabet: Alphabet
    fixed: tuple[Word, ...]
    endomorphisms: tuple[FreeEndomorphism, ...]
    iterated: tuple[Word, ...]
    endomorphism_names: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "fixed", _dedup_relators(self.alphabet, self.fixed))
        object.__setattr__(
            self, "iterated", _dedup_relators(self.alphabet, self.iterated)
        )
        endos = tuple(self.endomorphisms)
        object.__setattr__(self, "endomorphisms", endos)
        for e in endos:
            _require_same_alphabet(self.alphabet, e.alphabet)
        names = tuple(self.endomorphism_names)
        if not names:
            names = tuple(f"phi{i + 1}" for i in range(len(endos)))
        if len(names) != len(endos):
            raise InputError("one name per endomorphism required")
        object.__setattr__(self, "endomorphism_names", names)

    @classmethod
    def from_finite(cls, fp: FinitePresentation) -> "LPresentation":
        return cls(fp.alphabet, (), (), fp.relators)

    def identity_endo_word(self) -> EndoWord:
        return EndoWord.identity(self.alphabet, self.endomorphisms)

    def covering(self, level: int) -> FinitePresentation:
        """The finite presentation truncated at composite length ``level``.

        Relators are the fixed ones followed by the images of each iterated
        relator under every endomorphism word of length at most ``level``,
        in increasing word order; level 0 keeps just fixed plus iterated.
        No composite is formed: the images under a word are those under the
        word without its last factor, mapped by that factor, so each level
        applies one endomorphism to the images of the level before.
        """
        if level < 0:
            raise InputError("level must be >= 0")
        family = self.endomorphisms
        relators = list(self.fixed) + list(self.iterated)
        # factor tuple -> images of the iterated relators, in increasing word order
        images = {(): self.iterated}
        for _ in range(level):
            shorter = images
            images = {}
            for factors in shorter:
                for k in range(len(family)):
                    longer = (k,) + factors
                    last = family[longer[-1]]
                    images[longer] = tuple(last.apply(r) for r in shorter[longer[:-1]])
                    relators.extend(images[longer])
        return FinitePresentation(self.alphabet, tuple(relators))



def grigorchuk() -> LPresentation:
    """The first Grigorchuk group on generators a, b, c, d."""
    abc = Alphabet(("a", "b", "c", "d"))
    w = lambda text: parse_word(abc, text)
    sigma = FreeEndomorphism(abc, (w("a*c*a"), w("d"), w("b"), w("c")))
    return LPresentation(
        abc,
        fixed=(w("a^2"), w("b^2"), w("c^2"), w("d^2"), w("b*c*d")),
        endomorphisms=(sigma,),
        iterated=(w("(a*d)^4"), w("(a*d*a*c*a*c)^4")),
        endomorphism_names=("sigma",),
    )


def basilica() -> LPresentation:
    """The Basilica group on generators a, b."""
    abc = Alphabet(("a", "b"))
    w = lambda text: parse_word(abc, text)
    sigma = FreeEndomorphism(abc, (w("b^2"), w("a")))
    return LPresentation(
        abc,
        fixed=(),
        endomorphisms=(sigma,),
        iterated=(commutator(w("a"), w("a^b")),),
        endomorphism_names=("sigma",),
    )


def burnside(n: int, m: int) -> LPresentation:
    """The free Burnside group of exponent m on n generators.

    Generators a1..an plus a spare letter t that is itself a fixed relator;
    the iterated relator t^m is pushed around by one endomorphism per
    signed generator, each appending that letter to t and fixing the rest.
    """
    if n < 1 or m < 1:
        raise InputError("burnside(n, m) needs n, m >= 1")
    names = tuple(f"a{i + 1}" for i in range(n)) + ("t",)
    abc = Alphabet(names)
    t = Word.generator(abc, n + 1)
    endos = []
    endo_names = []
    for i in range(n):
        for sign, tag in ((1, f"sigma_a{i + 1}"), (-1, f"sigma_a{i + 1}_inv")):
            images = [Word.generator(abc, j + 1) for j in range(n)]
            images.append(Word.reduce(abc, (n + 1, sign * (i + 1))))
            endos.append(FreeEndomorphism(abc, tuple(images)))
            endo_names.append(tag)
    return LPresentation(
        abc,
        fixed=(t,),
        endomorphisms=tuple(endos),
        iterated=(t**m,),
        endomorphism_names=tuple(endo_names),
    )


_BUILTIN_RE = re.compile(r"^burnside\((\d+),\s*(\d+)\)$")


def builtin_presentation(name: str) -> LPresentation:
    """Look up ``grigorchuk``, ``basilica``, or ``burnside(n,m)``."""
    if name == "grigorchuk":
        return grigorchuk()
    if name == "basilica":
        return basilica()
    m = _BUILTIN_RE.match(name)
    if m:
        return burnside(int(m.group(1)), int(m.group(2)))
    raise ParseError(f"unknown builtin presentation {name!r}")


# --- word grammar ---------------------------------------------------------

MAX_WORD_LETTERS = 10**6  # the longest word the grammar builds, reduced

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<int>\d+)|(?P<sym>[-*^()\[\],]))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos:].strip()[0]!r} in {text!r}")
            break
        if m.group("name"):
            tokens.append(("name", m.group("name")))
        elif m.group("int"):
            tokens.append(("int", m.group("int")))
        else:
            tokens.append(("sym", m.group("sym")))
        pos = m.end()
    return tokens


class _WordParser:
    def __init__(self, alphabet: Alphabet, text: str):
        self.alphabet = alphabet
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def fail(self, why: str):
        raise ParseError(f"{why} in word {self.text!r}")

    def parse(self) -> Word:
        w = self.expr()
        if self.pos != len(self.tokens):
            self.fail(f"trailing input at token {self.peek()[1]!r}")
        return w

    def check_length(self, n: int) -> None:
        if n > MAX_WORD_LETTERS:
            self.fail(f"word longer than {MAX_WORD_LETTERS} letters")

    def expr(self, stop=(")", "]", ",")) -> Word:
        # the product so far stays freely reduced, and each factor is, so
        # appending one cancels only where the two meet
        letters: list[int] = []
        first = True
        while True:
            kind, val = self.peek()
            if kind is None or (kind == "sym" and val in stop):
                if first:
                    self.fail("empty word expression")
                return Word(self.alphabet, tuple(letters))
            if kind == "sym" and val == "*":
                if first:
                    self.fail("leading '*'")
                self.take()
                kind, val = self.peek()
                if kind is None or kind == "sym" and val in stop:
                    self.fail("dangling '*'")
            f = self.factor().letters
            k = 0
            while k < len(f) and letters and letters[-1] == -f[k]:
                letters.pop()
                k += 1
            letters += f[k:]
            self.check_length(len(letters))
            first = False

    def factor(self) -> Word:
        w = self.primary()
        while self.peek() == ("sym", "^"):
            self.take()
            kind, val = self.peek()
            if kind == "int" or (kind == "sym" and val == "-"):
                sign = 1
                if kind == "sym":
                    self.take()
                    sign = -1
                    kind, val = self.peek()
                    if kind != "int":
                        self.fail("expected integer exponent after '-'")
                self.take()
                # w^n has m + (n - 1)|c| <= n * m letters, m = |w| and c the cyclic
                # core of w; n cut to one digit more than the bound still passes it
                n = int(val.lstrip("0")[: len(str(MAX_WORD_LETTERS)) + 1] or "0")
                m = len(w.letters)
                if m * n > MAX_WORD_LETTERS and m + (n - 1) * (len(w**2) - m) > MAX_WORD_LETTERS:
                    self.fail(f"power longer than {MAX_WORD_LETTERS} letters")
                w = w ** (sign * n)
            else:
                w = w.conjugated_by(self.primary())
                self.check_length(len(w))
        return w

    def primary(self) -> Word:
        kind, val = self.take()
        if kind == "name":
            if val not in self.alphabet:
                self.fail(f"unknown generator {val!r}")
            return Word.generator(self.alphabet, self.alphabet.code(val))
        if kind == "int" and val == "1":
            return Word.identity(self.alphabet)
        if kind == "sym" and val == "(":
            w = self.expr()
            if self.take() != ("sym", ")"):
                self.fail("expected ')'")
            return w
        if kind == "sym" and val == "[":
            u = self.expr()
            if self.take() != ("sym", ","):
                self.fail("expected ',' in commutator")
            v = self.expr()
            if self.take() != ("sym", "]"):
                self.fail("expected ']'")
            w = commutator(u, v)
            self.check_length(len(w))
            return w
        self.fail(f"unexpected token {val!r}")


def parse_word(alphabet: Alphabet, text: str) -> Word:
    """Parse one word; whitespace between factors multiplies."""
    if not text.strip():
        return Word.identity(alphabet)
    return _WordParser(alphabet, text).parse()


def _split_top_level(text: str) -> list[str]:
    """Split on commas and whitespace that sit outside brackets."""
    items = []
    depth = 0
    current = []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced brackets in {text!r}")
        if depth == 0 and (ch == "," or ch.isspace()):
            if current:
                items.append("".join(current))
                current = []
            continue
        current.append(ch)
    if depth != 0:
        raise ParseError(f"unbalanced brackets in {text!r}")
    if current:
        items.append("".join(current))
    return items


def parse_words(alphabet: Alphabet, text: str) -> list[Word]:
    """Parse a list of words separated by top-level commas or whitespace."""
    return [parse_word(alphabet, item) for item in _split_top_level(text)]


def parse_subgroup(alphabet: Alphabet, text: str) -> SubgroupSpec:
    return SubgroupSpec(alphabet, tuple(parse_words(alphabet, text)))


# --- presentation files ---------------------------------------------------

_ENDO_HEAD_RE = re.compile(r"^endomorphism(?:\s+([A-Za-z_][A-Za-z_0-9]*))?\s*:\s*(.*)$")


def parse_lpresentation(text: str) -> LPresentation:
    alphabet = None
    fixed: list[str] = []
    iterated: list[str] = []
    endo_lines: list[tuple[str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("generators:"):
            if alphabet is not None:
                raise ParseError(f"line {lineno}: repeated generators line")
            names = line[len("generators:"):].split()
            try:
                alphabet = Alphabet(tuple(names))
            except InputError as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
            continue
        if alphabet is None:
            raise ParseError(f"line {lineno}: generators must come first")
        if line.startswith("fixed:"):
            fixed.append(line[len("fixed:"):])
        elif line.startswith("iterated:"):
            iterated.append(line[len("iterated:"):])
        else:
            m = _ENDO_HEAD_RE.match(line)
            if not m:
                raise ParseError(f"line {lineno}: cannot parse {line!r}")
            endo_lines.append((m.group(1) or f"phi{len(endo_lines) + 1}", m.group(2)))
    if alphabet is None:
        raise ParseError("missing generators line")

    def words_of(chunks: list[str]) -> tuple[Word, ...]:
        out: list[Word] = []
        for chunk in chunks:
            out.extend(parse_words(alphabet, chunk))
        return tuple(out)

    endos = []
    names = []
    for name, body in endo_lines:
        images: dict[int, Word] = {}
        for part in body.split(","):
            if "->" not in part:
                raise ParseError(f"bad mapping {part.strip()!r} in endomorphism {name}")
            lhs, rhs = part.split("->", 1)
            lhs = lhs.strip()
            if lhs not in alphabet:
                raise ParseError(f"unknown generator {lhs!r} in endomorphism {name}")
            code = alphabet.code(lhs)
            if code in images:
                raise ParseError(f"generator {lhs!r} mapped twice in {name}")
            images[code] = parse_word(alphabet, rhs)
        missing = [alphabet.names[i] for i in range(len(alphabet)) if i + 1 not in images]
        if missing:
            raise ParseError(f"endomorphism {name} does not map {', '.join(missing)}")
        endos.append(
            FreeEndomorphism(alphabet, tuple(images[i + 1] for i in range(len(alphabet))))
        )
        names.append(name)
    return LPresentation(
        alphabet,
        fixed=words_of(fixed),
        endomorphisms=tuple(endos),
        iterated=words_of(iterated),
        endomorphism_names=tuple(names),
    )


def load_presentation(source: str) -> LPresentation:
    """Resolve ``builtin:<name>`` or read an L-presentation file."""
    if source.startswith("builtin:"):
        return builtin_presentation(source[len("builtin:"):])
    try:
        with open(source, "r", encoding="utf-8") as handle:
            return parse_lpresentation(handle.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read presentation file {source!r}: {exc}") from exc
