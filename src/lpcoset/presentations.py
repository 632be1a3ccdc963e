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
from math import gcd
from typing import Iterable

from .errors import InputError, ParseError, ResourceLimitError
from .words import (
    Alphabet,
    FreeEndomorphism,
    Word,
    _inverse,
    _power,
    _product,
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
    # the echelon basis of the relators' exponent sums, set by abelian_rank
    _abelian: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "relators", _dedup_relators(self.alphabet, self.relators)
        )


def _exponent_sums(w: Word) -> list[int]:
    """The image of ``w`` in Z^m: the exponent sum of every generator."""
    x = w.letters
    return [x.count(i) - x.count(-i) for i in range(1, len(w.alphabet) + 1)]


def _echelon_insert(basis: list[tuple[int, list[int]]], v: list[int]) -> bool:
    """Reduce the integer row ``v`` against ``basis`` and append what is
    left, unless it is zero; whether it was appended.

    ``basis`` holds (pivot column, row) pairs in insertion order, each row
    zero at the pivots of the rows before it, so one pass in that order
    clears every pivot of ``v``.  Elimination is over the integers: ``v``
    and the basis row are scaled by the least multipliers that cancel the
    pivot, and a new row is divided by the gcd of its entries.  Nothing is
    reduced modulo a prime, where a rank can come out too small.
    """
    for p, b in basis:
        c = v[p]
        if c:
            g = gcd(c, b[p])
            c, d = c // g, b[p] // g
            v = [d * x - c * y for x, y in zip(v, b)]
    g = gcd(*v)
    if not g:
        return False
    if g > 1:
        v = [x // g for x in v]
    basis.append((next(i for i, x in enumerate(v) if x), v))
    return True


def abelian_rank(fp: FinitePresentation, words: Iterable[Word]) -> int:
    """The rank over Q of the exponent-sum vectors of the relators of
    ``fp`` together with those of ``words``.

    Below m, the number of generators, the subgroup H that ``words``
    generate has infinite index in the group G that ``fp`` presents: the
    vectors span the image of H * G' in the abelianization Z^m / R of G,
    whose index is that of H * G' in G (Bartholdi, Eick and Hartung, 2008).

    The echelon basis of the relators is built on first use and kept on
    ``fp``; it stops growing at rank m, so a presentation of full
    relator rank answers in O(1) from then on.
    """
    m = len(fp.alphabet)
    if fp._abelian is None:
        basis: list[tuple[int, list[int]]] = []
        for r in fp.relators:
            if len(basis) == m:
                break
            _echelon_insert(basis, _exponent_sums(r))
        object.__setattr__(fp, "_abelian", tuple(basis))
    if len(fp._abelian) == m:
        return m
    basis = list(fp._abelian)
    for w in words:
        if _echelon_insert(basis, _exponent_sums(w)) and len(basis) == m:
            break
    return len(basis)


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
    # level -> (covering, images of the iterated relators under the words of
    # that length), for levels 0 to the deepest built, filled by ``covering``
    _coverings: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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

    def covering(self, level: int) -> FinitePresentation:
        """The finite presentation truncated at composite length ``level``.

        Relators are the fixed ones followed by the images of each iterated
        relator under every endomorphism word of length at most ``level``,
        in increasing word order; level 0 keeps just fixed plus iterated.
        No composite is formed: the images under the words of one length
        are those of the length before, mapped by each endomorphism in
        family order.  A level has at most e * k times the letters of the
        level before, for e endomorphisms of longest image k; a level whose
        bound passes ``MAX_COVERING_LETTERS`` is refused before it is built.
        A level whose images are all trivial adds no relator, nor does any
        deeper one, so every such level returns the deepest built covering.

        The presentation keeps every level it builds, so a level is built
        once, a deeper one extends the deepest built, and a covering's
        prepared relators (``coset_enum._prepared_relators``) last as long
        as the presentation.  A refused level keeps nothing.  Levels are
        stored by number, so two threads that build the same level store
        equal coverings.
        """
        if level < 0:
            raise InputError("level must be >= 0")
        built = self._coverings
        if not built:
            fp = FinitePresentation(self.alphabet, self.fixed + self.iterated)
            built[0] = (fp, self.iterated)
        family = self.endomorphisms
        while level not in built:
            deepest = len(built) - 1
            growth = len(family) * max((len(w) for e in family for w in e.images), default=0)
            fp, images = built[deepest]
            if sum(map(len, images)) * growth > MAX_COVERING_LETTERS:
                raise ResourceLimitError(
                    f"covering level {deepest + 1} may pass {MAX_COVERING_LETTERS} relator letters"
                )
            images = tuple([e.apply(r) for e in family for r in images])
            if all(w.is_identity for w in images):
                return fp
            built[deepest + 1] = (FinitePresentation(self.alphabet, fp.relators + images), images)
        return built[level][0]


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
    # t^m is one word; 2n endomorphisms have n + 2 image letters each
    if m > MAX_WORD_LETTERS or 2 * n * (n + 2) > MAX_COVERING_LETTERS:
        raise InputError(
            f"burnside(n, m) needs m <= {MAX_WORD_LETTERS} and 2n(n+2) <= {MAX_COVERING_LETTERS}"
        )
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
# the most letters of one covering level's relators or of burnside()'s images
MAX_COVERING_LETTERS = 10**6

# one token per match: an ASCII name, a run of digits, a run of whitespace,
# or any other single character (a symbol, or one no token allows)
_SCAN_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*|\d+|\s+|\S")
_CLOSERS = (")", "]", ",")
# what the scan has just read: nothing of the expression, a '*', a factor,
# a '^', or a '^-'
_START, _STAR, _FACTOR, _EXPONENT, _NEGATIVE = range(5)


def _append(letters: list[int], f: tuple[int, ...]) -> int:
    """``letters`` times ``f`` in place, both freely reduced; the new length."""
    k = 0
    while k < len(f) and letters and letters[-1] == -f[k]:
        letters.pop()
        k += 1
    letters += f[k:]
    return len(letters)


def _item(tokens: list[str], start: int) -> str:
    """The text of the list item that begins at token ``start``: up to the
    first comma or whitespace outside brackets."""
    depth = 0
    for stop in range(start, len(tokens)):
        tok = tokens[stop]
        if tok in ("(", "["):
            depth += 1
        elif tok in (")", "]"):
            depth -= 1
        elif not depth and (tok == "," or tok.isspace()):
            return "".join(tokens[start:stop])
    return "".join(tokens[start:])


def _parse(alphabet: Alphabet, text: str, split: bool) -> list[Word]:
    """The words of ``text`` in one scan: the whole text as one word, or
    with ``split`` one word per item of a list separated by commas and
    whitespace outside brackets.

    Open brackets are an explicit stack, so any depth of nesting parses.
    An expression keeps its finished factors as one freely reduced letter
    list and the factor being read as a tuple; a finished factor is
    appended cancelling only at the seam, and one ``Word`` is built per
    word.  Powers, conjugates and commutators are formed on tuples, each
    refused once it would pass ``MAX_WORD_LETTERS``.
    """
    bound = MAX_WORD_LETTERS
    # a generator whose name is not ASCII is no token, so it never parses
    codes = {name: (i,) for i, name in enumerate(alphabet.names, 1) if name.isascii()}
    tokens = _SCAN_RE.findall(text)
    words: list[Word] = []
    # one entry per open bracket: [bracket, letters, cur, state, first
    # commutator part], the last four those of the enclosing expression
    stack: list[list] = []
    letters: list[int] = []  # the finished factors of the innermost expression
    cur: tuple[int, ...] = ()  # the factor being read
    state = _START
    start = 0  # the token that begins the current list item

    def error(why: str) -> ParseError:
        return ParseError(f"{why} in word {_item(tokens, start) if split else text!r}")

    too_long = f"word longer than {bound} letters"
    for i, tok in enumerate(tokens):
        p = codes.get(tok)
        if p is None:
            if tok == "*":
                if state != _FACTOR:
                    raise error("leading '*'" if state == _START else "unexpected token '*'")
                if _append(letters, cur) > bound:
                    raise error(too_long)
                state = _STAR
                continue
            if tok == "^":
                if state != _FACTOR:
                    raise error("unexpected token '^'")
                state = _EXPONENT
                continue
            if tok.isspace():
                if not split or stack:
                    continue
                tok = ","
            if tok in _CLOSERS:
                if state == _FACTOR:
                    if _append(letters, cur) > bound:
                        raise error(too_long)
                elif state == _START and split and not stack and tok == ",":
                    start = i + 1
                    continue
                else:
                    raise error(
                        {_START: "empty word expression", _STAR: "dangling '*'"}.get(
                            state, f"unexpected token {tok!r}"
                        )
                    )
                if not stack:
                    if not split:
                        raise error(f"trailing input at token {tok!r}")
                    if tok != ",":
                        raise error("unbalanced brackets")
                    words.append(Word(alphabet, tuple(letters)))
                    letters = []
                    state = _START
                    start = i + 1
                    continue
                frame = stack[-1]
                if frame[0] == "(":
                    if tok != ")":
                        raise error("expected ')'")
                    p = tuple(letters)
                elif frame[4] is None:
                    if tok != ",":
                        raise error("expected ',' in commutator")
                    frame[4] = tuple(letters)
                    letters = []
                    state = _START
                    continue
                else:
                    if tok != "]":
                        raise error("expected ']'")
                    u, v = frame[4], tuple(letters)
                    p = _product(_product(_product(_inverse(u), _inverse(v)), u), v)
                    if len(p) > bound:
                        raise error(too_long)
                stack.pop()
                _, letters, cur, state, _ = frame
            elif tok == "(" or tok == "[":
                if state == _NEGATIVE:
                    raise error("expected integer exponent after '-'")
                stack.append([tok, letters, cur, state, None])
                letters = []
                state = _START
                continue
            elif state >= _EXPONENT and tok.isdecimal():
                # n cut to one digit more than the bound still passes it
                n = int(tok.lstrip("0")[: len(str(bound)) + 1] or "0")
                cur = _power(_inverse(cur) if state == _NEGATIVE else cur, n, bound)
                if cur is None:
                    raise error(f"power longer than {bound} letters")
                state = _FACTOR
                continue
            elif tok == "1":
                p = ()
            elif tok == "-" and state == _EXPONENT:
                state = _NEGATIVE
                continue
            elif tok.isidentifier() and tok.isascii():
                raise error(f"unknown generator {tok!r}")
            elif tok.isdecimal() or tok == "-":
                raise error(f"unexpected token {tok!r}")
            else:
                raise error(f"unexpected character {tok!r}")
        # p is a primary: it begins a factor, or conjugates the one read
        if state == _FACTOR:
            if _append(letters, cur) > bound:
                raise error(too_long)
        elif state == _EXPONENT:
            cur = _product(_product(_inverse(p), cur), p)
            if len(cur) > bound:
                raise error(too_long)
            state = _FACTOR
            continue
        elif state == _NEGATIVE:
            raise error("expected integer exponent after '-'")
        cur = p
        state = _FACTOR
    if stack:
        raise error(f"unclosed {stack[-1][0]!r} at end of input")
    if state == _FACTOR:
        if _append(letters, cur) > bound:
            raise error(too_long)
        words.append(Word(alphabet, tuple(letters)))
    elif state == _STAR:
        raise error("dangling '*'")
    elif state != _START:
        raise error("unexpected end of input")
    return words


def parse_word(alphabet: Alphabet, text: str) -> Word:
    """Parse one word; whitespace between factors multiplies."""
    words = _parse(alphabet, text, split=False)
    return words[0] if words else Word.identity(alphabet)


def parse_words(alphabet: Alphabet, text: str) -> list[Word]:
    """Parse a list of words separated by top-level commas or whitespace."""
    return _parse(alphabet, text, split=True)


def parse_subgroup(alphabet: Alphabet, text: str) -> SubgroupSpec:
    return SubgroupSpec(alphabet, tuple(parse_words(alphabet, text)))


# --- presentation files ---------------------------------------------------

_ENDO_HEAD_RE = re.compile(r"^endomorphism(?:\s+([A-Za-z_][A-Za-z_0-9]*))?\s*:\s*(.*)$")


def _mappings(body: str) -> list[str]:
    """The ``x -> w`` parts of an endomorphism line: split at every comma
    outside brackets, since an image may be a commutator ``[u,v]``."""
    parts = []
    depth = start = 0
    for i, ch in enumerate(body):
        if ch in "([":
            depth += 1
        elif ch in ")]" and depth:
            depth -= 1
        elif ch == "," and not depth:
            parts.append(body[start:i])
            start = i + 1
    parts.append(body[start:])
    return parts


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
            for name in names:  # the word grammar reads ASCII names only
                if not name.isascii():
                    raise ParseError(f"line {lineno}: generator name {name!r} is not ASCII")
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
        for part in _mappings(body):
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
