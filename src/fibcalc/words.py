"""Free-group words and endomorphisms.

Letters are nonzero signed integers: +i is the i-th generator (1-indexed),
-i its inverse.  Words are stored freely reduced; maps that claim to be
automorphisms must carry an inverse witness.

Words and maps are checked where they enter the system: the `FreeWord` and
`FreeGroupMap` constructors (and `from_letters`, which calls them) check
ranks, letter types and ranges, and the witness g of a map f in one
direction only: f(g(x_i)) = x_i for every generator.  That is enough.  It
says f o g = id, so f is onto; free groups of finite rank are Hopfian, so an
onto endomorphism is an automorphism, hence g = f^-1 and g o f = id as well;
and abelianizing f o g = id gives det(f) det(g) = 1 over the integers, so
det(f) = +-1.  The JSON loader and the catalog builders go through these
constructors.  `identity`, `inverse`, `compose`, `extend` and `power` build
their results from checked maps through `_unchecked`, without a second
check, because the facts it would prove hold by construction: the identity
is its own witness; f^-1 is witnessed by f; if f and g are witnessed,
g^-1 o f^-1 witnesses f o g; an extension is witnessed by the extended
witness; and powers are compositions.

`apply_map` and `compose` substitute through `_expand`, which writes each
letter's image after cancelling it against the reduced output so far; its
work is about one letter per output letter there.  The witness check is
different: its output is one letter, but `_expand` copies the image of every
letter of g(x_i), which is quadratic in the word length for powers of a
pseudo-Anosov map.  So when that copy is long (the sum of |f(l)| over the
witness letters l, one C-level sum per witness word, is more than
`_WALK_FROM` letters per witness letter), the check runs `_walker`
instead: the same reduction kept as a stack of segments of images, never
copying a letter.  It stays exact, with no hashing: every cancelled letter
is compared, as whole blocks of byte-encoded images, in C.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import compress, count
from operator import add, ne, neg
from typing import Callable, Iterable, Sequence

from .errors import (MalformedInputError, RankMismatchError, _check_int, _check_sequence,
                     _check_type, _unchecked)
from .matrices import IntMatrix, _matrix


def _reduce(letters: Iterable[int]) -> tuple[int, ...]:
    out: list[int] = []
    for letter in letters:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


@dataclass(frozen=True)
class FreeWord:
    rank: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        _check_int(self.rank, "rank")
        if self.rank < 0:
            raise MalformedInputError("negative rank")
        _check_sequence(self.letters, "letters")
        letters = tuple(self.letters)
        for letter in letters:
            if type(letter) is not int or letter == 0 or abs(letter) > self.rank:
                raise MalformedInputError(
                    f"letter {letter!r} is not an integer in +-1..+-{self.rank}")
        object.__setattr__(self, "letters", _reduce(letters))

    @classmethod
    def identity(cls, rank: int) -> "FreeWord":
        return cls(rank, ())

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        _check_type(other, FreeWord, "word operand")
        if self.rank != other.rank:
            raise RankMismatchError("word product across different ranks")
        return _unchecked(FreeWord, self.rank, _reduce(self.letters + other.letters))

    def inverse(self) -> "FreeWord":
        return _unchecked(FreeWord, self.rank, tuple(-x for x in reversed(self.letters)))

    def __pow__(self, n: int) -> "FreeWord":
        _check_int(n, "exponent")
        base = self if n >= 0 else self.inverse()
        return _unchecked(FreeWord, self.rank, _reduce(base.letters * abs(n)))

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def exponent_vector(self) -> tuple[int, ...]:
        out = [0] * self.rank
        for letter in self.letters:
            out[abs(letter) - 1] += 1 if letter > 0 else -1
        return tuple(out)

    def shift(self, new_rank: int, offset: int = 0) -> "FreeWord":
        """The same word viewed in a larger free group, generators moved up by
        `offset`."""
        _check_int(new_rank, "rank")
        _check_int(offset, "offset")
        if offset < 0 or self.rank + offset > new_rank:
            raise RankMismatchError("shift does not fit in the target rank")
        return _unchecked(FreeWord, new_rank,
                          tuple(x + offset if x > 0 else x - offset for x in self.letters))

    def __repr__(self):
        return f"FreeWord({self.rank}, {list(self.letters)})"


def _image_words(words, rank: int, what: str) -> tuple[FreeWord, ...]:
    """`words` as a tuple, checked to hold one rank-`rank` FreeWord per
    generator."""
    _check_sequence(words, what)
    if len(words) != rank:
        raise RankMismatchError(f"{what}: one word per generator is required")
    for w in words:
        _check_type(w, FreeWord, what)
        if w.rank != rank:
            raise RankMismatchError(f"{what}: word rank mismatch")
    return tuple(words)


def _table(words: Sequence[FreeWord]) -> list[list[int]]:
    """Substitution table of the map x_i -> words[i-1], indexed by letter:
    entry i holds the image of x_i and entry -i (counted from the end) the
    image of x_i^-1, its inverse word."""
    table = [[]] + [list(w.letters) for w in words]
    table += [list(map(neg, reversed(w.letters))) for w in reversed(words)]
    return table


def _expand(table: Sequence[list[int]], letters: Iterable[int]) -> list[int]:
    """The freely reduced letters of the word `letters` with each letter
    replaced by its entry in `table`.  Each entry is reduced, so appending it
    after cancelling its longest prefix that inverts the tail of the output
    keeps the output reduced.  Mostly all of it cancels: the output ends with
    its inverse, which one list comparison shows.  Otherwise the prefix is as
    long as the common start of the reversed output and reversed inverse."""
    out = [0]  # no letter is 0, so nothing cancels against this sentinel
    for letter in letters:
        image = table[letter]
        if image and out[-1] == -image[0]:
            n, inverse = len(image), table[-letter]
            if out[-n:] == inverse:
                del out[-n:]
                continue
            k = next(compress(count(), map(ne, reversed(out), reversed(inverse))))
            del out[-k:]
            out.extend(image[k:])
        else:
            out.extend(image)
    del out[0]
    return out


# The witness check walks segments when `_expand` would copy more than this
# many letters per witness letter, and calls `_expand` otherwise.  Measured
# with the whole-entry comparison of `_expand` on every witnessed map of a
# `twists` round and on powers 2-7 of the figure-8 monodromy: `_expand` was
# faster on all maps that copy at most 17 letters per witness letter (twist
# maps, whose `_expand` check is linear, and low powers), by 1.2-4.7x; the
# walk was faster on all that copy 42 or more, by 1.2x at 42 and 8.8x at 754.
_WALK_FROM = 24


def _walker(table: Sequence[list[int]]) -> Callable[[Iterable[int]], list[int]]:
    """A kernel with the contract of `_expand` on `table`, for long entries.

    The reduced output is kept as a stack of segments (a, s, e), each
    standing for table[a][s:e], so no letter of an entry is copied.  An
    entry table[b][p:] cancels against the top segment while it starts with
    the segment's inverse, which is the slice [L - e, L - s) of table[-a]
    for L = len(table[a]).  Mostly all of the shorter of the two cancels,
    which one comparison of bytes shows; otherwise `_common_prefix` finds
    how much does.  Then the top segment either pops, which its push paid
    for, or shrinks and the walk stops.  Each letter is stored in the
    narrowest signed array type that holds +-rank, so equal bytes on letter
    boundaries are equal letters at every rank."""
    rank = len(table) // 2
    code = next(c for c in "bhiq" if rank < 1 << 8 * array(c).itemsize - 1)
    width = array(code).itemsize
    codes = [array(code, entry).tobytes() for entry in table]
    views = [memoryview(c) for c in codes]
    lengths = [len(entry) for entry in table]

    def walk(letters):
        stack: list[tuple[int, int, int]] = []
        for b in letters:
            entry, image, n, p = table[b], codes[b], lengths[b], 0
            while stack and p < n:
                a, s, e = stack[-1]
                if entry[p] != -table[a][e - 1]:
                    break
                i, k = lengths[a] - e, min(e - s, n - p)
                if not image.startswith(views[-a][i * width:(i + k) * width], p * width):
                    k = _common_prefix(views[-a], i, image, p, k, width)
                p += k
                if k < e - s:
                    stack[-1] = (a, s, e - k)
                    break
                stack.pop()
            if p < n:
                stack.append((b, p, n))
        return [x for a, s, e in stack for x in table[a][s:e]]
    return walk


def _common_prefix(x: memoryview, i: int, y: bytes, j: int, m: int, width: int) -> int:
    """The number k < m of leading letters that x from letter i and y from
    letter j share, letters being `width` bytes, when the next m letters
    differ somewhere: galloping finds a block that holds the first
    differing byte and bisection finds it in the block; it lies in letter
    k.  Each test is one memcmp of bytes not yet known equal."""
    i, j, m = i * width, j * width, m * width
    lo, hi, step = 0, width, width
    while y.startswith(x[i + lo:i + hi], j + lo):
        lo, step = hi, 2 * step
        hi = min(lo + step, m)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if y.startswith(x[i + lo:i + mid], j + lo):
            lo = mid
        else:
            hi = mid
    return lo // width


@dataclass(frozen=True)
class FreeGroupMap:
    rank: int
    images: tuple[FreeWord, ...]
    inverse_images: tuple[FreeWord, ...] | None = None

    def __post_init__(self):
        _check_int(self.rank, "rank")
        object.__setattr__(self, "images", _image_words(self.images, self.rank, "images"))
        if self.inverse_images is not None:
            inv = _image_words(self.inverse_images, self.rank, "inverse witness")
            object.__setattr__(self, "inverse_images", inv)
            table = _table(self.images)
            lengths = list(map(len, table))
            # no witness letter copies more than max(lengths) letters
            long = max(lengths) > _WALK_FROM and _WALK_FROM * sum(map(len, inv)) < sum(
                sum(map(lengths.__getitem__, w.letters)) for w in inv)
            kernel = _walker(table) if long else partial(_expand, table)
            for i, w in enumerate(inv, 1):
                if kernel(w.letters) != [i]:
                    raise MalformedInputError("inverse witness does not invert the map")

    @classmethod
    def identity(cls, rank: int) -> "FreeGroupMap":
        _check_int(rank, "rank")
        if rank < 0:
            raise MalformedInputError("negative rank")
        gens = tuple(_unchecked(FreeWord, rank, (i + 1,)) for i in range(rank))
        return _unchecked(FreeGroupMap, rank, gens, gens)

    @classmethod
    def from_letters(cls, rank: int, images: Sequence[Sequence[int]],
                     inverse_images: Sequence[Sequence[int]] | None = None) -> "FreeGroupMap":
        _check_sequence(images, "images")
        imgs = tuple(FreeWord(rank, w) for w in images)
        invs = None
        if inverse_images is not None:
            _check_sequence(inverse_images, "inverse witness")
            invs = tuple(FreeWord(rank, w) for w in inverse_images)
        return cls(rank, imgs, invs)

    @property
    def has_witness(self) -> bool:
        return self.inverse_images is not None

    def inverse(self) -> "FreeGroupMap":
        if self.inverse_images is None:
            raise MalformedInputError("map has no inverse witness")
        return _unchecked(FreeGroupMap, self.rank, self.inverse_images, self.images)

    def extend(self, new_rank: int, offset: int = 0) -> "FreeGroupMap":
        """Act as before on a block of generators, identically elsewhere."""
        _check_int(new_rank, "rank")
        _check_int(offset, "offset")
        if offset < 0 or offset + self.rank > new_rank:
            raise RankMismatchError("extension does not fit in the target rank")

        def extended(words):
            out = [_unchecked(FreeWord, new_rank, (i + 1,)) for i in range(new_rank)]
            out[offset:offset + self.rank] = (w.shift(new_rank, offset) for w in words)
            return tuple(out)
        invs = None if self.inverse_images is None else extended(self.inverse_images)
        return _unchecked(FreeGroupMap, new_rank, extended(self.images), invs)

    def power(self, n: int) -> "FreeGroupMap":
        """f^n by repeated squaring; f^-n needs the inverse witness."""
        _check_int(n, "exponent")
        base = self if n >= 0 else self.inverse()
        out = FreeGroupMap.identity(self.rank)
        n = abs(n)
        while n:
            if n & 1:
                out = compose(out, base)
            n >>= 1
            if n:
                base = compose(base, base)
        return out

    def __repr__(self):
        return f"FreeGroupMap({self.rank}, {[list(w.letters) for w in self.images]})"


def _substitute(f_images: Sequence[FreeWord], words: Sequence[FreeWord]) -> tuple[FreeWord, ...]:
    """The words f(w) for w in `words`, where f is x_i -> f_images[i-1]."""
    table, rank = _table(f_images), len(f_images)
    return tuple(_unchecked(FreeWord, rank, tuple(_expand(table, w.letters))) for w in words)


def apply_map(f: FreeGroupMap, word: FreeWord) -> FreeWord:
    _check_type(f, FreeGroupMap, "map")
    _check_type(word, FreeWord, "word")
    if f.rank != word.rank:
        raise RankMismatchError("map and word ranks differ")
    return _substitute(f.images, (word,))[0]


def compose(f: FreeGroupMap, g: FreeGroupMap) -> FreeGroupMap:
    """(f o g)(x) = f(g(x)); witnesses compose in the opposite order."""
    _check_type(f, FreeGroupMap, "map")
    _check_type(g, FreeGroupMap, "map")
    if f.rank != g.rank:
        raise RankMismatchError("composed maps must share a rank")
    invs = None
    if f.inverse_images is not None and g.inverse_images is not None:
        invs = _substitute(g.inverse_images, f.inverse_images)
    return _unchecked(FreeGroupMap, f.rank, _substitute(f.images, g.images), invs)


def abelianize(f: FreeGroupMap) -> IntMatrix:
    """Exponent-sum matrix; column j is the exponent vector of images[j]."""
    _check_type(f, FreeGroupMap, "map")
    return _matrix(f.rank, f.rank, zip(*(w.exponent_vector() for w in f.images)))


# Text syntax: whitespace-separated tokens; a lowercase name is a generator,
# the same name with its first letter uppercased is the inverse.

def surface_names(genus: int) -> tuple[str, ...]:
    _check_int(genus, "genus")
    out: list[str] = []
    for i in range(1, genus + 1):
        out.extend((f"a{i}", f"b{i}"))
    return tuple(out)


def handlebody_names(genus: int) -> tuple[str, ...]:
    _check_int(genus, "genus")
    return tuple(f"x{i}" for i in range(1, genus + 1))


def check_generator_names(names: Sequence[str]) -> None:
    """Each name must be nonempty, free of whitespace and start with a
    lowercase letter, and the names and their inverse tokens must all differ;
    any other name would read back as a different word."""
    _tokens(names)


def _tokens(names: Sequence[str]) -> tuple[dict[str, int], dict[int, str]]:
    """The token tables of `names`, a tuple or list of valid generator names."""
    _check_sequence(names, "generator names")
    try:
        return _token_tables(tuple(names))
    except TypeError:  # an unhashable name
        raise MalformedInputError(f"generator names {list(names)} must be strings") from None


@lru_cache(maxsize=64)
def _token_tables(names: tuple[str, ...]) -> tuple[dict[str, int], dict[int, str]]:
    """(token -> letter, letter -> token) for the text syntax over `names`;
    shared between callers, so never mutated."""
    tokens = {}
    for i, name in enumerate(names):
        if type(name) is not str:
            raise MalformedInputError(f"generator names {list(names)} must be strings")
        if name.split() != [name] or not name[0].islower():
            raise MalformedInputError(
                f"generator name {name!r} must start with a lowercase letter "
                "and contain no whitespace")
        tokens[name] = i + 1
        tokens[name[0].upper() + name[1:]] = -(i + 1)
    if len(tokens) != 2 * len(names):
        raise MalformedInputError(f"generator names {list(names)} collide")
    return tokens, {letter: token for token, letter in tokens.items()}


def _text(names: Sequence[str]) -> tuple[Callable[[str], FreeWord], Callable]:
    """The parser of word texts and the printer of word lists over valid
    generator names, with one token table: the loader's and the public ones."""
    (letter, token), rank = (table.__getitem__ for table in _tokens(names)), len(names)

    def read(text: str) -> FreeWord:
        try:
            letters = tuple(map(letter, text.split()))
        except KeyError as missing:
            raise MalformedInputError(f"unknown generator token {missing.args[0]!r}") from None
        if 0 in map(add, letters, letters[1:]):  # a pair cancels
            letters = _reduce(letters)
        word = object.__new__(FreeWord)  # valid: the table holds only +-1..+-rank
        object.__setattr__(word, "rank", rank)
        object.__setattr__(word, "letters", letters)
        return word
    return read, lambda words: [" ".join(map(token, w.letters)) for w in words]


def word_to_text(word: FreeWord, names: Sequence[str]) -> str:
    _check_type(word, FreeWord, "word")
    write = _text(names)[1]
    if len(names) != word.rank:
        raise RankMismatchError("need one name per generator")
    return write((word,))[0]


def word_from_text(text: str, names: Sequence[str]) -> FreeWord:
    _check_type(text, str, "word text")
    return _text(names)[0](text)
