"""Free-group words and endomorphisms.

Letters are nonzero signed integers: +i is the i-th generator (1-indexed),
-i its inverse.  Words are stored freely reduced; maps that claim to be
automorphisms must carry an inverse witness.

Words and maps are checked where they enter the system.  The `FreeWord`
constructor checks rank, letter types and ranges.  A `FreeGroupMap` holds
the letters of its words, not `FreeWord`s; its constructor (given
`FreeWord`s), `from_letters` (given letter lists) and the JSON loader (given
word texts) all reach one check, `_checked_map` and `__post_init__`: one word
per generator and the witness g of a map f in one direction only,
f(g(x_i)) = x_i for every generator.  That is enough.  It says f o g = id,
so f is onto; free groups of finite rank are Hopfian, so an onto
endomorphism is an automorphism, hence g = f^-1 and g o f = id as well; and
abelianizing f o g = id gives det(f) det(g) = 1 over the integers, so
det(f) = +-1.  `identity`, `inverse`, `compose`, `extend` and `power` build
their results from checked maps' letters through `_map`, without a second
check, because the facts it would prove hold by construction: the identity
is its own witness; f^-1 is witnessed by f; if f and g are witnessed,
g^-1 o f^-1 witnesses f o g; an extension is witnessed by the extended
witness; and powers are compositions.

So `FreeWord`s are made only where the API hands one out: when a map's
`images` or `inverse_images` are read, as the result of `apply_map`,
`word_from_text`, `FreeWord` `*`, `inverse` and `shift`, as the relators of
`presentation.hnn_presentation`, and as the prefixes that key
`invariants.fox_matrix`.  A `FreeWord` costs about 1.2 us to make,
a tuple about 0.07 us, and the words of derived maps are mostly only
substituted, abelianized or written out, which letters serve directly.
`power` counts the letters each composition would write before writing them
and refuses past `POWER_LETTER_BUDGET`.

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
from functools import lru_cache, partial
from itertools import chain, compress, count
from operator import add, ne, neg
from typing import Callable, Iterable, Sequence

from .errors import (BudgetExceededError, MalformedInputError, RankMismatchError, _check_int,
                     _check_sequence, _check_size, _check_type, _int_text, _repr_text, frozen)
from .matrices import IntMatrix, _matrix


def _reduce(letters: Iterable[int]) -> tuple[int, ...]:
    out: list[int] = []
    for letter in letters:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def _letters(rank: int, letters) -> tuple[int, ...]:
    """`letters`, a tuple or list of letters of the free group of rank
    `rank`, checked and freely reduced."""
    _check_int(rank, "rank")
    if rank < 0:
        raise MalformedInputError("negative rank")
    _check_sequence(letters, "letters")
    letters = tuple(letters)
    for letter in letters:
        if type(letter) is not int or letter == 0 or abs(letter) > rank:
            raise MalformedInputError(
                f"letter {_repr_text(letter, 'letter')} is not an integer in +-1..+-{rank}")
    return _reduce(letters)


_set = object.__setattr__


@frozen
class FreeWord:
    rank: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        _set(self, "letters", _letters(self.rank, self.letters))

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        _check_type(other, FreeWord, "word operand")
        if self.rank != other.rank:
            raise RankMismatchError("word product across different ranks")
        return _word(self.rank, _reduce(self.letters + other.letters))

    def inverse(self) -> "FreeWord":
        return _word(self.rank, tuple(map(neg, reversed(self.letters))))

    def __len__(self) -> int:
        return len(self.letters)

    def exponent_vector(self) -> tuple[int, ...]:
        _check_size(self.rank, "rank")
        return _exponents(self.rank, self.letters)

    def shift(self, new_rank: int, offset: int = 0) -> "FreeWord":
        """The same word viewed in a larger free group, generators moved up by
        `offset`."""
        _check_int(new_rank, "rank")
        _check_int(offset, "offset")
        _check_size(new_rank, "rank")
        if offset < 0 or self.rank + offset > new_rank:
            raise RankMismatchError("shift does not fit in the target rank")
        return _word(new_rank, tuple(x + offset if x > 0 else x - offset for x in self.letters))

    def __repr__(self):
        letters = _repr_text(list(self.letters), "letter")
        return f"FreeWord({_int_text(self.rank, 'rank')}, {letters})"


def _word(rank: int, letters: tuple[int, ...]) -> FreeWord:
    """The word of `letters`, reduced letters in +-1..+-rank, without a
    second check."""
    word = object.__new__(FreeWord)
    _set(word, "rank", rank)
    _set(word, "letters", letters)
    return word


def _exponents(rank: int, letters: Iterable[int]) -> tuple[int, ...]:
    out = [0] * rank
    for letter in letters:
        out[abs(letter) - 1] += 1 if letter > 0 else -1
    return tuple(out)


def _shifter(rank: int, offset: int) -> Callable[[int], int]:
    """Letter -> the same letter with its generator moved up by `offset`,
    for letters of rank `rank`: a lookup indexed like `_table`."""
    return [0, *range(1 + offset, rank + 1 + offset), *range(-rank - offset, -offset)].__getitem__


@lru_cache(maxsize=64)
def _generators(rank: int) -> tuple[tuple[int, ...], ...]:
    return tuple((i,) for i in range(1, rank + 1))


def _one_per_generator(words: Sequence, rank: int, what: str) -> None:
    if len(words) != rank:
        raise RankMismatchError(f"{what}: one word per generator is required")


def _image_letters(words, rank: int, what: str) -> tuple[tuple[int, ...], ...]:
    """The letters of `words`, checked to hold one rank-`rank` FreeWord per
    generator."""
    _check_sequence(words, what)
    _one_per_generator(words, rank, what)
    for w in words:
        _check_type(w, FreeWord, what)
        if w.rank != rank:
            raise RankMismatchError(f"{what}: word rank mismatch")
    return tuple(w.letters for w in words)


def _table(words: Sequence[tuple[int, ...]]) -> list[list[int]]:
    """Substitution table of the map x_i -> words[i-1], given by letters,
    indexed by letter: entry i holds the image of x_i and entry -i (counted
    from the end) the image of x_i^-1, its inverse word."""
    table = [[]] + [list(w) for w in words]
    table += [list(map(neg, reversed(w))) for w in reversed(words)]
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


# The most letters one composition inside `FreeGroupMap.power` may write
# before cancelling, witness included.  Measured peak memory of a power is
# 24-27 bytes per letter of its largest composition for Stallings-twist
# payloads and 9-10 for figure-8 monodromy powers, so this budget keeps a
# power under about 230 MB.  The figure-8 power phi^10 writes
# 57,314 letters in its largest composition.
POWER_LETTER_BUDGET = 2**23


@frozen
class FreeGroupMap:
    """The endomorphism x_i -> images[i-1] of the free group of rank `rank`,
    with an optional inverse witness.  It holds the letters of its words;
    `images` and `inverse_images` make `FreeWord`s when they are read."""
    rank: int
    _images: tuple[tuple[int, ...], ...]
    _witness: tuple[tuple[int, ...], ...] | None

    def __init__(self, rank: int, images: Sequence[FreeWord],
                 inverse_images: Sequence[FreeWord] | None = None):
        _check_int(rank, "rank")
        _set(self, "rank", rank)
        _set(self, "_images", _image_letters(images, rank, "images"))
        _set(self, "_witness", None if inverse_images is None
             else _image_letters(inverse_images, rank, "inverse witness"))
        self.__post_init__()

    def __post_init__(self):
        """Check the inverse witness g, if there is one: f(g(x_i)) = x_i."""
        witness = self._witness
        if witness is None:
            return
        table = _table(self._images)
        lengths = list(map(len, table))
        # no witness letter copies more than max(lengths) letters
        long = max(lengths) > _WALK_FROM and _WALK_FROM * sum(map(len, witness)) < sum(
            map(lengths.__getitem__, chain.from_iterable(witness)))
        kernel = _walker(table) if long else partial(_expand, table)
        for i, w in enumerate(witness, 1):
            if kernel(w) != [i]:
                raise MalformedInputError("inverse witness does not invert the map")

    @property
    def images(self) -> tuple[FreeWord, ...]:
        return tuple(_word(self.rank, w) for w in self._images)

    @property
    def inverse_images(self) -> tuple[FreeWord, ...] | None:
        if self._witness is None:
            return None
        return tuple(_word(self.rank, w) for w in self._witness)

    @classmethod
    def identity(cls, rank: int) -> "FreeGroupMap":
        _check_int(rank, "rank")
        if rank < 0:
            raise MalformedInputError("negative rank")
        _check_size(rank, "rank")
        gens = _generators(rank)
        return _map(rank, gens, gens)

    @classmethod
    def from_letters(cls, rank: int, images: Sequence[Sequence[int]],
                     inverse_images: Sequence[Sequence[int]] | None = None) -> "FreeGroupMap":
        _check_sequence(images, "images")
        imgs = tuple(_letters(rank, w) for w in images)
        invs = None
        if inverse_images is not None:
            _check_sequence(inverse_images, "inverse witness")
            invs = tuple(_letters(rank, w) for w in inverse_images)
        _check_int(rank, "rank")
        return _checked_map(rank, imgs, invs)

    @property
    def has_witness(self) -> bool:
        return self._witness is not None

    def inverse(self) -> "FreeGroupMap":
        if self._witness is None:
            raise MalformedInputError("map has no inverse witness")
        return _map(self.rank, self._witness, self._images)

    def extend(self, new_rank: int, offset: int = 0) -> "FreeGroupMap":
        """Act as before on a block of generators, identically elsewhere."""
        _check_int(new_rank, "rank")
        _check_int(offset, "offset")
        _check_size(new_rank, "rank")
        if offset < 0 or offset + self.rank > new_rank:
            raise RankMismatchError("extension does not fit in the target rank")
        shift = _shifter(self.rank, offset)

        def extended(words):
            out = list(_generators(new_rank))
            out[offset:offset + self.rank] = (
                (tuple(map(shift, w)) for w in words) if offset else words)
            return tuple(out)
        invs = None if self._witness is None else extended(self._witness)
        return _map(new_rank, extended(self._images), invs)

    def power(self, n: int) -> "FreeGroupMap":
        """f^n by repeated squaring; f^-n needs the inverse witness.  Each
        composition first counts the letters it would write, and past
        `POWER_LETTER_BUDGET` the power is refused before they are made."""
        _check_int(n, "exponent")
        base = self if n >= 0 else self.inverse()
        out = None
        n = abs(n)
        while n:
            if n & 1:
                out = base if out is None else _budgeted_compose(out, base)
            n >>= 1
            if n:
                base = _budgeted_compose(base, base)
        return FreeGroupMap.identity(self.rank) if out is None else out

    def __repr__(self):
        return f"FreeGroupMap({self.rank}, {[list(w) for w in self._images]})"


def _map(rank: int, images: tuple, witness: tuple | None) -> FreeGroupMap:
    """The map of letter tuples already known valid, without a check."""
    f = object.__new__(FreeGroupMap)
    _set(f, "rank", rank)
    _set(f, "_images", images)
    _set(f, "_witness", witness)
    return f


def _checked_map(rank: int, images: tuple, witness: tuple | None) -> FreeGroupMap:
    """The map of reduced letter tuples over +-1..+-rank, checked as the
    constructor checks it: one word per generator and the inverse witness."""
    _one_per_generator(images, rank, "images")
    if witness is not None:
        _one_per_generator(witness, rank, "inverse witness")
    f = _map(rank, images, witness)
    f.__post_init__()
    return f


def _substitute(f_images: Sequence[tuple[int, ...]], words: Iterable[tuple[int, ...]]) -> tuple:
    """The letters of f(w) for w in `words`, where f is x_i -> f_images[i-1]."""
    table = _table(f_images)
    return tuple([tuple(_expand(table, w)) for w in words])


def _written(f_images: Sequence[tuple[int, ...]], words: Iterable[tuple[int, ...]]) -> int:
    """The letters `_substitute(f_images, words)` writes before cancelling."""
    lengths = [0, *map(len, f_images), *map(len, reversed(f_images))]
    return sum(map(lengths.__getitem__, chain.from_iterable(words)))


def _budgeted_compose(f: FreeGroupMap, g: FreeGroupMap) -> FreeGroupMap:
    letters = _written(f._images, g._images)
    if f._witness is not None and g._witness is not None:
        letters += _written(g._witness, f._witness)
    if letters > POWER_LETTER_BUDGET:
        raise BudgetExceededError(f"power: one composition would write {letters} letters, "
                                  f"more than the budget of {POWER_LETTER_BUDGET}")
    return compose(f, g)


def apply_map(f: FreeGroupMap, word: FreeWord) -> FreeWord:
    _check_type(f, FreeGroupMap, "map")
    _check_type(word, FreeWord, "word")
    if f.rank != word.rank:
        raise RankMismatchError("map and word ranks differ")
    return _word(f.rank, tuple(_expand(_table(f._images), word.letters)))


def compose(f: FreeGroupMap, g: FreeGroupMap) -> FreeGroupMap:
    """(f o g)(x) = f(g(x)); witnesses compose in the opposite order."""
    _check_type(f, FreeGroupMap, "map")
    _check_type(g, FreeGroupMap, "map")
    if f.rank != g.rank:
        raise RankMismatchError("composed maps must share a rank")
    invs = None
    if f._witness is not None and g._witness is not None:
        invs = _substitute(g._witness, f._witness)
    return _map(f.rank, _substitute(f._images, g._images), invs)


def abelianize(f: FreeGroupMap) -> IntMatrix:
    """Exponent-sum matrix; column j is the exponent vector of images[j]."""
    _check_type(f, FreeGroupMap, "map")
    return _matrix(f.rank, f.rank, zip(*(_exponents(f.rank, w) for w in f._images)))


# Text syntax: whitespace-separated tokens; a lowercase name is a generator,
# the same name with its first letter uppercased is the inverse.

def surface_names(genus: int) -> tuple[str, ...]:
    _check_genus(genus)
    _check_size(2 * genus, "generator count")
    out: list[str] = []
    for i in range(1, genus + 1):
        out.extend((f"a{i}", f"b{i}"))
    return tuple(out)


def handlebody_names(genus: int) -> tuple[str, ...]:
    _check_genus(genus)
    _check_size(genus, "generator count")
    return tuple(f"x{i}" for i in range(1, genus + 1))


def _check_genus(genus) -> None:
    _check_int(genus, "genus")
    if genus < 0:
        raise MalformedInputError("genus must be nonnegative")


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


def _text(names: Sequence[str]) -> tuple[Callable[[str], tuple[int, ...]], Callable]:
    """The parser of word texts into reduced letters (in +-1..+-len(names),
    the letters of the token table) and the printer of lists of letter
    tuples, over valid generator names with one token table: the loader's
    and the public ones."""
    letter, token = (table.__getitem__ for table in _tokens(names))

    def read(text: str) -> tuple[int, ...]:
        try:
            letters = tuple(map(letter, text.split()))
        except KeyError as missing:
            raise MalformedInputError(f"unknown generator token {missing.args[0]!r}") from None
        if 0 in map(add, letters, letters[1:]):  # a pair cancels
            letters = _reduce(letters)
        return letters
    return read, lambda words: [" ".join(map(token, w)) for w in words]


def word_to_text(word: FreeWord, names: Sequence[str]) -> str:
    _check_type(word, FreeWord, "word")
    write = _text(names)[1]
    if len(names) != word.rank:
        raise RankMismatchError("need one name per generator")
    return write((word.letters,))[0]


def word_from_text(text: str, names: Sequence[str]) -> FreeWord:
    _check_type(text, str, "word text")
    read = _text(names)[0]
    return _word(len(names), read(text))
