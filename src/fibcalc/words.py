"""Free-group words and endomorphisms.

Letters are nonzero signed integers: +i is the i-th generator (1-indexed),
-i its inverse.  Words are stored freely reduced; maps that claim to be
automorphisms must carry an inverse witness, which is verified at
construction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import MalformedInputError, RankMismatchError
from .matrices import IntMatrix


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
        if self.rank < 0:
            raise MalformedInputError("negative rank")
        letters = tuple(int(x) for x in self.letters)
        for letter in letters:
            if letter == 0 or abs(letter) > self.rank:
                raise MalformedInputError(f"letter {letter} out of range for rank {self.rank}")
        object.__setattr__(self, "letters", _reduce(letters))

    @classmethod
    def identity(cls, rank: int) -> "FreeWord":
        return cls(rank, ())

    @classmethod
    def generator(cls, rank: int, index: int, sign: int = 1) -> "FreeWord":
        if sign not in (1, -1):
            raise MalformedInputError("sign must be +-1")
        return cls(rank, (sign * index,))

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        if self.rank != other.rank:
            raise RankMismatchError("word product across different ranks")
        return FreeWord(self.rank, self.letters + other.letters)

    def inverse(self) -> "FreeWord":
        return FreeWord(self.rank, tuple(-x for x in reversed(self.letters)))

    def __pow__(self, n: int) -> "FreeWord":
        base = self if n >= 0 else self.inverse()
        return FreeWord(self.rank, base.letters * abs(n))

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
        if offset < 0 or self.rank + offset > new_rank:
            raise RankMismatchError("shift does not fit in the target rank")
        sgn = lambda x: 1 if x > 0 else -1
        return FreeWord(new_rank, tuple(sgn(x) * (abs(x) + offset) for x in self.letters))

    def __repr__(self):
        return f"FreeWord({self.rank}, {list(self.letters)})"


@dataclass(frozen=True)
class FreeGroupMap:
    rank: int
    images: tuple[FreeWord, ...]
    inverse_images: tuple[FreeWord, ...] | None = None

    def __post_init__(self):
        if len(self.images) != self.rank:
            raise RankMismatchError("one image per generator is required")
        for w in self.images:
            if w.rank != self.rank:
                raise RankMismatchError("image rank mismatch")
        object.__setattr__(self, "images", tuple(self.images))
        if self.inverse_images is not None:
            inv = tuple(self.inverse_images)
            if len(inv) != self.rank or any(w.rank != self.rank for w in inv):
                raise RankMismatchError("inverse witness rank mismatch")
            object.__setattr__(self, "inverse_images", inv)
            for i in range(self.rank):
                gen = FreeWord.generator(self.rank, i + 1)
                if _apply(self.images, inv[i]) != gen or _apply(inv, self.images[i]) != gen:
                    raise MalformedInputError("inverse witness does not invert the map")
            if abelianize(self).det() not in (1, -1):
                raise MalformedInputError("witnessed map must abelianize to det +-1")

    @classmethod
    def identity(cls, rank: int) -> "FreeGroupMap":
        gens = tuple(FreeWord.generator(rank, i + 1) for i in range(rank))
        return cls(rank, gens, gens)

    @classmethod
    def from_letters(cls, rank: int, images: Sequence[Sequence[int]],
                     inverse_images: Sequence[Sequence[int]] | None = None) -> "FreeGroupMap":
        imgs = tuple(FreeWord(rank, tuple(w)) for w in images)
        invs = None
        if inverse_images is not None:
            invs = tuple(FreeWord(rank, tuple(w)) for w in inverse_images)
        return cls(rank, imgs, invs)

    @property
    def has_witness(self) -> bool:
        return self.inverse_images is not None

    def inverse(self) -> "FreeGroupMap":
        if self.inverse_images is None:
            raise MalformedInputError("map has no inverse witness")
        return FreeGroupMap(self.rank, self.inverse_images, self.images)

    def extend(self, new_rank: int, offset: int = 0) -> "FreeGroupMap":
        """Act as before on a block of generators, identically elsewhere."""
        if offset < 0 or offset + self.rank > new_rank:
            raise RankMismatchError("extension does not fit in the target rank")
        imgs = [FreeWord.generator(new_rank, i + 1) for i in range(new_rank)]
        for i, w in enumerate(self.images):
            imgs[offset + i] = w.shift(new_rank, offset)
        invs = None
        if self.inverse_images is not None:
            invs = [FreeWord.generator(new_rank, i + 1) for i in range(new_rank)]
            for i, w in enumerate(self.inverse_images):
                invs[offset + i] = w.shift(new_rank, offset)
            invs = tuple(invs)
        return FreeGroupMap(new_rank, tuple(imgs), invs)

    def power(self, n: int) -> "FreeGroupMap":
        base = self if n >= 0 else self.inverse()
        out = FreeGroupMap.identity(self.rank)
        for _ in range(abs(n)):
            out = compose(out, base)
        return out

    def __repr__(self):
        return f"FreeGroupMap({self.rank}, {[list(w.letters) for w in self.images]})"


def _apply(images: Sequence[FreeWord], word: FreeWord) -> FreeWord:
    rank = len(images)
    letters: list[int] = []
    for letter in word.letters:
        img = images[abs(letter) - 1]
        letters.extend(img.letters if letter > 0 else tuple(-x for x in reversed(img.letters)))
    return FreeWord(rank, tuple(letters))


def apply_map(f: FreeGroupMap, word: FreeWord) -> FreeWord:
    if f.rank != word.rank:
        raise RankMismatchError("map and word ranks differ")
    return _apply(f.images, word)


def compose(f: FreeGroupMap, g: FreeGroupMap) -> FreeGroupMap:
    """(f o g)(x) = f(g(x)); witnesses compose in the opposite order."""
    if f.rank != g.rank:
        raise RankMismatchError("composed maps must share a rank")
    images = tuple(_apply(f.images, w) for w in g.images)
    invs = None
    if f.inverse_images is not None and g.inverse_images is not None:
        invs = tuple(_apply(g.inverse_images, w) for w in f.inverse_images)
    return FreeGroupMap(f.rank, images, invs)


def abelianize(f: FreeGroupMap) -> IntMatrix:
    """Exponent-sum matrix; column j is the exponent vector of images[j]."""
    cols = [w.exponent_vector() for w in f.images]
    return IntMatrix(f.rank, f.rank,
                     tuple(tuple(cols[j][i] for j in range(f.rank)) for i in range(f.rank)))


# Text syntax: whitespace-separated tokens; a lowercase name is a generator,
# the same name with its first letter uppercased is the inverse.

def surface_names(genus: int) -> tuple[str, ...]:
    out: list[str] = []
    for i in range(1, genus + 1):
        out.extend((f"a{i}", f"b{i}"))
    return tuple(out)


def handlebody_names(genus: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(1, genus + 1))


def check_generator_names(names: Sequence[str]) -> None:
    """Each name must be nonempty, free of whitespace and start with a
    lowercase letter, and the names and their inverse tokens must all differ;
    any other name would read back as a different word."""
    _token_tables(tuple(names))


@lru_cache(maxsize=64)
def _token_tables(names: tuple[str, ...]) -> tuple[dict[str, int], dict[int, str]]:
    """(token -> letter, letter -> token) for the text syntax over `names`;
    shared between callers, so never mutated."""
    tokens = {}
    for i, name in enumerate(names):
        if name.split() != [name] or not name[0].islower():
            raise MalformedInputError(
                f"generator name {name!r} must start with a lowercase letter "
                "and contain no whitespace")
        tokens[name] = i + 1
        tokens[name[0].upper() + name[1:]] = -(i + 1)
    if len(tokens) != 2 * len(names):
        raise MalformedInputError(f"generator names {list(names)} collide")
    return tokens, {letter: token for token, letter in tokens.items()}


def word_to_text(word: FreeWord, names: Sequence[str]) -> str:
    if len(names) != word.rank:
        raise RankMismatchError("need one name per generator")
    text = _token_tables(tuple(names))[1]
    return " ".join(text[letter] for letter in word.letters)


def word_from_text(text: str, names: Sequence[str]) -> FreeWord:
    lookup = _token_tables(tuple(names))[0]
    letters = []
    for token in text.split():
        if token not in lookup:
            raise MalformedInputError(f"unknown generator token {token!r}")
        letters.append(lookup[token])
    return FreeWord(len(names), tuple(letters))
