"""Finite group presentations and the HNN presentations of mapping-torus
fundamental groups."""

from __future__ import annotations

from functools import cached_property
from operator import neg
from typing import Sequence

from .errors import RankMismatchError, _check_sequence, _check_type, frozen
from .words import FreeGroupMap, FreeWord, _word, check_generator_names, word_to_text


@frozen
class GroupPresentation:
    generators: tuple[str, ...]
    relators: tuple[FreeWord, ...]

    def __post_init__(self):
        _check_sequence(self.generators, "generators")
        object.__setattr__(self, "generators", tuple(self.generators))
        check_generator_names(self.generators)
        _check_sequence(self.relators, "relators")
        n = len(self.generators)
        for rel in self.relators:
            _check_type(rel, FreeWord, "relator")
            if rel.rank != n:
                raise RankMismatchError("relator rank must match the generator count")
        object.__setattr__(self, "relators", tuple(self.relators))

    @property
    def n_generators(self) -> int:
        return len(self.generators)

    @cached_property
    def _memo(self) -> dict:
        """The H1 Smith form and the Fox diagonals per (k, M) of `invariants`;
        no field, so equality, hashing and serialization do not see it."""
        return {}

    def with_relator(self, relator: FreeWord) -> "GroupPresentation":
        return GroupPresentation(self.generators, self.relators + (relator,))

    def text(self) -> str:
        rels = ", ".join(word_to_text(r, self.generators) or "1" for r in self.relators)
        return f"< {' '.join(self.generators)} | {rels} >"

    def __repr__(self):
        return f"GroupPresentation({self.text()})"


def hnn_presentation(monodromy: FreeGroupMap, fiber_names: Sequence[str]) -> GroupPresentation:
    """Presentation of the mapping-torus group: generators the fiber group
    generators plus the stable letter t, relators t x_i t^-1 f(x_i)^-1.

    The relators are built without a second check, since they are reduced:
    f(x_i)^-1 is the inverse of a word of the checked map, and no two
    neighbours among t, x_i, t^-1 and its first letter cancel.  The names
    come from the caller and are checked."""
    _check_type(monodromy, FreeGroupMap, "monodromy")
    _check_sequence(fiber_names, "fiber generator names")
    n = monodromy.rank
    if len(fiber_names) != n:
        raise RankMismatchError("need one name per fiber generator")
    gens = tuple(fiber_names) + ("t",)
    t = n + 1
    relators = tuple(_word(n + 1, (t, i, -t, *map(neg, reversed(image))))
                     for i, image in enumerate(monodromy._images, 1))
    return GroupPresentation(gens, relators)
