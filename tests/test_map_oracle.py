"""`FreeGroupMap` operations work on letter tuples and make `FreeWord`s only
where they hand one out.  Here they are checked on random witnessed maps
against an oracle that multiplies `FreeWord`s, together with the contracts
of the class: exact-type words, equality with a matching hash, and
immutability."""

import pytest
from hypothesis import given, settings, strategies as st

from fibcalc.errors import FrozenInstanceError
from fibcalc.matrices import IntMatrix
from fibcalc.presentation import hnn_presentation
from fibcalc.words import FreeGroupMap, FreeWord, abelianize, apply_map, compose
from oracles import substitute_by_products


def _compose(f, g):
    """(images, witness) of f o g from the (images, witness) of f and g."""
    return (tuple(substitute_by_products(f[0], w) for w in g[0]),
            tuple(substitute_by_products(g[1], w) for w in f[1]))


def _generators(rank):
    return tuple(FreeWord(rank, (i,)) for i in range(1, rank + 1))


def _power(f, n):
    base = f if n >= 0 else (f[1], f[0])
    out = (_generators(len(f[0])),) * 2
    for _ in range(abs(n)):
        out = _compose(out, base)
    return out


def _words(f):
    return f.images, f.inverse_images


@st.composite
def witnessed_maps(draw, rank):
    """Products of Nielsen moves x_i -> x_i x_j^+-1 and inversions
    x_i -> x_i^-1, each with its witness, in random order."""
    f = FreeGroupMap.identity(rank)
    for _ in range(draw(st.integers(0, 6))):
        i = draw(st.integers(1, rank))
        images = [[x] for x in range(1, rank + 1)]
        witness = [[x] for x in range(1, rank + 1)]
        if rank == 1 or draw(st.booleans()):
            images[i - 1] = witness[i - 1] = [-i]
        else:
            j = draw(st.integers(1, rank).filter(lambda j: j != i))
            sign = draw(st.sampled_from((1, -1)))
            images[i - 1], witness[i - 1] = [i, sign * j], [i, -sign * j]
        g = FreeGroupMap.from_letters(rank, images, witness)
        f = compose(f, g) if draw(st.booleans()) else compose(g, f)
    return f


def _assert_words_of(f, rank):
    for words in _words(f):
        assert type(words) is tuple and len(words) == rank
        assert all(type(w) is FreeWord and w.rank == rank for w in words)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_map_operations_match_the_word_product_oracle(data):
    rank = data.draw(st.integers(1, 3))
    f, g = data.draw(witnessed_maps(rank)), data.draw(witnessed_maps(rank))
    nonzero = st.integers(-rank, rank).filter(bool)
    word = FreeWord(rank, tuple(data.draw(st.lists(nonzero, max_size=12))))
    n = data.draw(st.integers(-4, 4))
    offset = data.draw(st.integers(0, 2))
    new_rank = rank + offset + data.draw(st.integers(0, 2))

    assert _words(compose(f, g)) == _compose(_words(f), _words(g))
    assert _words(f.power(n)) == _power(_words(f), n)
    assert _words(f.inverse()) == (f.inverse_images, f.images)
    assert apply_map(f, word) == substitute_by_products(f.images, word)
    columns = [w.exponent_vector() for w in f.images]
    assert abelianize(f) == IntMatrix.from_rows([list(row) for row in zip(*columns)])

    extended = f.extend(new_rank, offset)
    for got, words in zip(_words(extended), _words(f)):
        expected = list(_generators(new_rank))
        expected[offset:offset + rank] = (w.shift(new_rank, offset) for w in words)
        assert got == tuple(expected)

    names = tuple(f"x{i}" for i in range(1, rank + 1))
    t, s = FreeWord(rank + 1, (rank + 1,)), rank + 1
    expected = tuple(t * x.shift(s) * t.inverse() * image.shift(s).inverse()
                     for x, image in zip(_generators(rank), f.images))
    assert hnn_presentation(f, names).relators == expected

    for h, h_rank in ((compose(f, g), rank), (f.power(n), rank), (f.inverse(), rank),
                      (extended, new_rank), (FreeGroupMap.identity(rank), rank)):
        _assert_words_of(h, h_rank)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_equal_maps_hash_equal(data):
    rank = data.draw(st.integers(1, 3))
    f = data.draw(witnessed_maps(rank))
    rebuilt = FreeGroupMap(rank, f.images, f.inverse_images)
    assert rebuilt == f and hash(rebuilt) == hash(f)
    derived = compose(compose(f, FreeGroupMap.identity(rank)), f.inverse().inverse())
    assert derived == f.power(2) and hash(derived) == hash(f.power(2))
    assert FreeGroupMap(rank, f.images) != f
    assert FreeGroupMap(rank, f.images) == FreeGroupMap.from_letters(
        rank, [list(w.letters) for w in f.images])
    assert len({f, rebuilt, f.inverse().inverse()}) == 1


@pytest.mark.parametrize("field", ("rank", "images", "inverse_images", "_images", "_witness"))
def test_map_fields_cannot_be_assigned(field):
    f = FreeGroupMap.from_letters(2, [[1, 2], [2]], [[1, -2], [2]])
    before = (f.rank, f.images, f.inverse_images)
    with pytest.raises(FrozenInstanceError):
        setattr(f, field, getattr(f, field))
    with pytest.raises(FrozenInstanceError):
        delattr(f, field)
    assert (f.rank, f.images, f.inverse_images) == before
