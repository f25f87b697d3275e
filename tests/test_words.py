import pytest
from hypothesis import given, strategies as st

from fibcalc.errors import MalformedInputError, RankMismatchError
from fibcalc.matrices import IntMatrix
from fibcalc.words import (FreeGroupMap, FreeWord, abelianize, apply_map, compose,
                           handlebody_names, surface_names, word_from_text,
                           word_to_text)


def letters(rank, max_len=12):
    nonzero = st.integers(-rank, rank).filter(lambda x: x != 0)
    return st.lists(nonzero, max_size=max_len)


def naive_reduce(seq):
    out = []
    for x in seq:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def test_reduce_examples():
    # x1 x2 x2^-1 -> x1
    assert FreeWord(2, (1, 2, -2)).letters == (1,)
    assert FreeWord(2, ()).letters == ()
    # x1 x1^-1 x1 -> x1
    assert FreeWord(1, (1, -1, 1)).letters == (1,)


def test_out_of_range_letter_rejected():
    with pytest.raises(MalformedInputError):
        FreeWord(2, (3,))
    with pytest.raises(MalformedInputError):
        FreeWord(2, (0,))


@given(letters(3))
def test_reduction_matches_naive_stack(seq):
    assert FreeWord(3, tuple(seq)).letters == naive_reduce(seq)


@given(letters(3))
def test_word_times_inverse_is_identity(seq):
    w = FreeWord(3, tuple(seq))
    assert (w * w.inverse()).is_identity
    assert (w.inverse() * w).is_identity


def sample_map():
    # x1 -> x1 x2, x2 -> x2 (a Nielsen move, with witness)
    return FreeGroupMap.from_letters(2, [[1, 2], [2]], [[1, -2], [2]])


def test_apply_map_examples():
    f = sample_map()
    assert apply_map(FreeGroupMap.identity(2), FreeWord(2, (1, -2))) == FreeWord(2, (1, -2))
    # f(x1 x2^-1) = x1 x2 x2^-1 = x1
    assert apply_map(f, FreeWord(2, (1, -2))) == FreeWord(2, (1,))
    assert apply_map(f, FreeWord(2, ())).is_identity


def test_apply_map_rank_mismatch():
    with pytest.raises(RankMismatchError):
        apply_map(sample_map(), FreeWord(3, (1,)))


def test_apply_respects_inverses():
    f = sample_map()
    w = FreeWord(2, (1, 2, -1))
    assert apply_map(f, w.inverse()) == apply_map(f, w).inverse()


def test_compose_identity_and_inverse():
    f = sample_map()
    assert compose(f, FreeGroupMap.identity(2)).images == f.images
    assert compose(f, f.inverse()).images == FreeGroupMap.identity(2).images


@given(letters(2, 6), letters(2, 6), letters(2, 6))
def test_compose_agrees_with_pointwise_application(w1, w2, w):
    # maps built by conjugation-free assignments are not automorphisms in
    # general, which is fine here: no witness claimed
    f = FreeGroupMap(2, (FreeWord(2, tuple(w1)), FreeWord(2, tuple(w2))))
    g = sample_map()
    word = FreeWord(2, tuple(w))
    assert apply_map(compose(f, g), word) == apply_map(f, apply_map(g, word))


def test_abelianize_examples():
    assert abelianize(FreeGroupMap.identity(2)) == IntMatrix.identity(2)
    assert abelianize(sample_map()) == IntMatrix.from_rows([[1, 0], [1, 1]])


@given(letters(2, 6), letters(2, 6))
def test_abelianize_is_multiplicative(w1, w2):
    f = FreeGroupMap(2, (FreeWord(2, tuple(w1)), FreeWord(2, tuple(w2))))
    g = sample_map()
    assert abelianize(compose(f, g)) == abelianize(f).mul(abelianize(g))


def test_witness_is_checked():
    with pytest.raises(MalformedInputError):
        FreeGroupMap.from_letters(2, [[1, 2], [2]], [[1], [2]])


def test_witnessed_map_has_unimodular_abelianization():
    f = sample_map()
    assert abelianize(f).det() in (1, -1)


def test_bad_inverse_images_rank():
    with pytest.raises(RankMismatchError):
        FreeGroupMap(2, (FreeWord(2, (1,)),))


def test_word_text_round_trip():
    names = surface_names(2)
    w = FreeWord(4, (1, -2, 3, 4, -1))
    text = word_to_text(w, names)
    assert text == "a1 B1 a2 b2 A1"
    assert word_from_text(text, names) == w
    with pytest.raises(MalformedInputError):
        word_from_text("zz", names)


def test_shift_embedding():
    w = FreeWord(2, (1, -2))
    assert w.shift(4, 2) == FreeWord(4, (3, -4))
    with pytest.raises(RankMismatchError):
        w.shift(3, 2)


def test_compose_rank_mismatch():
    with pytest.raises(RankMismatchError):
        compose(sample_map(), FreeGroupMap.identity(3))


@pytest.mark.parametrize("names", [["x", "X"], ["T", "u"], ["x", ""], ["a b"], ["x", "x"],
                                   ["1"], ["ªx"]])
def test_unreadable_generator_names_rejected(names):
    word = FreeWord(len(names), (1,))
    with pytest.raises(MalformedInputError):
        word_to_text(word, names)
    with pytest.raises(MalformedInputError):
        word_from_text(names[0], names)


@pytest.mark.parametrize("names", [surface_names(3), handlebody_names(3), ("t",),
                                   ("u", "v"), ("a1", "b1", "t")])
def test_internal_generator_names_round_trip(names):
    n = len(names)
    word = FreeWord(n, tuple(s * i for i in range(1, n + 1) for s in (1, -1, 1)))
    assert word_from_text(word_to_text(word, names), names) == word
