import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fibcalc import serialize, words
from fibcalc.errors import BudgetExceededError, MalformedInputError, RankMismatchError, SchemaError
from fibcalc.fibered import catalog_knot, stallings_twist
from fibcalc.matrices import IntMatrix
from fibcalc.mcg import CurveSpec, SurfaceMonodromy, catalog_names, curated_payload
from fibcalc.words import (FreeGroupMap, FreeWord, _expand, _reduce, _table, _walker,
                           abelianize, apply_map, compose, handlebody_names, surface_names,
                           word_from_text, word_to_text)
from oracles import matrix_power


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
    assert (w * w.inverse()).letters == ()
    assert (w.inverse() * w).letters == ()


def sample_map():
    # x1 -> x1 x2, x2 -> x2 (a Nielsen move, with witness)
    return FreeGroupMap.from_letters(2, [[1, 2], [2]], [[1, -2], [2]])


def test_apply_map_examples():
    f = sample_map()
    assert apply_map(FreeGroupMap.identity(2), FreeWord(2, (1, -2))) == FreeWord(2, (1, -2))
    # f(x1 x2^-1) = x1 x2 x2^-1 = x1
    assert apply_map(f, FreeWord(2, (1, -2))) == FreeWord(2, (1,))
    assert apply_map(f, FreeWord(2, ())) == FreeWord(2, ())


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
    assert word_from_text("a1 b1 B1 a2 A2 A1 b2", names).letters == (4,)
    with pytest.raises(MalformedInputError, match="^unknown generator token 'zz'$"):
        word_from_text("a1 zz", names)


def test_shift_embedding():
    w = FreeWord(2, (1, -2))
    assert w.shift(4, 2) == FreeWord(4, (3, -4))
    with pytest.raises(RankMismatchError):
        w.shift(3, 2)


# Run in a child interpreter that caps its own address space at 1 GB, so a
# shift that built a table of 2 rank + 1 entries fails there with a
# MemoryError, and never takes memory from the test process.
_SHIFT_PROBE = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
sys.path.insert(0, sys.argv[1])
from fibcalc.words import FreeWord
word = FreeWord(10**9, (1, -2))
print(word.shift(10**9, 0).letters)
print(word.shift(2 * 10**9, 10**9).letters)
"""


def test_shift_maps_only_the_word_letters():
    """A word of rank 10^9 shifts in time and memory of its own length."""
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-I", "-c", _SHIFT_PROBE, str(src)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[:2] == ["(1, -2)", "(1000000001, -1000000002)"]


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


def catalog_maps():
    """The free-group map of every catalog entry: knot monodromies, the
    standard curves and the Stallings curves."""
    out = []
    for name in catalog_names():
        entry = curated_payload(name)
        f = entry.pi1_payload if isinstance(entry, CurveSpec) else entry.pi1_action
        if f is not None:
            out.append(pytest.param(f, id=name))
    return out


@pytest.mark.parametrize("f", catalog_maps())
def test_power_equals_repeated_compose(f):
    for n in range(-9, 10):
        base = f if n >= 0 else f.inverse()
        naive = FreeGroupMap.identity(f.rank)
        for _ in range(abs(n)):
            naive = compose(naive, base)
        assert f.power(n) == naive, n


@pytest.mark.parametrize("f", catalog_maps())
def test_power_zero_is_identity(f):
    assert f.power(0) == FreeGroupMap.identity(f.rank)
    unwitnessed = FreeGroupMap(f.rank, f.images)
    assert unwitnessed.power(0) == FreeGroupMap.identity(f.rank)


def test_power_of_unwitnessed_map():
    f = FreeGroupMap.from_letters(2, [[1, 2], [2, 2]])
    assert f.power(2) == compose(f, f)
    assert not f.power(2).has_witness
    for n in (-1, -2):
        with pytest.raises(MalformedInputError):
            f.power(n)


def test_figure8_power_10():
    f = catalog_knot("figure8").monodromy.pi1_action
    power = f.power(10)
    assert sum(len(w) for w in power.images) == 28657
    assert abelianize(power) == matrix_power(abelianize(f), 10)
    assert power.inverse_images == f.inverse().power(10).images


def naive_apply(f, word):
    expanded = []
    for letter in word.letters:
        image = f.images[abs(letter) - 1].letters
        expanded.extend(image if letter > 0 else [-x for x in reversed(image)])
    return _reduce(expanded)


def cancelling(rank, pieces=4):
    """Letter lists built as u v v^-1 w w^-1 ..., heavy in w w^-1 pairs once
    substituted."""
    piece = letters(rank, 5)
    return st.lists(st.tuples(piece, piece), max_size=pieces).map(
        lambda pairs: [x for u, v in pairs for x in u + v + [-y for y in reversed(v)]])


@given(st.data())
def test_apply_map_matches_naive_substitution(data):
    rank = data.draw(st.integers(1, 4))
    conjugator = data.draw(letters(rank, 6))
    images = []
    for _ in range(rank):
        core = data.draw(letters(rank, 4))
        if data.draw(st.booleans()):  # conjugate: images sharing a prefix and its inverse
            core = conjugator + core + [-x for x in reversed(conjugator)]
        images.append(FreeWord(rank, tuple(core)))
    f = FreeGroupMap(rank, tuple(images))
    word = FreeWord(rank, tuple(data.draw(st.one_of(letters(rank, 20), cancelling(rank)))))
    assert apply_map(f, word).letters == naive_apply(f, word)
    assert apply_map(f, word) == FreeWord(rank, naive_apply(f, word))


def nielsen(rank, i, j, sign):
    """x_i -> x_i x_j^sign, with its witness."""
    images = [[x] for x in range(1, rank + 1)]
    inverses = [[x] for x in range(1, rank + 1)]
    images[i - 1] = [i, sign * j]
    inverses[i - 1] = [i, -sign * j]
    return FreeGroupMap.from_letters(rank, images, inverses)


@given(st.data())
def test_derived_maps_pass_the_full_check(data):
    f = FreeGroupMap.identity(data.draw(st.integers(2, 3)))
    for _ in range(data.draw(st.integers(1, 8))):
        step = data.draw(st.sampled_from(("move", "move", "inverse", "power", "extend")))
        if step == "move":
            i, j = data.draw(st.permutations(range(1, f.rank + 1)))[:2]
            g = nielsen(f.rank, i, j, data.draw(st.sampled_from((1, -1))))
            f = compose(f, g) if data.draw(st.booleans()) else compose(g, f)
        elif step == "inverse":
            f = f.inverse()
        elif step == "power":
            if sum(len(w) for w in f.images + f.inverse_images) < 60:  # keep words short
                f = f.power(data.draw(st.integers(-3, 3)))
        elif f.rank < 5:
            f = f.extend(f.rank + 1, data.draw(st.integers(0, 1)))
        assert FreeGroupMap(f.rank, f.images, f.inverse_images) == f
        for w in f.images + f.inverse_images:
            assert FreeWord(w.rank, w.letters) == w


def two_sided_check(rank, images, inverses):
    """The witness check the constructor used to run, kept as an oracle:
    f(g(x_i)) = x_i and g(f(x_i)) = x_i for every generator, and det +-1."""
    f = FreeGroupMap.from_letters(rank, images)
    g = FreeGroupMap.from_letters(rank, inverses)
    gens = [FreeWord(rank, (i + 1,)) for i in range(rank)]
    return (all(apply_map(f, w) == x for w, x in zip(g.images, gens))
            and all(apply_map(g, w) == x for w, x in zip(f.images, gens))
            and abelianize(f).det() in (1, -1))


@given(st.data())
def test_one_sided_witness_check_matches_the_two_sided_oracle(data):
    rank = data.draw(st.integers(1, 3))
    f = FreeGroupMap.identity(rank)
    for _ in range(data.draw(st.integers(0, 6))):
        i = data.draw(st.integers(1, rank))
        if rank == 1 or data.draw(st.booleans()):
            flip = [[x] for x in range(1, rank + 1)]
            flip[i - 1] = [-i]  # x_i -> x_i^-1, its own witness
            g = FreeGroupMap.from_letters(rank, flip, flip)
        else:
            j = data.draw(st.integers(1, rank).filter(lambda j: j != i))
            g = nielsen(rank, i, j, data.draw(st.sampled_from((1, -1))))
        f = compose(f, g)
    images = [list(w.letters) for w in f.images]
    inverses = [list(w.letters) for w in f.inverse_images]
    # change one letter of the witness or of an image, possibly to itself
    words = data.draw(st.sampled_from((images, inverses)))
    k = data.draw(st.integers(0, rank - 1))
    position = data.draw(st.integers(0, len(words[k]) - 1))
    words[k][position] = data.draw(st.integers(-rank, rank).filter(lambda x: x != 0))
    expected = two_sided_check(rank, images, inverses)
    try:
        FreeGroupMap.from_letters(rank, images, inverses)
    except MalformedInputError:
        assert not expected
    else:
        assert expected


def both_kernels_agree(images, witness):
    """Run the segment walk and `_expand` on every witness word, never
    through the constructor's dispatch: both must give the same reduced
    letters.  Returns whether the witness inverts the map."""
    table = _table([w.letters for w in images])
    walk = _walker(table)
    verdict = True
    for i, w in enumerate(witness):
        reduced = _expand(table, w.letters)
        assert walk(w.letters) == reduced
        verdict = verdict and reduced == [i + 1]
    return verdict


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_segment_walk_matches_expand(data):
    rank = data.draw(st.integers(2, 4))
    f = FreeGroupMap.identity(rank)
    for _ in range(data.draw(st.integers(0, 25))):
        size = sum(len(w) for w in f.images + f.inverse_images)
        if size > 1000:  # the _expand check is quadratic
            break
        if data.draw(st.integers(0, 4)) or size > 40:  # a power of 40 letters stays short
            i, j = data.draw(st.permutations(range(1, rank + 1)))[:2]
            g = nielsen(rank, i, j, data.draw(st.sampled_from((1, -1))))
            f = compose(f, g) if data.draw(st.booleans()) else compose(g, f)
        else:
            f = f.power(data.draw(st.sampled_from((-3, -2, -1, 2, 3))))
    if data.draw(st.booleans()):  # letters past +-127 take two bytes in the walk
        f = f.extend(rank + 200, 200)
        rank = f.rank
    images, witness = list(f.images), list(f.inverse_images)
    corrupt = data.draw(st.booleans())
    if corrupt:  # one letter of the witness or of an image, possibly to itself
        words = data.draw(st.sampled_from((images, witness)))
        k = data.draw(st.integers(rank - 4, rank - 1).filter(lambda k: k >= 0))
        letters = list(words[k].letters)
        if letters:
            letters[data.draw(st.integers(0, len(letters) - 1))] = data.draw(
                st.integers(-rank, rank).filter(lambda x: x != 0))
        words[k] = FreeWord(rank, tuple(letters))
    verdict = both_kernels_agree(images, witness)
    assert verdict or corrupt
    if verdict:
        assert FreeGroupMap(rank, tuple(images), tuple(witness)).images == tuple(images)
    else:
        with pytest.raises(MalformedInputError):
            FreeGroupMap(rank, tuple(images), tuple(witness))


def test_segment_walk_beyond_one_byte_letters():
    """Rank 130: letters up to +-130 do not fit one signed byte, so the
    walk compares two bytes per letter."""
    rank = 130
    f = catalog_knot("figure8").monodromy.pi1_action.power(6).extend(rank, rank - 2)
    for i, j in ((1, rank), (rank - 1, 2), (3, rank - 1)):
        f = compose(nielsen(rank, i, j, 1), compose(f, nielsen(rank, j, i, -1)))
    assert max(len(w) for w in f.images) > 300
    assert both_kernels_agree(f.images, f.inverse_images)
    witness = list(f.inverse_images)
    w = list(witness[rank - 1].letters)
    w[len(w) // 2] = rank if w[len(w) // 2] != rank else rank - 1
    witness[rank - 1] = FreeWord(rank, tuple(w))
    assert not both_kernels_agree(f.images, witness)
    # -126 and 130 differ only in one of their two bytes
    images = [(i + 1,) for i in range(rank)]
    images[0], images[1] = (126, 2, 3, 4), (-4, -3, -2, 130)
    assert _walker(_table(images))([1, 2]) == _expand(_table(images), [1, 2]) == [126, 130]


def test_figure8_power_10_full_check():
    """The full constructor check and a validating JSON round trip of
    phi^10 (28657 letters), then one letter changed deep in the witness."""
    p = catalog_knot("figure8").monodromy.pi1_action.power(10)
    assert FreeGroupMap(p.rank, p.images, p.inverse_images) == p
    monodromy = SurfaceMonodromy(1, abelianize(p), p)
    text = serialize.dumps(monodromy)
    assert serialize.loads(text) == monodromy
    w = list(p.inverse_images[0].letters)
    middle = len(w) // 2
    w[middle] = 1 if w[middle] == 2 else 2  # the witness is a positive word
    bad = (FreeWord(2, tuple(w)), p.inverse_images[1])
    with pytest.raises(MalformedInputError):
        FreeGroupMap(p.rank, p.images, bad)
    data = json.loads(text)
    data["object"]["pi1_action"]["inverse_images"][0] = word_to_text(bad[0], ("a1", "b1"))
    with pytest.raises(SchemaError):
        serialize.loads(json.dumps(data))


def _refuse(kernel):
    def refused(*args):
        raise AssertionError(f"the witness check ran {kernel}")
    return refused


def test_loading_a_long_power_checks_its_witness_by_the_walk(monkeypatch):
    """Time-free: the witness of phi^10 is checked by the segment walk,
    never by `_expand`, which is quadratic there (seconds against tens of
    milliseconds)."""
    p = catalog_knot("figure8").monodromy.pi1_action.power(10)
    text = serialize.dumps(SurfaceMonodromy(1, abelianize(p), p))
    monkeypatch.setattr(words, "_expand", _refuse("_expand"))
    assert serialize.loads(text).pi1_action == p
    monkeypatch.setattr(words, "_walker", _refuse("_walker"))
    with pytest.raises(AssertionError, match="_walker"):
        serialize.loads(text)


def test_loading_a_twist_checks_its_witnesses_by_expand(monkeypatch):
    """Twist maps copy few letters per witness letter, so `_expand`, linear
    there, checks every map of a Stallings twist, the m = 40 power too."""
    curve = curated_payload("square_knot_stallings_c1")
    knot = stallings_twist(catalog_knot("square_knot"), curve, 40)
    text = serialize.dumps(knot)
    monkeypatch.setattr(words, "_walker", _refuse("_walker"))
    assert serialize.loads(text) == knot
    monkeypatch.setattr(words, "_expand", _refuse("_expand"))
    with pytest.raises(AssertionError, match="_expand"):
        serialize.loads(text)


def _spiral(k):
    """x1 -> (x1 x2)^k, x2 -> x2: squaring it writes k * 2k + k + 1 letters
    from 2k + 1."""
    return FreeGroupMap.from_letters(2, [[1, 2] * k, [2]])


def test_power_refuses_a_composition_over_the_letter_budget():
    """At the module budget, without making the 8 million letters."""
    assert words.POWER_LETTER_BUDGET == 2**23
    with pytest.raises(BudgetExceededError, match="would write 8390657 letters"):
        _spiral(2048).power(2)
    assert _spiral(2048).power(1) == _spiral(2048)


def test_power_budget_is_a_bound_on_each_composition(monkeypatch):
    monkeypatch.setattr(words, "POWER_LETTER_BUDGET", 211)
    assert len(_spiral(10).power(2).images[0]) == 210
    monkeypatch.setattr(words, "POWER_LETTER_BUDGET", 210)
    with pytest.raises(BudgetExceededError, match="would write 211 letters.* budget of 210"):
        _spiral(10).power(2)
    with pytest.raises(BudgetExceededError, match="would write 211 letters"):
        _spiral(10).power(5)


def test_stallings_twist_of_a_huge_count_is_over_budget(monkeypatch):
    monkeypatch.setattr(words, "POWER_LETTER_BUDGET", 10**5)
    curve = curated_payload("square_knot_stallings_c1")
    with pytest.raises(BudgetExceededError, match=r"would write \d+ letters"):
        stallings_twist(catalog_knot("square_knot"), curve, 10**12)
