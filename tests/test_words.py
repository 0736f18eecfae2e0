import pytest
from hypothesis import given, strategies as st

from gradlab.words import (
    Word,
    free_reduce,
    parse_word,
    render_word,
    exponent_sums,
    commutator,
    Presentation,
    presentation_from_texts,
    abelianized_relator_matrix,
    presentation_euler_characteristic,
    product_presentation,
)
from oracles import reduce_letters

NAMES = ("a", "b", "c")


def test_parse_basic():
    w = parse_word("a b^-1 a^2", NAMES)
    assert w.runs == ((0, 1), (1, -1), (0, 2))
    assert w.length == 4


def test_parse_reduces():
    assert parse_word("a a^-1 b", NAMES).runs == ((1, 1),)
    assert parse_word("a^2 a^-2", NAMES).is_empty()
    assert parse_word("", NAMES).is_empty()


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_word("d", NAMES)
    with pytest.raises(ValueError):
        parse_word("a^0", NAMES)
    with pytest.raises(ValueError):
        parse_word("a^x", NAMES)


def test_render_round_trip():
    for text in ("", "a", "a^-1", "a b^2 c^-3 a"):
        assert render_word(parse_word(text, NAMES), NAMES) == text


def test_word_algebra():
    a = parse_word("a", NAMES)
    b = parse_word("b", NAMES)
    assert (a * a.inverse()).is_empty()
    assert (a * b).runs == ((0, 1), (1, 1))
    assert (a ** 3).runs == ((0, 3),)
    assert (a ** -2).runs == ((0, -2),)
    assert (a ** 0).is_empty()
    assert commutator(a, b) == parse_word("a b a^-1 b^-1", NAMES)


def test_word_rejects_zero_exponent_run():
    with pytest.raises(ValueError):
        Word(((0, 0),))


def test_exponent_sums():
    w = parse_word("a b^-1 a^2 c", NAMES)
    assert exponent_sums(w, 3) == [3, -1, 1]


words_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),
              st.integers(min_value=-3, max_value=3).filter(bool)),
    max_size=12,
).map(lambda runs: Word(tuple(runs)))


@given(words_strategy)
def test_free_reduce_matches_letter_oracle(w):
    reduced = free_reduce(w)
    assert list(reduced.letters()) == reduce_letters(w.letters())


@given(words_strategy)
def test_free_reduce_idempotent_and_render_parses_back(w):
    reduced = free_reduce(w)
    assert free_reduce(reduced) == reduced
    names = ("a", "b", "c", "d")
    assert parse_word(render_word(reduced, names), names) == reduced


def test_presentation_lookup():
    p = presentation_from_texts(("a", "b"), ("a b a^-1 b^-1",))
    assert p.num_generators == 2
    assert p.gen("b") == 1
    assert p.render(p.word("a^2 b")) == "a^2 b"
    with pytest.raises(ValueError):
        p.gen("z")


def test_presentation_rejects_duplicate_names():
    with pytest.raises(ValueError):
        Presentation(("a", "a"), ())


def test_presentation_euler_characteristic():
    free2 = presentation_from_texts(("a", "b"), ())
    surf = presentation_from_texts(
        ("a1", "b1", "a2", "b2"),
        ("a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1",))
    assert presentation_euler_characteristic(surf) == -2
    assert presentation_euler_characteristic(free2) == -1


def test_abelianized_relator_matrix():
    surf = presentation_from_texts(
        ("a1", "b1", "a2", "b2"),
        ("a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1",))
    assert abelianized_relator_matrix(surf) == [[0, 0, 0, 0]]
    p = presentation_from_texts(("a", "b"), ("a^2 b^3", "a b^-1"))
    assert abelianized_relator_matrix(p) == [[2, 3], [1, -1]]


def test_product_presentation_two_free_factors():
    f2 = presentation_from_texts(("a", "b"), (), aspherical=True)
    prod = product_presentation((f2, f2), labels=("1", "2"))
    assert prod.generator_names == ("a1", "b1", "a2", "b2")
    # one commutator per cross-factor generator pair
    assert len(prod.relators) == 4
    assert prod.aspherical
    texts = [prod.render(r) for r in prod.relators]
    assert "a1 a2 a1^-1 a2^-1" in texts


def test_product_presentation_three_factors_not_aspherical():
    f2 = presentation_from_texts(("a", "b"), (), aspherical=True)
    prod = product_presentation((f2, f2, f2))
    assert prod.num_generators == 6
    assert len(prod.relators) == 12
    assert not prod.aspherical


def test_product_presentation_single_factor_passthrough():
    f2 = presentation_from_texts(("a", "b"), ())
    assert product_presentation((f2,)) is f2
    with pytest.raises(ValueError):
        product_presentation(())
