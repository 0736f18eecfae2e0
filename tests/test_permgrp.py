import random

import pytest
from hypothesis import given, strategies as st

from gradlab.permgrp import (
    Perm,
    PermGroup,
    identity_perm,
    compose,
    inverse_perm,
    perm_order,
    direct_sum_perm,
    embed_perm,
    word_image,
    subgroup_index,
)
from gradlab.words import parse_word
from oracles import (brute_closure, brute_order, perm_from_cycles, tuple_compose,
                     tuple_inverse)


def test_perm_basics():
    p = Perm((1, 2, 0))
    assert p.degree == 3
    assert p(0) == 1 and p(2) == 0
    assert not p.is_identity()
    assert identity_perm(3).is_identity()
    assert repr(p) == "Perm([1, 2, 0])"


def test_perm_rejects_non_bijections():
    with pytest.raises(ValueError):
        Perm((0, 0, 1))
    with pytest.raises(ValueError):
        Perm((0, 3, 1))


def test_compose_convention():
    # compose(p, q) applies p first: compose(p, q)(x) == q(p(x))
    p = Perm((1, 0, 2))
    q = Perm((0, 2, 1))
    assert compose(p, q).images == (2, 0, 1)
    assert (p * q)(0) == q(p(0))
    with pytest.raises(ValueError):
        compose(p, Perm((0, 1)))


def test_inverse_and_cycles():
    rng = random.Random(7)
    for _ in range(25):
        images = list(range(6))
        rng.shuffle(images)
        p = Perm(images)
        assert (p * inverse_perm(p)).is_identity()
        assert inverse_perm(p).images == tuple_inverse(p.images)
    assert perm_from_cycles([(0, 1, 2), (3, 4)], 6) == (1, 2, 0, 4, 3, 5)


@given(st.integers(1, 12).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))))
def test_internal_constructors_match_tuple_oracles(pair):
    p, q = (tuple(x) for x in pair)
    a, b = Perm(p), Perm(q)
    results = ((compose(a, b), tuple_compose(p, q)),
               (inverse_perm(a), tuple_inverse(p)),
               (identity_perm(len(p)), tuple(range(len(p)))))
    for result, want in results:
        assert type(result.images) is tuple and result.images == want
        # the unchecked constructor only ever builds what Perm(...) accepts
        assert Perm(result.images) == result
    assert a.is_identity() == (p == tuple(range(len(p))))
    assert perm_order(a) == brute_order(len(p), [p])
    assert compose(a, inverse_perm(a)).is_identity()
    with pytest.raises(ValueError):
        Perm((0, 0, 1))


def test_direct_sum_and_embed():
    p = Perm((1, 0))
    q = Perm((1, 2, 0))
    s = direct_sum_perm([p, q])
    assert s.images == (1, 0, 3, 4, 2)
    e = embed_perm(q, 2, 6)
    assert e.images == (0, 1, 3, 4, 2, 5)


def test_word_image():
    names = ("a", "b")
    a = Perm((1, 2, 0))
    b = Perm((0, 2, 1))
    w = parse_word("a b a^-1", names)
    expected = compose(compose(a, b), inverse_perm(a))
    assert word_image(w, [a, b]) == expected
    assert word_image(parse_word("", names), [a, b]).is_identity()
    with pytest.raises(ValueError):
        word_image(w, [])


def test_group_order_symmetric_and_alternating():
    gens = [Perm((1, 0, 2, 3)), Perm((1, 2, 3, 0))]
    assert PermGroup(4, gens).order() == 24
    a4 = [Perm((1, 0, 3, 2)), Perm((1, 2, 0, 3))]
    assert PermGroup(4, a4).order() == 12


def test_order_matches_brute_closure_on_random_groups():
    rng = random.Random(11)
    for _ in range(30):
        degree = rng.randint(2, 6)
        gens = []
        for _ in range(rng.randint(1, 3)):
            images = list(range(degree))
            rng.shuffle(images)
            gens.append(Perm(images))
        g = PermGroup(degree, gens)
        assert g.order() == brute_order(degree, [p.images for p in gens])


def test_elements_and_contains():
    gens = [Perm((1, 2, 0)), Perm((0, 2, 1))]
    g = PermGroup(3, gens)
    closure = brute_closure(3, [p.images for p in gens])
    assert g.order() == len(closure) == 6
    assert all(g.contains(Perm(images)) for images in closure)
    assert g.contains(Perm((2, 1, 0)))
    assert not PermGroup(3, [Perm((1, 2, 0))]).contains(Perm((1, 0, 2)))


def test_trivial_group():
    g = PermGroup(4, [])
    assert g.order() == 1
    assert g.contains(identity_perm(4))
    assert not g.contains(Perm((1, 0, 2, 3)))


def test_subgroup_index():
    sym = PermGroup(3, [Perm((1, 2, 0)), Perm((1, 0, 2))])
    assert subgroup_index(sym, [Perm((1, 2, 0))]) == 2
    assert subgroup_index(sym, []) == 6
    with pytest.raises(ValueError):
        # the full 4-point flip is not in Sym({0,1,2}) x {3}
        subgroup_index(PermGroup(4, [Perm((1, 0, 2, 3))]), [Perm((0, 1, 3, 2))])


def test_closure_composition_sanity():
    # the oracle and library multiply in the same order
    p = (1, 2, 0)
    q = (0, 2, 1)
    assert tuple_compose(p, q) == compose(Perm(p), Perm(q)).images
