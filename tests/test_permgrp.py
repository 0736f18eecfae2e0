import random

import pytest
from hypothesis import given, settings, strategies as st

from gradlab import permgrp
from gradlab.permgrp import (
    Perm,
    PermGroup,
    carry,
    compose,
    gather,
    inverse_perm,
    direct_sum_perm,
    trace_point,
    subgroup_index,
)
from gradlab.words import Word, parse_word
from oracles import (brute_closure, brute_order, is_permutation_tuple,
                     naive_schreier_sims_order, perm_from_cycles,
                     tuple_columns, tuple_compose, tuple_inverse,
                     tuple_word_image)


def test_perm_basics():
    p = Perm((1, 2, 0))
    assert p.degree == 3
    assert p(0) == 1 and p(2) == 0
    assert not p.is_identity()
    assert Perm((0, 1, 2)).is_identity()
    assert repr(p) == "Perm([1, 2, 0])"


def test_perm_rejects_non_bijections():
    with pytest.raises(ValueError):
        Perm((0, 0, 1))
    with pytest.raises(ValueError):
        Perm((0, 3, 1))


@st.composite
def near_permutations(draw):
    """A permutation of up to 8 points, possibly with a few entries
    overwritten by ints from -3 to 11: duplicates, negative points and
    points past the end, or the empty tuple."""
    images = list(draw(st.integers(0, 8).flatmap(lambda n: st.permutations(range(n)))))
    for _ in range(draw(st.integers(0, 2)) if images else 0):
        images[draw(st.integers(0, len(images) - 1))] = draw(st.integers(-3, 11))
    return images


@settings(max_examples=400, deadline=None)
@given(near_permutations() | st.lists(st.integers(-3, 11), max_size=8))
def test_perm_accepts_exactly_the_permutations(images):
    images = tuple(images)
    if is_permutation_tuple(images):
        assert Perm(images).images == images
    else:
        with pytest.raises(ValueError) as err:
            Perm(images)
        assert str(err.value) == (f"not a permutation of 0..{len(images) - 1}: "
                                  f"{images}")


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


def test_gather_returns_a_tuple_on_zero_one_and_two_points():
    # itemgetter alone refuses no items and returns one item bare
    seq = (5, 6, 7)
    assert gather(seq, ()) == () and gather(seq, []) == ()
    assert gather(seq, (2,)) == (7,) and gather(seq, [0]) == (5,)
    assert gather(seq, (2, 0)) == (7, 5)
    assert gather({"x": 1, (0, 1): 2}, [(0, 1), "x"]) == (2, 1)
    for points in ((), (1,), (1, 1)):
        assert type(gather(seq, points)) is tuple
        assert type(gather(list(seq), list(points))) is tuple


@given(st.integers(0, 12).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))))
def test_internal_constructors_match_tuple_oracles(pair):
    p, q = (tuple(x) for x in pair)
    a, b = Perm(p), Perm(q)
    results = ((compose(a, b), tuple_compose(p, q)),
               (inverse_perm(a), tuple_inverse(p)))
    for result, want in results:
        assert type(result.images) is tuple and result.images == want
        # the unchecked constructor only ever builds what Perm(...) accepts
        assert Perm(result.images) == result
    assert a.is_identity() == (p == tuple(range(len(p))))
    assert compose(a, inverse_perm(a)).is_identity()
    with pytest.raises(ValueError):
        Perm((0, 0, 1))


def test_direct_sum_and_embed():
    p = Perm((1, 0))
    q = Perm((1, 2, 0))
    s = direct_sum_perm([p, q])
    assert s.images == (1, 0, 3, 4, 2)
    e = direct_sum_perm([Perm((0, 1)), q, Perm((0,))])
    assert e.images == (0, 1, 3, 4, 2, 5)


def test_carry():
    names = ("a", "b")
    a = Perm((1, 2, 0))
    b = Perm((0, 2, 1))
    columns = tuple_columns([a.images, b.images])
    w = parse_word("a b a^-1", names)
    expected = compose(compose(a, b), inverse_perm(a))
    assert carry(w, columns, (0, 1, 2)) == expected.images
    # any tuple of points, in any order, repeats allowed
    assert carry(w, columns, (2, 0, 2)) == (expected(2), expected(0), expected(2))
    assert carry(w, columns, ()) == ()
    assert carry(parse_word("", names), columns, (1, 0)) == (1, 0)


def test_carry_of_a_huge_exponent_is_one_power():
    columns = tuple_columns([(1, 2, 3, 4, 0)])
    points = tuple(range(5))
    k = 10 ** 20
    assert k % 5 == 0 and carry(Word(((0, k),)), columns, points) == points
    assert (carry(Word(((0, k + 3),)), columns, points)
            == carry(Word(((0, 3),)), columns, points))
    assert carry(Word(((0, -k - 2),)), columns, points) == (3, 4, 0, 1, 2)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.permutations(range(n)).map(tuple), min_size=1, max_size=3),
    st.lists(st.tuples(st.integers(0, 2),
                       st.one_of(st.integers(-12, 12),
                                 st.integers(-10 ** 30, 10 ** 30)).filter(bool)),
             max_size=5),
    st.lists(st.integers(0, n - 1), max_size=n + 2).map(tuple))))
def test_carry_matches_the_letter_by_letter_oracle(case):
    # exponents up to 12 are spelled out letter by letter; larger ones
    # first come down modulo the order of their generator's image
    degree, images, runs, points = case
    runs = [(gen % len(images), k) for gen, k in runs]
    letters = []
    for gen, k in runs:
        if abs(k) > 12:
            k = k % brute_order(degree, [images[gen]])
        letters += [(gen, 1 if k > 0 else -1)] * abs(k)
    want = tuple_word_image(degree, images, letters)
    got = carry(Word(runs), tuple_columns(images), points)
    assert got == tuple(want[x] for x in points)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.integers(0, n - 1),
    st.lists(st.permutations(range(n)).map(tuple), min_size=1, max_size=3),
    st.lists(st.tuples(st.integers(0, 2),
                       st.one_of(st.integers(-12, 12),
                                 st.integers(-10 ** 30, 10 ** 30)).filter(bool)),
             max_size=5))))
def test_trace_point_matches_the_image_of_the_word(case):
    # cycles of up to 9 points, against exponents below and far above them
    x, images, runs = case
    w = Word([(gen % len(images), k) for gen, k in runs])
    perms = [Perm(g) for g in images]
    assert trace_point(w, perms, x) == carry(w, tuple_columns(images), (x,))[0]


def test_trace_point_walks_at_most_one_cycle_per_run():
    reads = [0]

    class Counted(tuple):
        def __getitem__(self, i):
            reads[0] += 1
            return super().__getitem__(i)

    class Image:
        images = Counted(perm_from_cycles([tuple(range(1000))], 100000))
    for k in (10 ** 30 + 7, -10 ** 30 - 7):
        reads[0] = 0
        assert trace_point(Word([(0, k)]), [Image], 5) == (5 + k) % 1000
        assert reads[0] <= 1001
    # a run shorter than its cycle reads one point past its end, not more
    reads[0] = 0
    assert trace_point(Word([(0, 3)]), [Image], 998) == 1
    assert reads[0] == 4
    assert trace_point(Word([(0, 1)]), [Image], 1000) == 1000


def test_group_order_symmetric_and_alternating():
    gens = [Perm((1, 0, 2, 3)), Perm((1, 2, 3, 0))]
    assert PermGroup(4, gens).order() == 24
    a4 = [Perm((1, 0, 3, 2)), Perm((1, 2, 0, 3))]
    assert PermGroup(4, a4).order() == 12


def small_groups(max_degree):
    """(degree, generator tuples) with up to four generators."""
    return st.integers(1, max_degree).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.permutations(range(n)).map(tuple), max_size=4)))


@st.composite
def block_sums(draw):
    """Generators acting on 2-3 consecutive blocks at once, as on a core
    level, or plain random generators; 8 to 16 points either way.  On a
    block the first generator is a cycle through every point, so it acts
    transitively; each other generator is the identity, a cycle on the
    block's first points or any permutation of the block."""
    if draw(st.booleans()):
        n = draw(st.integers(8, 16))
        return n, [tuple(draw(st.permutations(range(n))))
                   for _ in range(draw(st.integers(1, 3)))]
    sizes = draw(st.lists(st.integers(2, 8), min_size=2, max_size=3)
                 .filter(lambda sizes: 8 <= sum(sizes) <= 16))
    gens = [[] for _ in range(draw(st.integers(1, 3)))]
    offset = 0
    for size in sizes:
        for k, g in enumerate(gens):
            if k and draw(st.booleans()):
                points = list(draw(st.permutations(range(size))))
            else:
                length = size if k == 0 else draw(st.integers(1, size))
                points = list(range(1, length)) + [0] + list(range(length, size))
            g.extend(offset + x for x in points)
        offset += size
    return offset, [tuple(g) for g in gens]


@settings(max_examples=400, deadline=None)
@given(small_groups(6))
def test_order_matches_brute_closure_on_random_groups(group):
    degree, gens = group
    assert PermGroup(degree, [Perm(g) for g in gens]).order() == \
        brute_order(degree, gens)


@settings(max_examples=150, deadline=None)
@given(block_sums())
def test_order_matches_the_naive_schreier_sims(group):
    degree, gens = group
    assert PermGroup(degree, [Perm(g) for g in gens]).order() == \
        naive_schreier_sims_order(degree, gens)


@settings(max_examples=200, deadline=None)
@given(small_groups(6), st.randoms(use_true_random=False))
def test_contains_matches_brute_closure(group, rng):
    degree, gens = group
    g = PermGroup(degree, [Perm(p) for p in gens])
    closure = brute_closure(degree, gens)
    # members: random products of the generators and their inverses
    for _ in range(10):
        p = tuple(range(degree))
        for _ in range(rng.randint(0, 8)):
            q = rng.choice(gens) if gens else p
            p = tuple_compose(p, q if rng.random() < 0.5 else tuple_inverse(q))
        assert p in closure and g.contains(Perm(p))
    # arbitrary permutations, members or not
    for _ in range(10):
        p = list(range(degree))
        rng.shuffle(p)
        assert g.contains(Perm(p)) == (tuple(p) in closure)
    assert not g.contains(Perm(range(degree + 1)))


def test_each_schreier_pair_is_sifted_once(monkeypatch):
    sifts = []
    sift = permgrp._sift
    monkeypatch.setattr(permgrp, "_sift", lambda levels, p, start:
                        sifts.append(start) or sift(levels, p, start))
    generators = ([[(0, 1)], [tuple(range(8))]],
                  [[(0, 1, 2, 3, 4)], [(0, 1), tuple(range(5, 12))]])
    for cycles in generators:
        degree = max(max(c) for gen in cycles for c in gen) + 1
        g = PermGroup(degree, [Perm(perm_from_cycles(gen, degree))
                               for gen in cycles])
        del sifts[:]
        assert g.order() == naive_schreier_sims_order(
            g.degree, [p.images for p in g.generators])
        levels = g._stabilizer_chain()
        assert all(done == len(level.orbit) for level in levels
                   for done in level.done)
        pairs = sum(len(level.gens) * len(level.orbit) for level in levels)
        assert 0 < len(sifts) <= len(g.generators) + pairs


@settings(max_examples=100, deadline=None)
@given(block_sums())
def test_orbits_only_grow_and_every_schreier_pair_sifts(group):
    degree, gens = group
    add_generator = permgrp._Level.add_generator

    def checked(level, s, s_inv):
        orbit, u, u_inv = list(level.orbit), dict(level.u), dict(level.u_inv)
        add_generator(level, s, s_inv)
        assert level.orbit[:len(orbit)] == orbit
        assert all(level.u[x] == u[x] and level.u_inv[x] == u_inv[x]
                   for x in orbit)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(permgrp._Level, "add_generator", checked)
        levels = PermGroup(degree, [Perm(g) for g in gens])._stabilizer_chain()
    identity = tuple(range(degree))
    for i, level in enumerate(levels):
        assert sorted(level.orbit) == sorted(level.u) == sorted(level.u_inv)
        for x in level.orbit:
            assert level.u[x][level.base] == x
            assert tuple_compose(level.u[x], level.u_inv[x]) == identity
            for s in level.gens:
                schreier = tuple_compose(tuple_compose(level.u[x], s),
                                         level.u_inv[s[x]])
                assert permgrp._sift(levels, schreier, i + 1)[0] == identity


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
    assert g.contains(Perm(range(4)))
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
