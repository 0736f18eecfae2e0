import itertools

import pytest
from hypothesis import given, settings, strategies as st

from gradlab import chains
from gradlab.chains import (
    Chain,
    ChainLevel,
    core_chain,
    homology_cover_chain,
    cyclic_cover_chain,
    product_chain,
    fiber_restrict,
    level_coset_table,
)
from gradlab.cosets import base_orbit, regular_action_table, schreier_generators
from gradlab.errors import InvariantViolation, ResourceExhausted
from gradlab.homology import covering_complex, betti, QQ, GF2
from gradlab.gog import subgroup_shadows, subgroup_volume_vector
from gradlab.permgrp import Perm, PermGroup, orbit
from gradlab.towers import catalog
from gradlab.words import (Presentation, Word, abelianized_relator_matrix,
                           presentation_from_texts, product_presentation)
from oracles import (box_cover_images, brute_closure, brute_order,
                     element_action_rows, hermite_form,
                     naive_schreier_sims_order, orbit_sizes, perm_from_cycles,
                     tuple_columns, tuple_compose, tuple_word_image, walk_rows,
                     walked_level_certificate, walked_point_rows)


@pytest.fixture
def free2():
    return presentation_from_texts(("a", "b"), (), aspherical=True)


def test_homology_cover_indices(free2):
    chain = homology_cover_chain(free2, (2, 4, 8))
    assert chain.indices() == (4, 16, 64)
    assert [l.provenance for l in chain.levels] == [
        "first homology cover mod 2",
        "first homology cover mod 4",
        "first homology cover mod 8",
    ]
    # quotient is the full abelianization mod m
    for level, m in zip(chain.levels, (2, 4, 8)):
        assert level.quotient.order() == m * m
        assert brute_order(level.quotient.degree,
                           [p.images for p in level.images]) == m * m


def test_homology_cover_respects_relators():
    surf = catalog()["surface_2"]
    chain = homology_cover_chain(surf.presentation, (2,))
    assert chain.indices() == (16,)
    level = chain.levels[0]
    for r in surf.presentation.relators:
        assert level.image(r).is_identity()


def test_homology_cover_ladder_and_budget(free2):
    with pytest.raises(ValueError):
        homology_cover_chain(free2, (2, 3))
    with pytest.raises(ValueError):
        homology_cover_chain(free2, (0,))
    with pytest.raises(ResourceExhausted):
        homology_cover_chain(free2, (2, 4, 8), max_index=50)


def test_homology_cover_stalls_are_truncated():
    one = presentation_from_texts(("a",), ("a^2",))
    chain = homology_cover_chain(one, (2, 4, 8))
    assert chain.indices() == (2,)
    assert chain.notes == (
        "dropped level with index 2 after 2: chain stalled",
        "dropped level with index 2 after 2: chain stalled",
    )


def _cover_hermite(relator_rows, n, m):
    """The Hermite form of the relator rows and m times the identity."""
    rows = [list(r) for r in relator_rows]
    rows += [[m if j == i else 0 for j in range(n)] for i in range(n)]
    return hermite_form(rows, n)


def _assert_cover_table_matches_the_box_oracle(p, level, h):
    """The level's images and the per-point builder's on the Hermite form h
    walk to the same coset table from point 0: the same regular action,
    whatever the numbering of its points."""
    box = tuple(Perm(images) for images in box_cover_images(h))
    columns = tuple_columns([b.images for b in box])
    assert (regular_action_table(p, level.columns, orbit(0, level.images)).table
            == regular_action_table(p, columns, orbit(0, box)).table)


def _assert_cover_images_match_the_box_oracle(p, moduli):
    """Every level's table equals the per-point builder's on the Hermite
    form of the same lattice; returns the Hermite forms of the levels."""
    forms = []
    for level in homology_cover_chain(p, moduli).levels:
        m = int(level.provenance.split()[-1])
        h = _cover_hermite(abelianized_relator_matrix(p),
                           p.num_generators, m)
        _assert_cover_table_matches_the_box_oracle(p, level, h)
        forms.append(h)
    return forms


def test_cover_images_match_the_box_oracle_on_the_catalog():
    for entry in catalog().values():
        for moduli in ((2, 4), (3, 6)):
            _assert_cover_images_match_the_box_oracle(entry.presentation,
                                                      moduli)


def test_cover_images_match_the_box_oracle_off_the_diagonal():
    def off_diagonal(forms):
        return any(h[i][j] for h in forms
                   for i in range(len(h)) for j in range(i + 1, len(h)))

    two = presentation_from_texts(("a", "b"), ("a^2 b^-3",))
    forms = _assert_cover_images_match_the_box_oracle(two, (6, 12))
    assert [h[0][0] * h[1][1] for h in forms] == [6, 12]
    assert off_diagonal(forms)
    three = presentation_from_texts(("a", "b", "c"),
                                    ("a^2 b^4 c^-2", "b^6 c^3", "a^4 c^6"))
    forms = _assert_cover_images_match_the_box_oracle(three, (6, 12))
    assert [h[0][0] * h[1][1] * h[2][2] for h in forms] == [12, 24]
    assert off_diagonal(forms)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                 max_size=3),
        st.just(n),
        st.integers(1, {1: 64, 2: 24, 3: 12, 4: 6}[n]))))
def test_cover_images_match_the_box_oracle_on_random_relators(case):
    # relator rows of any shape, mod m: every box of at most 1296 points
    rows, n, m = case
    p = Presentation(tuple(f"x{i}" for i in range(n)),
                     tuple(Word(tuple((g, e) for g, e in enumerate(row) if e))
                           for row in rows))
    (level,) = homology_cover_chain(p, (m,)).levels
    _assert_cover_table_matches_the_box_oracle(p, level,
                                               _cover_hermite(rows, n, m))


def test_validate_walks_the_orbit_of_0_once_per_level(monkeypatch):
    walks = []

    def counted(point, perms):
        walks.append(point)
        return orbit(point, perms)
    monkeypatch.setattr(chains, "orbit", counted)
    chain = homology_cover_chain(catalog()["surface_2"].presentation, (2, 4))
    assert walks == [0, 0]
    # the level keeps its orbits: validating again walks nothing
    chain.validate()
    assert walks == [0, 0]


def test_validate_walks_cost_their_orbits_not_the_degree(free2, monkeypatch):
    # index 1 on m fixed points: m orbits, and validate maps 0 onto the
    # least point of each; each walk must write only the cells of its orbit,
    # and the witness comparison of the two images must gather only the
    # one point of the orbit of 0
    m = 20000
    ambient = cyclic_cover_chain(free2, {"a": 1}, [m])
    real = chains._maps_onto
    cells = [0]
    spied = {}
    gathered = [0]

    def gather_spy(seq, points):
        gathered[0] += len(points)
        return real_gather(seq, points)
    real_gather = chains.gather
    monkeypatch.setattr(chains, "gather", gather_spy)

    class Cells(list):
        def __setitem__(self, i, value):
            cells[0] += 1
            super().__setitem__(i, value)

    def spy(src, dst, x, y, image=None):
        if image is None:
            # a walk that makes a list of its own writes every cell of it
            cells[0] += src.quotient.degree
            return real(src, dst, x, y)
        if id(image) not in spied:
            cells[0] += len(image)
            spied[id(image)] = (image, Cells(image))
        return real(src, dst, x, y, spied[id(image)][1])
    monkeypatch.setattr(chains, "_maps_onto", spy)
    fiber = fiber_restrict(ambient, [free2.word("b"), free2.word("b^2")])
    assert fiber.indices() == (1,)
    assert cells[0] <= 4 * m
    assert 0 < gathered[0] <= 8
    assert fiber.levels[0].orbits == dict.fromkeys(range(m), 1)


def test_regular_levels_walk_only_their_nesting(monkeypatch):
    # surface_2 mod [3, 6]: the images commute, so each is its own orbit
    # map, and relators are traced from 0 in validate and in the shadows
    walks = []
    real = chains._maps_onto

    def spy(src, dst, x, y, image):
        walks.append((src.index, dst.index))
        return real(src, dst, x, y, image)

    def no_carry(*args):
        raise AssertionError("a whole relator image on a regular level")
    monkeypatch.setattr(chains, "_maps_onto", spy)
    monkeypatch.setattr(chains, "carry", no_carry)
    group = catalog()["surface_2"]
    chain = homology_cover_chain(group.presentation, (3, 6))
    assert walks == [(1296, 81)]
    for level in chain.levels:
        vertex_rows, edge_rows = subgroup_shadows(group.graph, level)
        assert vertex_rows[0][1:] == (1, level.index) and edge_rows == []
        # nor are the inverse columns built
        assert "columns" not in vars(level)


def _group_elements(degree, gens):
    """The elements of <gens>, the identity first."""
    ident = tuple(range(degree))
    return [ident] + sorted(brute_closure(degree, gens) - {ident})


def _regular_image(elements, g):
    """The image of g in the regular action: point i is elements[i], and g
    sends x to x g."""
    where = {e: i for i, e in enumerate(elements)}
    return tuple(where[tuple_compose(e, g)] for e in elements)


S3 = _group_elements(3, [(1, 0, 2), (1, 2, 0)])
D4 = _group_elements(4, [(1, 2, 3, 0), (0, 3, 2, 1)])


def test_a_non_abelian_regular_level_walks_its_targets(free2, monkeypatch):
    targets = []
    real = chains._maps_onto

    def spy(src, dst, x, y, image):
        targets.append(y)
        return real(src, dst, x, y, image)
    monkeypatch.setattr(chains, "_maps_onto", spy)
    images = tuple(Perm(_regular_image(S3, g)) for g in ((1, 0, 2), (1, 2, 0)))
    level = ChainLevel(6, images, 6, "by hand")
    Chain(free2, (level,)).validate()
    assert sorted(targets) == sorted(s(0) for s in images)


def _translation(a, b, u, v):
    """Adding (u, v) on Z/a x Z/b, point x standing for (x // b, x % b)."""
    return tuple((x // b + u) % a * b + (x % b + v) % b for x in range(a * b))


@st.composite
def hand_built_levels(draw):
    """(images, index, relators) of a one-level chain on two generators.
    The images are translations of Z/a x Z/b, or two elements of S_3 or D_4
    in the regular action or in the natural one, which is not regular,
    maybe beside an extra block of random permutations, which the
    stabilizer of 0 may move.  The index is the orbit of 0, a wrong one,
    or the true order.  The relators, lists of (generator, sign) letters,
    may hold or survive."""
    kind = draw(st.sampled_from(("translations", "S3", "D4")))
    if kind == "translations":
        a, b = draw(st.integers(1, 4)), draw(st.integers(1, 4))

        def shift():
            u, v = draw(st.integers(0, a - 1)), draw(st.integers(0, b - 1))
            return _translation(a, b, u, v)
        images = (shift(), shift())
    else:
        elements = S3 if kind == "S3" else D4
        images = tuple(draw(st.sampled_from(elements)) for _ in range(2))
        if draw(st.booleans()):
            images = tuple(_regular_image(elements, g) for g in images)
    if draw(st.booleans()):
        extra = draw(st.integers(1, 3))
        images = _beside(images, tuple(tuple(draw(st.permutations(range(extra))))
                                       for _ in range(2)))
    degree = len(images[0])
    orbit_size = len(orbit(0, [Perm(s) for s in images]))
    index = draw(st.sampled_from((orbit_size, orbit_size + 1, 2 * orbit_size,
                                  brute_order(degree, images))))
    a, b = (0, 1), (1, 1)
    held = [[a, b, (0, -1), (1, -1)],
            [a] * brute_order(degree, images[:1]),
            [b] * brute_order(degree, images[1:]),
            [a, b] * brute_order(degree, [tuple_compose(*images)])]
    letters = st.tuples(st.integers(0, 1), st.sampled_from((1, -1)))
    relators = draw(st.lists(st.one_of(st.sampled_from(held),
                                       st.lists(letters, min_size=1,
                                                max_size=6)),
                             max_size=2))
    return images, index, relators


@settings(max_examples=300, deadline=None)
@given(hand_built_levels())
def test_validate_accepts_a_level_exactly_when_the_walked_oracle_does(case):
    images, index, relators = case
    p = Presentation(("a", "b"), tuple(Word(tuple(r)) for r in relators))
    perms = tuple(Perm(s) for s in images)
    chain = Chain(p, (ChainLevel(len(images[0]), perms, index, "by hand"),))
    if walked_level_certificate(images, index, relators):
        assert chain.validate() is chain
    else:
        with pytest.raises(InvariantViolation):
            chain.validate()


@settings(max_examples=300, deadline=None)
@given(hand_built_levels(),
       st.lists(st.lists(st.tuples(st.integers(0, 1),
                                   st.sampled_from((1, -1))), max_size=8),
                max_size=3))
def test_a_validated_level_answers_for_its_quotient(case, words):
    # satisfies and image against the brute image of each word, and
    # order_of on every nonempty subsequence of the images, and on each
    # word's image, against the brute order
    images, index, relators = case
    degree = len(images[0])
    perms = tuple(Perm(s) for s in images)
    level = ChainLevel(degree, perms, index, "by hand")
    p = Presentation(("a", "b"), tuple(Word(tuple(r)) for r in relators))
    try:
        Chain(p, (level,)).validate()
    except InvariantViolation:
        return
    identity = tuple(range(degree))
    for w in relators + words:
        want = tuple_word_image(degree, images, w)
        assert level.satisfies(Word(tuple(w))) == (want == identity)
        image = level.image(Word(tuple(w)))
        assert image.images == want
        assert level.order_of((image,)) == brute_order(degree, [want])
    for k in range(1, len(perms) + 1):
        for some in itertools.combinations(perms, k):
            assert level.order_of(some) == brute_order(
                degree, [s.images for s in some])


@pytest.mark.parametrize("name, build", [
    ("surface_2", lambda p: homology_cover_chain(p, (3, 6))),
    ("double_f2_ab",
     lambda p: cyclic_cover_chain(p, {"a0": 1, "a1": 1}, (2, 4, 8))),
], ids=["homology", "cyclic"])
def test_a_regular_level_never_builds_its_quotient(name, build):
    entry = catalog()[name]
    chain = build(entry.presentation).validate()
    for level in chain.levels:
        betti(covering_complex(level_coset_table(chain.group, level)), QQ)
        subgroup_volume_vector(entry.graph, level)
        assert level.regular
        assert "quotient" not in vars(level)


def test_core_chain(free2):
    chain = core_chain(free2, (2, 3))
    assert chain.indices() == (4, 972)
    assert [l.quotient.degree for l in chain.levels] == [7, 28]
    assert [l.provenance for l in chain.levels] == [
        "core of all subgroups of index <= 2",
        "core of all subgroups of index <= 3",
    ]
    with pytest.raises(ValueError):
        core_chain(free2, (3, 2))


def test_cyclic_cover_chain():
    p = presentation_from_texts(("a", "b"), ("a^2 b^-3",))
    chain = cyclic_cover_chain(p, {"a": 3, "b": 2}, (4, 8))
    assert chain.indices() == (4, 8)
    assert [l.provenance for l in chain.levels] == \
        ["cyclic cover mod 4", "cyclic cover mod 8"]
    with pytest.raises(ValueError):
        cyclic_cover_chain(p, {"c": 1}, (2,))
    with pytest.raises(ValueError):
        # a gets weight 1: relator sum 2 is not divisible by 4
        cyclic_cover_chain(p, {"a": 1}, (4,))


def test_cyclic_cover_gcd_reduces_index(free2):
    chain = cyclic_cover_chain(free2, {"a": 2, "b": 2}, (4, 8))
    # image is the even residues: index m/2
    assert chain.indices() == (2, 4)


def test_double_cyclic_chain():
    dbl = catalog()["double_f2_ab"]
    weights = {n: 1 for n in dbl.presentation.generator_names}
    chain = cyclic_cover_chain(dbl.presentation, weights, (2, 4, 8))
    assert chain.indices() == (2, 4, 8)


def test_product_chain(free2):
    factors = (homology_cover_chain(free2, (2, 4)),
               homology_cover_chain(free2, (2, 4)))
    chain = product_chain(factors, product_presentation([free2, free2]))
    assert chain.indices() == (16, 256)
    assert chain.group.generator_names == ("a0", "b0", "a1", "b1")
    # ragged factors truncate with a note
    ragged = product_chain((homology_cover_chain(free2, (2, 4)),
                            homology_cover_chain(free2, (2,))),
                           product_presentation([free2, free2]))
    assert ragged.indices() == (16,)
    assert any("truncat" in n for n in ragged.notes)


def test_product_levels_are_certified_from_their_factors(free2):
    # one level on 2048 points of index 1024^2: too large for Schreier-Sims,
    # so only the factor levels can certify its index
    factor = homology_cover_chain(free2, (32,))
    chain = product_chain((factor, factor),
                          product_presentation([free2, free2]))
    level = chain.levels[0]
    assert (level.quotient.degree, level.index) == (2048, 1048576)

    def with_levels(levels):
        return Chain(chain.group, levels, chain.notes, chain.factors)

    doubled = ChainLevel(level.degree, level.images, 2 * level.index,
                         level.provenance)
    with pytest.raises(InvariantViolation, match="product of its factor"):
        with_levels((doubled,)).validate()
    # the factor images must stay on their own blocks
    a, b, c, d = level.images
    swapped = ChainLevel(level.degree, (c, d, a, b), level.index,
                         level.provenance)
    with pytest.raises(InvariantViolation, match="blocks"):
        with_levels((swapped,)).validate()
    with pytest.raises(InvariantViolation, match="fewer levels"):
        with_levels(chain.levels * 2).validate()


def test_homology_cover_chain_reads_the_coset_budget(free2):
    # index 16384 passes the default budget of 50000
    assert homology_cover_chain(free2, (128,)).indices() == (16384,)
    with pytest.raises(ResourceExhausted, match="coset budget 10000"):
        homology_cover_chain(free2, (128,), max_index=10000)


def test_fiber_restrict(free2):
    chain = homology_cover_chain(free2, (2, 4, 8))
    fiber = fiber_restrict(chain, (free2.word("b"),))
    assert fiber.indices() == (2, 4, 8)
    assert fiber.group is None
    assert fiber.notes == (
        "shadow chain: indices are [H : H ^ B_n] for subgroup; "
        "no presentation is carried",)
    # a^2 dies mod 2 but its image grows with the modulus afterwards
    slow = fiber_restrict(chain, (free2.word("a^2"),))
    assert slow.indices() == (1, 2, 4)


def test_mixed_products_and_fibers_over_core_validate(free2):
    # non-regular levels on both sides of every nesting: the orbit-point
    # witnesses come from the coset spaces the finer core repeats
    core = core_chain(free2, (2, 3))
    mixed = product_chain((core, homology_cover_chain(free2, (2, 4))),
                          product_presentation([free2, free2]))
    assert mixed.indices() == (16, 15552)
    assert fiber_restrict(core, (free2.word("b"),)).indices() == (2, 6)
    words = (free2.word("a^2"), free2.word("b a b^-1"))
    assert fiber_restrict(core, words).indices() == (2, 18)
    assert fiber_restrict(mixed, (mixed.group.word("a0 b1"),)).indices() == (2, 12)


def test_kernel_generator_words(free2):
    # the fiber kernel's generators, read as resolve_chain reads them
    chain = homology_cover_chain(free2, (2,))
    words = schreier_generators(level_coset_table(free2, chain.levels[0], 100))
    assert [free2.render(w) for w in words] == \
        ["a^2", "b a b^-1 a^-1", "b^2", "a b a b^-1", "a b^2 a^-1"]
    # every word really dies in the quotient
    for w in words:
        assert chain.levels[0].image(w).is_identity()
    with pytest.raises(ResourceExhausted):
        level_coset_table(free2, chain.levels[0], 2)


def test_level_coset_table_matches_regular_action(free2):
    chain = homology_cover_chain(free2, (2, 4))
    for level in chain.levels:
        direct = level_coset_table(free2, level, 1000)
        assert direct.table == _oracle_rows(level)
        assert direct.num_cosets == level.index
    cx = covering_complex(level_coset_table(free2, chain.levels[0], 100))
    assert betti(cx, QQ) == [1, 5, 0]
    assert betti(cx, GF2) == [1, 5, 0]
    with pytest.raises(ResourceExhausted):
        level_coset_table(free2, chain.levels[1], 3)


def _oracle_rows(level):
    return element_action_rows(tuple(img.images for img in level.images))


def test_level_coset_table_matches_the_element_oracle():
    entries = catalog()
    checked = []
    for entry in entries.values():
        p = entry.presentation
        for level in homology_cover_chain(p, [2, 4]).levels:
            if level.index <= 256:
                checked.append(level_coset_table(p, level).table
                               == _oracle_rows(level))
    assert len(checked) >= 20
    double = entries["double_f2_ab"].presentation
    free2 = entries["free_2"].presentation
    f2xf2 = entries["f2xf2"].presentation
    others = [
        core_chain(free2, [2, 3]),
        core_chain(double, [2]),
        product_chain([homology_cover_chain(free2, [2, 4, 8])] * 2,
                      presentation=f2xf2),
        product_chain([core_chain(free2, [2, 3]),
                       homology_cover_chain(free2, [2, 4])],
                      presentation=f2xf2),
        # a0 and a1 add 2 mod m: two orbits of m/2 points, not transitive
        cyclic_cover_chain(double, {"a0": 2, "a1": 2}, [4, 8]),
    ]
    for chain in others:
        for level in chain.levels:
            if level.index <= 4096:
                checked.append(level_coset_table(chain.group, level).table
                               == _oracle_rows(level))
    assert len(checked) >= 28
    assert all(checked)


def _catalog_levels():
    """Every level of index at most 256 of a homology, cyclic, core and
    product chain of the catalog's groups, with its presentation."""
    entries = catalog()
    chains = []
    for entry in entries.values():
        p = entry.presentation
        chains += [homology_cover_chain(p, [2, 4]), core_chain(p, [2])]
        try:
            chains.append(cyclic_cover_chain(
                p, dict.fromkeys(p.generator_names, 1), [2, 4, 8]))
        except ValueError:
            pass  # a relator's exponent sum is no multiple of the modulus
    free2 = entries["free_2"].presentation
    chains += [core_chain(free2, [2, 3]),
               product_chain([homology_cover_chain(free2, [2, 4])] * 2,
                             presentation=entries["f2xf2"].presentation),
               product_chain([core_chain(free2, [2]),
                              homology_cover_chain(free2, [2])],
                             presentation=entries["f2xf2"].presentation)]
    return [(chain.group, level) for chain in chains for level in chain.levels
            if level.index <= 256]


def test_orbits_match_every_orbit_walked():
    levels = _catalog_levels()
    assert len(levels) >= 74
    for _, level in levels:
        assert list(level.orbits.items()) == orbit_sizes(
            level.degree, [g.images for g in level.images])


def test_regular_action_table_matches_the_row_route_on_the_catalog():
    checked = 0
    for p, level in _catalog_levels():
        if level.provenance.startswith(("first homology", "core")):
            images = level.images
            walk = (level.orbit_of_0 if level.regular
                    else base_orbit(images, level.quotient.base()))
            t = regular_action_table(p, level.columns, walk)
            rows = walk_rows([g.images for g in images], walk)
            assert t.num_cosets == len(walk)
            assert t.table == rows
            assert t.columns == list(zip(*rows))
            checked += 1
    assert checked >= 38


def test_level_coset_table_walks_a_base_off_regular_levels(free2, monkeypatch):
    product = product_chain([homology_cover_chain(free2, [2, 4])] * 2,
                            product_presentation([free2, free2]))
    regular = homology_cover_chain(free2, [2, 4]).levels[1]
    calls = []
    real_base = PermGroup.base

    def spy_base(group):
        calls.append("base")
        return real_base(group)

    def spy(p, columns, walk):
        calls.append(walk[0])
        walks.append(walk)
        return regular_action_table(p, columns, walk)

    walks = []
    monkeypatch.setattr(PermGroup, "base", spy_base)
    monkeypatch.setattr(chains, "regular_action_table", spy)
    assert level_coset_table(product.group, product.levels[1]).num_cosets == 256
    assert level_coset_table(free2, regular).num_cosets == 16
    # Schreier-Sims runs off the regular level only, whose table is read
    # off the orbit of 0 that validation walked
    assert calls == ["base", (0, 16), 0]
    assert walks[1] is regular.orbit_of_0


def test_level_coset_table_rejects_a_base_that_is_not_one(free2, monkeypatch):
    level = core_chain(free2, [2]).levels[0]
    assert len(orbit(0, level.images)) < level.index == 4
    monkeypatch.setattr(PermGroup, "base", lambda self: (0,))
    with pytest.raises(InvariantViolation, match="not the level index 4"):
        level_coset_table(free2, level)


@st.composite
def regular_levels(draw):
    """(presentation, level) of a validated regular level on two
    generators: a homology cover of a random presentation; a cyclic cover
    whose weights may share a factor with the modulus, so that the orbit
    of 0 is a proper subset of the points; or translations of Z/a x Z/b
    beside a block on which they act through a quotient, whose points are
    not in the orbit of 0 either."""
    kind = draw(st.sampled_from(("homology", "cyclic", "translations")))
    if kind == "homology":
        runs = st.tuples(st.integers(0, 1), st.integers(-3, 3).filter(bool))
        relators = draw(st.lists(st.lists(runs, max_size=4).map(Word),
                                 max_size=2))
        p = Presentation(("a", "b"), tuple(relators))
        m = draw(st.sampled_from((2, 3, 4, 6)))
        return p, draw(st.sampled_from(homology_cover_chain(p, (m,)).levels))
    p = presentation_from_texts(("a", "b"), ())
    if kind == "cyclic":
        m = draw(st.integers(2, 12))
        weights = {"a": draw(st.integers(0, 6)), "b": draw(st.integers(0, 6))}
        chain = cyclic_cover_chain(p, weights, (m, 2 * m))
        return p, draw(st.sampled_from(chain.levels))
    a, b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    c = draw(st.sampled_from([k for k in range(1, a + 1) if a % k == 0]))
    d = draw(st.sampled_from([k for k in range(1, b + 1) if b % k == 0]))
    shifts = [(draw(st.integers(0, a - 1)), draw(st.integers(0, b - 1)))
              for _ in range(2)]
    images = _beside(tuple(_translation(a, b, u, v) for u, v in shifts),
                     tuple(_translation(c, d, u % c, v % d) for u, v in shifts))
    level = _brute_level(images)
    Chain(p, (level,)).validate()
    return p, level


@settings(max_examples=200, deadline=None)
@given(regular_levels())
def test_level_coset_table_matches_the_point_walk_on_regular_levels(drawn):
    p, level = drawn
    assert level.regular
    images = tuple(s.images for s in level.images)
    assert level_coset_table(p, level).table == walked_point_rows(images, 0)


def test_a_regular_level_is_walked_once(free2, monkeypatch):
    # validation walks the orbit of 0 once, and the table reads that walk
    walks, tables = [], []
    real_orbit, real_table = chains.orbit, chains.regular_action_table

    def orbit_spy(point, perms):
        out = real_orbit(point, perms)
        if point == 0:
            walks.append(out)
        return out

    def table_spy(p, columns, walk):
        tables.append(walk)
        return real_table(p, columns, walk)

    monkeypatch.setattr(chains, "orbit", orbit_spy)
    monkeypatch.setattr(chains, "regular_action_table", table_spy)
    built = [homology_cover_chain(catalog()["surface_2"].presentation, (3, 6)),
             cyclic_cover_chain(free2, {"a": 2, "b": 4}, (4, 8))]
    levels = []
    for chain in built:
        for level in chain.levels:
            assert level_coset_table(chain.group, level).num_cosets == level.index
            levels.append(level)
    assert all(level.regular for level in levels)
    assert len(walks) == len(levels) == 4
    # the last cyclic level's orbit of 0 misses the odd points
    assert len(levels[-1].orbit_of_0) < levels[-1].quotient.degree
    assert all(walk is level.orbit_of_0 for walk, level in zip(tables, levels))
    assert [list(walk) for walk in tables] == walks


def test_validate_rejects_non_nested_levels(free2):
    flip = Perm((1, 0))
    ident2 = Perm((0, 1))
    step = Perm((1, 2, 3, 0))
    ident4 = Perm((0, 1, 2, 3))
    levels = (
        # kernel: even exponent sum of a
        ChainLevel(2, (flip, ident2), 2, "by hand"),
        # kernel: exponent sum of b divisible by 4; contains a, so not nested
        ChainLevel(4, (ident4, step), 4, "by hand"),
    )
    chain = Chain(free2, levels)
    with pytest.raises(InvariantViolation):
        chain.validate()


def test_validate_rejects_non_increasing_indices(free2):
    flip = Perm((1, 0))
    ident2 = Perm((0, 1))
    level = ChainLevel(2, (flip, ident2), 2, "by hand")
    chain = Chain(free2, (level, level))
    with pytest.raises(InvariantViolation):
        chain.validate()


def test_validate_rejects_bad_relator_images():
    p = presentation_from_texts(("a",), ("a^2",))
    step = Perm((1, 2, 0))
    level = ChainLevel(3, (step,), 3, "by hand")
    with pytest.raises(InvariantViolation):
        Chain(p, (level,)).validate()


def test_validate_reads_the_degree_off_the_level():
    # no generators: the trivial group on two points, index 1
    level = ChainLevel(2, (), 1, "by hand")
    Chain(None, (level,)).validate()
    # images on four points for a quotient on three
    free1 = catalog()["free_1"].presentation
    step = Perm((1, 2, 3, 0))
    level = ChainLevel(3, (step,), 4, "by hand")
    with pytest.raises(InvariantViolation, match="do not act on its 3"):
        Chain(free1, (level,)).validate()


def _cycle_level(length):
    step = Perm(tuple((x + 1) % length for x in range(length)))
    return ChainLevel(length, (step,), length, "by hand")


def test_order_of_reads_the_index_only_for_the_level_s_own_images():
    # one image, a 6-cycle: its square is one image too, of order 3
    level = _cycle_level(6)
    square = level.image(Word(((0, 2),)))
    assert square.images == (2, 3, 4, 5, 0, 1)
    assert level.order_of((square,)) == 3
    assert level.order_of(level.images) == level.order_of(list(level.images)) == 6


def test_validate_rejects_a_wrong_index_on_many_points():
    # a -> (0 1)(2 3 4) has order 6, not 2; the orbit of 0 has 2 points,
    # but a^2 fixes 0 and moves 2, so the action is not regular there
    free1 = catalog()["free_1"].presentation
    a = Perm(perm_from_cycles([(0, 1), (2, 3, 4)], 601))
    level = ChainLevel(601, (a,), 2, "by hand")
    with pytest.raises(InvariantViolation):
        Chain(free1, (level,)).validate()


def test_validate_checks_the_order_past_two_thousand_points():
    # a -> (0 1)(2 3 4) has order 6; the orbit of 0 has 2 points, so the
    # claimed index 7 is checked by Schreier-Sims, on 2001 points as on 2000
    free1 = catalog()["free_1"].presentation
    for degree in (2000, 2001):
        a = Perm(perm_from_cycles([(0, 1), (2, 3, 4)], degree))
        level = ChainLevel(degree, (a,), 7, "by hand")
        with pytest.raises(InvariantViolation, match="quotient order 6"):
            Chain(free1, (level,)).validate()


def test_validate_certifies_nesting_on_many_points():
    free1 = catalog()["free_1"].presentation
    chain = Chain(free1, (_cycle_level(1000), _cycle_level(2000)))
    assert chain.validate() is chain
    with pytest.raises(InvariantViolation):
        Chain(free1, (_cycle_level(1000), _cycle_level(1500))).validate()


def test_validate_rejects_a_transitive_level_that_is_not_regular():
    # S3 on 3 points claimed to have index 3: the orbit of 0 has 3 points,
    # but the stabilizer of 0 moves 1
    free2 = catalog()["free_2"].presentation
    a, b = Perm((1, 0, 2)), Perm((0, 2, 1))
    level = ChainLevel(3, (a, b), 3, "by hand")
    with pytest.raises(InvariantViolation):
        Chain(free2, (level,)).validate()


def test_validate_checks_nesting_on_every_coarse_orbit():
    # the coarse level fixes 0 and swaps 1, 2; a^3 dies in the fine level
    # but not in the coarse one, which only the orbit of 1 shows
    free1 = catalog()["free_1"].presentation
    a = Perm((0, 2, 1))
    coarse = ChainLevel(3, (a,), 2, "by hand")
    with pytest.raises(InvariantViolation):
        Chain(free1, (coarse, _cycle_level(3))).validate()


def _brute_level(images):
    """A level built by hand from tuples, with the index by brute force."""
    perms = tuple(Perm(img) for img in images)
    degree = len(images[0])
    return ChainLevel(degree, perms, brute_order(degree, images), "by hand")


def _accepts(levels):
    free = presentation_from_texts(("a", "b")[:len(levels[0].images)], ())
    try:
        Chain(free, levels).validate()
    except InvariantViolation:
        return False
    return True


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2).flatmap(
    lambda ngens: st.integers(1, 6).flatmap(
        lambda degree: st.lists(st.permutations(range(degree)),
                                min_size=ngens, max_size=ngens))))
def test_validate_certifies_an_index_read_off_the_orbit_of_0(images):
    # claim the orbit size of 0 as the index: right exactly when the
    # images act regularly on that orbit
    true = _brute_level(images)
    claimed = ChainLevel(true.degree, true.images,
                         len(orbit(0, true.images)), true.provenance)
    assert _accepts((claimed,)) == (claimed.index == true.index)


@st.composite
def level_pairs(draw):
    """(coarse images, fine images) as tuples of degree at most 6, on one
    or two generators.  A fine level is random, or holds the coarse action
    beside a second one (after or before it), so that it nests by
    construction."""
    ngens = draw(st.integers(1, 2))

    def images(degree):
        return tuple(tuple(draw(st.permutations(range(degree))))
                     for _ in range(ngens))

    coarse = images(draw(st.integers(1, 6)))
    shape = draw(st.sampled_from(("random", "after", "before")))
    if shape == "random":
        return coarse, images(draw(st.integers(len(coarse[0]), 6)))
    extra = images(draw(st.integers(0, 6 - len(coarse[0]))))
    if shape == "after" or not extra[0]:
        return coarse, _beside(coarse, extra)
    return coarse, _beside(extra, coarse)


def _beside(left, right):
    return tuple(u + tuple(x + len(u) for x in v) for u, v in zip(left, right))


@settings(max_examples=300, deadline=None)
@given(level_pairs())
def test_validate_accepts_only_nested_pairs(pair):
    coarse, fine = pair
    levels = (_brute_level(coarse), _brute_level(fine))
    diagonal = naive_schreier_sims_order(len(coarse[0]) + len(fine[0]),
                                         _beside(coarse, fine))
    nested = diagonal == levels[1].index
    regular = len(orbit(0, levels[1].images)) == levels[1].index
    accepted = _accepts(levels)
    if accepted:
        assert nested
    if nested and regular and levels[0].index < levels[1].index:
        assert accepted
