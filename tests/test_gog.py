import itertools
from fractions import Fraction

import pytest

from gradlab.gog import (
    VolumeVector,
    FreeBlock,
    AbelianBlock,
    SurfaceBlock,
    TRIVIAL_BLOCK,
    CYCLIC_BLOCK,
    Edge,
    GraphOfGroups,
    assembled_volume_vector,
    euler_characteristic,
    subgroup_shadows,
    subgroup_volume_vector,
    edge_shadow_indices,
    coset_ratio_check,
    graph_from_dict,
)
from gradlab import chains
from gradlab.chains import (ChainLevel, core_chain, cyclic_cover_chain,
                            homology_cover_chain, level_coset_table)
from gradlab.errors import InvariantViolation
from gradlab.homology import GF2, QQ, betti, covering_complex
from gradlab.permgrp import Perm, PermGroup, orbit
from gradlab.towers import catalog, double_of_free
from gradlab.words import parse_word
from oracles import closure_shadows


def cyclic_level(m, exponents, index=None):
    """A level onto Z/m with each generator acting as +e on m points, of
    index m unless another is given."""
    images = tuple(Perm(tuple((x + e) % m for x in range(m)))
                   for e in exponents)
    return ChainLevel(m, images, m if index is None else index,
                      f"Z/{m} by {exponents}")


def test_volume_vector_behaviour():
    vv = VolumeVector((1, 4, 4))
    assert vv[0] == 1 and vv[2] == 4
    assert vv[-1] == 0 and vv[5] == 0
    assert vv.euler() == 1
    assert len(vv) == 3
    with pytest.raises(ValueError):
        VolumeVector((1, -2))


def test_volume_vector_entries_are_a_tuple_of_ints():
    vv = VolumeVector([1, 4.0, True])
    assert type(vv.entries) is tuple and vv.entries == (1, 4, 1)
    assert all(type(e) is int for e in vv.entries)
    assert VolumeVector(e for e in (2, 5)).entries == (2, 5)


@pytest.mark.parametrize("build, message", [
    (lambda: VolumeVector((1, -1)), "negative cell count in (1, -1)"),
    (lambda: FreeBlock(-1), "free rank -1 < 0"),
    (lambda: AbelianBlock(0), "abelian rank 0 < 1"),
    (lambda: SurfaceBlock(1),
     "closed hyperbolic surface needs genus >= 2, got 1"),
    (lambda: Edge(0, 1, FreeBlock(2), (parse_word("a", ("a",)),) * 2,
                  (parse_word("a", ("a",)),) * 2),
     "edge groups are limited to trivial and infinite cyclic"),
    (lambda: GraphOfGroups((), ()), "graph needs at least one vertex"),
    (lambda: GraphOfGroups((FreeBlock(1),), (Edge(0, 3, TRIVIAL_BLOCK),)),
     "edge 0 -> 3 references a missing vertex"),
])
def test_record_checks_name_what_is_wrong(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_block_volume_vectors():
    assert FreeBlock(2).volume_vector().entries == (1, 2)
    assert FreeBlock(2).sub_volume_vector(3).entries == (1, 4)
    assert TRIVIAL_BLOCK.volume_vector().entries == (1, 0)
    assert CYCLIC_BLOCK.sub_volume_vector(5).entries == (1, 1)
    assert AbelianBlock(3).volume_vector().entries == (1, 3, 3, 1)
    assert AbelianBlock(3).sub_volume_vector(9).entries == (1, 3, 3, 1)
    assert SurfaceBlock(2).volume_vector().entries == (1, 4, 1)
    # degree-3 cover of genus 2 is genus 4
    assert SurfaceBlock(2).sub_volume_vector(3).entries == (1, 8, 1)
    with pytest.raises(ValueError):
        SurfaceBlock(1)
    with pytest.raises(ValueError):
        TRIVIAL_BLOCK.sub_volume_vector(2)


def test_block_sub_betti():
    # a block's cells are its Betti numbers; past its end they are 0
    assert FreeBlock(2).sub_volume_vector(3)[1] == 4
    assert FreeBlock(2).sub_volume_vector(3)[2] == 0
    assert AbelianBlock(3).sub_volume_vector(7)[2] == 3
    assert SurfaceBlock(2).sub_volume_vector(2)[2] == 1


@pytest.mark.parametrize("name", ["free_1", "free_2", "free_3", "surface_2",
                                  "surface_3", "abelian_1", "abelian_2",
                                  "abelian_3"])
def test_block_cells_are_cover_betti_numbers(name):
    """The cells of a block's finite index subgroup are the Betti numbers of
    the level's cover, computed by elimination, over Q and GF(2)."""
    group = catalog()[name]
    (block,) = group.graph.vertices
    p = group.presentation
    chain = homology_cover_chain(p, [2] if name == "surface_3" else [2, 4])
    # the 3-torus presentation complex is not aspherical, so its cover's b2
    # is not the group's
    degrees = 2 if name == "abelian_3" else 3
    for level in chain.levels:
        cx = covering_complex(level_coset_table(p, level))
        cells = block.sub_volume_vector(level.index)
        for field in (QQ, GF2):
            b = betti(cx, field)
            assert b[:degrees] == [cells[j] for j in range(degrees)], (
                level.index, field.label)


def test_edge_validation():
    w = parse_word("a", ("a", "b"))
    with pytest.raises(ValueError):
        Edge(0, 1, FreeBlock(2), (w, w), (w, w))
    with pytest.raises(ValueError):
        Edge(0, 1, CYCLIC_BLOCK, (), ())
    with pytest.raises(ValueError):
        Edge(0, 1, CYCLIC_BLOCK, (parse_word("", ("a",)),), (w,))


def test_graph_validation():
    with pytest.raises(ValueError):
        GraphOfGroups((), ())
    # two vertices, no edges: disconnected
    with pytest.raises(ValueError):
        GraphOfGroups((FreeBlock(1), FreeBlock(1)), ())


@pytest.fixture
def z_star_z():
    """Z * Z as two cyclic vertices joined along the trivial group."""
    return GraphOfGroups((CYCLIC_BLOCK, CYCLIC_BLOCK),
                         (Edge(0, 1, TRIVIAL_BLOCK),))


@pytest.fixture
def double():
    return double_of_free(2, "a b")


def test_assembled_volume_vector(z_star_z, double):
    assert assembled_volume_vector(z_star_z).entries == (2, 3, 0)
    assert euler_characteristic(z_star_z) == -1
    assert assembled_volume_vector(double).entries == (2, 5, 1)
    assert euler_characteristic(double) == -2


def test_fundamental_presentation_free_product(z_star_z):
    p = z_star_z.presentation
    assert p.generator_names == ("a0", "a1")
    assert p.relators == ()


def test_fundamental_presentation_double(double):
    p = double.presentation
    assert p.generator_names == ("a0", "b0", "a1", "b1")
    assert [p.render(r) for r in p.relators] == ["a0 b0 b1^-1 a1^-1"]


def test_fundamental_presentation_loop_edge():
    # one vertex, one self edge: an ascending HNN letter appears
    g = GraphOfGroups(
        (FreeBlock(2),),
        (Edge(0, 0, CYCLIC_BLOCK,
              (parse_word("a", ("a", "b")),),
              (parse_word("b", ("a", "b")),)),))
    p = g.presentation
    assert p.generator_names == ("a0", "b0", "t0")
    assert [p.render(r) for r in p.relators] == ["t0 a0 t0^-1 b0^-1"]


def test_subgroup_volume_vector_double(double):
    p = double.presentation
    # kill both vertex words mod 2 by sending every generator to the flip
    vv = subgroup_volume_vector(double, cyclic_level(2, (1, 1, 1, 1)))
    # both vertex groups survive with local index 2, the edge word a b
    # has image of order 1, so the edge splits into two trivial-meeting copies
    assert vv.entries == (2, 8, 2)
    assert vv.euler() == 2 * euler_characteristic(double)


def test_subgroup_shadow_bookkeeping(double):
    level = cyclic_level(2, (1, 0, 1, 0))
    vertex_rows, edge_rows = subgroup_shadows(double, level)
    assert [(copies, local) for _, copies, local in vertex_rows] == [(1, 2), (1, 2)]
    # edge word a b maps to the flip: one copy, local index 2
    assert [(copies, local) for _, copies, local in edge_rows] == [(1, 2)]
    assert edge_shadow_indices(double, level) == [2]
    vv = subgroup_volume_vector(double, level)
    assert vv.entries == (2, 7, 1)
    assert vv.euler() == -4


def test_subgroup_volume_vector_rejects_bad_images(double):
    level = cyclic_level(2, (1, 0, 0, 0))
    with pytest.raises(ValueError):
        subgroup_volume_vector(double, level)
    with pytest.raises(ValueError):
        subgroup_volume_vector(double, ChainLevel(
            level.degree, level.images[:2], level.index, level.provenance))


def test_coset_ratio_identity():
    group = PermGroup(3, [Perm((1, 2, 0)), Perm((1, 0, 2))])
    h = [Perm((1, 0, 2))]
    lhs, rhs = coset_ratio_check(group, h)
    assert lhs == rhs == Fraction(1, 2)
    # trivial H: image index 6 over order 6 on one side, 1/order(image) on the other
    lhs, rhs = coset_ratio_check(group, [])
    assert lhs == rhs == Fraction(1, 1)
    # H = <(0 1 2), (3 4)> in Sym(5): the reversed copy <(2 3 4), (0 1)>
    # opens its chain at another base point
    sym5 = PermGroup(5, [Perm((1, 2, 3, 4, 0)), Perm((1, 0, 2, 3, 4))])
    lhs, rhs = coset_ratio_check(sym5, [Perm((1, 2, 0, 3, 4)),
                                        Perm((0, 1, 2, 4, 3))])
    assert lhs == rhs == Fraction(1, 6)


def test_graph_from_dict_round_trip():
    d = {
        "vertices": [{"type": "free", "rank": 2}, {"type": "surface", "genus": 2}],
        "edges": [{"source": 0, "target": 1,
                   "iota_word": "a b", "tau_word": "a1"}],
    }
    g = graph_from_dict(d)
    assert isinstance(g.vertices[0], FreeBlock)
    assert isinstance(g.vertices[1], SurfaceBlock)
    assert g.edges[0].block == CYCLIC_BLOCK
    assert assembled_volume_vector(g).entries == (2, 7, 2)
    assert euler_characteristic(g) == -3
    with pytest.raises(ValueError):
        graph_from_dict({"vertices": [{"type": "mystery"}], "edges": []})


def test_relator_images_checked_through_lift(double):
    p = double.presentation
    level = cyclic_level(3, (1, 0, 1, 0))
    for r in p.relators:
        assert level.image(r).is_identity()
    vv = subgroup_volume_vector(double, level)
    # index 3: two free rank-4 pieces joined along three cyclic stripes
    assert vv.entries == (2, 9, 1)
    assert vv.euler() == 3 * euler_characteristic(double)


def _assert_shadows_match_closure(graph, level, regular):
    """subgroup_shadows on a level equals the closure oracle, and the level
    takes the route (orbit counts or Schreier-Sims) the caller expects."""
    assert level.regular == regular
    assert (len(orbit(0, level.images)) == level.index) == regular
    # generator positions as graph.presentation lays them out
    offsets = list(itertools.accumulate(
        (len(b.local_names()) for b in graph.vertices), initial=0))
    assert graph.offsets == offsets
    vertex_gens = [range(offsets[v], offsets[v + 1])
                   for v in range(len(graph.vertices))]
    edge_words = [[(g + offsets[e.source], sign)
                   for w in e.iota_words for g, sign in w.letters()]
                  for e in graph.edges]
    want = closure_shadows(level.quotient.degree,
                           [img.images for img in level.images],
                           vertex_gens, edge_words)
    rows = subgroup_shadows(graph, level)
    got = tuple([(copies, local) for _, copies, local in r] for r in rows)
    assert got == want
    assert edge_shadow_indices(graph, level) == [
        local for _, local in want[1]]


def test_shadows_match_closure_on_every_catalog_graph_level():
    checked = 0
    for entry in catalog().values():
        if entry.graph is None:
            continue
        chain = homology_cover_chain(entry.presentation, [2, 4])
        for level in chain.levels:
            if level.index <= 256:
                _assert_shadows_match_closure(entry.graph, level, True)
                checked += 1
    assert checked >= 19


def test_shadows_match_closure_off_transitive_levels():
    double = catalog()["double_f2_ab"]
    # weights sharing a factor with the modulus: the quotient is not
    # transitive, but acts regularly on the orbit of 0
    cyclic = cyclic_cover_chain(double.presentation, {"a0": 2, "a1": 2},
                                [4, 8])
    assert [level.index for level in cyclic.levels] == [2, 4]
    for level in cyclic.levels:
        assert level.quotient.degree > level.index
        _assert_shadows_match_closure(double.graph, level, True)
    # a core level acts on several coset spaces at once: Schreier-Sims
    level = core_chain(double.presentation, [2]).levels[0]
    _assert_shadows_match_closure(double.graph, level, False)


def test_a_level_walks_its_orbit_of_0_once(monkeypatch):
    # validate, both coset tables and both volume vectors read the one walk
    # each level made when the chain was built
    walks = []

    def counted(point, perms):
        walks.append(point)
        return orbit(point, perms)
    monkeypatch.setattr(chains, "orbit", counted)
    entry = catalog()["surface_2"]
    chain = homology_cover_chain(entry.presentation, [2, 4]).validate()
    for level in chain.levels:
        assert level_coset_table(chain.group, level).num_cosets == level.index
        subgroup_volume_vector(entry.graph, level)
    assert walks == [0, 0]
    assert [level.regular for level in chain.levels] == [True, True]


def test_shadows_reject_an_index_the_local_orders_do_not_divide(double):
    with pytest.raises(InvariantViolation):
        subgroup_shadows(double, cyclic_level(2, (1, 0, 1, 0), index=3))
