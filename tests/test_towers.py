import pytest

from gradlab.experiments import resolve_group
from gradlab.gog import (AbelianBlock, VolumeVector,
                         assembled_volume_vector)
from gradlab.homology import kunneth_product_dims
from gradlab.towers import Group, build_tower, double_of_free, catalog


def free(rank):
    return {"type": "free", "rank": rank}


def torus(rank, word):
    return {"type": "torus", "rank": rank, "word": word}


def surface(genus, *boundaries):
    return {"type": "surface", "genus": genus, "boundaries": list(boundaries)}


def tower(base, *stages):
    """A config's tower object over the given base blocks."""
    return {"base": base, "stages": list(stages)}

CATALOG_TABLE = {
    # name: (euler, volume vector, aspherical, has graph)
    "free_1": (0, (1, 1), True, True),
    "free_2": (-1, (1, 2), True, True),
    "free_3": (-2, (1, 3), True, True),
    "surface_2": (-2, (1, 4, 1), True, True),
    "surface_3": (-4, (1, 6, 1), True, True),
    "abelian_1": (0, (1, 1), True, True),
    "abelian_2": (0, (1, 2, 1), True, True),
    "abelian_3": (0, (1, 3, 3, 1), False, True),
    "z_star_z": (-1, (2, 3, 0), True, True),
    "double_f2_ab": (-2, (2, 5, 1), True, True),
    "f2xf2": (1, (1, 4, 4), True, False),
    "f2xf2xf2": (-1, (1, 6, 12, 8), False, False),
}


def _volume_vector(entry):
    """Cells per dimension of the entry's classifying space: assembled
    along its graph, or the product of its free factors' wedges."""
    if entry.graph is not None:
        return assembled_volume_vector(entry.graph).entries
    ranks = [f.presentation.num_generators for f in entry.factors]
    return tuple(kunneth_product_dims(ranks, q) for q in range(len(ranks) + 1))


def test_catalog_contents():
    cat = catalog()
    assert set(cat) == set(CATALOG_TABLE)
    for name, (euler, vv, aspherical, has_graph) in CATALOG_TABLE.items():
        entry = cat[name]
        assert entry.name == name
        assert entry.euler == euler, name
        assert _volume_vector(entry) == vv, name
        assert entry.aspherical == aspherical, name
        assert (entry.graph is not None) == has_graph, name
        assert VolumeVector(vv).euler() == euler, name


def test_catalog_product_entries_carry_factors():
    cat = catalog()
    assert [f.name for f in cat["f2xf2"].factors] == ["free_2", "free_2"]
    assert [f.name for f in cat["f2xf2xf2"].factors] == \
        ["free_2", "free_2", "free_2"]
    assert cat["free_2"].factors == ()
    # product presentation: one commutator per cross pair
    assert len(cat["f2xf2"].presentation.relators) == 4
    assert len(cat["f2xf2xf2"].presentation.relators) == 12


def test_catalog_is_built_once_and_read_only():
    cat = catalog()
    assert catalog() is cat
    with pytest.raises(TypeError):
        cat["free_2"] = cat["free_1"]
    with pytest.raises(TypeError):
        del cat["free_2"]


def test_catalog_and_specs_return_the_same_records():
    cat = catalog()
    assert resolve_group({"catalog": "surface_2"}) is cat["surface_2"]
    product = resolve_group({"catalog": "f2xf2"})
    assert all(f is cat["free_2"] for f in product.factors)
    spelled = resolve_group({"product": {"factors": [{"catalog": "free_2"},
                                                     {"catalog": "free_2"}]}})
    assert spelled.presentation == cat["f2xf2"].presentation
    assert spelled.euler == cat["f2xf2"].euler
    assert type(spelled) is type(product) is type(
        build_tower({"base": [free(2)]})) is Group


BAD_STAGES = [
    (torus(1, "a0"), "torus attachments need rank >= 2, got 1"),
    (surface(1), "surface attachment needs at least one boundary circle"),
    (surface(0, "a0"), "surface attachment with chi = 1 adds no "
                       "hyperbolicity"),  # disc
    (surface(0, "a0", "b0", "a0 b0"),
     "chi = -1 surface attachment must be the punctured torus, got genus 0 "
     "with 3 boundaries"),
    # chi = -2, so only the sign of the genus rules it out
    (surface(-1, "a0", "a0", "a0", "a0", "a0", "b0"),
     "surface attachment needs genus >= 0, got -1"),
]


def test_attachment_validation():
    for stage, message in BAD_STAGES:
        with pytest.raises(ValueError) as err:
            build_tower(tower([free(2)], stage))
        assert str(err.value) == message
    # the punctured torus is the one chi = -1 surface; a sphere with four
    # holes has chi = -2
    for stage in (surface(1, "a0"), surface(0, "a0", "b0", "a0 b0", "b0 a0")):
        assert build_tower(tower([free(2)], stage)).graph is not None


def test_torus_stage():
    res = build_tower(tower([free(2)], torus(2, "a0")))
    p = res.presentation
    assert p.generator_names == ("a0", "b0", "x11", "x21")
    assert [p.render(r) for r in p.relators] == \
        ["x11 x21 x11^-1 x21^-1", "a0 x11^-1"]
    assert res.euler == -1
    assert assembled_volume_vector(res.graph).entries == (2, 5, 2)
    assert isinstance(res.graph.vertices[1], AbelianBlock)


def test_punctured_torus_stage_reads_as_genus_two_amalgam():
    res = build_tower(tower([free(2)], surface(1, "a0 b0 a0^-1 b0^-1")))
    p = res.presentation
    assert p.generator_names == ("a0", "b0", "a1", "b1")
    assert [p.render(r) for r in p.relators] == \
        ["a0 b0 a0^-1 b0^-1 b1 a1 b1^-1 a1^-1"]
    assert res.euler == -2


def test_two_stage_tower():
    res = build_tower(tower([free(2)], torus(2, "a0"), torus(2, "b0")))
    p = res.presentation
    assert p.generator_names == ("a0", "b0", "x11", "x21", "x12", "x22")
    assert [p.render(r) for r in p.relators] == [
        "x11 x21 x11^-1 x21^-1",
        "x12 x22 x12^-1 x22^-1",
        "a0 x11^-1",
        "b0 x12^-1",
    ]
    assert res.euler == -1
    assert assembled_volume_vector(res.graph).entries == (3, 8, 4)


def test_wedge_base():
    res = build_tower({"base": [free(1), free(1)]})
    assert res.presentation.generator_names == ("a0", "a1")
    assert res.presentation.relators == ()
    assert res.euler == -1


def test_multi_boundary_surface_gets_stable_letter():
    res = build_tower(tower([free(2)], surface(1, "a0"),
                            surface(2, "b0", "a1 b1")))
    p = res.presentation
    assert p.generator_names == (
        "a0", "b0", "a1", "b1", "a2", "b2", "c2", "d2", "e2", "t2")
    texts = [p.render(r) for r in p.relators]
    # the second edge into the same new vertex closes a cycle
    assert texts == [
        "a0 b1 a1 b1^-1 a1^-1",
        "b0 e2^-1",
        "t2 a1 b1 t2^-1 e2^-1 d2 c2 d2^-1 c2^-1 b2 a2 b2^-1 a2^-1",
    ]
    assert res.euler == -6


def test_attaching_word_errors():
    with pytest.raises(ValueError, match="unknown generator 'z9'"):
        build_tower(tower([free(2)], torus(2, "z9")))
    with pytest.raises(ValueError, match="^attaching word is trivial$"):
        build_tower(tower([free(2)], torus(2, "a0 a0^-1")))
    # words mixing two vertex groups cannot attach
    with pytest.raises(ValueError, match=r"^attaching word must lie in one "
                                         r"vertex group, spans \[0, 1\]$"):
        build_tower(tower([free(1), free(1)], torus(2, "a0 a1")))
    # stable letters are not inside any vertex group
    with pytest.raises(ValueError, match="^attaching word uses a stable "
                                         "letter; it must lie in a single "
                                         "vertex group$"):
        build_tower(tower([free(2)], surface(1, "a0"),
                          surface(2, "b0", "a1 b1"), torus(2, "t2")))


def test_double_of_free():
    g = double_of_free(2, "a b")
    assert assembled_volume_vector(g).entries == (2, 5, 1)
    assert len(g.edges) == 1
    with pytest.raises(ValueError):
        double_of_free(2, "a a^-1")
