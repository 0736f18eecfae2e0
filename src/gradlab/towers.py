"""The group record, the towers that build groups, and the catalog.

Every group a config names becomes one Group record: its name, its
presentation, its Euler characteristic, and whatever structure it came
with, a graph of groups or the records of its direct-product factors.
graph_group and product_group build the record from a graph and from
factor records; the catalog and every config spec go through them.

A tower starts from a wedge of base blocks and grows by attaching either a
torus along a maximal cyclic subgroup or a compact surface with boundary
along loops; the maximality of the torus word and the retraction a surface
attachment needs are the caller's assumptions, not checked.  Every stage
keeps the result a graph of groups with cyclic or trivial edges, so the
volume calculus applies at every height.
"""

import math
from functools import cache
from types import MappingProxyType

from .errors import InvariantViolation
from .gog import (AbelianBlock, CYCLIC_BLOCK, Edge, FreeBlock,
                  GraphOfGroups, SurfaceBlock, TRIVIAL_BLOCK,
                  euler_characteristic)
from .words import Presentation, Word, parse_word, product_presentation


class Group:
    """A group as the experiments read it.  graph is its graph of groups,
    if it has one; factors are the records of its direct-product factors,
    if it is a product."""

    __slots__ = ("name", "presentation", "euler", "graph", "factors")

    def __init__(self, name, presentation, euler, graph=None, factors=()):
        self.name = name
        self.presentation = presentation
        self.euler = euler
        self.graph = graph
        self.factors = factors

    @property
    def aspherical(self):
        return self.presentation.aspherical


def graph_group(name, graph):
    """The fundamental group of a graph of groups."""
    return Group(name, graph.layout.presentation,
                 euler_characteristic(graph), graph)


def product_group(name, factors):
    """The direct product of two or more group records; chi is
    multiplicative."""
    factors = tuple(factors)
    if len(factors) < 2:
        raise ValueError("product needs at least two factors")
    return Group(name, product_presentation([f.presentation for f in factors]),
                 math.prod(f.euler for f in factors), None, factors)


class TorusAttach:
    """Attach Z^rank along a cyclic subgroup of the current group.

    The attaching word is written in the current fundamental presentation's
    generator names and must lie in a single vertex group.
    """

    __slots__ = ("rank", "word_text")

    def __init__(self, rank, word_text):
        if rank < 2:
            raise ValueError(f"torus attachments need rank >= 2, got {rank}")
        self.rank = rank
        self.word_text = word_text


class SurfaceAttach:
    """Attach a compact surface of the given genus with one boundary circle
    per attaching word.  Only the punctured torus may have chi = -1; every
    other shape must satisfy 2 - 2g - b <= -2.
    """

    __slots__ = ("genus", "boundary_attach_texts")

    def __init__(self, genus, boundary_attach_texts):
        b = len(boundary_attach_texts)
        if b < 1:
            raise ValueError("surface attachment needs at least one boundary circle")
        chi = 2 - 2 * genus - b
        if chi == -1 and (genus, b) != (1, 1):
            raise ValueError(f"chi = -1 surface attachment must be the punctured torus, "
                             f"got genus {genus} with {b} boundaries")
        if chi > -1:
            raise ValueError(f"surface attachment with chi = {chi} adds no hyperbolicity")
        self.genus = genus
        self.boundary_attach_texts = boundary_attach_texts


class TowerSpec:
    __slots__ = ("base", "stages")

    def __init__(self, base, stages=()):
        self.base = base
        self.stages = stages


def _surface_with_boundary_block(genus, boundaries):
    """Free block for a compact surface: rank 2g + b - 1 with local names
    a1 b1 .. ag bg d1 .. d_{b-1}."""
    names = []
    for i in range(genus):
        names.extend((f"a{i + 1}", f"b{i + 1}"))
    names.extend(f"d{i + 1}" for i in range(boundaries - 1))
    rank = 2 * genus + boundaries - 1
    if rank < 1:
        raise ValueError("degenerate surface (disc) cannot be attached")
    block = FreeBlock(rank)
    # FreeBlock picks its own default names; the boundary words below are
    # written against these explicit ones, so translate by position
    return block, tuple(names)


def _boundary_words(genus, boundaries, names):
    words = []
    for i in range(boundaries - 1):
        words.append(parse_word(f"d{i + 1}", names))
    humps = " ".join(f"a{i + 1} b{i + 1} a{i + 1}^-1 b{i + 1}^-1" for i in range(genus))
    tail = " ".join(f"d{i + 1}" for i in range(boundaries - 1))
    last = (humps + " " + tail).strip()
    if not last:
        raise ValueError("surface attachment has a trivial boundary word")
    words.append(parse_word(last, names))
    return tuple(words)


def _owning_vertex(layout, w):
    """The unique vertex whose generators a lifted word uses."""
    owners = set()
    for gen, _ in w.runs:
        owner = None
        for v, off in enumerate(layout.offsets):
            count = layout.vertex_gen_counts[v]
            if off <= gen < off + count:
                owner = v
                break
        if owner is None:
            raise ValueError("attaching word uses a stable letter; it must lie "
                             "in a single vertex group")
        owners.add(owner)
    if len(owners) != 1:
        raise ValueError(f"attaching word must lie in one vertex group, spans {sorted(owners)}")
    return owners.pop()


def _localize(layout, w, vertex):
    off = layout.offsets[vertex]
    return Word(tuple((g - off, e) for g, e in w.runs))


def build_tower(spec):
    """Grow the graph of groups stage by stage.

    Attaching words are parsed against the fundamental presentation of the
    graph built so far and must lie in a single vertex group; the new block
    becomes a vertex joined by one cyclic edge per attached circle.
    """
    vertices = list(spec.base)
    edges = []
    assertions = []
    # wedge the base blocks at a point: a star of trivial edges
    for v in range(1, len(vertices)):
        edges.append(Edge(0, v, TRIVIAL_BLOCK))
    chi = sum(b.euler() for b in vertices) - (len(vertices) - 1)

    for stage in spec.stages:
        layout = GraphOfGroups(tuple(vertices), tuple(edges)).layout
        p = layout.presentation

        if isinstance(stage, TorusAttach):
            w = p.word(stage.word_text)
            if w.is_empty():
                raise ValueError("attaching word is trivial")
            v = _owning_vertex(layout, w)
            local = _localize(layout, w, v)
            block = AbelianBlock(stage.rank)
            new_v = len(vertices)
            vertices.append(block)
            tau = parse_word("x1", block.local_names())
            edges.append(Edge(v, new_v, CYCLIC_BLOCK, (local,), (tau,)))
            assertions.append(f"torus attachment along {stage.word_text!r} "
                              "assumed maximal cyclic")
            chi += block.euler()
        elif isinstance(stage, SurfaceAttach):
            b = len(stage.boundary_attach_texts)
            block, names = _surface_with_boundary_block(stage.genus, b)
            new_v = len(vertices)
            vertices.append(block)
            # boundary words are parsed against the a/b/d naming but carry
            # positional generator indices, which is all the edge map needs
            taus = _boundary_words(stage.genus, b, names)
            for text, tau in zip(stage.boundary_attach_texts, taus):
                w = p.word(text)
                if w.is_empty():
                    raise ValueError("attaching word is trivial")
                v = _owning_vertex(layout, w)
                local = _localize(layout, w, v)
                edges.append(Edge(v, new_v, CYCLIC_BLOCK, (local,), (tau,)))
            assertions.append(
                f"surface attachment (genus {stage.genus}, {b} boundaries) "
                "assumed to admit its retraction")
            chi += 2 - 2 * stage.genus - b
        else:
            raise ValueError(f"unknown stage {stage!r}")

    group = graph_group("tower", GraphOfGroups(tuple(vertices), tuple(edges),
                                               tuple(assertions)))
    if group.euler != chi:
        raise InvariantViolation(f"euler accumulation {chi} != graph value "
                                 f"{group.euler}")
    return group


def double_of_free(rank, word_text):
    """Double of a free group along the cyclic subgroup the word generates."""
    block = FreeBlock(rank)
    w = parse_word(word_text, block.local_names())
    if w.is_empty():
        raise ValueError("doubling word is trivial")
    graph = GraphOfGroups(
        (block, FreeBlock(rank)),
        (Edge(0, 1, CYCLIC_BLOCK, (w,), (w,)),),
        (f"double along {word_text!r} assumed maximal cyclic",))
    return graph


@cache
def catalog():
    """Stock groups by stable name, built once per process.  The mapping is
    read-only, since every caller shares it; a one-block group carries the
    block's own generator names (a, b; a1 .. b2; x1 ..)."""
    blocks = ([(f"free_{r}", FreeBlock(r)) for r in (1, 2, 3)]
              + [(f"surface_{g}", SurfaceBlock(g)) for g in (2, 3)]
              + [(f"abelian_{r}", AbelianBlock(r)) for r in (1, 2, 3)])
    groups = {name: Group(name, block.presentation(), block.euler(),
                          GraphOfGroups((block,), ()))
              for name, block in blocks}
    zz = GraphOfGroups((FreeBlock(1), FreeBlock(1)), (Edge(0, 1, TRIVIAL_BLOCK),))
    for group in (graph_group("z_star_z", zz),
                  graph_group("double_f2_ab", double_of_free(2, "a b")),
                  product_group("f2xf2", (groups["free_2"],) * 2),
                  product_group("f2xf2xf2", (groups["free_2"],) * 3)):
        groups[group.name] = group
    return MappingProxyType(groups)
