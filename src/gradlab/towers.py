"""The group record, the towers that build groups, and the catalog.

Every group a config names becomes one Group record: its name, its
presentation, its Euler characteristic, and whatever structure it came
with, a graph of groups or the records of its direct-product factors.
graph_group and product_group build the record from a graph and from
factor records; the catalog and every config spec go through them.

build_tower reads a config's tower object itself, with no record in
between.  A tower starts from a wedge of base blocks and grows by attaching
either a torus along a maximal cyclic subgroup or a compact surface with
boundary along loops; the maximality of the torus word and the retraction a
surface attachment needs are the caller's assumptions, not checked.  Every
stage keeps the result a graph of groups with cyclic or trivial edges, so
the volume calculus applies at every height.  The words a stage adds are
built from runs; only the config's attaching words are parsed.
"""

import bisect
import math
from functools import cache
from types import MappingProxyType

from .errors import InvariantViolation, need, reject_unknown
from .gog import (AbelianBlock, CYCLIC_BLOCK, Edge, FreeBlock,
                  GraphOfGroups, SurfaceBlock, TRIVIAL_BLOCK, block_from_dict,
                  euler_characteristic, surface_word)
from .words import Word, parse_word, product_presentation


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
    return Group(name, graph.presentation,
                 euler_characteristic(graph), graph)


def product_group(name, factors):
    """The direct product of two or more group records; chi is
    multiplicative."""
    factors = tuple(factors)
    if len(factors) < 2:
        raise ValueError("product needs at least two factors")
    return Group(name, product_presentation([f.presentation for f in factors]),
                 math.prod(f.euler for f in factors), None, factors)


def _attach(graph, text):
    """The vertex whose group holds an attaching word, and the word in that
    vertex's local generators."""
    w = graph.presentation.word(text)
    if w.is_empty():
        raise ValueError("attaching word is trivial")
    owners = set()
    for gen, _ in w.runs:
        if gen >= graph.offsets[-1]:
            raise ValueError("attaching word uses a stable letter; it must lie "
                             "in a single vertex group")
        owners.add(bisect.bisect_right(graph.offsets, gen) - 1)
    if len(owners) != 1:
        raise ValueError(f"attaching word must lie in one vertex group, spans {sorted(owners)}")
    v = owners.pop()
    return v, w.shifted(-graph.offsets[v])


def build_tower(tower):
    """The group a config's tower object describes.

    The base blocks are wedged at a point, by a star of trivial edges.  Each
    stage then parses its attaching words against the fundamental
    presentation of the graph built so far; each word must lie in a single
    vertex group, and the new block becomes a vertex joined by one cyclic
    edge per word.  A torus stage attaches Z^rank along its word's cyclic
    subgroup.  A surface stage attaches a compact surface of the given genus
    with one boundary circle per word: a free block on a1 b1 .. ag bg
    d1 .. d(b-1), whose boundary loops are d1, .., d(b-1) and
    [a1, b1] .. [ag, bg] d1 .. d(b-1).  Only the punctured torus may have
    chi = -1; every other surface must have chi <= -2.
    """
    if not isinstance(tower, dict):
        raise ValueError(f"tower spec must be an object, got {tower!r}")
    reject_unknown(tower, "tower", ("base", "stages"))
    vertices = [block_from_dict(b) for b in need(tower, "base", "tower", list)]
    if not vertices:
        raise ValueError("tower needs at least one base block")
    stages = need(tower, "stages", "tower", list) if "stages" in tower else ()
    edges = [Edge(0, v, TRIVIAL_BLOCK) for v in range(1, len(vertices))]
    chi = sum(b.volume_vector().euler() for b in vertices) - (len(vertices) - 1)

    for stage in stages:
        kind = stage.get("type") if isinstance(stage, dict) else None
        where = f"tower {kind} stage"
        graph = GraphOfGroups(tuple(vertices), tuple(edges))
        new = len(vertices)
        if kind == "torus":
            reject_unknown(stage, where, ("type", "rank", "word"))
            rank = need(stage, "rank", where, int)
            text = need(stage, "word", where, str)
            if rank < 2:
                raise ValueError(f"torus attachments need rank >= 2, got {rank}")
            v, local = _attach(graph, text)
            block = AbelianBlock(rank)
            vertices.append(block)
            edges.append(Edge(v, new, CYCLIC_BLOCK, (local,), (Word(((0, 1),)),)))
            chi += block.volume_vector().euler()
        elif kind == "surface":
            reject_unknown(stage, where, ("type", "genus", "boundaries"))
            genus = need(stage, "genus", where, int)
            texts = need(stage, "boundaries", where, list, str)
            b = len(texts)
            if b < 1:
                raise ValueError("surface attachment needs at least one boundary circle")
            chi_surface = 2 - 2 * genus - b
            if chi_surface == -1 and (genus, b) != (1, 1):
                raise ValueError(f"chi = -1 surface attachment must be the punctured torus, "
                                 f"got genus {genus} with {b} boundaries")
            if chi_surface > -1:
                raise ValueError(f"surface attachment with chi = {chi_surface} adds no hyperbolicity")
            if genus < 0:
                raise ValueError(f"surface attachment needs genus >= 0, got {genus}")
            loops = [Word(((2 * genus + i, 1),)) for i in range(b - 1)]
            last = surface_word(genus)
            for d in loops:
                last = last * d
            for text, tau in zip(texts, loops + [last]):
                v, local = _attach(graph, text)
                edges.append(Edge(v, new, CYCLIC_BLOCK, (local,), (tau,)))
            vertices.append(FreeBlock(2 * genus + b - 1))
            chi += chi_surface
        else:
            raise ValueError(f"unknown tower stage type {kind!r}")

    group = graph_group("tower", GraphOfGroups(tuple(vertices), tuple(edges)))
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
    return GraphOfGroups((block, FreeBlock(rank)),
                         (Edge(0, 1, CYCLIC_BLOCK, (w,), (w,)),))


@cache
def catalog():
    """Stock groups by stable name, built once per process.  The mapping is
    read-only, since every caller shares it; a one-block group carries the
    block's own generator names (a, b; a1 .. b2; x1 ..)."""
    blocks = ([(f"free_{r}", FreeBlock(r)) for r in (1, 2, 3)]
              + [(f"surface_{g}", SurfaceBlock(g)) for g in (2, 3)]
              + [(f"abelian_{r}", AbelianBlock(r)) for r in (1, 2, 3)])
    groups = {name: Group(name, block.presentation(),
                          block.volume_vector().euler(),
                          GraphOfGroups((block,), ()))
              for name, block in blocks}
    zz = GraphOfGroups((FreeBlock(1), FreeBlock(1)), (Edge(0, 1, TRIVIAL_BLOCK),))
    for group in (graph_group("z_star_z", zz),
                  graph_group("double_f2_ab", double_of_free(2, "a b")),
                  product_group("f2xf2", (groups["free_2"],) * 2),
                  product_group("f2xf2xf2", (groups["free_2"],) * 3)):
        groups[group.name] = group
    return MappingProxyType(groups)
