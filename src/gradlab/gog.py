"""Graphs of groups with trivial or infinite cyclic edge groups.

Vertex groups come in three block shapes: free, finitely generated abelian
(free abelian here), or closed orientable surface of genus >= 2.  Volume
vectors count cells of a chosen classifying space per dimension, whose
boundary maps are all zero, so the cells are Betti numbers over every field
too.  The calculus below assembles them along the graph and pushes them
down to finite index subgroups through a permutation quotient, both by one
loop (_assemble).

A GraphOfGroups walks its graph once, breadth first from vertex 0, when it
is built: the walk certifies that the graph is connected and picks the
spanning tree, which fixes the generators' positions; the fundamental
presentation, which names them, is assembled on first use.  The relators
of blocks and graphs are built from runs (words.commutator, surface_word),
never parsed from text.

Pushing down needs, for each vertex and edge group, its shadow: the order
[G_v : B n G_v] of its image in the quotient, and the count
[G : B G_v] = [G : B] / [G_v : B n G_v] of its lifts.  The chain level
answers for its own quotient: ChainLevel.order_of reads the order of a
vertex group's images and of an edge word's ChainLevel.image, and each
relator is checked by ChainLevel.satisfies.
"""

import itertools
import math
from fractions import Fraction
from functools import cached_property

from .errors import InvariantViolation, need, reject_unknown
from .permgrp import Perm, PermGroup, compose, subgroup_index
from .words import Presentation, Word, commutator, distinct_names, parse_word

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class VolumeVector:
    """Cell counts r_0, r_1, ... of some K(G,1)."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = tuple(int(e) for e in entries)
        if any(e < 0 for e in self.entries):
            raise ValueError(f"negative cell count in {self.entries}")

    def __eq__(self, other):
        if type(other) is not VolumeVector:
            return NotImplemented
        return self.entries == other.entries

    def __getitem__(self, k):
        return self.entries[k] if 0 <= k < len(self.entries) else 0

    def __len__(self):
        return len(self.entries)

    def euler(self):
        return sum((-1) ** i * e for i, e in enumerate(self.entries))


class FreeBlock:
    __slots__ = ("rank",)

    def __init__(self, rank):
        if rank < 0:
            raise ValueError(f"free rank {rank} < 0")
        self.rank = rank

    def __eq__(self, other):
        if type(other) is not FreeBlock:
            return NotImplemented
        return self.rank == other.rank

    def local_names(self):
        if self.rank <= len(_LETTERS):
            return tuple(_LETTERS[:self.rank])
        return tuple(f"g{i}" for i in range(self.rank))

    def presentation(self):
        return Presentation(self.local_names(), (), aspherical=True)

    def volume_vector(self):
        return VolumeVector((1, self.rank))

    def sub_volume_vector(self, index):
        """Volume vector of a subgroup of the given index."""
        if self.rank == 0:
            if index != 1:
                raise ValueError(f"trivial group has no subgroup of index {index}")
            return VolumeVector((1,))
        # Nielsen-Schreier: rank m(r-1)+1
        return VolumeVector((1, index * (self.rank - 1) + 1))


TRIVIAL_BLOCK = FreeBlock(0)
CYCLIC_BLOCK = FreeBlock(1)


class AbelianBlock:
    __slots__ = ("rank",)

    def __init__(self, rank):
        if rank < 1:
            raise ValueError(f"abelian rank {rank} < 1")
        self.rank = rank

    def local_names(self):
        return tuple(f"x{i + 1}" for i in range(self.rank))

    def presentation(self):
        x = [Word(((i, 1),)) for i in range(self.rank)]
        rels = tuple(commutator(u, v) for u, v in itertools.combinations(x, 2))
        # the n-torus presentation complex is a classifying space only
        # through dimension 2
        return Presentation(self.local_names(), rels, aspherical=self.rank <= 2)

    def volume_vector(self):
        return VolumeVector(tuple(math.comb(self.rank, k) for k in range(self.rank + 1)))

    def sub_volume_vector(self, index):
        # finite index subgroups of Z^n are again Z^n
        return self.volume_vector()


def surface_word(genus):
    """[a1, b1] ... [ag, bg], where ai and bi are the generators 2i - 2 and
    2i - 1.  No two commutators share a generator, so their runs join
    without reduction."""
    return Word(tuple(itertools.chain.from_iterable(
        commutator(Word(((2 * i, 1),)), Word(((2 * i + 1, 1),))).runs
        for i in range(genus))))


class SurfaceBlock:
    __slots__ = ("genus",)

    def __init__(self, genus):
        if genus < 2:
            raise ValueError(f"closed hyperbolic surface needs genus >= 2, got {genus}")
        self.genus = genus

    def local_names(self):
        names = []
        for i in range(self.genus):
            names.extend((f"a{i + 1}", f"b{i + 1}"))
        return tuple(names)

    def presentation(self):
        return Presentation(self.local_names(), (surface_word(self.genus),),
                            aspherical=True)

    def volume_vector(self):
        return VolumeVector((1, 2 * self.genus, 1))

    def sub_volume_vector(self, index):
        # a degree-m cover of a genus-g surface has genus 1 + m(g-1)
        return VolumeVector((1, 2 + 2 * index * (self.genus - 1), 1))


class Edge:
    """An edge of the graph with its two boundary injections.

    iota_words live in the source vertex block's local generators,
    tau_words in the target's.  Cyclic edges carry exactly one word per
    side; trivial edges none.  That the words generate maximal cyclic
    subgroups is the caller's assertion, not checked here.
    """

    __slots__ = ("source", "target", "block", "iota_words", "tau_words")

    def __init__(self, source, target, block, iota_words=(), tau_words=()):
        if not isinstance(block, FreeBlock) or block.rank > 1:
            raise ValueError("edge groups are limited to trivial and infinite cyclic")
        expected = block.rank
        if len(iota_words) != expected or len(tau_words) != expected:
            raise ValueError(
                f"edge block of rank {expected} needs {expected} words per side, "
                f"got {len(iota_words)}/{len(tau_words)}")
        for w in iota_words + tau_words:
            if w.is_empty():
                raise ValueError("edge words must be nontrivial")
        self.source = source
        self.target = target
        self.block = block
        self.iota_words = iota_words
        self.tau_words = tau_words


class GraphOfGroups:
    """A connected graph of vertex blocks joined by trivial or cyclic edges.

    The fundamental group's generators are laid out once, with the graph:
    vertex v's local generators at positions offsets[v] up to offsets[v + 1],
    then one stable letter per edge off the spanning tree, at position
    stable_letters[edge].  The presentation names them, a local name
    suffixed with its vertex and a stable letter t<edge>.  It is aspherical
    when every vertex block's presentation is: edge words are taken to
    generate maximal cyclic subgroups (assumed, not checked), so every edge
    group injects and the graph of aspherical spaces is aspherical.
    """

    def __init__(self, vertices, edges):
        if not vertices:
            raise ValueError("graph needs at least one vertex")
        for e in edges:
            if not (0 <= e.source < len(vertices) and 0 <= e.target < len(vertices)):
                raise ValueError(f"edge {e.source} -> {e.target} references a missing vertex")
        # one breadth-first walk from vertex 0, edges in listed order: it
        # certifies connectivity, and the edge that first reaches a vertex
        # joins the spanning tree
        reached, tree = [0], set()
        for v in reached:  # reached grows as the walk goes
            for i, e in enumerate(edges):
                for a, b in ((e.source, e.target), (e.target, e.source)):
                    if a == v and b not in reached:
                        reached.append(b)
                        tree.add(i)
        if len(reached) != len(vertices):
            raise ValueError("graph of groups is not connected")
        self.vertices = vertices
        self.edges = edges
        self.offsets = list(itertools.accumulate(
            (len(b.local_names()) for b in vertices), initial=0))
        loose = [i for i in range(len(edges)) if i not in tree]
        self.stable_letters = {i: self.offsets[-1] + k for k, i in enumerate(loose)}

    def lift(self, w, vertex):
        """A word in a vertex's local generators, in the graph's."""
        return w.shifted(self.offsets[vertex])

    @cached_property
    def presentation(self):
        """Presentation of the fundamental group: the vertex relators, then
        one relator per edge word, conjugated by the edge's stable letter
        off the tree."""
        local = [block.presentation() for block in self.vertices]
        relators = [self.lift(r, v) for v, q in enumerate(local)
                    for r in q.relators]
        for i, e in enumerate(self.edges):
            for wi, wt in zip(e.iota_words, e.tau_words):
                left = self.lift(wi, e.source)
                if i in self.stable_letters:
                    t = Word(((self.stable_letters[i], 1),))
                    left = t * left * t.inverse()
                relators.append(left * self.lift(wt, e.target).inverse())
        names = distinct_names(
            [f"{name}{v}" for v, block in enumerate(self.vertices)
             for name in block.local_names()]
            + [f"t{i}" for i in self.stable_letters])
        return Presentation(names, tuple(relators),
                            aspherical=all(q.aspherical for q in local))


def _assemble(pieces):
    """The volume vector summing (copies, cell vector, shift) pieces: copies
    of each piece's cells, moved up shift dimensions."""
    entries = [0] * max(len(cells) + shift for _, cells, shift in pieces)
    for copies, cells, shift in pieces:
        for k, e in enumerate(cells.entries, shift):
            entries[k] += copies * e
    return VolumeVector(entries)


def assembled_volume_vector(g):
    """Lemma-style assembly: vertices contribute their cells in each
    dimension, edges contribute their cells shifted up by one."""
    return _assemble([(1, b.volume_vector(), 0) for b in g.vertices]
                     + [(1, e.block.volume_vector(), 1) for e in g.edges])


def euler_characteristic(g):
    chi = assembled_volume_vector(g).euler()
    direct = (sum(b.volume_vector().euler() for b in g.vertices)
              - sum(e.block.volume_vector().euler() for e in g.edges))
    if chi != direct:
        raise InvariantViolation(f"volume vector euler {chi} != vertex-edge sum {direct}")
    return chi


def _copies(index, local_index):
    """[G : B G_v] = [G : B] / [G_v : B n G_v]."""
    copies, remainder = divmod(index, local_index)
    if remainder:
        raise InvariantViolation(f"local index {local_index} does not divide "
                                 f"the level index {index}")
    return copies


def edge_shadow_indices(g, level):
    """[G_e : B n G_e] for each edge: the order of the edge word's image in
    the chain level's quotient, read by ChainLevel.order_of, 1 for trivial
    edges (edge groups have at most one generator)."""
    return [level.order_of((level.image(g.lift(e.iota_words[0], e.source)),))
            if e.iota_words else 1 for e in g.edges]


def subgroup_shadows(g, level):
    """How each vertex and edge group meets B, the kernel of the map
    sending the generators of G to the chain level's images, of index
    [G : B] = level.index.

    Returns two lists of (block, copies, local_index) triples, vertices then
    edges, where local_index = [G_v : B n G_v] is the order of the local
    image and copies = [G : B G_v] = index / local_index counts the lifted
    pieces.

    The images must satisfy every relator, and the level answers both
    questions: ChainLevel.satisfies for each relator, ChainLevel.order_of
    for each vertex's images and each edge word's image.
    """
    p = g.presentation
    images, index = level.images, level.index
    if len(images) != len(p.generator_names):
        raise ValueError(f"{len(images)} images for {len(p.generator_names)} generators")
    for r in p.relators:
        if not level.satisfies(r):
            raise ValueError(f"images do not satisfy relator {p.render(r)!r}")

    vertex_rows = []
    for v, block in enumerate(g.vertices):
        local_index = level.order_of(images[g.offsets[v]:g.offsets[v + 1]])
        vertex_rows.append((block, _copies(index, local_index), local_index))
    edge_rows = [(e.block, _copies(index, local_index), local_index)
                 for e, local_index in zip(g.edges,
                                           edge_shadow_indices(g, level))]
    return vertex_rows, edge_rows


def subgroup_volume_vector(g, level):
    """Volume vector of the chain level's kernel B, of index
    [G : B] = level.index, from the covering formula:

        r_k(B) = sum_v [G:BG_v] r_k(B n G_v) + sum_e [G:BG_e] r_{k-1}(B n G_e)

    The counts [G:BG_v] and the local indices [G_v : B n G_v] are
    subgroup_shadows', read off the images of vertex generators and edge
    words in the level's quotient.
    """
    vertex_rows, edge_rows = subgroup_shadows(g, level)
    # vertices in place (shift 0), edges one dimension up (shift 1)
    return _assemble([(copies, block.sub_volume_vector(local_index), shift)
                      for shift, rows in enumerate((vertex_rows, edge_rows))
                      for block, copies, local_index in rows])


def coset_ratio_check(quotient, h_images):
    """Return ([G:BH]/[G:B], 1/[H : B n H]) computed along different routes.

    With B the kernel of G -> quotient, [G:BH] is the index of the image of
    H and [G:B] the quotient order, while [H : B n H] is the order of the
    image of H.  The left side certifies that every image of H lies in the
    quotient and that its order divides the quotient order (Lagrange).  The
    right side takes the order of the image of H conjugated by the point
    reversal x -> n-1-x, a chain with a different base and different
    transversals.  The two fractions must agree.
    """
    q_order = quotient.order()
    lhs = Fraction(subgroup_index(quotient, list(h_images)), q_order)
    reverse = Perm(tuple(range(quotient.degree - 1, -1, -1)))
    reversed_h = [compose(compose(reverse, h), reverse) for h in h_images]
    rhs = Fraction(1, PermGroup(quotient.degree, reversed_h).order())
    return lhs, rhs


_BLOCKS = {"trivial": (TRIVIAL_BLOCK, None), "cyclic": (CYCLIC_BLOCK, None),
           "free": (FreeBlock, "rank"), "abelian": (AbelianBlock, "rank"),
           "surface": (SurfaceBlock, "genus")}


def block_from_dict(d):
    if not isinstance(d, dict):
        raise ValueError(f"block spec must be an object with a 'type', "
                         f"got {d!r}")
    kind = d.get("type")
    if not isinstance(kind, str) or kind not in _BLOCKS:
        raise ValueError(f"unknown block type {kind!r}")
    made, key = _BLOCKS[kind]
    where = f"{kind} block"
    if key is None:
        reject_unknown(d, where, ("type",))
        return made
    reject_unknown(d, where, ("type", key))
    return made(need(d, key, where, int))


def graph_from_dict(d):
    reject_unknown(d, "graph", ("vertices", "edges"))
    vertices = tuple(block_from_dict(b)
                     for b in need(d, "vertices", "graph", list, dict))
    edges = []
    for e in need(d, "edges", "graph", list, dict):
        block = block_from_dict(e.get("edge_block", {"type": "cyclic"}))
        words = ("iota_word", "tau_word") if block.rank == 1 else ()
        reject_unknown(e, "graph edge", ("source", "target", "edge_block") + words)
        src, tgt = (need(e, key, "graph edge", int)
                    for key in ("source", "target"))
        if not (0 <= src < len(vertices) and 0 <= tgt < len(vertices)):
            raise ValueError(f"graph edge {src} -> {tgt} names a missing vertex")
        iota = tau = ()
        if words:
            iota = (parse_word(need(e, "iota_word", "graph edge", str),
                               vertices[src].local_names()),)
            tau = (parse_word(need(e, "tau_word", "graph edge", str),
                              vertices[tgt].local_names()),)
        edges.append(Edge(src, tgt, block, iota, tau))
    return GraphOfGroups(vertices, tuple(edges))
