"""Graphs of groups with trivial or infinite cyclic edge groups.

Vertex groups come in three block shapes: free, finitely generated abelian
(free abelian here), or closed orientable surface of genus >= 2.  Volume
vectors count cells of a chosen classifying space per dimension; the
calculus below assembles them along the graph and pushes them down to
finite index subgroups through a permutation quotient.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantViolation
from .permgrp import PermGroup, subgroup_index, word_image
from .words import Presentation, Word, parse_word

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class VolumeVector:
    """Cell counts r_0, r_1, ... of some K(G,1)."""

    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(int(e) for e in self.entries))
        if any(e < 0 for e in self.entries):
            raise ValueError(f"negative cell count in {self.entries}")

    def __getitem__(self, k):
        if k < 0:
            return 0
        return self.entries[k] if k < len(self.entries) else 0

    def __len__(self):
        return len(self.entries)

    def euler(self):
        return sum((-1) ** i * e for i, e in enumerate(self.entries))


class Block:
    """Common interface for vertex and edge group shapes."""

    aspherical = False

    def local_names(self):
        raise NotImplementedError

    def presentation(self):
        raise NotImplementedError

    def volume_vector(self):
        raise NotImplementedError

    def euler(self):
        return self.volume_vector().euler()

    def sub_volume_vector(self, index):
        """Volume vector of a subgroup of the given index."""
        raise NotImplementedError

    def sub_betti(self, index, j):
        """dim H_j of a subgroup of the given index, over any field."""
        raise NotImplementedError


@dataclass(frozen=True)
class FreeBlock(Block):
    rank: int
    aspherical = True

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError(f"free rank {self.rank} < 0")

    def local_names(self):
        if self.rank <= len(_LETTERS):
            return tuple(_LETTERS[:self.rank])
        return tuple(f"g{i}" for i in range(self.rank))

    def presentation(self):
        return Presentation(self.local_names(), (), aspherical=True)

    def volume_vector(self):
        return VolumeVector((1, self.rank))

    def sub_volume_vector(self, index):
        if self.rank == 0:
            if index != 1:
                raise ValueError(f"trivial group has no subgroup of index {index}")
            return VolumeVector((1,))
        # Nielsen-Schreier: rank m(r-1)+1
        return VolumeVector((1, index * (self.rank - 1) + 1))

    def sub_betti(self, index, j):
        return self.sub_volume_vector(index)[j] if j <= 1 else 0


TRIVIAL_BLOCK = FreeBlock(0)
CYCLIC_BLOCK = FreeBlock(1)


@dataclass(frozen=True)
class AbelianBlock(Block):
    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"abelian rank {self.rank} < 1")

    @property
    def aspherical(self):
        # the n-torus presentation complex is a classifying space only
        # through dimension 2
        return self.rank <= 2

    def local_names(self):
        return tuple(f"x{i + 1}" for i in range(self.rank))

    def presentation(self):
        names = self.local_names()
        rels = []
        for i in range(self.rank):
            for j in range(i + 1, self.rank):
                rels.append(parse_word(f"x{i + 1} x{j + 1} x{i + 1}^-1 x{j + 1}^-1", names))
        return Presentation(names, tuple(rels), aspherical=self.aspherical)

    def volume_vector(self):
        return VolumeVector(tuple(math.comb(self.rank, k) for k in range(self.rank + 1)))

    def sub_volume_vector(self, index):
        # finite index subgroups of Z^n are again Z^n
        return self.volume_vector()

    def sub_betti(self, index, j):
        return math.comb(self.rank, j)


@dataclass(frozen=True)
class SurfaceBlock(Block):
    genus: int
    aspherical = True

    def __post_init__(self):
        if self.genus < 2:
            raise ValueError(f"closed hyperbolic surface needs genus >= 2, got {self.genus}")

    def local_names(self):
        names = []
        for i in range(self.genus):
            names.extend((f"a{i + 1}", f"b{i + 1}"))
        return tuple(names)

    def presentation(self):
        names = self.local_names()
        text = " ".join(
            f"a{i + 1} b{i + 1} a{i + 1}^-1 b{i + 1}^-1" for i in range(self.genus))
        return Presentation(names, (parse_word(text, names),), aspherical=True)

    def volume_vector(self):
        return VolumeVector((1, 2 * self.genus, 1))

    def sub_volume_vector(self, index):
        # a degree-m cover of a genus-g surface has genus 1 + m(g-1)
        return VolumeVector((1, 2 + 2 * index * (self.genus - 1), 1))

    def sub_betti(self, index, j):
        return self.sub_volume_vector(index)[j] if j <= 2 else 0


@dataclass(frozen=True)
class Edge:
    """An edge of the graph with its two boundary injections.

    iota_words live in the source vertex block's local generators,
    tau_words in the target's.  Cyclic edges carry exactly one word per
    side; trivial edges none.  That the words generate maximal cyclic
    subgroups is the caller's assertion, not checked here.
    """

    source: int
    target: int
    block: Block
    iota_words: tuple = ()
    tau_words: tuple = ()

    def __post_init__(self):
        if not isinstance(self.block, FreeBlock) or self.block.rank > 1:
            raise ValueError("edge groups are limited to trivial and infinite cyclic")
        expected = self.block.rank
        if len(self.iota_words) != expected or len(self.tau_words) != expected:
            raise ValueError(
                f"edge block of rank {expected} needs {expected} words per side, "
                f"got {len(self.iota_words)}/{len(self.tau_words)}")
        for w in self.iota_words + self.tau_words:
            if w.is_empty():
                raise ValueError("edge words must be nontrivial")


@dataclass(frozen=True)
class GraphOfGroups:
    vertices: tuple
    edges: tuple
    assertions: tuple = ()

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("graph needs at least one vertex")
        for e in self.edges:
            if not (0 <= e.source < len(self.vertices) and 0 <= e.target < len(self.vertices)):
                raise ValueError(f"edge {e} references a missing vertex")
        # connectivity
        seen = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for e in self.edges:
                if e.source == v and e.target not in seen:
                    seen.add(e.target)
                    frontier.append(e.target)
                if e.target == v and e.source not in seen:
                    seen.add(e.source)
                    frontier.append(e.source)
        if len(seen) != len(self.vertices):
            raise ValueError("graph of groups is not connected")


class _Layout:
    """Generator bookkeeping shared by the presentation and volume code."""

    def __init__(self, g):
        self.graph = g
        names = []
        self.offsets = []
        for v, block in enumerate(g.vertices):
            self.offsets.append(len(names))
            for name in block.local_names():
                candidate = f"{name}{v}"
                while candidate in names:
                    candidate += "_"
                names.append(candidate)
        self.vertex_gen_counts = [len(b.local_names()) for b in g.vertices]

        # BFS spanning tree from vertex 0, edges in listed order
        parent_edge = {0: None}
        order = [0]
        head = 0
        while head < len(order):
            v = order[head]
            head += 1
            for i, e in enumerate(g.edges):
                for a, b in ((e.source, e.target), (e.target, e.source)):
                    if a == v and b not in parent_edge:
                        parent_edge[b] = i
                        order.append(b)
        self.tree_edges = {i for i in parent_edge.values() if i is not None}

        self.stable_letters = {}
        for i, e in enumerate(g.edges):
            if i in self.tree_edges:
                continue
            candidate = f"t{i}"
            while candidate in names:
                candidate += "_"
            self.stable_letters[i] = len(names)
            names.append(candidate)
        self.names = tuple(names)

    def lift(self, w, vertex):
        off = self.offsets[vertex]
        return Word(tuple((g + off, e) for g, e in w.runs))

    def presentation(self):
        g = self.graph
        relators = []
        for v, block in enumerate(g.vertices):
            for r in block.presentation().relators:
                relators.append(self.lift(r, v))
        for i, e in enumerate(g.edges):
            for wi, wt in zip(e.iota_words, e.tau_words):
                left = self.lift(wi, e.source)
                right = self.lift(wt, e.target)
                if i in self.tree_edges:
                    relators.append(left * right.inverse())
                else:
                    t = Word(((self.stable_letters[i], 1),))
                    relators.append(t * left * t.inverse() * right.inverse())
        aspherical = all(isinstance(b, FreeBlock) for b in g.vertices)
        return Presentation(self.names, tuple(relators), aspherical=aspherical)


def fundamental_presentation(g):
    """Presentation of the fundamental group: vertex generators renamed
    with their vertex index, plus one stable letter per non-tree edge."""
    return _Layout(g).presentation()


def assembled_volume_vector(g):
    """Lemma-style assembly: vertices contribute their cells in each
    dimension, edges contribute their cells shifted up by one."""
    length = max([len(b.volume_vector()) for b in g.vertices]
                 + [len(e.block.volume_vector()) + 1 for e in g.edges])
    entries = [0] * length
    for b in g.vertices:
        vv = b.volume_vector()
        for k in range(length):
            entries[k] += vv[k]
    for e in g.edges:
        vv = e.block.volume_vector()
        for k in range(1, length):
            entries[k] += vv[k - 1]
    return VolumeVector(tuple(entries))


def euler_characteristic(g):
    chi = assembled_volume_vector(g).euler()
    direct = sum(b.euler() for b in g.vertices) - sum(e.block.euler() for e in g.edges)
    if chi != direct:
        raise InvariantViolation(f"volume vector euler {chi} != vertex-edge sum {direct}")
    return chi


def subgroup_shadows(g, quotient, images):
    """How each vertex and edge group meets B = ker(G -> quotient).

    Returns two lists of (block, copies, local_index) triples, vertices then
    edges, where copies = [G : B G_v] counts the lifted pieces and
    local_index = [G_v : B n G_v] is the order of the local image.
    """
    layout = _Layout(g)
    p = layout.presentation()
    if len(images) != len(p.generator_names):
        raise ValueError(f"{len(images)} images for {len(p.generator_names)} generators")
    for r in p.relators:
        if not word_image(r, images).is_identity():
            raise ValueError(f"images do not satisfy relator {p.render(r)!r}")

    vertex_rows = []
    for v, block in enumerate(g.vertices):
        off = layout.offsets[v]
        v_images = list(images[off:off + layout.vertex_gen_counts[v]])
        local_index = PermGroup(quotient.degree, v_images).order()
        copies = subgroup_index(quotient, v_images)
        vertex_rows.append((block, copies, local_index))
    edge_rows = []
    for e in g.edges:
        edge_images = [word_image(layout.lift(w, e.source), images) for w in e.iota_words]
        local_index = PermGroup(quotient.degree, edge_images).order()
        copies = subgroup_index(quotient, edge_images)
        edge_rows.append((e.block, copies, local_index))
    return vertex_rows, edge_rows


def subgroup_volume_vector(g, quotient, images):
    """Volume vector of B = ker(G -> quotient) from the covering formula:

        r_k(B) = sum_v [G:BG_v] r_k(B n G_v) + sum_e [G:BG_e] r_{k-1}(B n G_e)

    The counts [G:BG_v] and the local indices [G_v : B n G_v] are read off
    from the images of vertex generators and edge words in the quotient.
    """
    vertex_rows, edge_rows = subgroup_shadows(g, quotient, images)
    pieces = [(copies, block.sub_volume_vector(local_index), 0)
              for block, copies, local_index in vertex_rows]
    pieces.extend((copies, block.sub_volume_vector(local_index), 1)
                  for block, copies, local_index in edge_rows)

    length = max(len(vv.entries) + shift for _, vv, shift in pieces)
    entries = [0] * length
    for copies, vv, shift in pieces:
        for k in range(length):
            entries[k] += copies * vv[k - shift]
    return VolumeVector(tuple(entries))


def edge_shadow_indices(g, quotient, images):
    """[G_e : B n G_e] for each edge: the order of the edge word's image
    (1 for trivial edges).  Useful for slowness diagnostics."""
    layout = _Layout(g)
    out = []
    for e in g.edges:
        edge_images = [word_image(layout.lift(w, e.source), images) for w in e.iota_words]
        out.append(PermGroup(quotient.degree, edge_images).order())
    return out


def coset_ratio_check(quotient, h_images):
    """Return ([G:BH]/[G:B], 1/[H : B n H]) computed along different routes.

    With B the kernel of G -> quotient, [G:BH] is the index of the image of
    H and [G:B] the quotient order, while [H : B n H] is the order of the
    image of H.  The two fractions must agree.
    """
    q_order = quotient.order()
    lhs = Fraction(subgroup_index(quotient, list(h_images)), q_order)
    rhs = Fraction(1, PermGroup(quotient.degree, list(h_images)).order())
    return lhs, rhs


_SIZED_BLOCKS = {"free": (FreeBlock, "rank"), "abelian": (AbelianBlock, "rank"),
                 "surface": (SurfaceBlock, "genus")}


def block_from_dict(d):
    kind = d.get("type")
    if kind == "trivial":
        return TRIVIAL_BLOCK
    if kind == "cyclic":
        return CYCLIC_BLOCK
    if kind not in _SIZED_BLOCKS:
        raise ValueError(f"unknown block type {kind!r}")
    cls, key = _SIZED_BLOCKS[kind]
    if not isinstance(d.get(key), int):
        raise ValueError(f"{kind} block needs an integer {key!r}, "
                         f"got {d.get(key)!r}")
    return cls(d[key])


def graph_from_dict(d):
    vertices = tuple(block_from_dict(b) for b in d["vertices"])
    edges = []
    for e in d["edges"]:
        block = block_from_dict(e.get("edge_block", {"type": "cyclic"}))
        src, tgt = e["source"], e["target"]
        iota = tau = ()
        if block.rank == 1:
            iota = (parse_word(e["iota_word"], vertices[src].local_names()),)
            tau = (parse_word(e["tau_word"], vertices[tgt].local_names()),)
        edges.append(Edge(src, tgt, block, iota, tau))
    return GraphOfGroups(vertices, tuple(edges))
