"""Exhausting chains of finite-index normal subgroups.

A chain records a group together with a descending sequence of finite-index
normal subgroups, each given as the kernel of a map onto a finite permutation
group.  Levels carry the generator images, so downstream code can rebuild
coset tables, covering complexes, and volume data without re-running any
search.  Whether a chain actually exhausts the group (intersection trivial)
is not decidable here; constructors only certify nesting.
"""

import itertools
import math
from dataclasses import dataclass, replace
from functools import reduce

from .cosets import (CosetTable, DEFAULT_MAX_COSETS, low_index_subgroups,
                     perm_rep, regular_action_table, schreier_generators)
from .errors import InvariantViolation, ResourceExhausted
from .permgrp import (Perm, PermGroup, direct_sum_perm, embed_perm,
                      identity_perm, inverse_perm, word_image)
from .words import abelianized_relator_matrix, product_presentation

# diagonal nesting certificates and order recomputation are only run when the
# permutation degree is comfortable; larger levels rely on the constructor's
# divisibility guarantees and say so in the notes
ORDER_CHECK_LIMIT = 600
NESTING_CHECK_LIMIT = 2000
DEFAULT_MAX_COVER_INDEX = 5000


@dataclass(frozen=True)
class ChainLevel:
    """One finite quotient: the image group, generator images, the index of
    the kernel, and a human-readable construction tag."""

    quotient: PermGroup
    images: tuple
    index: int
    provenance: str


@dataclass(frozen=True)
class Chain:
    """Descending chain of kernels.  group is the ambient presentation, or
    None for shadow chains that only track indices inside a subgroup.
    factors holds the factor chains of a product chain, level by level."""

    group: object
    levels: tuple
    notes: tuple = ()
    nesting_certified: bool = False
    factors: tuple = ()

    def indices(self):
        return tuple(level.index for level in self.levels)

    def validate(self):
        if not self.levels:
            raise ValueError("chain has no levels")
        width = len(self.levels[0].images)
        if self.group is not None and width != self.group.num_generators:
            raise InvariantViolation(f"level carries {width} images for "
                                     f"{self.group.num_generators} generators")
        last = 0
        for n, level in enumerate(self.levels):
            if len(level.images) != width:
                raise InvariantViolation(f"level {n} image count changed")
            if level.index <= last:
                raise InvariantViolation(f"level {n} index {level.index} does "
                                         f"not increase past {last}")
            last = level.index
            if self.group is not None:
                ident = identity_perm(level.quotient.degree)
                for j, r in enumerate(self.group.relators):
                    if word_image(r, level.images) != ident:
                        raise InvariantViolation(
                            f"relator {j} survives in level {n} quotient")
            if level.quotient.degree <= ORDER_CHECK_LIMIT:
                order = level.quotient.order()
                if order != level.index:
                    raise InvariantViolation(f"level {n} index {level.index} "
                                             f"!= quotient order {order}")
        for n in range(len(self.levels) - 1):
            a, b = self.levels[n], self.levels[n + 1]
            if a.quotient.degree + b.quotient.degree <= NESTING_CHECK_LIMIT:
                if not _kernel_contained(b, a):
                    raise InvariantViolation(
                        f"level {n + 1} kernel is not contained in level {n}")
            elif not self.nesting_certified:
                raise ResourceExhausted(
                    f"nesting check between levels {n} and {n + 1} needs "
                    f"{a.quotient.degree + b.quotient.degree} points",
                    limit=NESTING_CHECK_LIMIT)
        return self


def _kernel_contained(fine, coarse):
    """ker(fine) <= ker(coarse), decided by the order of the diagonal image.

    The map g -> (fine(g), coarse(g)) has image of order [G : ker f ^ ker c];
    that equals the fine index exactly when the fine kernel sits inside the
    coarse one.  The smaller block goes first to keep base points shallow.
    """
    blocks = [(fine.quotient.degree, fine.images), (coarse.quotient.degree, coarse.images)]
    blocks.sort(key=lambda pair: pair[0])
    gens = tuple(direct_sum_perm((u, v))
                 for u, v in zip(blocks[0][1], blocks[1][1]))
    degree = blocks[0][0] + blocks[1][0]
    return PermGroup(degree, gens).order() == fine.index


def _make_chain(group, levels, notes, certified):
    kept = []
    extra = list(notes)
    for level in levels:
        if kept and level.index <= kept[-1].index:
            extra.append(f"dropped level with index {level.index} after "
                         f"{kept[-1].index}: chain stalled")
            continue
        kept.append(level)
    if not kept:
        raise ValueError("no usable levels: every quotient was trivial")
    for n in range(len(kept) - 1):
        d = kept[n].quotient.degree + kept[n + 1].quotient.degree
        if d > NESTING_CHECK_LIMIT and certified:
            extra.append(f"nesting between levels {n} and {n + 1} certified "
                         "by construction (degree too large to recheck)")
    chain = Chain(group, tuple(kept), tuple(extra), certified)
    return chain.validate()


def _require_ladder(moduli):
    if not moduli:
        raise ValueError("need at least one modulus")
    for m in moduli:
        if m < 1:
            raise ValueError(f"modulus {m} must be positive")
    for a, b in zip(moduli, moduli[1:]):
        if b % a != 0:
            raise ValueError(f"moduli must form a divisibility ladder, "
                             f"{a} does not divide {b}")


def core_chain(p, bounds, max_nodes=None):
    """Kernels of the action on every coset space of index up to each bound.

    The level quotient is the image of the group acting on the disjoint
    union of all coset spaces found by the low-index search, so its kernel
    is the intersection of the normal cores of every subgroup of index at
    most the bound.  Increasing bounds give nested kernels for free.
    """
    if list(bounds) != sorted(set(bounds)):
        raise ValueError(f"bounds must be strictly increasing, got {bounds!r}")
    levels = []
    for bound in bounds:
        if max_nodes is None:
            tables = low_index_subgroups(p, bound)
        else:
            tables = low_index_subgroups(p, bound, max_nodes)
        reps = [perm_rep(t)[1] for t in tables]
        images = tuple(direct_sum_perm(tuple(r[g] for r in reps))
                       for g in range(p.num_generators))
        degree = sum(len(t.table) for t in tables)
        quotient = PermGroup(degree, images)
        levels.append(ChainLevel(quotient, images, quotient.order(),
                                 f"core of all subgroups of index <= {bound}"))
    return _make_chain(p, levels, (), certified=True)


def _hermite_form(rows, n):
    """Row-style Hermite normal form of the lattice the rows span in Z^n.

    The input must have full column rank.  Returns an upper triangular n x n
    matrix with positive diagonal and entries above each pivot reduced into
    [0, pivot)."""
    work = [list(r) for r in rows]
    h = []
    for col in range(n):
        live = [r for r in work if any(r[col:])]
        # euclidean elimination in this column
        while True:
            nz = [r for r in live if r[col] != 0]
            if not nz:
                raise InvariantViolation(f"column {col} lost its pivot")
            pivot_row = min(nz, key=lambda r: abs(r[col]))
            done = True
            for r in nz:
                if r is pivot_row:
                    continue
                q = r[col] // pivot_row[col]
                for j in range(col, n):
                    r[j] -= q * pivot_row[j]
                if r[col] != 0:
                    done = False
            if done:
                break
        if pivot_row[col] < 0:
            for j in range(col, n):
                pivot_row[j] = -pivot_row[j]
        h.append(pivot_row)
        live.remove(pivot_row)
        work = live
    # reduce entries above each diagonal into canonical range, sweeping
    # pivot columns left to right so finished columns stay put
    for i in range(1, n):
        for k in range(i):
            q = h[k][i] // h[i][i]
            if q:
                for j in range(i, n):
                    h[k][j] -= q * h[i][j]
    return h


def _box_reduce(x, h, n):
    """Canonical representative of x modulo the row lattice of h."""
    y = list(x)
    for i in range(n):
        q = y[i] // h[i][i]
        if q:
            for j in range(i, n):
                y[j] -= q * h[i][j]
    return tuple(y)


def homology_cover_chain(p, moduli, max_index=DEFAULT_MAX_COVER_INDEX):
    """Kernels of the maps onto first homology with coefficients mod m.

    The quotient is Z^n modulo relator exponent rows and m, presented as a
    translation action on the canonical box of its Hermite form.  Moduli
    must form a divisibility ladder so the kernels nest.  These covers are
    built directly from integer linear algebra; no coset enumeration runs.
    """
    _require_ladder(moduli)
    n = p.num_generators
    relator_rows = abelianized_relator_matrix(p)
    levels = []
    for m in moduli:
        rows = [list(r) for r in relator_rows]
        for i in range(n):
            rows.append([m if j == i else 0 for j in range(n)])
        h = _hermite_form(rows, n)
        index = 1
        for i in range(n):
            index *= h[i][i]
        if index > max_index:
            raise ResourceExhausted(f"homology cover mod {m} has index {index}",
                                    limit=max_index, reached=index)
        box = list(itertools.product(*[range(h[i][i]) for i in range(n)]))
        position = {pt: k for k, pt in enumerate(box)}
        images = []
        for g in range(n):
            images.append(Perm(tuple(
                position[_box_reduce(tuple(pt[j] + (1 if j == g else 0)
                                           for j in range(n)), h, n)]
                for pt in box)))
        images = tuple(images)
        quotient = PermGroup(index, images)
        levels.append(ChainLevel(quotient, images, index,
                                 f"first homology cover mod {m}"))
    return _make_chain(p, levels, (), certified=True)


def cyclic_cover_chain(p, weights, moduli):
    """Kernels of weighted degree maps onto Z/m.

    weights maps generator names to integers; unnamed generators weigh 0.
    Every relator must have weighted exponent sum divisible by each modulus,
    and the moduli must form a divisibility ladder.
    """
    _require_ladder(moduli)
    unknown = set(weights) - set(p.generator_names)
    if unknown:
        raise ValueError(f"weights name unknown generators {sorted(unknown)}")
    w = [weights.get(name, 0) for name in p.generator_names]
    levels = []
    for m in moduli:
        for j, row in enumerate(abelianized_relator_matrix(p)):
            s = sum(wi * e for wi, e in zip(w, row))
            if s % m != 0:
                raise ValueError(f"relator {j} has weighted sum {s}, "
                                 f"not divisible by {m}")
        images = tuple(Perm(tuple((x + wi) % m for x in range(m))) for wi in w)
        quotient = PermGroup(m, images)
        g = reduce(math.gcd, w, m)
        levels.append(ChainLevel(quotient, images, m // g,
                                 f"cyclic cover mod {m}"))
    return _make_chain(p, levels, (), certified=True)


def product_chain(factor_chains, presentation=None):
    """Levelwise product of chains, one block of points per factor.

    The resulting kernel at each level is the product of the factor kernels
    inside the direct product group.  Factors are truncated to the shortest
    chain.  If no presentation is supplied, the factor presentations are
    combined with commuting relators in factor order.
    """
    if not factor_chains:
        raise ValueError("need at least one factor chain")
    if presentation is None:
        groups = [c.group for c in factor_chains]
        if any(g is None for g in groups):
            raise ValueError("every factor needs a presentation to build the product")
        presentation = product_presentation(groups)
    depth = min(len(c.levels) for c in factor_chains)
    notes = []
    if any(len(c.levels) != depth for c in factor_chains):
        notes.append(f"factors truncated to {depth} common levels")
    levels = []
    for k in range(depth):
        parts = [c.levels[k] for c in factor_chains]
        degrees = [lvl.quotient.degree for lvl in parts]
        total = sum(degrees)
        images = []
        offset = 0
        for lvl in parts:
            for img in lvl.images:
                images.append(embed_perm(img, offset, total))
            offset += lvl.quotient.degree
        images = tuple(images)
        index = 1
        for lvl in parts:
            index *= lvl.index
        quotient = PermGroup(total, images)
        levels.append(ChainLevel(
            quotient, images, index,
            " x ".join(lvl.provenance for lvl in parts)))
    certified = all(c.nesting_certified for c in factor_chains)
    return replace(_make_chain(presentation, levels, notes, certified),
                   factors=tuple(factor_chains))


def fiber_restrict(ambient_chain, subgroup_words, label="subgroup"):
    """Shadow of a chain inside a finitely generated subgroup.

    Each level maps the subgroup generators through the ambient quotient;
    the order of their image is the index [H : H ^ B_n].  The result carries
    no presentation, so it reports indices only; homology and volume readers
    must be given something with relators.
    """
    if not subgroup_words:
        raise ValueError("need at least one subgroup generator word")
    levels = []
    for level in ambient_chain.levels:
        h_images = tuple(word_image(wd, level.images) for wd in subgroup_words)
        quotient = PermGroup(level.quotient.degree, h_images)
        idx = quotient.order()
        levels.append(ChainLevel(quotient, h_images, idx,
                                 f"shadow of {label} in {level.provenance}"))
    notes = [f"shadow chain: indices are [H : H ^ B_n] for {label}; "
             "no presentation is carried"]
    return _make_chain(None, levels, notes, ambient_chain.nesting_certified)


def kernel_generator_words(p, images, max_order=DEFAULT_MAX_COSETS):
    """Generator words for the kernel of the map sending generators to the
    given permutations, read off a Schreier transversal of the image."""
    return regular_action_table(p, images, max_order).subgroup_words


def level_coset_table(p, level, max_cosets=DEFAULT_MAX_COSETS):
    """Coset table of the level kernel, one row per quotient element.

    When the level's permutation action is already regular on the orbit of
    point 0 the table is read straight off the images; otherwise the image
    group is enumerated elementwise.
    """
    if level.index > max_cosets:
        raise ResourceExhausted(f"level index {level.index} exceeds the "
                                f"coset budget", limit=max_cosets,
                                reached=level.index)
    inverses = [inverse_perm(img) for img in level.images]
    order = [0]
    position = {0: 0}
    for pt in order:
        for img in level.images:
            nxt = img.images[pt]
            if nxt not in position:
                position[nxt] = len(order)
                order.append(nxt)
    if len(order) != level.index:
        return regular_action_table(p, level.images, max_order=max_cosets)
    rows = []
    for pt in order:
        row = []
        for g in range(len(level.images)):
            row.append(position[level.images[g].images[pt]])
            row.append(position[inverses[g].images[pt]])
        rows.append(row)
    bare = CosetTable(p, (), rows)
    table = CosetTable(p, tuple(schreier_generators(bare)), rows)
    table.validate()
    return table
