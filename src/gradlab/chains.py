"""Exhausting chains of finite-index normal subgroups.

A chain records a group together with a descending sequence of finite-index
normal subgroups, each given as the kernel of a map onto a finite permutation
group.  Levels carry the generator images, so downstream code can rebuild
coset tables, covering complexes, and volume data without re-running any
search.  Every level's table, regular, product or core, is read off one
walk over the images of a base and certified by its row count; on a
regular level that walk is the orbit of 0 that validation walked, so the
level's points are walked breadth first once.  A homology cover's
images are translations on the product of cyclic groups that
homology.diagonalize reads off its relator rows.  Whether a chain
actually exhausts the group (intersection trivial) is not decidable here.
Chain.validate certifies every nesting by orbit maps, and every level's
index by orbit maps, by the factor levels of a product chain, or on any
other level by Schreier-Sims, at any degree.  On a regular level an image
that commutes with every image is its own orbit map, a witness that needs
no walk, and each relator is checked by the point it sends 0 to.  A
level's words and its coset table read one set of columns, its images and
their inverses in a table's layout, through permgrp.carry.
"""

import math
from functools import cached_property, reduce

from .cosets import (DEFAULT_MAX_COSETS, base_orbit, low_index_subgroups,
                     perm_rep, regular_action_table)
from .errors import InvariantViolation, ResourceExhausted
from .homology import diagonalize
from .permgrp import (Perm, PermGroup, carry, direct_sum_perm, gather,
                      inverse_perm, orbit, trace_point)
from .words import abelianized_relator_matrix


class ChainLevel:
    """One finite quotient, given by its generator images on `degree`
    points, with the index of its kernel (None means the order of the group
    the images generate) and a human-readable construction tag.

    The level answers for its quotient: satisfies tests a relator, image
    is a word's permutation and order_of reads the order of a subgroup.
    Its orbits and columns are worked out once, on first use.  It is
    regular when the orbit of 0 has `index` points; once Chain.validate
    has certified that, only the identity fixes 0, and the level never
    builds `quotient`, the PermGroup of its images, whose stabilizer chain
    only other levels need.
    """

    def __init__(self, degree, images, index, provenance):
        self.degree = degree
        self.images = images
        self.provenance = provenance
        self.index = self.quotient.order() if index is None else index

    @cached_property
    def quotient(self):
        return PermGroup(self.degree, self.images)

    @cached_property
    def orbit_of_0(self):
        """The points of the orbit of 0, in breadth-first order; on a
        regular level, level_coset_table numbers its cosets by it."""
        return tuple(orbit(0, self.images))

    @cached_property
    def orbits(self):
        """The size of every orbit of the images, keyed by its least point,
        least points in increasing order; one orbit when the orbit of 0
        already has every point."""
        if len(self.orbit_of_0) == self.degree:
            return {0: self.degree}
        seen = [False] * self.degree
        sizes = {}
        for x in range(len(seen)):
            if not seen[x]:
                points = orbit(x, self.images) if x else self.orbit_of_0
                sizes[x] = len(points)
                for y in points:
                    seen[y] = True
        return sizes

    @property
    def regular(self):
        return self.orbits[0] == self.index

    @cached_property
    def columns(self):
        """The images and their inverses in a coset table's layout: image g
        at 2g, its inverse at 2g+1."""
        return tuple(c for s in self.images
                     for c in (s.images, inverse_perm(s).images))

    def image(self, word):
        """The permutation of the points that word induces, every point
        carried along it by permgrp.carry."""
        return Perm(carry(word, self.columns, tuple(range(self.degree))))

    def satisfies(self, word):
        """Whether word dies in the quotient: on a regular level, whether it
        fixes 0, which permgrp.trace_point reads off its runs, one cycle per
        run, with no inverse; on any other level, whether its image is the
        identity."""
        if self.regular:
            return trace_point(word, self.images, 0) == 0
        return self.image(word).is_identity()

    def order_of(self, images):
        """The order of the group that images, permutations of the level's
        points in its quotient, generate: the certified index when they
        are the level's own images; on a regular level, where only the
        identity fixes 0, the size of their orbit of 0; on any other (a
        core or product level, say) by Schreier-Sims."""
        if tuple(images) == self.images:
            return self.index
        if self.regular:
            return len(orbit(0, images))
        return PermGroup(self.degree, images).order()


class Chain:
    """Descending chain of kernels.  group is the ambient presentation, or
    None for shadow chains that only track indices inside a subgroup.
    factors holds the factor chains of a product chain, level by level."""

    __slots__ = ("group", "levels", "notes", "factors")

    def __init__(self, group, levels, notes=(), factors=()):
        self.group = group
        self.levels = levels
        self.notes = notes
        self.factors = factors

    def indices(self):
        return tuple(level.index for level in self.levels)

    def validate(self):
        """Certify every level's index, relators and every nesting, or raise
        InvariantViolation.

        An orbit map x.w -> y.w is well defined exactly when every word
        fixing x fixes y.  A regular level, one whose orbit of 0 has
        `index` points, must map 0 onto 0.s for every generator s, so its
        stabilizer of 0 is normal, and onto the least point of every other
        orbit, so that stabilizer is the kernel and the quotient has
        `index` elements.  An image s that commutes with every image on the
        orbit of 0 is itself the map onto 0.s, a witness that needs no walk
        (see _witnessed); only the other targets are walked.  Once a
        level's index is certified, ChainLevel.satisfies checks each relator.
        The orbits are worked out once per level, and the images' degrees
        are checked before any walk.
        A level of a product chain must hold each factor's level n on a
        block of its own: image j is the factor's image, moved to the
        factor's block and fixing every other point, and the index must be
        the product of the factor indices.  Factor chains are validated
        when they are built, so that index is certified at any degree.
        Any other level's index must be its quotient's order, by
        Schreier-Sims at any degree; a core or fiber level's index is that
        order by construction, so there the check reads the cached chain.
        Nesting needs, for each coarse orbit, a fine orbit whose least point
        maps onto the coarse least point; the fine kernel then fixes every
        coarse point.  Every constructor here yields such a witness.  A
        hand-built pair whose kernels nest without one is rejected: a false
        alarm, never a false pass.  The walks from one level share one list
        over its points, so each costs the orbit it walks.
        """
        if not self.levels:
            raise ValueError("chain has no levels")
        width = len(self.levels[0].images)
        if self.group is not None and width != self.group.num_generators:
            raise InvariantViolation(f"level carries {width} images for "
                                     f"{self.group.num_generators} generators")
        if any(len(c.levels) < len(self.levels) for c in self.factors):
            raise InvariantViolation("a factor chain has fewer levels than "
                                     "its product")
        last = 0
        blanks = []
        for n, level in enumerate(self.levels):
            if len(level.images) != width:
                raise InvariantViolation(f"level {n} image count changed")
            if level.index <= last:
                raise InvariantViolation(f"level {n} index {level.index} does "
                                         f"not increase past {last}")
            last = level.index
            if any(s.degree != level.degree for s in level.images):
                raise InvariantViolation(f"level {n} images do not act on "
                                         f"its {level.degree} points")
            blanks.append([-1] * level.degree)
            if self.factors:
                parts = [c.levels[n] for c in self.factors]
                if level.images != _block_images(parts):
                    raise InvariantViolation(f"level {n} does not hold its "
                                             "factor levels on blocks of "
                                             "their own")
                index = math.prod(p.index for p in parts)
                if level.index != index:
                    raise InvariantViolation(
                        f"level {n} index {level.index} != {index}, the "
                        "product of its factor indices")
            elif level.regular:
                targets = ({s.images[0] for s in level.images}
                           | level.orbits.keys()) - _witnessed(level)
                if not all(_maps_onto(level, level, 0, y, blanks[n])
                           for y in targets):
                    raise InvariantViolation(
                        f"level {n} has an orbit of {level.index} points "
                        "but does not act regularly on it")
            else:
                order = level.quotient.order()
                if order != level.index:
                    raise InvariantViolation(f"level {n} index {level.index} "
                                             f"!= quotient order {order}")
            if self.group is not None:
                for j, r in enumerate(self.group.relators):
                    if not level.satisfies(r):
                        raise InvariantViolation(
                            f"relator {j} survives in level {n} quotient")
        for n in range(len(self.levels) - 1):
            a, b = self.levels[n], self.levels[n + 1]
            for c in a.orbits:
                if not any(_maps_onto(b, a, f, c, blanks[n + 1])
                           for f in b.orbits):
                    raise InvariantViolation(
                        f"level {n + 1} kernel is not contained in level {n}")
        return self


def _block_images(parts):
    """The images of factor levels side by side, each the direct sum of a
    factor's image on its own block with the identity on every other."""
    blocks = [Perm(range(part.degree)) for part in parts]
    return tuple(direct_sum_perm(blocks[:k] + [s] + blocks[k + 1:])
                 for k, part in enumerate(parts) for s in part.images)


def _witnessed(level):
    """0 and the points 0.s of the images s that commute with every image
    on the orbit of 0, where such an s is itself the orbit map
    0.w -> 0.s.w, well defined without a walk.  Each pair of images is
    compared once, by two gathers over the orbit of 0 (over every point
    when the orbit is all of them), so the check costs the orbit, not the
    degree; a pair whose images are both known to be no witness is
    skipped."""
    images = [s.images for s in level.images]
    if level.orbits[0] == level.degree:
        on_orbit = images
    else:
        on_orbit = [gather(s, level.orbit_of_0) for s in images]
    central = [True] * len(images)
    for i, s in enumerate(images):
        for j in range(i + 1, len(images)):
            if ((central[i] or central[j])
                    and gather(images[j], on_orbit[i])
                    != gather(s, on_orbit[j])):
                central[i] = central[j] = False
    return {0} | {s[0] for s, c in zip(images, central) if c}


def _maps_onto(src, dst, x, y, image):
    """Whether x.w -> y.w is well defined on the orbit of x under the src
    level's images, that is, whether every word fixing x under src fixes y
    under dst.  The orbit is walked breadth first, its images written into
    image, a list of -1 over src's points, which the walk leaves as it
    found it; so a walk costs its orbit, not src's degree."""
    image[x] = y
    queue = [x]
    pairs = [(s.images, t.images) for s, t in zip(src.images, dst.images)]
    try:
        for p in queue:
            q = image[p]
            for s, t in pairs:
                z = s[p]
                if image[z] < 0:
                    image[z] = t[q]
                    queue.append(z)
                elif image[z] != t[q]:
                    return False
        return True
    finally:
        for p in queue:
            image[p] = -1


def _make_chain(group, levels, notes, factors=()):
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
    return Chain(group, tuple(kept), tuple(extra), factors).validate()


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


def core_chain(p, bounds, max_cosets=DEFAULT_MAX_COSETS):
    """Kernels of the action on every coset space of index up to each bound.

    The level quotient is the image of the group acting on the disjoint
    union of all coset spaces found by the low-index search, so its kernel
    is the intersection of the normal cores of every subgroup of index at
    most the bound.  Increasing bounds give nested kernels for free.
    max_cosets, the coset budget, bounds each low-index search.
    """
    if list(bounds) != sorted(set(bounds)):
        raise ValueError(f"bounds must be strictly increasing, got {bounds!r}")
    levels = []
    for bound in bounds:
        tables = low_index_subgroups(p, bound, max_cosets)
        reps = [perm_rep(t)[1] for t in tables]
        images = tuple(direct_sum_perm(tuple(r[g] for r in reps))
                       for g in range(p.num_generators))
        levels.append(ChainLevel(sum(t.num_cosets for t in tables), images,
                                 None,
                                 f"core of all subgroups of index <= {bound}"))
    return _make_chain(p, levels, ())


def homology_cover_chain(p, moduli, max_index=DEFAULT_MAX_COSETS):
    """Kernels of the maps onto first homology with coefficients mod m.

    The quotient is Z^n modulo relator exponent rows and m.  A diagonal
    form d of those rows, with column operations v, carries it onto the
    product of the Z/d_i: generator g translates by row g of v.  A point y
    sits at position sum y_i s_i, in mixed radix with stride s_i =
    d_{i+1} ... d_{n-1}, so a factor Z/1 adds nothing.  Adding t to digit
    i rotates each block of d_i s_i positions by t s_i.  Each image is cut
    from one tuple of positions by these rotations, so the images of a
    level share one set of int objects.  Moduli must form a divisibility
    ladder so the kernels nest.  These covers are built directly from
    integer linear algebra; no coset enumeration runs.  A level whose
    index passes max_index, the coset budget, raises ResourceExhausted
    before its points are built.
    """
    _require_ladder(moduli)
    n = p.num_generators
    relator_rows = abelianized_relator_matrix(p)
    levels = []
    for m in moduli:
        rows = relator_rows + [[m if j == i else 0 for j in range(n)]
                               for i in range(n)]
        diagonal, v = diagonalize(rows, n)
        index = math.prod(diagonal)
        if index > max_index:
            raise ResourceExhausted(f"homology cover mod {m} has index {index}, "
                                    f"above the coset budget {max_index}")
        points = tuple(range(index))
        images = []
        for shift in v:
            image, block = points, index
            for t, d in zip(shift, diagonal):
                stride = block // d
                t = t % d * stride
                if t:
                    rotated = []
                    for b in range(0, index, block):
                        rotated += image[b + t:b + block]
                        rotated += image[b:b + t]
                    image = rotated
                block = stride
            images.append(Perm(image))
        levels.append(ChainLevel(index, tuple(images), index,
                                 f"first homology cover mod {m}"))
    return _make_chain(p, levels, ())


def cyclic_cover_chain(p, weights, moduli, max_index=DEFAULT_MAX_COSETS):
    """Kernels of weighted degree maps onto Z/m.

    weights maps generator names to integers; unnamed generators weigh 0.
    Every relator must have weighted exponent sum divisible by each modulus,
    and the moduli must form a divisibility ladder.  A level acts on m
    points, so a modulus above max_index, the coset budget, raises
    ResourceExhausted before its points are built.
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
        if m > max_index:
            raise ResourceExhausted(f"cyclic cover mod {m} acts on {m} points, "
                                    f"above the coset budget {max_index}")
        images = tuple(Perm(tuple((x + wi) % m for x in range(m))) for wi in w)
        g = reduce(math.gcd, w, m)
        levels.append(ChainLevel(m, images, m // g, f"cyclic cover mod {m}"))
    return _make_chain(p, levels, ())


def product_chain(factor_chains, presentation):
    """Levelwise product of chains, one block of points per factor, over
    the product group's presentation.

    The resulting kernel at each level is the product of the factor kernels
    inside the direct product group.  Factors are truncated to the shortest
    chain.
    """
    if not factor_chains:
        raise ValueError("need at least one factor chain")
    depth = min(len(c.levels) for c in factor_chains)
    notes = []
    if any(len(c.levels) != depth for c in factor_chains):
        notes.append(f"factors truncated to {depth} common levels")
    levels = []
    for k in range(depth):
        parts = [c.levels[k] for c in factor_chains]
        levels.append(ChainLevel(
            sum(lvl.degree for lvl in parts), _block_images(parts),
            math.prod(lvl.index for lvl in parts),
            " x ".join(lvl.provenance for lvl in parts)))
    return _make_chain(presentation, levels, notes, tuple(factor_chains))


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
        h_images = tuple(level.image(wd) for wd in subgroup_words)
        levels.append(ChainLevel(level.degree, h_images, None,
                                 f"shadow of {label} in {level.provenance}"))
    notes = [f"shadow chain: indices are [H : H ^ B_n] for {label}; "
             "no presentation is carried"]
    return _make_chain(None, levels, notes)


def level_coset_table(p, level, max_cosets=DEFAULT_MAX_COSETS):
    """Coset table of the level kernel, one row per quotient element, read
    by regular_action_table off a walk over the images of a base.

    On a regular level the base is (0,) and the walk is the cached orbit
    of 0, the one Chain.validate walked: by orbit and stabilizer, only the
    identity then fixes 0.  Otherwise the base is the quotient's
    Schreier-Sims base, which core and fiber levels have cached, walked by
    cosets.base_orbit within the coset budget.  Chain.validate has
    certified `index` as the quotient's order, so a table of `index` rows
    proves that only the identity fixes the base; any other row count
    raises InvariantViolation.
    """
    if level.index > max_cosets:
        raise ResourceExhausted(f"level index {level.index} exceeds the "
                                f"coset budget {max_cosets}")
    if level.regular:
        base = (0,)
        table = regular_action_table(p, level.columns, level.orbit_of_0)
    else:
        base = level.quotient.base()
        table = regular_action_table(
            p, level.columns, base_orbit(level.images, base, max_cosets))
    if table.num_cosets != level.index:
        raise InvariantViolation(f"walking the images of base {base} gave "
                                 f"{table.num_cosets} cosets, not the level "
                                 f"index {level.index}")
    return table
