"""Permutation groups on {0..n-1} with a deterministic stabilizer chain.

Composition order: compose(p, q) applies p first, then q.  The stabilizer
chain is built by incremental Schreier-Sims on image tuples, with no
randomized sifting.  A level's base point is the least point moved by the
strong generator that opened it.  Each level keeps its strong generators in
insertion order and its orbit in discovery order; a new strong generator
extends the orbit in place, old points under the new generator and new
points under every generator, so transversal entries never change and
repeated runs build identical chains.  Each level stores its transversal and
the inverses, so a sift step is one gather.

Every product of image tuples, here and in the coset tables and covers
built over them, is one call of gather, which reads a whole tuple of
points through a single operator.itemgetter instead of one Python-level
lookup per point.  A word moves points through carry, which reads
generator images and their inverses in a coset table's column layout, so
chain levels and coset tables share it.
"""

import math
from operator import itemgetter


class Perm:
    """A permutation stored as its tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        # n distinct points of 0..n-1 are all of them
        if images and (min(images) < 0 or max(images) >= n or len(set(images)) < n):
            raise ValueError(f"not a permutation of 0..{n - 1}: {images}")
        self.images = images

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, point):
        return self.images[point]

    def is_identity(self):
        return self.images == tuple(range(len(self.images)))

    def __mul__(self, other):
        return compose(self, other)

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Perm({list(self.images)})"


def _trusted(images):
    """A Perm of a tuple already known to be a permutation, without the
    validity scan of Perm(...)."""
    p = Perm.__new__(Perm)
    p.images = images
    return p


def gather(seq, points):
    """The tuple (seq[x] for x in points) for a sequence of points, read
    through one itemgetter; for tuples p and q, gather(q, p) applies p
    and then q."""
    if len(points) > 1:
        return itemgetter(*points)(seq)
    # itemgetter() refuses no items and returns one item bare
    return (seq[points[0]],) if points else ()


def compose(p, q):
    """Apply p, then q: compose(p, q)(x) == q(p(x))."""
    if p.degree != q.degree:
        raise ValueError(f"degree mismatch {p.degree} != {q.degree}")
    return _trusted(gather(q.images, p.images))


def _invert(images):
    inverse = [0] * len(images)
    for i, x in enumerate(images):
        inverse[x] = i
    return tuple(inverse)


def inverse_perm(p):
    return _trusted(_invert(p.images))


def orbit(point, perms):
    """The orbit of point under the group the perms generate, in
    breadth-first order with the perms tried in the given order."""
    points = [point]
    seen = {point}
    for x in points:
        for p in perms:
            y = p.images[x]
            if y not in seen:
                seen.add(y)
                points.append(y)
    return points


def direct_sum_perm(perms):
    """Concatenate permutations acting on consecutive blocks of points."""
    images = []
    offset = 0
    for p in perms:
        images.extend(x + offset for x in p.images)
        offset += p.degree
    return Perm(images)


def gather_power(g, k, points):
    """gather(g^k, points) for a tuple g of images of every point and
    k >= 1, by binary powering: points is carried through g, g^2, g^4,
    ... at the set bits of k, so it costs O(len(g) log k) however large
    k is."""
    while True:
        if k & 1:
            points = gather(g, points)
        k >>= 1
        if not k:
            return points
        g = gather(g, g)


def carry(w, columns, points):
    """The tuple of points carried along a Word through columns laid out
    as a coset table's: generator g's images at columns[2g] and their
    inverse at columns[2g+1].

    A run g^k is one gather_power through the column of g or of its
    inverse, so it costs O(len(column) log |k|) however large k is."""
    for gen, exp in w.runs:
        points = gather_power(columns[2 * gen + (exp < 0)], abs(exp), points)
    return points


def trace_point(w, generator_images, x):
    """The image of the point x under a Word, through a list of generator
    images, without building the word's permutation.

    A run g^k moves x by k mod L along the cycle of g through x, of
    length L.  The cycle is walked from x until it closes, or for k steps
    when k is positive and smaller, so a run costs O(min(|k|, L)) for
    k > 0 and O(L) for k < 0, however large |k| is."""
    for gen, exp in w.runs:
        g = generator_images[gen].images
        cycle = [x]
        y = g[x]
        while y != x and (exp < 0 or len(cycle) <= exp):
            cycle.append(y)
            y = g[y]
        x = cycle[exp % len(cycle)]
    return x


class _Level:
    """One level of a stabilizer chain: its base point, the strong
    generators fixing every earlier base point (image tuples in insertion
    order, with their inverses), the orbit of the base point in discovery
    order, the transversal u[x] sending the base point to x and its inverse
    u_inv[x], and per generator the number of orbit points whose Schreier
    pair has been sifted."""

    __slots__ = ("base", "gens", "gens_inv", "orbit", "u", "u_inv", "done")

    def __init__(self, base, identity):
        self.base = base
        self.gens = []
        self.gens_inv = []
        self.orbit = [base]
        self.u = {base: identity}
        self.u_inv = {base: identity}
        self.done = []

    def add_generator(self, s, s_inv):
        """Extend the orbit in place: old points under s alone, new points
        under every generator.  Existing transversal entries never change."""
        self.gens.append(s)
        self.gens_inv.append(s_inv)
        self.done.append(0)
        orbit, u, u_inv = self.orbit, self.u, self.u_inv
        old = len(orbit)
        pairs = ((s, s_inv),)
        for k, x in enumerate(orbit):
            if k == old:
                pairs = tuple(zip(self.gens, self.gens_inv))
            for g, g_inv in pairs:
                y = g[x]
                if y not in u:
                    u[y] = gather(g, u[x])
                    u_inv[y] = gather(u_inv[x], g_inv)
                    orbit.append(y)


def _sift(levels, p, start):
    """Strip p through levels[start:]: (residue, level where it dropped
    out), the level being len(levels) when it fixes every base point."""
    for k in range(start, len(levels)):
        level = levels[k]
        x = p[level.base]
        if x != level.base:
            inv = level.u_inv.get(x)
            if inv is None:
                return p, k
            p = gather(inv, p)
    return p, len(levels)


def _unsifted_residue(levels, i):
    """Sift the Schreier pairs u[x] s u[s(x)]^-1 of level i not yet sifted
    through the levels past i.  Returns the first residue that is not the
    identity with the level it dropped out at, or None."""
    level = levels[i]
    u, u_inv, orbit, done = level.u, level.u_inv, level.orbit, level.done
    identity = u[level.base]
    for k, s in enumerate(level.gens):
        while done[k] < len(orbit):
            x = orbit[done[k]]
            done[k] += 1
            p = gather(s, u[x])
            y = s[x]
            if p != u[y]:
                residue, j = _sift(levels, gather(u_inv[y], p), i + 1)
                if residue != identity:
                    return residue, j
    return None


class PermGroup:
    """Group generated by permutations, with a cached stabilizer chain."""

    def __init__(self, degree, generators):
        if degree < 1:
            raise ValueError(f"degree must be positive, got {degree}")
        self.degree = degree
        gens = []
        for g in generators:
            if g.degree != degree:
                raise ValueError(f"generator degree {g.degree} != group degree {degree}")
            if not g.is_identity() and g not in gens:
                gens.append(g)
        self.generators = tuple(gens)
        self._chain = None

    def _stabilizer_chain(self):
        """Incremental deterministic Schreier-Sims.  Levels are verified
        from the deepest up: once every level past i is complete and every
        Schreier pair of level i sifts to the identity through them, level i
        is complete.  A residue that drops out at level j joins levels
        i+1..j (a new level when j is past the end) and verification
        resumes at j.  Transversal entries never change, so a pair that
        sifted to the identity once still does, and each is sifted once.
        """
        if self._chain is not None:
            return self._chain
        identity = tuple(range(self.degree))
        levels = []

        def add_strong(p, first, last):
            if last == len(levels):
                base = next(x for x, y in enumerate(p) if x != y)
                levels.append(_Level(base, identity))
            p_inv = _invert(p)
            for level in levels[first:last + 1]:
                level.add_generator(p, p_inv)

        for g in self.generators:
            residue, j = _sift(levels, g.images, 0)
            if residue != identity:
                add_strong(residue, 0, j)
        i = len(levels) - 1
        while i >= 0:
            found = _unsifted_residue(levels, i)
            if found is None:
                i -= 1
            else:
                residue, j = found
                add_strong(residue, i + 1, j)
                i = j
        self._chain = levels
        return levels

    def order(self):
        return math.prod(len(level.orbit) for level in self._stabilizer_chain())

    def base(self):
        """The stabilizer chain's base points, fixed only by the identity."""
        return tuple(level.base for level in self._stabilizer_chain())

    def contains(self, p):
        if p.degree != self.degree:
            return False
        residue, _ = _sift(self._stabilizer_chain(), p.images, 0)
        return residue == tuple(range(self.degree))


def subgroup_index(group, subgroup_gens):
    """Index [G : H] for H generated by subgroup_gens, all of which must lie in G."""
    for h in subgroup_gens:
        if not group.contains(h):
            raise ValueError(f"purported subgroup generator {h!r} is not in the group")
    sub_order = PermGroup(group.degree, subgroup_gens).order()
    order = group.order()
    quotient, remainder = divmod(order, sub_order)
    if remainder:
        raise AssertionError(f"Lagrange failure: {order} not divisible by {sub_order}")
    return quotient
