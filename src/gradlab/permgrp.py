"""Permutation groups on {0..n-1} with a deterministic stabilizer chain.

Composition order: compose(p, q) applies p first, then q.  All chain
construction is deterministic (no randomized sifting): base points are the
smallest moved points, orbits grow breadth first with generators tried in
insertion order, so repeated runs build identical transversals.
"""


class Perm:
    """A permutation stored as its tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        seen = [False] * len(images)
        for x in images:
            if not 0 <= x < len(images) or seen[x]:
                raise ValueError(f"not a permutation of 0..{len(images) - 1}: {images}")
            seen[x] = True
        self.images = images

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, point):
        return self.images[point]

    def is_identity(self):
        return all(i == x for i, x in enumerate(self.images))

    def __mul__(self, other):
        return compose(self, other)

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Perm({list(self.images)})"


def identity_perm(degree):
    return Perm(range(degree))


def compose(p, q):
    """Apply p, then q: compose(p, q)(x) == q(p(x))."""
    if p.degree != q.degree:
        raise ValueError(f"degree mismatch {p.degree} != {q.degree}")
    qi = q.images
    return Perm(tuple(qi[x] for x in p.images))


def inverse_perm(p):
    images = [0] * p.degree
    for i, x in enumerate(p.images):
        images[x] = i
    return Perm(images)


def perm_from_cycles(cycles, degree):
    """Build a Perm from disjoint cycles, e.g. [(0, 1, 2)] sends 0->1->2->0."""
    images = list(range(degree))
    for cycle in cycles:
        for i, point in enumerate(cycle):
            images[point] = cycle[(i + 1) % len(cycle)]
    return Perm(images)


def direct_sum_perm(perms):
    """Concatenate permutations acting on consecutive blocks of points."""
    images = []
    offset = 0
    for p in perms:
        images.extend(x + offset for x in p.images)
        offset += p.degree
    return Perm(images)


def embed_perm(p, offset, total_degree):
    """Extend p by the identity outside [offset, offset + degree)."""
    images = list(range(total_degree))
    for i, x in enumerate(p.images):
        images[offset + i] = offset + x
    return Perm(images)


def word_image(w, generator_images):
    """Evaluate a Word through a list of generator images."""
    if not generator_images:
        raise ValueError("no generator images")
    out = identity_perm(generator_images[0].degree)
    inverses = {}
    for gen, sign in w.letters():
        if sign > 0:
            out = compose(out, generator_images[gen])
        else:
            if gen not in inverses:
                inverses[gen] = inverse_perm(generator_images[gen])
            out = compose(out, inverses[gen])
    return out


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

    # chain levels are (base_point, level_generators, transversal) where the
    # transversal maps each orbit point to a perm sending base_point there

    def _stabilizer_chain(self):
        if self._chain is not None:
            return self._chain
        base = []
        strong = []

        def min_moved(p):
            for i, x in enumerate(p.images):
                if x != i:
                    return i
            raise AssertionError("identity has no moved point")

        def add_strong(p):
            strong.append(p)
            k = 0
            while k < len(base) and p.images[base[k]] == base[k]:
                k += 1
            if k == len(base):
                base.append(min_moved(p))
            return k

        for g in self.generators:
            add_strong(g)

        levels = {}

        def build_level(i):
            gens_i = [g for g in strong if all(g.images[b] == b for b in base[:i])]
            b = base[i]
            transversal = {b: identity_perm(self.degree)}
            queue = [b]
            head = 0
            while head < len(queue):
                point = queue[head]
                head += 1
                for g in gens_i:
                    img = g.images[point]
                    if img not in transversal:
                        transversal[img] = compose(transversal[point], g)
                        queue.append(img)
            levels[i] = (b, gens_i, transversal)

        def strip(p, start):
            for i in range(start, len(base)):
                x = p.images[base[i]]
                if x == base[i]:
                    continue
                t = levels[i][2]
                if x not in t:
                    return p, i
                p = compose(p, inverse_perm(t[x]))
            return p, len(base)

        def verify(i):
            # returns the level where a new strong generator landed, or None
            build_level(i)
            b, gens_i, transversal = levels[i]
            for point in sorted(transversal):
                t_point = transversal[point]
                for g in gens_i:
                    img = g.images[point]
                    schreier = compose(compose(t_point, g), inverse_perm(transversal[img]))
                    if schreier.is_identity():
                        continue
                    residue, _ = strip(schreier, i + 1)
                    if not residue.is_identity():
                        k = add_strong(residue)
                        if k <= i:
                            raise AssertionError("Schreier residue moved a shallow base point")
                        return k
            return None

        if not base:
            self._chain = []
            return self._chain

        i = len(base) - 1
        while i >= 0:
            changed = verify(i)
            if changed is None:
                i -= 1
            else:
                i = changed
        # rebuild all levels once more so cached transversals reflect the
        # final strong generating set
        for i in range(len(base)):
            build_level(i)
        self._chain = [levels[i] for i in range(len(base))]
        return self._chain

    def order(self):
        n = 1
        for _, _, transversal in self._stabilizer_chain():
            n *= len(transversal)
        return n

    def contains(self, p):
        if p.degree != self.degree:
            return False
        for b, _, transversal in self._stabilizer_chain():
            x = p.images[b]
            if x != b:
                if x not in transversal:
                    return False
                p = compose(p, inverse_perm(transversal[x]))
        return p.is_identity()


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
