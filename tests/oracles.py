"""Independent reference implementations used to cross-check the library.

Everything here is written in the most naive style available: dense
matrices, exhaustive enumeration, stack-based reduction.  The exceptions
are routes gradlab used to run, kept as the slow routes their replacements
are checked against: bareiss_rank, the elimination before the
column-indexed one, full_covering_complex, the cover before its
spanning tree was collapsed, naive_schreier_sims_order, the
Schreier-Sims that rebuilt a level on every new strong generator,
box_cover_images, the homology cover built by reducing every point of
the box of a Hermite form (hermite_form, the integer form the cover was
read from before its diagonal form), element_action_rows, the coset
table of a level's kernel built by enumerating its image group as whole
permutations, and the per-entry loops that coset tables and covers ran
before their lockstep passes over columns: entrywise_table_error, the
table check, and coset_face_columns, the face traces of a collapsed
cover.  tree_edge_numbers numbers the edges off a table's spanning
tree and writes its Schreier generators from the rows, one coset and
one generator at a time.  walk_rows reads a table off a walk row by
row, as regular_action_table did before it gathered whole columns;
orbit_sizes walks every orbit of a level, as ChainLevel.orbits did when
the orbit of 0 was already every point; and is_permutation_tuple is
Perm's check, one point at a time.  So is walked_level_certificate, the check of one chain level by
an orbit walk per target and every relator's whole image, from before
commuting images served as their own orbit maps.  None of it imports
from gradlab, so a bug in the library cannot hide in its own oracle.
"""

import itertools
from fractions import Fraction


# ---------------------------------------------------------------------------
# permutations as plain tuples


def tuple_compose(p, q):
    """Apply p first, then q (matching the library convention)."""
    return tuple(q[p[i]] for i in range(len(p)))


def tuple_inverse(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def perm_from_cycles(cycles, degree):
    """Image tuple of the permutation with the given disjoint cycles, e.g.
    [(0, 1, 2)] sends 0 -> 1 -> 2 -> 0."""
    images = list(range(degree))
    for cycle in cycles:
        for i, point in enumerate(cycle):
            images[point] = cycle[(i + 1) % len(cycle)]
    return tuple(images)


def brute_closure(degree, gens):
    """All elements of <gens> by breadth-first multiplication."""
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for h in gens:
                prod = tuple_compose(g, h)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return seen


def brute_order(degree, gens):
    return len(brute_closure(degree, gens))


def element_action_rows(images):
    """Rows of the regular action of the group the image tuples generate.

    Elements are enumerated as whole permutations by breadth-first
    products, the identity first and the images tried in order; row x
    holds the numbers of x.g and x.g^-1 for every image g.
    """
    ident = tuple(range(len(images[0])))
    number = {ident: 0}
    elements = [ident]
    for x in elements:
        for g in images:
            y = tuple_compose(x, g)
            if y not in number:
                number[y] = len(elements)
                elements.append(y)
    inverses = [tuple_inverse(g) for g in images]
    return [[number[tuple_compose(x, h)] for g, g_inv in zip(images, inverses)
             for h in (g, g_inv)]
            for x in elements]


def walked_point_rows(images, start):
    """Rows of the action of the image tuples on the orbit of start.

    The orbit is walked breadth first from start through a dict of the
    positions found so far, the images tried in order, so the point first
    reached k-th is row k; row k holds the numbers of x.g and x.g^-1 of
    that point x for every image g.
    """
    position = {start: 0}
    points = [start]
    for x in points:
        for g in images:
            if g[x] not in position:
                position[g[x]] = len(points)
                points.append(g[x])
    inverses = [tuple_inverse(g) for g in images]
    return [[position[h[x]] for g, g_inv in zip(images, inverses)
             for h in (g, g_inv)]
            for x in points]


def naive_schreier_sims_order(degree, gens):
    """Group order by the restart form of deterministic Schreier-Sims.

    Base points are least moved points.  Whenever a Schreier generator
    leaves a residue, the residue becomes a strong generator and the level
    it lands on is rebuilt from scratch, with every Schreier generator of
    that level sifted again.
    """
    ident = tuple(range(degree))
    base = []
    strong = []

    def add_strong(p):
        strong.append(p)
        k = 0
        while k < len(base) and p[base[k]] == base[k]:
            k += 1
        if k == len(base):
            base.append(min(i for i in range(degree) if p[i] != i))
        return k

    for g in gens:
        if g != ident and g not in strong:
            add_strong(g)
    levels = {}

    def build_level(i):
        gens_i = [g for g in strong if all(g[b] == b for b in base[:i])]
        transversal = {base[i]: ident}
        queue = [base[i]]
        for point in queue:
            for g in gens_i:
                if g[point] not in transversal:
                    transversal[g[point]] = tuple_compose(transversal[point], g)
                    queue.append(g[point])
        levels[i] = (gens_i, transversal)

    def strip(p, start):
        for i in range(start, len(base)):
            x = p[base[i]]
            if x != base[i]:
                transversal = levels[i][1]
                if x not in transversal:
                    return p
                p = tuple_compose(p, tuple_inverse(transversal[x]))
        return p

    def verify(i):
        build_level(i)
        gens_i, transversal = levels[i]
        for point in sorted(transversal):
            for g in gens_i:
                schreier = tuple_compose(tuple_compose(transversal[point], g),
                                         tuple_inverse(transversal[g[point]]))
                if schreier != ident:
                    residue = strip(schreier, i + 1)
                    if residue != ident:
                        k = add_strong(residue)
                        assert k > i, "Schreier residue moved a shallow base point"
                        return k
        return None

    i = len(base) - 1
    while i >= 0:
        changed = verify(i)
        i = i - 1 if changed is None else changed
    order = 1
    for i in range(len(base)):
        build_level(i)
        order *= len(levels[i][1])
    return order


def rows_to_columns(rows):
    """A coset table's columns from its rows, one tuple per column; a
    short row leaves None in each column it lacks."""
    return list(itertools.zip_longest(*rows))


def tuple_columns(images):
    """Image tuples and their inverses in a coset table's layout: image g
    at 2g, its inverse at 2g+1."""
    return [c for g in images for c in (g, tuple_inverse(g))]


def tuple_word_image(degree, images, letters):
    """Image of a word given as (generator, sign) letters, sign +1 or -1."""
    out = tuple(range(degree))
    for gen, sign in letters:
        g = images[gen] if sign > 0 else tuple_inverse(images[gen])
        out = tuple_compose(out, g)
    return out


def _tuple_orbit(point, images):
    points, seen = [point], {point}
    for x in points:
        for s in images:
            if s[x] not in seen:
                seen.add(s[x])
                points.append(s[x])
    return points


def orbit_sizes(degree, images):
    """The size of every orbit of the image tuples on range(degree), keyed
    by its least point, as a list of (least point, size) in increasing
    order, every orbit walked."""
    seen = set()
    sizes = []
    for x in range(degree):
        if x not in seen:
            points = _tuple_orbit(x, images)
            sizes.append((x, len(points)))
            seen.update(points)
    return sizes


def is_permutation_tuple(images):
    """Whether an int tuple lists every point of 0..len-1 once, checked
    one point at a time against the points already seen."""
    seen = [False] * len(images)
    for x in images:
        if not 0 <= x < len(images) or seen[x]:
            return False
        seen[x] = True
    return True


def walk_rows(images, walk):
    """Rows of the action of the image tuples on a walk closed under them,
    row by row: row k holds the positions in the walk of x.g and x.g^-1,
    for x the walk's k-th entry, for every image g.  An entry is a point
    or a tuple of points, which an image moves point by point."""
    position = {x: k for k, x in enumerate(walk)}
    inverses = [tuple_inverse(g) for g in images]

    def moved(h, x):
        return tuple(h[y] for y in x) if isinstance(x, tuple) else h[x]

    return [[position[moved(h, x)] for g, g_inv in zip(images, inverses)
             for h in (g, g_inv)]
            for x in walk]


def _orbit_map_is_defined(images, x, y):
    """Whether x.w -> y.w is well defined on the orbit of x: one walk of
    that orbit, every step checked."""
    image = {x: y}
    queue = [x]
    for p in queue:
        for s in images:
            if s[p] not in image:
                image[s[p]] = s[image[p]]
                queue.append(s[p])
            elif image[s[p]] != s[image[p]]:
                return False
    return True


def walked_level_certificate(images, index, relators):
    """Whether a one-level chain on these image tuples, claiming this
    index, passes its certificates by the all-walk route: when the orbit
    of 0 has `index` points, one orbit walk per target, 0.s for every
    image s and the least point of every other orbit, must show the action
    regular; otherwise the index must be the brute order of the images.
    Every relator, a list of (generator, sign) letters, must then have the
    identity as its whole image."""
    degree = len(images[0])
    least, seen = [], set()
    for x in range(degree):
        if x not in seen:
            least.append(x)
            seen.update(_tuple_orbit(x, images))
    if len(_tuple_orbit(0, images)) == index:
        targets = {s[0] for s in images} | set(least[1:])
        certified = all(_orbit_map_is_defined(images, 0, y) for y in targets)
    else:
        certified = brute_order(degree, images) == index
    ident = tuple(range(degree))
    return certified and all(tuple_word_image(degree, images, r) == ident
                             for r in relators)


def closure_shadows(degree, images, vertex_gens, edge_words):
    """(copies, local_index) of each vertex and each edge group, by closure.

    images generate the quotient Q.  vertex_gens lists, per vertex, the
    positions in images of its generators; edge_words lists, per edge, its
    word as (position, sign) letters, empty for a trivial edge.  The local
    index is the order of the local image L, and copies = |Q| / |L|.
    """
    order = brute_order(degree, images)

    def row(gens):
        local = brute_order(degree, gens)
        assert order % local == 0
        return order // local, local

    vertices = [row([images[i] for i in gens]) for gens in vertex_gens]
    edges = [row([tuple_word_image(degree, images, w)] if w else [])
             for w in edge_words]
    return vertices, edges


def is_transitive(degree, gens):
    reached = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                if g[x] not in reached:
                    reached.add(g[x])
                    nxt.append(g[x])
        frontier = nxt
    return len(reached) == degree


def count_transitive_pairs(k):
    """Number of (s, t) in Sym(k)^2 acting transitively on k points."""
    count = 0
    for s in itertools.permutations(range(k)):
        for t in itertools.permutations(range(k)):
            if is_transitive(k, (s, t)):
                count += 1
    return count


def factorial(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def closure_index(degree, images, words):
    """|<images>| / |<images of words>|, words as (generator, sign)
    letters, both orders by closure; the index of the subgroup the words
    generate when the images model the group faithfully."""
    whole = brute_order(degree, images)
    part = brute_order(degree, [tuple_word_image(degree, images, w) for w in words])
    assert whole % part == 0
    return whole // part


def count_subgroups_by_actions(k, relators):
    """Number of index-k subgroups of <a, b | relators>, relators as
    (generator, sign) letters: the transitive pairs (s, t) in Sym(k) that
    satisfy every relator, each subgroup counted (k-1)! times."""
    ident = tuple(range(k))
    count = 0
    for s in itertools.permutations(range(k)):
        for t in itertools.permutations(range(k)):
            if (is_transitive(k, (s, t))
                    and all(tuple_word_image(k, (s, t), r) == ident for r in relators)):
                count += 1
    assert count % factorial(k - 1) == 0
    return count // factorial(k - 1)


# ---------------------------------------------------------------------------
# linear algebra on dense row lists


def gaussian_rank_fractions(rows):
    """Rank of a dense integer matrix, eliminating over Fraction."""
    work = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    cols = len(work[0]) if work else 0
    for col in range(cols):
        pivot = None
        for r in range(rank, len(work)):
            if work[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        pv = work[rank][col]
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                factor = work[r][col] / pv
                work[r] = [a - factor * b for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


def gaussian_rank_mod(rows, p):
    work = [[v % p for v in row] for row in rows]
    rank = 0
    cols = len(work[0]) if work else 0
    for col in range(cols):
        pivot = None
        for r in range(rank, len(work)):
            if work[r][col] % p:
                pivot = r
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][col], p - 2, p)
        work[rank] = [(v * inv) % p for v in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                f = work[r][col]
                work[r] = [(a - f * b) % p for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


def bareiss_rank(rows, ncols, p=None):
    """Rank over Q (p=None) or GF(p) by sparse Bareiss with a dense fallback.

    rows is a list of dense integer rows or of {column: value} dicts.  This
    is the elimination gradlab used before its column-indexed eliminator:
    the pivot row is the first of the sparsest live rows and the pivot
    column its smallest; over Q every live row is updated by the
    fraction-free Bareiss step, whose divisions by the previous pivot must
    be exact; once more than 30% of the live block is filled it goes dense.
    """
    live = []
    for row in rows:
        items = row.items() if isinstance(row, dict) else enumerate(row)
        row = {c: (v % p if p else v) for c, v in items}
        row = {c: v for c, v in row.items() if v}
        if row:
            live.append(row)
    rk = 0
    prev = 1
    while live:
        cols_left = ncols - rk
        if cols_left <= 0:
            break
        if sum(len(r) for r in live) > 0.30 * len(live) * cols_left:
            dense = [[row.get(c, 0) for c in range(ncols)] for row in live]
            if p:
                return rk + gaussian_rank_mod(dense, p)
            # the entries are k x k minors, so dense Bareiss continues the
            # same recurrence with the same previous pivot
            return rk + _dense_bareiss_resume(dense, prev)
        idx = min(range(len(live)), key=lambda i: len(live[i]))
        piv_row = live.pop(idx)
        col = min(piv_row)
        piv = piv_row[col]
        nxt = []
        for row in live:
            f = row.pop(col, 0)
            if p:
                mul = (f * pow(piv, -1, p)) % p
                for c, v in piv_row.items():
                    if c != col and mul:
                        row[c] = (row.get(c, 0) - mul * v) % p
                        if not row[c]:
                            del row[c]
            else:
                for c in (set(row) | set(piv_row)) - {col}:
                    q, rem = divmod(piv * row.get(c, 0) - f * piv_row.get(c, 0), prev)
                    if rem:
                        raise ArithmeticError("Bareiss division was not exact")
                    if q:
                        row[c] = q
                    else:
                        row.pop(c, None)
            if row:
                nxt.append(row)
        live = nxt
        prev = piv
        rk += 1
    return rk


def _dense_bareiss_resume(dense, prev):
    rank = 0
    rows = [r for r in dense if any(r)]
    ncols = len(dense[0]) if dense else 0
    col_used = [False] * ncols
    while rows:
        pivot = next(((i, j) for i, row in enumerate(rows) for j in range(ncols)
                      if not col_used[j] and row[j]), None)
        if pivot is None:
            break
        piv_row = rows.pop(pivot[0])
        pc = pivot[1]
        piv = piv_row[pc]
        col_used[pc] = True
        nxt = []
        for row in rows:
            f = row[pc]
            new = [0] * ncols
            for j in range(ncols):
                if col_used[j]:
                    continue
                q, rem = divmod(piv * row[j] - f * piv_row[j], prev)
                if rem:
                    raise ArithmeticError("Bareiss division was not exact")
                new[j] = q
            if any(new):
                nxt.append(new)
        rows = nxt
        prev = piv
        rank += 1
    return rank


def integer_smith_divisors(rows):
    """Nonzero diagonal of the Smith normal form of a dense integer matrix."""
    work = [list(map(int, row)) for row in rows]
    m = len(work)
    n = len(work[0]) if work else 0
    divisors = []
    top = 0
    while top < m and top < n:
        # find the entry of least absolute value in the remaining block
        best = None
        for r in range(top, m):
            for c in range(top, n):
                v = abs(work[r][c])
                if v and (best is None or v < abs(work[best[0]][best[1]])):
                    best = (r, c)
        if best is None:
            break
        r, c = best
        work[top], work[r] = work[r], work[top]
        for row in work:
            row[top], row[c] = row[c], row[top]
        pivot = work[top][top]
        dirty = False
        for r in range(m):
            if r != top and work[r][top]:
                q = work[r][top] // pivot
                work[r] = [a - q * b for a, b in zip(work[r], work[top])]
                if work[r][top]:
                    dirty = True
        for c in range(n):
            if c != top and work[top][c]:
                q = work[top][c] // pivot
                for row in work:
                    row[c] -= q * row[top]
                if work[top][c]:
                    dirty = True
        if dirty:
            continue
        divisors.append(abs(pivot))
        top += 1
    # normalize the divisibility ladder d1 | d2 | ...
    for i in range(len(divisors)):
        for j in range(i + 1, len(divisors)):
            a, b = divisors[i], divisors[j]
            g = gcd(a, b)
            divisors[i], divisors[j] = g, a * b // g if g else 0
    return divisors


def gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def predicted_betti(dims, boundary_rows, p=None):
    """Betti numbers of a chain complex from dense boundary matrices.

    boundary_rows[i] is the matrix of C_{i+1} -> C_i as a list of rows
    (dims[i] rows, dims[i+1] columns).  p=None means rationals; a prime
    p adds torsion from the universal coefficient theorem.
    """
    ranks = []
    torsion = []
    for rows in boundary_rows:
        divisors = integer_smith_divisors(rows)
        ranks.append(len(divisors))
        torsion.append(sum(1 for d in divisors if p is not None and d % p == 0))
    out = []
    for i, dim in enumerate(dims):
        rin = ranks[i] if i < len(ranks) else 0
        rout = ranks[i - 1] if i > 0 else 0
        b = dim - rin - rout
        if p is not None:
            b += (torsion[i] if i < len(torsion) else 0)
            b += (torsion[i - 1] if i > 0 else 0)
        out.append(b)
    return out


def full_covering_complex(table):
    """The whole cover of the presentation complex a coset table describes.

    One vertex per coset, one edge per (coset, generator), one face per
    (coset, relator), the face attached along its relator trace.  Returns
    (dims, [d1, d2]) with each boundary a {(row, col): value} dict, after
    multiplying d1 by d2 out and asserting the product is zero.
    """
    p = table.presentation
    rows = table.table
    k = len(rows)
    nx = p.num_generators
    nr = len(p.relators)
    d1, d2 = {}, {}

    def add(m, key, v):
        m[key] = m.get(key, 0) + v
        if not m[key]:
            del m[key]

    for alpha in range(k):
        for g in range(nx):
            add(d1, (rows[alpha][2 * g], alpha * nx + g), 1)
            add(d1, (alpha, alpha * nx + g), -1)
    for alpha in range(k):
        for j, r in enumerate(p.relators):
            cur = alpha
            for gen, sign in r.letters():
                if sign > 0:
                    add(d2, (cur * nx + gen, alpha * nr + j), 1)
                    cur = rows[cur][2 * gen]
                else:
                    cur = rows[cur][2 * gen + 1]
                    add(d2, (cur * nx + gen, alpha * nr + j), -1)
    faces_of = {}
    for (e, f), w in d2.items():
        faces_of.setdefault(e, []).append((f, w))
    product = {}
    for (r, e), v in d1.items():
        for f, w in faces_of.get(e, ()):
            add(product, (r, f), v * w)
    assert not product, "d1 . d2 is not zero"
    return (k, k * nx, k * nr), [d1, d2]


def entrywise_table_error(table):
    """The message of the first failure of a coset table's checks, scanned
    entry by entry, or None.

    Rows come first, each with its length and then its entries in column
    order (range, then the inverse entry), as a per-entry scan meets them;
    then every relator from every coset, cosets outermost; then every
    subgroup word from coset 0.  Duck-typed: table has .table, a list of
    rows, .presentation with .num_generators and .relators, and
    .subgroup_words; words have .letters().  A short row that an earlier
    entry leads into raises IndexError, as that scan did.
    """
    rows = table.table
    n = len(rows)
    ncols = 2 * table.presentation.num_generators
    for alpha, row in enumerate(rows):
        if len(row) != ncols:
            return f"row {alpha} has {len(row)} columns, wanted {ncols}"
        for c, beta in enumerate(row):
            if not 0 <= beta < n:
                return f"entry ({alpha},{c}) = {beta} out of range"
            if rows[beta][c ^ 1] != alpha:
                return f"inverse entry mismatch at ({alpha},{c})"

    def trace(alpha, w):
        for gen, sign in w.letters():
            alpha = rows[alpha][2 * gen + (sign < 0)]
        return alpha

    for alpha in range(n):
        for r in table.presentation.relators:
            if trace(alpha, r) != alpha:
                return f"relator {r!r} does not close from coset {alpha}"
    for w in table.subgroup_words:
        if trace(0, w) != 0:
            return f"subgroup word {w!r} leaves coset 0"
    return None


def coset_face_columns(table, symbols):
    """(entries, unclosed) of a collapsed cover's d2, traced coset by coset.

    symbols[g][alpha] numbers the edge (alpha, g) off the spanning tree,
    or is None on the tree.  Each face (alpha, j), numbered alpha *
    |R| + j, walks relator j from coset alpha; a positive letter g adds +1
    on the edge it leaves by, a negative one -1 on the edge it arrives
    along.  entries maps (edge, face) to the nonzero sums; unclosed lists
    each (alpha, j) whose trace does not end at alpha, cosets outermost.
    """
    p = table.presentation
    nr = len(p.relators)
    rows = table.table
    entries, unclosed = {}, []
    for alpha in range(len(rows)):
        for j, r in enumerate(p.relators):
            column = {}
            cur = alpha
            for gen, sign in r.letters():
                if sign < 0:
                    cur = rows[cur][2 * gen + 1]
                s = symbols[gen][cur]
                if s is not None:
                    column[s] = column.get(s, 0) + sign
                if sign > 0:
                    cur = rows[cur][2 * gen]
            if cur != alpha:
                unclosed.append((alpha, j))
            for s, v in column.items():
                if v:
                    entries[s, alpha * nr + j] = v
    return entries, unclosed


def tree_edge_numbers(rows, ngens):
    """(symbols, generators) of a transitive coset table, read off its
    rows by a breadth-first walk of its own.

    The walk starts at coset 0 and reads each row's entries in order,
    taking a tree edge to each coset it reaches first.  symbols[g][alpha]
    numbers the edge (alpha, g) off that tree, counting in (alpha, g)
    order, and is None on the tree.  generators holds, for each numbered
    edge, the Schreier generator: the tree word to alpha, then g, then the
    tree word to alpha.g backwards, freely reduced and written as runs
    (generator, exponent).
    """
    path = {0: []}
    tree = set()
    queue = [0]
    for alpha in queue:
        for c, beta in enumerate(rows[alpha]):
            if beta not in path:
                g, sign = c // 2, -1 if c % 2 else 1
                path[beta] = path[alpha] + [(g, sign)]
                tree.add((beta, g) if sign < 0 else (alpha, g))
                queue.append(beta)
    symbols = [[None] * len(rows) for _ in range(ngens)]
    generators = []
    for alpha, row in enumerate(rows):
        for g in range(ngens):
            if (alpha, g) in tree:
                continue
            symbols[g][alpha] = len(generators)
            back = [(h, -sign) for h, sign in reversed(path[row[2 * g]])]
            runs = []
            for h, sign in reduce_letters(path[alpha] + [(g, 1)] + back):
                if runs and runs[-1][0] == h:
                    runs[-1] = (h, runs[-1][1] + sign)
                else:
                    runs.append((h, sign))
            generators.append(tuple(runs))
    return symbols, generators


def hermite_form(rows, n):
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
                raise ValueError(f"column {col} has no pivot: rank below {n}")
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


def box_cover_images(h):
    """Generator images of the translation action of Z^n on the canonical
    box of the upper triangular Hermite matrix h, as image tuples.

    Every point of the box, in itertools.product order, is moved by e_g and
    reduced row by row modulo h, then looked up by position.
    """
    n = len(h)

    def reduce_point(x):
        y = list(x)
        for i in range(n):
            q = y[i] // h[i][i]
            if q:
                for j in range(i, n):
                    y[j] -= q * h[i][j]
        return tuple(y)

    box = list(itertools.product(*[range(h[i][i]) for i in range(n)]))
    position = {pt: k for k, pt in enumerate(box)}
    return tuple(
        tuple(position[reduce_point(tuple(pt[j] + (1 if j == g else 0)
                                          for j in range(n)))]
              for pt in box)
        for g in range(n))


def dense_rows(matrix):
    """Dense row-list view of the library's sparse Matrix (glue, not math)."""
    return [[row.get(c, 0) for c in range(matrix.cols)] for row in matrix.row_dicts]


def dict_rows(matrix):
    """Copies of the library's sparse Matrix rows, {column: value} each
    (glue, not math)."""
    return [dict(row) for row in matrix.row_dicts]


# ---------------------------------------------------------------------------
# words and homology formulas


def reduce_letters(letters):
    """Stack-based free reduction of a sequence of (generator, sign) pairs."""
    stack = []
    for gen, sign in letters:
        if stack and stack[-1] == (gen, -sign):
            stack.pop()
        else:
            stack.append((gen, sign))
    return stack


def kunneth_by_subsets(dims, q):
    """dim H_q of a product of groups with free H_* concentrated in degree 1.

    Sum over all q-element subsets of factors of the product of their
    first betti numbers, which is the elementary symmetric polynomial.
    """
    total = 0
    for combo in itertools.combinations(range(len(dims)), q):
        term = 1
        for i in combo:
            term *= dims[i]
        total += term
    return total


def alternating_tetrahedral_images():
    """Permutations satisfying a^2 = b^3 = (ab)^3 = 1 and generating order 12."""
    a = (1, 0, 3, 2)
    b = (1, 2, 0, 3)
    assert tuple_compose(a, a) == (0, 1, 2, 3)
    b3 = tuple_compose(tuple_compose(b, b), b)
    assert b3 == (0, 1, 2, 3)
    ab = tuple_compose(a, b)
    assert tuple_compose(tuple_compose(ab, ab), ab) == (0, 1, 2, 3)
    assert brute_order(4, (a, b)) == 12
    return a, b
