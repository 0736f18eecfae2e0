"""Exact homology of covering 2-complexes over Q and prime fields.

A cover is built with the spanning tree of its coset table collapsed: one
vertex, the edges off the tree, and every face.  Collapsing a contractible
subcomplex keeps the homology over Z, so every field reads the same Betti
numbers as on the full cover, and b0 = 1 holds by construction.

A matrix is a list of rows, each a {column: integer} dict with no zeros:
the cover writes its crossings into them, and each elimination takes its
own copies.  One sparse eliminator serves every ring.  Each column lists
the rows that have held it; a listed row that no longer has the column
is skipped (lazy deletion).  The pivot row is the shortest live row: rows wait on one stack
per length, the smallest index on top at the start, and an entry whose row
has changed length since is skipped the same way.  The pivot column is the
one of that row with the fewest listed rows, ties going to the smallest
index.  Only the rows listed under the pivot column are updated.  Over
GF(p) one inverse per pivot scales the pivot row to a leading 1.  Over Q
the update stays in the integers: with the pivot made positive, row <-
(piv/g) row - (f/g) pivot_row for g = gcd(piv, f), and then the row is
divided by the gcd of its entries.  Scaling a row leaves the rank
unchanged, and every division is exact.

Over Z the same loop takes only pivots of +-1, never divides a row and
never reduces mod p; a row with no +-1 entry stays where it is until an
update changes it, or to the end.  A +-1 pivot is a unimodular step over
Z and a unit in every field, so the rank over any field is the number of
such pivots plus the field's rank of what is left (the residual).
`betti` runs this pass once per complex and ranks only the residual per
field; `rank` is the per-field route on a whole matrix.

Before that loop the pass takes the rows with exactly two entries, both
+-1, as edges of a signed graph on the columns.  On a surface cover every
edge lies on two faces, so d2 is the signed incidence matrix of the dual
graph, and a union-find over its columns collapses a spanning tree of
that graph in near-linear time, as `covering_complex` collapses the tree
of the 1-skeleton (Forman's discrete Morse theory).  Each merge is the
+-1 pivot on its row, applied lazily to the other rows through the
roots, so the count of +-1 pivots keeps its meaning.

`diagonalize` is the one dense Euclidean diagonalization over Z, for the
small matrices whose divisors matter and not only their rank: the
relator rows of a homology cover, whose diagonal and column operations
give the cover's translation action, and the selftest's torsion check.
"""

import math
from functools import cached_property

from .cosets import spanning_tree
from .errors import InvariantViolation
from .permgrp import gather


class FieldSpec:
    """Q (characteristic 0) or GF(p) for prime p < 2^31."""

    __slots__ = ("characteristic",)

    def __init__(self, characteristic):
        self.characteristic = c = characteristic
        if c == 0:
            return
        if not 2 <= c < 2 ** 31:
            raise ValueError(f"characteristic {c} out of range")
        if c > 2 and (c % 2 == 0 or any(c % d == 0 for d in range(3, math.isqrt(c) + 1, 2))):
            raise ValueError(f"{c} is not prime")

    def __eq__(self, other):
        if type(other) is not FieldSpec:
            return NotImplemented
        return self.characteristic == other.characteristic

    def __hash__(self):
        return hash(self.characteristic)

    @classmethod
    def parse(cls, label):
        """The field a label names, written exactly as `label` writes it."""
        field = None
        if label == "q":
            field = cls(0)
        elif label.startswith("gf:") and label[3:].isdecimal():
            try:
                field = cls(int(label[3:]))
            except ValueError as err:
                raise ValueError(f"bad field label {label!r}: {err}") from None
        if field is None or field.label != label:
            raise ValueError(f"bad field label {label!r}, expected 'q' or 'gf:<p>' for a prime p")
        return field

    @property
    def label(self):
        return "q" if self.characteristic == 0 else f"gf:{self.characteristic}"


QQ = FieldSpec(0)
GF2 = FieldSpec(2)
GF3 = FieldSpec(3)


class Matrix:
    """Sparse integer matrix: row_dicts holds one {column: value} dict per
    row, and zeros are never stored."""

    __slots__ = ("rows", "cols", "row_dicts")

    def __init__(self, rows, cols, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError(f"bad shape ({rows}, {cols})")
        self.rows = rows
        self.cols = cols
        self.row_dicts = [{} for _ in range(rows)]
        for (r, c), v in (entries or {}).items():
            self.add(r, c, v)

    def add(self, r, c, v):
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise ValueError(f"index ({r},{c}) outside {self.rows}x{self.cols}")
        row = self.row_dicts[r]
        new = row.get(c, 0) + v
        if new:
            row[c] = new
        else:
            row.pop(c, None)

    def get(self, r, c):
        return self.row_dicts[r].get(c, 0)

    @property
    def nnz(self):
        return sum(map(len, self.row_dicts))

    def multiply(self, other):
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.cols} vs {other.rows}")
        out = Matrix(self.rows, other.cols)
        for r, row in enumerate(self.row_dicts):
            for k, v in row.items():
                for c, w in other.row_dicts[k].items():
                    out.add(r, c, v * w)
        return out

    def is_zero(self):
        return not any(self.row_dicts)


def rank(m, field):
    """Exact rank of m over the given field."""
    p = field.characteristic
    if p:
        rows = [{c: r for c, v in row.items() if (r := v % p)}
                for row in m.row_dicts]
    else:
        rows = [dict(row) for row in m.row_dicts]
    return _eliminate(rows, m.cols, p)[0]


def _unit_reduce(m):
    """(pivots, residual) of m over Z: the number of +-1 pivots taken and
    the integer matrix of the rows and columns they leave, compacted.

    Rows with exactly two entries, both +-1, go first, through a signed
    union-find over the columns: column c stands for sign[c] times
    root[c].  Read through the roots, such a row is a e_r1 + b e_r2 with
    a, b = +-1.  When r1 != r2 it is a +-1 pivot at r1, and the operation
    it makes on every other row replaces e_r1 by -ab e_r2: the merge
    root[r1] = r2 with sign -ab, applied lazily to each row that reads r1
    later.  When r1 = r2 it reads (a + b) e_r1, which is 0 (dropped) or
    +-2 (kept).  The rows left, read through the roots, go to the
    Markowitz loop of `_eliminate` as fresh dicts; m keeps its rows."""
    root = list(range(m.cols))
    sign = [1] * m.cols

    def find(c):
        s = 1
        while root[c] != c:
            up = root[c]
            sign[c] *= sign[up]
            s *= sign[c]
            root[c] = c = root[up]
        return c, s

    merged = 0
    rest = []
    for row in m.row_dicts:
        if len(row) == 2:
            (c1, v1), (c2, v2) = row.items()
            if v1 * v1 == 1 and v2 * v2 == 1:
                r1, s1 = find(c1)
                r2, s2 = find(c2)
                if r1 != r2:
                    root[r1] = r2
                    sign[r1] = -s1 * v1 * s2 * v2
                    merged += 1
                    continue
                if s1 * v1 == -s2 * v2:
                    continue
        if row:
            rest.append(row)
    live = []
    for row in rest:
        if merged:
            new = {}
            for c, v in row.items():
                r, s = find(c)
                new[r] = new.get(r, 0) + s * v
            row = {c: v for c, v in new.items() if v}
        else:
            row = dict(row)
        if row:
            live.append(row)
    pivots, rows = _eliminate(live, m.cols, None)
    live = [row for row in rows if row]
    cols = {c: i for i, c in enumerate(sorted({c for row in live for c in row}))}
    residual = Matrix(len(live), len(cols))
    residual.row_dicts = [{cols[c]: v for c, v in row.items()} for row in live]
    return merged + pivots, residual


def _eliminate(rows, ncols, p):
    """(pivots, rows left) of eliminating the row dicts, in place, over
    GF(p) for p prime, over Q for p = 0, or over Z with +-1 pivots only
    for p = None."""
    if not rows:
        return 0, rows
    listed = [[] for _ in range(ncols)]
    for r, row in enumerate(rows):
        if row:
            for c in row:
                listed[c].append(r)
    stacks = []

    def push(r):
        k = len(rows[r])
        while len(stacks) <= k:
            stacks.append([])
        stacks[k].append(r)
        return k

    for r in reversed(range(len(rows))):
        if rows[r]:
            push(r)
    rk = n = 0
    while n < len(stacks):
        if not stacks[n]:
            n += 1
            continue
        r = stacks[n].pop()
        piv_row = rows[r]
        if piv_row is None or len(piv_row) != n:
            continue
        candidates = piv_row
        if p is None:
            candidates = [c for c, v in piv_row.items() if v == 1 or v == -1]
            if not candidates:
                continue
        rows[r] = None
        rk += 1
        col = min(candidates, key=lambda c: (len(listed[c]), c))
        piv = piv_row.pop(col)
        if p:
            inv = pow(piv, -1, p)
            piv_row = {c: v * inv % p for c, v in piv_row.items()}
        elif piv < 0:
            piv = -piv
            piv_row = {c: -v for c, v in piv_row.items()}
        targets, listed[col] = listed[col], None
        for t in targets:
            row = rows[t]
            if row is None or col not in row:
                continue
            f = row.pop(col)
            if p == 0:
                g = math.gcd(piv, f)
                if g != piv:
                    a = piv // g
                    for c in row:
                        row[c] *= a
                f //= g
            for c, v in piv_row.items():
                new = row.get(c, 0) - f * v
                if p:
                    new %= p
                if new:
                    if c not in row:
                        listed[c].append(t)
                    row[c] = new
                else:
                    row.pop(c, None)
            if not row:
                rows[t] = None
                continue
            if p == 0:
                content = math.gcd(*row.values())
                if content != 1:
                    for c in row:
                        row[c] //= content
            n = min(n, push(t))
    return rk, rows


def diagonalize(rows, ncols):
    """(diagonal, v): a diagonal form over Z of the dense integer rows, each
    ncols long, and the column operations that reach it.

    Each step pivots on an entry of least absolute value and subtracts
    multiples of its row from the other rows and of its column from the
    other columns.  A remainder left behind is smaller than the pivot and
    becomes the next one, so the loop ends.  Row operations are not kept;
    each column operation is also applied to v, which starts as the
    identity.  v is unimodular, and rows . v = u . D for a unimodular u,
    where D holds the diagonal in its leading positions and zeros
    elsewhere.  The diagonal holds the nonzero pivots, made positive but
    not normalized into a divisibility ladder: its length is the rank, and
    for a prime p as many entries are divisible by p as in the Smith form.
    """
    work = [list(r) for r in rows if any(r)]
    v = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    live = list(range(ncols))
    diagonal, done = [], []
    while True:
        entries = [(abs(r[c]), i, c) for i, r in enumerate(work)
                   for c in live if r[c]]
        if not entries:
            break
        _, i, c = min(entries)
        pivot_row = work[i]
        piv = pivot_row[c]
        clean = True
        for r in work:
            if r[c] and r is not pivot_row:
                q = r[c] // piv
                for j in live:
                    r[j] -= q * pivot_row[j]
                clean = clean and not r[c]
        for j in live:
            if pivot_row[j] and j != c:
                q = pivot_row[j] // piv
                for r in work + v:
                    r[j] -= q * r[c]
                clean = clean and not pivot_row[j]
        if clean:
            diagonal.append(abs(piv))
            done.append(c)
            live.remove(c)
            del work[i]
    order = done + live
    return diagonal, [[row[j] for j in order] for row in v]


class ChainComplex:
    """dims[i] cells in dimension i; boundaries[i] maps C_{i+1} -> C_i."""

    def __init__(self, dims, boundaries):
        self.dims = tuple(dims)
        self.boundaries = tuple(boundaries)
        if len(self.boundaries) != max(len(self.dims) - 1, 0):
            raise ValueError(f"{len(self.dims)} dims need {len(self.dims) - 1} boundary maps")
        for i, b in enumerate(self.boundaries):
            if (b.rows, b.cols) != (self.dims[i], self.dims[i + 1]):
                raise ValueError(
                    f"boundary {i + 1} has shape {(b.rows, b.cols)}, "
                    f"wanted {(self.dims[i], self.dims[i + 1])}")
        for i in range(len(self.boundaries) - 1):
            if not self.boundaries[i].multiply(self.boundaries[i + 1]).is_zero():
                raise InvariantViolation(f"boundary composite {i + 2} -> {i} is nonzero")

    @cached_property
    def unit_reduced(self):
        """(pivots, residual) of each boundary after its +-1 pivots over Z;
        computed on first use and shared by every field."""
        return tuple(_unit_reduce(b) for b in self.boundaries)


def betti(complex_, field):
    """Betti numbers over the field, one per dimension of the complex.

    Each boundary's rank is its +-1 pivots over Z, found once per complex
    and shared by every field, plus the field's rank of the residual."""
    ranks = [pivots + rank(residual, field)
             for pivots, residual in complex_.unit_reduced]
    out = []
    for i, d in enumerate(complex_.dims):
        out_rank = ranks[i - 1] if i >= 1 else 0
        in_rank = ranks[i] if i < len(ranks) else 0
        out.append(d - out_rank - in_rank)
    return out


def covering_complex(t):
    """Chain complex of the cover of the presentation complex a table
    describes, with the spanning tree of the coset table collapsed.

    The full cover has one vertex per coset, one edge per (coset, generator)
    and one face per (coset, relator).  Its breadth-first spanning tree
    (cosets.spanning_tree) is contractible, and collapsing it keeps the
    homology over Z.  What is left is one vertex, one edge per positive
    edge (alpha, g) off the tree, numbered in (alpha, g) order, and every
    face; the tree has k-1 edges, so k(|X|-1)+1 are off it.  d1 is zero.
    Faces attach along the relator trace: each positive letter crossing
    an edge off the tree contributes +1 on it, each negative letter -1.
    Each trace must close, and closing is exactly d1.d2 = 0 on the full
    cover, whose column for a face is the sum of head - tail over the
    letters crossed.

    The faces of one relator are traced in lockstep off the table's
    columns: one gather per letter carries the current coset of every face
    across it, and one more reads the edges crossed from that generator's
    column of edge numbers, as spanning_tree returns it.  An entry whose
    sum comes to 0, a letter and its inverse crossing the same edge, is
    dropped as it is traced, so d2 holds no zero.  A trace that does not
    close is reported at the least coset, then the first relator.
    """
    p = t.presentation
    nx = p.num_generators
    nr = len(p.relators)
    n = t.num_cosets
    symbols = spanning_tree(t)[1]
    edges = n * (nx - 1) + 1
    columns = t.columns
    d2 = Matrix(edges, n * nr)
    rows = d2.row_dicts
    cosets = tuple(range(n))
    unclosed = []
    for j, r in enumerate(p.relators):
        # one int object per face, shared by every row that face crosses
        faces = tuple(range(j, n * nr, nr))
        cur = cosets
        for gen, sign in r.letters():
            if sign < 0:
                cur = gather(columns[2 * gen + 1], cur)
            for face, s in zip(faces, gather(symbols[gen], cur)):
                if s is not None:
                    row = rows[s]
                    value = row.get(face, 0) + sign
                    if value:
                        row[face] = value
                    else:
                        del row[face]
            if sign > 0:
                cur = gather(columns[2 * gen], cur)
        if cur != cosets:
            unclosed.append(next((alpha, j) for alpha in cosets if cur[alpha] != alpha))
    if unclosed:
        alpha, j = min(unclosed)
        raise InvariantViolation(f"relator {j} does not close from coset {alpha}")
    return ChainComplex((1, edges, n * nr), (Matrix(1, edges), d2))


def kunneth_product_dims(factor_h1_dims, q):
    """dim H_q of a product whose factors have free H_1 of the given dims
    and no higher homology: the q-th elementary symmetric polynomial."""
    coeffs = [1]
    for d in factor_h1_dims:
        coeffs = [c + d * (coeffs[i - 1] if i else 0)
                  for i, c in enumerate(coeffs)] + [d * coeffs[-1]]
    return coeffs[q] if 0 <= q < len(coeffs) else 0

