"""Exact homology of covering 2-complexes over Q and prime fields.

Matrices are sparse maps (row, col) -> integer.  Rank over the rationals
uses fraction-free Bareiss elimination on the integer entries; rank mod p
uses ordinary elimination.  Pivots are chosen deterministically: among the
sparsest live rows take the first, and within it the smallest column.
Elimination switches to a dense representation once fill-in of the live
block passes 30%.
"""

import math
from dataclasses import dataclass

from .errors import InvariantViolation

DENSE_FILL_THRESHOLD = 0.30


@dataclass(frozen=True)
class FieldSpec:
    """Q (characteristic 0) or GF(p) for prime p < 2^31."""

    characteristic: int

    def __post_init__(self):
        c = self.characteristic
        if c == 0:
            return
        if not 2 <= c < 2 ** 31:
            raise ValueError(f"characteristic {c} out of range")
        if c > 2 and (c % 2 == 0 or any(c % d == 0 for d in range(3, math.isqrt(c) + 1, 2))):
            raise ValueError(f"{c} is not prime")

    @classmethod
    def rationals(cls):
        return cls(0)

    @classmethod
    def gf(cls, p):
        return cls(p)

    @classmethod
    def parse(cls, label):
        if label == "q":
            return cls(0)
        if label.startswith("gf:"):
            return cls(int(label[3:]))
        raise ValueError(f"bad field label {label!r}, expected 'q' or 'gf:<p>'")

    @property
    def label(self):
        return "q" if self.characteristic == 0 else f"gf:{self.characteristic}"


QQ = FieldSpec.rationals()
GF2 = FieldSpec.gf(2)
GF3 = FieldSpec.gf(3)


class Matrix:
    """Sparse integer matrix; zeros are never stored."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError(f"bad shape ({rows}, {cols})")
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for (r, c), v in entries.items() if isinstance(entries, dict) else entries:
                self.add(r, c, v)

    def add(self, r, c, v):
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise ValueError(f"index ({r},{c}) outside {self.rows}x{self.cols}")
        key = (r, c)
        new = self.entries.get(key, 0) + v
        if new:
            self.entries[key] = new
        else:
            self.entries.pop(key, None)

    def get(self, r, c):
        return self.entries.get((r, c), 0)

    @property
    def nnz(self):
        return len(self.entries)

    def row_dicts(self):
        rows = [dict() for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def multiply(self, other):
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.cols} vs {other.rows}")
        by_row = [[] for _ in range(other.rows)]
        for (r, c), v in other.entries.items():
            by_row[r].append((c, v))
        out = Matrix(self.rows, other.cols)
        for (r, k), v in self.entries.items():
            for c, w in by_row[k]:
                out.add(r, c, v * w)
        return out

    def is_zero(self):
        return not self.entries


def _pick_pivot(live):
    best = None
    best_len = None
    for idx, row in enumerate(live):
        if best_len is None or len(row) < best_len:
            best, best_len = idx, len(row)
            if best_len == 1:
                break
    col = min(live[best])
    return best, col


def _fill_ratio(live, cols_left):
    cells = len(live) * cols_left
    if cells == 0:
        return 0.0
    return sum(len(r) for r in live) / cells


def _rank_dense_mod(dense, p):
    rank = 0
    rows = [[v % p for v in r] for r in dense]
    rows = [r for r in rows if any(r)]
    ncols = len(dense[0]) if dense else 0
    col_used = [False] * ncols
    while rows:
        pr = pc = None
        for i, row in enumerate(rows):
            for j in range(ncols):
                if not col_used[j] and row[j]:
                    pr, pc = i, j
                    break
            if pr is not None:
                break
        if pr is None:
            break
        piv_row = rows.pop(pr)
        inv = pow(piv_row[pc], -1, p)
        col_used[pc] = True
        nxt = []
        for row in rows:
            f = (row[pc] * inv) % p
            if f:
                row = [(a - f * b) % p for a, b in zip(row, piv_row)]
            if any(row):
                nxt.append(row)
        rows = nxt
        rank += 1
    return rank


def rank(m, field):
    """Exact rank of m over the given field."""
    live = [r for r in m.row_dicts() if r]
    if field.characteristic:
        p = field.characteristic
        for row in live:
            for c in list(row):
                row[c] %= p
                if not row[c]:
                    del row[c]
        live = [r for r in live if r]
    rk = 0
    prev = 1
    p = field.characteristic
    while live:
        cols_left = m.cols - rk
        if cols_left <= 0:
            break
        if _fill_ratio(live, cols_left) > DENSE_FILL_THRESHOLD:
            dense = []
            for row in live:
                flat = [0] * m.cols
                for c, v in row.items():
                    flat[c] = v
                dense.append(flat)
            if p:
                return rk + _rank_dense_mod(dense, p)
            # entries are already exact k x k minors; dense Bareiss continues
            # the same recurrence with the same previous pivot
            return rk + _dense_bareiss_resume(dense, prev)
        idx, col = _pick_pivot(live)
        piv_row = live.pop(idx)
        piv = piv_row[col]
        nxt = []
        for row in live:
            f = row.pop(col, 0)
            if p:
                if f:
                    mul = (f * pow(piv, -1, p)) % p
                    for c, v in piv_row.items():
                        if c == col:
                            continue
                        new = (row.get(c, 0) - mul * v) % p
                        if new:
                            row[c] = new
                        else:
                            row.pop(c, None)
            else:
                if f:
                    keys = set(row) | set(piv_row)
                    keys.discard(col)
                    for c in keys:
                        val = piv * row.get(c, 0) - f * piv_row.get(c, 0)
                        q, rem = divmod(val, prev)
                        if rem:
                            raise InvariantViolation("fraction-free elimination lost exactness")
                        if q:
                            row[c] = q
                        else:
                            row.pop(c, None)
                else:
                    for c in list(row):
                        val = piv * row[c]
                        q, rem = divmod(val, prev)
                        if rem:
                            raise InvariantViolation("fraction-free elimination lost exactness")
                        row[c] = q
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
        pr = pc = None
        for i, row in enumerate(rows):
            for j in range(ncols):
                if not col_used[j] and row[j]:
                    pr, pc = i, j
                    break
            if pr is not None:
                break
        if pr is None:
            break
        piv_row = rows.pop(pr)
        piv = piv_row[pc]
        col_used[pc] = True
        nxt = []
        for row in rows:
            f = row[pc]
            new = [0] * ncols
            for j in range(ncols):
                if col_used[j]:
                    continue
                val = piv * row[j] - f * piv_row[j]
                q, rem = divmod(val, prev)
                if rem:
                    raise InvariantViolation("fraction-free elimination lost exactness")
                new[j] = q
            if any(new):
                nxt.append(new)
        rows = nxt
        prev = piv
        rank += 1
    return rank


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

    def euler_characteristic(self):
        return sum((-1) ** i * d for i, d in enumerate(self.dims))


def betti(complex_, field):
    """Betti numbers over the field, one per dimension of the complex."""
    ranks = [rank(b, field) for b in complex_.boundaries]
    out = []
    for i, d in enumerate(complex_.dims):
        out_rank = ranks[i - 1] if i >= 1 else 0
        in_rank = ranks[i] if i < len(ranks) else 0
        out.append(d - out_rank - in_rank)
    return out


def covering_complex(t):
    """Chain complex of the cover of the presentation complex a table describes.

    One vertex per coset, one edge per (coset, generator), one face per
    (coset, relator).  Faces attach along the relator trace: each positive
    letter crossing contributes +1 on the edge it crosses, each negative
    letter -1.
    """
    p = t.presentation
    k = t.num_cosets
    nx = p.num_generators
    nr = len(p.relators)
    d1 = Matrix(k, k * nx)
    for alpha in range(k):
        for g in range(nx):
            e = alpha * nx + g
            d1.add(t.table[alpha][2 * g], e, 1)
            d1.add(alpha, e, -1)
    d2 = Matrix(k * nx, k * nr)
    for alpha in range(k):
        for j, r in enumerate(p.relators):
            face = alpha * nr + j
            cur = alpha
            for gen, sign in r.letters():
                if sign > 0:
                    d2.add(cur * nx + gen, face, 1)
                    cur = t.table[cur][2 * gen]
                else:
                    cur = t.table[cur][2 * gen + 1]
                    d2.add(cur * nx + gen, face, -1)
            if cur != alpha:
                raise InvariantViolation(f"relator {j} does not close from coset {alpha}")
    return ChainComplex((k, k * nx, k * nr), (d1, d2))


def kunneth_product_dims(factor_h1_dims, q):
    """dim H_q of a product whose factors have free H_1 of the given dims
    and no higher homology: the q-th elementary symmetric polynomial."""
    coeffs = [1]
    for d in factor_h1_dims:
        coeffs = [c + d * (coeffs[i - 1] if i else 0)
                  for i, c in enumerate(coeffs)] + [d * coeffs[-1]]
    return coeffs[q] if 0 <= q < len(coeffs) else 0

