"""Coset enumeration and subgroup machinery for finite presentations.

The enumerator is HLT: relators are scanned coset by coset and gaps are
filled with fresh definitions (no lookahead).  Cosets are numbered in
discovery order, coset 0 is the subgroup itself, and dead cosets are
compacted away after every coincidence burst so the table stays dense.
All iteration orders are fixed, so a given presentation, subgroup and
limit always produce the identical table.
"""

from .errors import InvariantViolation, ResourceExhausted
from .permgrp import Perm, PermGroup, inverse_perm
from .words import Word, free_reduce, render_word

STRATEGY_VERSION = "hlt-1"

DEFAULT_MAX_COSETS = 50000
DEFAULT_MAX_NODES = 500000


def _word_cols(w):
    # a word as a list of column indices: generator g is column 2g, its
    # inverse 2g+1
    cols = []
    for gen, sign in w.letters():
        cols.append(2 * gen if sign > 0 else 2 * gen + 1)
    return cols


def _inv_col(c):
    return c ^ 1


class CosetTable:
    """Complete coset table for a subgroup of a finitely presented group.

    table[alpha][2g] is the coset alpha.g, table[alpha][2g+1] is alpha.g^-1.
    Rows are cosets in discovery order; coset 0 is the subgroup.
    """

    def __init__(self, presentation, subgroup_words, table):
        self.presentation = presentation
        self.subgroup_words = tuple(subgroup_words)
        self.table = [list(row) for row in table]

    @property
    def num_cosets(self):
        return len(self.table)

    def trace(self, coset, w):
        for c in _word_cols(w):
            coset = self.table[coset][c]
        return coset

    def validate(self):
        """Check completeness, inverse consistency, relator and subgroup closure."""
        n = len(self.table)
        ncols = 2 * self.presentation.num_generators
        for alpha, row in enumerate(self.table):
            if len(row) != ncols:
                raise InvariantViolation(f"row {alpha} has {len(row)} columns, wanted {ncols}")
            for c, beta in enumerate(row):
                if not 0 <= beta < n:
                    raise InvariantViolation(f"entry ({alpha},{c}) = {beta} out of range")
                if self.table[beta][_inv_col(c)] != alpha:
                    raise InvariantViolation(f"inverse entry mismatch at ({alpha},{c})")
        for g in range(self.presentation.num_generators):
            column = [row[2 * g] for row in self.table]
            if sorted(column) != list(range(n)):
                raise InvariantViolation(f"column of generator {g} is not a permutation")
        relators = [(r, _word_cols(r)) for r in self.presentation.relators]
        for alpha in range(n):
            for r, cols in relators:
                beta = alpha
                for c in cols:
                    beta = self.table[beta][c]
                if beta != alpha:
                    raise InvariantViolation(f"relator {r!r} does not close from coset {alpha}")
        for w in self.subgroup_words:
            if self.trace(0, w) != 0:
                raise InvariantViolation(f"subgroup word {w!r} leaves coset 0")
        return self


def todd_coxeter(p, subgroup_words, max_cosets=DEFAULT_MAX_COSETS):
    """Enumerate cosets of <subgroup_words> in the group presented by p.

    HLT strategy: scan subgroup words from coset 0, then every relator from
    every live coset in order, defining cosets to fill gaps and finishing
    each row.  Raises ResourceExhausted if more than max_cosets rows would
    be live at once.
    """
    subgroup_words = tuple(free_reduce(w) for w in subgroup_words)
    ngens = p.num_generators
    ncols = 2 * ngens
    relator_cols = [_word_cols(r) for r in p.relators]

    table = [[-1] * ncols]
    reps = [0]
    merge_queue = []

    def rep(k):
        while reps[k] != k:
            reps[k] = reps[reps[k]]
            k = reps[k]
        return k

    def define(alpha, c):
        if len(table) >= max_cosets:
            raise ResourceExhausted(
                f"coset limit {max_cosets} reached enumerating "
                f"<{[render_word(w, p.generator_names) for w in subgroup_words]}>",
                limit=max_cosets, reached=len(table))
        beta = len(table)
        table.append([-1] * ncols)
        reps.append(beta)
        table[alpha][c] = beta
        table[beta][_inv_col(c)] = alpha
        return beta

    def merge(k, l):
        k, l = rep(k), rep(l)
        if k != l:
            keep, die = (k, l) if k < l else (l, k)
            reps[die] = keep
            merge_queue.append(die)

    def process_coincidences():
        while merge_queue:
            gamma = merge_queue.pop(0)
            row = table[gamma]
            for c in range(ncols):
                delta = row[c]
                if delta == -1:
                    continue
                table[delta][_inv_col(c)] = -1
                mu, nu = rep(gamma), rep(delta)
                if table[mu][c] != -1:
                    merge(nu, table[mu][c])
                elif table[nu][_inv_col(c)] != -1:
                    merge(mu, table[nu][_inv_col(c)])
                else:
                    table[mu][c] = nu
                    table[nu][_inv_col(c)] = mu

    def scan_and_fill(alpha, cols):
        # returns True if a coincidence was processed during this scan
        had = False
        if not cols:
            return had
        f, i = alpha, 0
        b, j = alpha, len(cols) - 1
        while True:
            while i <= j and table[f][cols[i]] != -1:
                f = table[f][cols[i]]
                i += 1
            if i > j:
                if f != b:
                    merge(f, b)
                    process_coincidences()
                    had = True
                return had
            while j >= i and table[b][_inv_col(cols[j])] != -1:
                b = table[b][_inv_col(cols[j])]
                j -= 1
            if j < i:
                merge(f, b)
                process_coincidences()
                return True
            if j == i:
                # one gap: the scan closes by deduction
                table[f][cols[i]] = b
                table[b][_inv_col(cols[i])] = f
                return had
            define(f, cols[i])

    def compact():
        live = [k for k in range(len(table)) if reps[k] == k]
        remap = {old: new for new, old in enumerate(live)}
        new_table = []
        for old in live:
            new_table.append([-1 if e == -1 else remap[rep(e)] for e in table[old]])
        table[:] = new_table
        reps[:] = list(range(len(table)))
        return remap

    sub_cols = [_word_cols(w) for w in subgroup_words]
    for cols in sub_cols:
        if scan_and_fill(0, cols):
            compact()

    alpha = 0
    while alpha < len(table):
        coincided = False
        for cols in relator_cols:
            coincided = scan_and_fill(alpha, cols) or coincided
            if rep(alpha) != alpha:
                break
        if rep(alpha) == alpha:
            for c in range(ncols):
                if table[alpha][c] == -1:
                    define(alpha, c)
        if coincided:
            target = rep(alpha)
            remap = compact()
            alpha = remap[target]
        alpha += 1

    # validate() re-traces every relator from every coset and the subgroup
    # words from 0; quotients of closed diagrams stay closed, so this is a
    # certificate, not a repair step
    result = CosetTable(p, subgroup_words, table)
    result.validate()
    return result


def perm_rep(t):
    """The action on cosets: (PermGroup, generator images)."""
    images = []
    for g in range(t.presentation.num_generators):
        images.append(Perm(tuple(row[2 * g] for row in t.table)))
    return PermGroup(t.num_cosets, images), images


def spanning_tree(t):
    """Breadth-first spanning tree of the coset graph, from coset 0.

    Returns (discoveries, symbol).  discoveries lists a triple
    (alpha, c, beta) per coset beta other than 0, in discovery order: beta
    was first reached as table[alpha][c], smaller cosets tried first, then
    columns in order.  symbol[alpha * |X| + g] numbers the positive edge
    (alpha, g) among the edges off the tree, in (alpha, g) order, and is
    None on a tree edge; k(|X|-1)+1 edges are off the tree.  Raises
    InvariantViolation unless every coset is reached, the certificate that
    the table is transitive.
    """
    n = t.num_cosets
    ngens = t.presentation.num_generators
    seen = [False] * n
    seen[0] = True
    queue = [0]
    discoveries = []
    for alpha in queue:
        for c, beta in enumerate(t.table[alpha]):
            if not seen[beta]:
                seen[beta] = True
                discoveries.append((alpha, c, beta))
                queue.append(beta)
    if len(queue) != n:
        raise InvariantViolation(f"coset table is not transitive: {len(queue)} "
                                 f"of {n} cosets reached from coset 0")
    symbol = [0] * (n * ngens)
    for alpha, c, beta in discoveries:
        g, sign = divmod(c, 2)
        symbol[(beta if sign else alpha) * ngens + g] = None
    count = 0
    for e, s in enumerate(symbol):
        if s is not None:
            symbol[e] = count
            count += 1
    return discoveries, symbol


def schreier_tree(t):
    """Schreier transversal along the spanning tree.

    Returns (transversal, symbol): transversal[alpha] is a minimal length
    word carrying coset 0 to alpha, and symbol is spanning_tree's edge
    numbering.
    """
    discoveries, symbol = spanning_tree(t)
    transversal = [None] * t.num_cosets
    transversal[0] = Word()
    for alpha, c, beta in discoveries:
        g, sign = divmod(c, 2)
        transversal[beta] = transversal[alpha] * Word(((g, -1 if sign else 1),))
    return transversal, symbol


def schreier_generators(t):
    """Subgroup generators u_alpha g u_{alpha.g}^-1 for non-tree edges."""
    transversal, symbol = schreier_tree(t)
    ngens = t.presentation.num_generators
    gens = []
    for e, s in enumerate(symbol):
        if s is not None:
            alpha, g = divmod(e, ngens)
            beta = t.table[alpha][2 * g]
            gens.append(transversal[alpha] * Word(((g, 1),))
                        * transversal[beta].inverse())
    return gens


def regular_action_table(p, images, base, max_order=DEFAULT_MAX_COSETS):
    """Coset table of the image group acting on the images of a base.

    x.g moves the base to g applied to the points x moves it to, so these
    tuples are walked breadth first from the base, coset 0, with the
    generators in order; a one-point base is walked by the point.  When
    only the identity fixes the base, the table is the regular action of
    the image, one row per element, describing the kernel of the map
    sending generators to images; schreier_generators(table) generates
    that kernel.  Raises ResourceExhausted past max_order rows.
    """
    if len(images) != p.num_generators:
        raise ValueError(f"{len(images)} images for {p.num_generators} generators")
    columns = [c for g in images for c in (g.images, inverse_perm(g).images)]
    if len(base) == 1:
        start, moves = base[0], [c.__getitem__ for c in columns]
    else:
        start = tuple(base)
        moves = [lambda x, c=c: tuple(map(c.__getitem__, x)) for c in columns]
    forward = moves[::2]
    position = {start: 0}
    elements = [start]
    for x in elements:
        for move in forward:
            y = move(x)
            if y not in position:
                if len(elements) >= max_order:
                    raise ResourceExhausted(
                        f"image group exceeds {max_order} elements",
                        limit=max_order, reached=len(elements))
                position[y] = len(elements)
                elements.append(y)
    table = zip(*(map(position.__getitem__, map(move, elements))
                  for move in moves))
    return CosetTable(p, (), table).validate()


def standardized_table(rows, start=0):
    """Flatten a complete table after BFS renumbering from a basepoint.

    Two (table, basepoint) pairs describe the same subgroup exactly when
    their standardized flattenings agree, so the set of flattenings over all
    basepoints counts the conjugates of the subgroup a table describes.
    """
    ncols = len(rows[0])
    numbering = {start: 0}
    order = [start]
    head = 0
    while head < len(order):
        alpha = order[head]
        head += 1
        for c in range(ncols):
            beta = rows[alpha][c]
            if beta not in numbering:
                numbering[beta] = len(order)
                order.append(beta)
    flat = []
    for alpha in order:
        flat.extend(numbering[rows[alpha][c]] for c in range(ncols))
    return tuple(flat)


def low_index_subgroups(p, max_index, max_nodes=DEFAULT_MAX_NODES):
    """All subgroups of index <= max_index, one table per conjugacy class.

    Backtracking over partial tables with relator-driven deductions.  Every
    completed table is renumbered from each possible base point and the
    lexicographically least flattening is kept, which both canonicalizes
    the numbering and collapses conjugate subgroups.  Output is sorted by
    index, then by canonical table; the tables carry no subgroup words.
    """
    ngens = p.num_generators
    ncols = 2 * ngens
    relator_cols = [_word_cols(r) for r in p.relators]
    nodes = 0
    found = {}

    def propagate(table):
        # apply forced relator deductions until stable; False on contradiction
        changed = True
        while changed:
            changed = False
            for alpha in range(len(table)):
                for cols in relator_cols:
                    f, i = alpha, 0
                    b, j = alpha, len(cols) - 1
                    while i <= j and table[f][cols[i]] != -1:
                        f = table[f][cols[i]]
                        i += 1
                    if i > j:
                        if f != b:
                            return False
                        continue
                    while j >= i and table[b][_inv_col(cols[j])] != -1:
                        b = table[b][_inv_col(cols[j])]
                        j -= 1
                    if j < i:
                        return False
                    if j == i:
                        c = cols[i]
                        if table[f][c] == -1 and table[b][_inv_col(c)] == -1:
                            table[f][c] = b
                            table[b][_inv_col(c)] = f
                            changed = True
                        elif table[f][c] != b:
                            return False
        return True

    def search(table):
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise ResourceExhausted(f"low index search exceeded {max_nodes} nodes",
                                    limit=max_nodes, reached=nodes)
        work = [row[:] for row in table]
        if not propagate(work):
            return
        pos = None
        for alpha in range(len(work)):
            for c in range(ncols):
                if work[alpha][c] == -1:
                    pos = (alpha, c)
                    break
            if pos:
                break
        if pos is None:
            canon = min(standardized_table(work, s) for s in range(len(work)))
            if canon not in found:
                rows = [list(canon[i * ncols:(i + 1) * ncols])
                        for i in range(len(work))]
                found[canon] = rows
            return
        alpha, c = pos
        candidates = [b for b in range(len(work)) if work[b][_inv_col(c)] == -1]
        if len(work) < max_index:
            candidates.append(len(work))
        for beta in candidates:
            trial = [row[:] for row in work]
            if beta == len(trial):
                trial.append([-1] * ncols)
            trial[alpha][c] = beta
            trial[beta][_inv_col(c)] = alpha
            search(trial)

    if max_index < 1:
        raise ValueError(f"max_index must be >= 1, got {max_index}")
    search([[-1] * ncols])

    return [CosetTable(p, (), found[canon]).validate()
            for canon in sorted(found, key=lambda f: (len(f) // ncols, f))]
