"""Coset enumeration and subgroup machinery for finite presentations.

The enumerator is HLT: relators are scanned coset by coset and gaps are
filled with fresh definitions (no lookahead).  Cosets are numbered in
discovery order, coset 0 is the subgroup itself, and dead cosets are
compacted away after every coincidence burst so the table stays dense.
All iteration orders are fixed, so a given presentation, subgroup and
limit always produce the identical table.
"""

from .errors import InvariantViolation, ResourceExhausted
from .permgrp import Perm, PermGroup, compose, inverse_perm
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

    def apply(self, coset, gen, sign=1):
        return self.table[coset][2 * gen if sign > 0 else 2 * gen + 1]

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
        for alpha in range(n):
            for r in self.presentation.relators:
                if self.trace(alpha, r) != alpha:
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


def schreier_tree(t):
    """BFS spanning tree from coset 0.

    Returns (transversal, tree_edges): transversal[alpha] is a minimal
    length word carrying coset 0 to alpha (ties resolved by discovery:
    smaller coset first, then column order), tree_edges is the set of
    positive edges (alpha, g) the tree uses.
    """
    n = t.num_cosets
    ngens = t.presentation.num_generators
    transversal = [None] * n
    transversal[0] = Word()
    tree_edges = set()
    queue = [0]
    head = 0
    while head < len(queue):
        alpha = queue[head]
        head += 1
        for c in range(2 * ngens):
            beta = t.table[alpha][c]
            if transversal[beta] is None:
                g, sign = divmod(c, 2)
                letter = Word(((g, 1 if sign == 0 else -1),))
                transversal[beta] = transversal[alpha] * letter
                # record the positive form of the edge used
                if sign == 0:
                    tree_edges.add((alpha, g))
                else:
                    tree_edges.add((beta, g))
                queue.append(beta)
    if any(w is None for w in transversal):
        raise InvariantViolation("coset table is not transitive")
    return transversal, tree_edges


def schreier_generators(t):
    """Subgroup generators u_alpha g u_{alpha.g}^-1 for non-tree edges."""
    transversal, tree_edges = schreier_tree(t)
    gens = []
    for alpha in range(t.num_cosets):
        for g in range(t.presentation.num_generators):
            if (alpha, g) in tree_edges:
                continue
            beta = t.table[alpha][2 * g]
            w = transversal[alpha] * Word(((g, 1),)) * transversal[beta].inverse()
            gens.append(w)
    return gens


def reidemeister_schreier(t):
    """Presentation of the subgroup a coset table describes.

    Generators: one symbol per non-tree positive edge of the Schreier tree,
    k(|X|-1)+1 of them for k cosets over |X| ambient generators.  Relators:
    each ambient relator rewritten from each coset, k|R| in all (kept even
    when they reduce to nothing, so the counts stay exact).
    """
    transversal, tree_edges = schreier_tree(t)
    symbol = {}
    names = []
    for alpha in range(t.num_cosets):
        for g in range(t.presentation.num_generators):
            if (alpha, g) in tree_edges:
                continue
            symbol[(alpha, g)] = len(names)
            names.append(f"s{len(names)}")

    def rewrite(alpha, r):
        runs = []
        cur = alpha
        for gen, sign in r.letters():
            if sign > 0:
                edge = (cur, gen)
                nxt = t.table[cur][2 * gen]
                if edge in symbol:
                    runs.append((symbol[edge], 1))
            else:
                prev = t.table[cur][2 * gen + 1]
                edge = (prev, gen)
                nxt = prev
                if edge in symbol:
                    runs.append((symbol[edge], -1))
            cur = nxt
        if cur != alpha:
            raise InvariantViolation(f"relator trace did not close from coset {alpha}")
        return free_reduce(Word(tuple(runs)))

    relators = []
    for alpha in range(t.num_cosets):
        for r in t.presentation.relators:
            relators.append(rewrite(alpha, r))
    from .words import Presentation
    return Presentation(tuple(names), tuple(relators),
                        aspherical=t.presentation.aspherical)


def regular_action_table(p, images, max_order=DEFAULT_MAX_COSETS):
    """Coset table of the kernel of the map sending generators to images.

    Enumerates the image group by breadth-first products (discovery order
    numbers the cosets; the identity is coset 0) and lets generators act by
    right multiplication, i.e. this is the regular action of the image.
    """
    if len(images) != p.num_generators:
        raise ValueError(f"{len(images)} images for {p.num_generators} generators")
    if not images:
        return CosetTable(p, (), [[]]).validate()
    degree = images[0].degree
    from .permgrp import identity_perm
    ident = identity_perm(degree)
    order = {ident: 0}
    elements = [ident]
    head = 0
    while head < len(elements):
        x = elements[head]
        head += 1
        for g in images:
            y = compose(x, g)
            if y not in order:
                if len(elements) >= max_order:
                    raise ResourceExhausted(
                        f"image group exceeds {max_order} elements",
                        limit=max_order, reached=len(elements))
                order[y] = len(elements)
                elements.append(y)
    inv_images = [inverse_perm(g) for g in images]
    table = []
    for x in elements:
        row = []
        for g, ginv in zip(images, inv_images):
            row.append(order[compose(x, g)])
            row.append(order[compose(x, ginv)])
        table.append(row)
    t = CosetTable(p, (), table)
    t.subgroup_words = tuple(schreier_generators(t))
    return t.validate()


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
    index, then by canonical table.
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

    tables = []
    for canon in sorted(found, key=lambda f: (len(f) // ncols, f)):
        body = found[canon]
        t = CosetTable(p, (), body)
        t.subgroup_words = tuple(schreier_generators(t))
        t.validate()
        tables.append(t)
    return tables
