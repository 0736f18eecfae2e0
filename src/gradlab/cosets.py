"""Coset enumeration and subgroup machinery for finite presentations.

The enumerator is HLT: relators are scanned coset by coset and gaps are
filled with fresh definitions (no lookahead).  Dead cosets stay in the
working table and are skipped; once every live coset is closed, the live
ones are renumbered breadth first from coset 0, the subgroup itself, so
the result is a standardized table.  All iteration orders are fixed, so a
given presentation, subgroup and limit always produce the identical table.
Both enumerators share one scan, _scan, and every walk over a table is
one breadth-first walk over its columns, _walk.  A complete table is
stored as its columns; CosetTable.validate certifies a column and its
inverse column by two permgrp.gather calls and carries cosets along
relators and subgroup words by permgrp.carry.  A table of an image group
is gathered, column by column, off a walk it is given, the orbit of a
point or of a base tuple, through a chain level's columns.
"""

from itertools import zip_longest

from .errors import InvariantViolation, ResourceExhausted
from .permgrp import Perm, PermGroup, carry, gather
from .words import Word, free_reduce, render_word

STRATEGY_VERSION = "hlt-1"

DEFAULT_MAX_COSETS = 50000


def _word_cols(w):
    # a word as column indices: generator g is column 2g, its inverse 2g+1
    return [2 * gen + (sign < 0) for gen, sign in w.letters()]


def _scan(table, alpha, cols):
    """Scan a relator, as column indices, from coset alpha.

    Walks forward from the front of cols and then backward from its back,
    as far as the (possibly partial) table is defined.  Returns
    (f, i, b, j): alpha.cols[:i] = f and b.cols[j+1:] = alpha.  If i > j
    the relator closes exactly when f == b; if i == j one entry is
    missing, and deduction fills it with f.cols[i] = b.
    """
    f, i = alpha, 0
    b, j = alpha, len(cols) - 1
    while i <= j and table[f][cols[i]] != -1:
        f = table[f][cols[i]]
        i += 1
    while j >= i and table[b][cols[j] ^ 1] != -1:
        b = table[b][cols[j] ^ 1]
        j -= 1
    return f, i, b, j


def _walk(columns, n, start):
    """Breadth-first discoveries of a table of n cosets from start.

    Lists a triple (alpha, c, beta) per coset beta reached other than
    start, in discovery order: beta was first reached as columns[c][alpha],
    earlier cosets tried first, then columns in order.  An undefined entry,
    -1, is never followed.
    """
    # the extra True stands for the undefined entry -1
    seen = [False] * n + [True]
    seen[start] = True
    queue = [start]
    discoveries = []
    numbered = tuple(enumerate(columns))
    for alpha in queue:
        for c, column in numbered:
            beta = column[alpha]
            if not seen[beta]:
                seen[beta] = True
                discoveries.append((alpha, c, beta))
                queue.append(beta)
    return discoveries


def _column_table(presentation, subgroup_words, num_cosets, columns):
    """A CosetTable of columns already laid out, with no transpose."""
    t = CosetTable.__new__(CosetTable)
    t.presentation = presentation
    t.subgroup_words = tuple(subgroup_words)
    t.num_cosets = num_cosets
    t.columns = columns
    return t


def _flat_table(presentation, subgroup_words, flat):
    """The CosetTable of a flattened table, rows one after another:
    column c is every ncols-th entry from entry c."""
    ncols = 2 * presentation.num_generators
    return _column_table(presentation, subgroup_words,
                         len(flat) // ncols if ncols else 1,
                         [flat[c::ncols] for c in range(ncols)])


def _entry_error(rows, ncols):
    """The first fault a row-major scan of a table's rows meets: a row of
    the wrong length, then an entry out of range, then an entry whose
    inverse entry does not lead back."""
    n = len(rows)
    for alpha, row in enumerate(rows):
        if len(row) != ncols:
            return f"row {alpha} has {len(row)} columns, wanted {ncols}"
    for alpha, row in enumerate(rows):
        for c, beta in enumerate(row):
            if not 0 <= beta < n:
                return f"entry ({alpha},{c}) = {beta} out of range"
            if rows[beta][c ^ 1] != alpha:
                return f"inverse entry mismatch at ({alpha},{c})"


class CosetTable:
    """Complete coset table for a subgroup of a finitely presented group,
    stored as its columns.

    columns[2g][alpha] is the coset alpha.g and columns[2g+1][alpha] is
    alpha.g^-1, so a table over no generators has no columns.  Coset 0
    is the subgroup.  The constructor transposes rows once; a short row
    leaves None in the columns it lacks, which validate reports.  table
    derives the rows afresh on every read.
    """

    def __init__(self, presentation, subgroup_words, rows):
        rows = list(rows)
        self.presentation = presentation
        self.subgroup_words = tuple(subgroup_words)
        self.num_cosets = len(rows)
        self.columns = (list(zip_longest(*rows)) if rows
                        else [()] * (2 * presentation.num_generators))

    @property
    def table(self):
        rows = zip(*self.columns) if self.columns else [()] * self.num_cosets
        return [[beta for beta in row if beta is not None] for row in rows]

    def validate(self):
        """Check completeness, inverse consistency, relator and subgroup
        closure.

        Each check runs in lockstep over the columns.  A column c and its
        inverse column c^1 are certified by two gathers, one each way:
        when each carries the other to every coset in order, both are
        permutations of the cosets, inverse to each other, so no entry is
        out of range, not even a negative one, which a gather reads from
        the end.  A relator closes when carrying every coset along it
        gives every coset back; a subgroup word, when it carries coset 0
        back.  permgrp.carry costs O(cosets log |k|) for a run g^k.
        A failure names the first row of the wrong length, then the first
        entry (alpha, c) in row-major order, or the least coset and then
        the first relator, as a per-entry scan would; the rows are only
        scanned once a gather has failed.
        """
        columns = self.columns
        ncols = 2 * self.presentation.num_generators
        cosets = tuple(range(self.num_cosets))
        try:
            whole = len(columns) == ncols and all(
                gather(columns[c ^ 1], column) == cosets
                for c, column in enumerate(columns))
        except (IndexError, TypeError):
            # an entry past the cosets, or the None of a short row
            whole = False
        if not whole:
            raise InvariantViolation(_entry_error(self.table, ncols))
        relators = self.presentation.relators
        unclosed = []
        for j, r in enumerate(relators):
            ends = carry(r, columns, cosets)
            if ends != cosets:
                unclosed.append(next((alpha, j) for alpha in cosets if ends[alpha] != alpha))
        if unclosed:
            alpha, j = min(unclosed)
            raise InvariantViolation(f"relator {relators[j]!r} does not close from coset {alpha}")
        for w in self.subgroup_words:
            if carry(w, columns, (0,)) != (0,):
                raise InvariantViolation(f"subgroup word {w!r} leaves coset 0")
        return self


def todd_coxeter(p, subgroup_words, max_cosets=DEFAULT_MAX_COSETS):
    """Enumerate cosets of <subgroup_words> in the group presented by p.

    HLT strategy: scan subgroup words from coset 0, then every relator from
    every live coset in order, defining cosets to fill gaps and finishing
    each row; a coincidence kills cosets, which are skipped from then on.
    The live cosets are then renumbered breadth first from coset 0, so the
    flattened table is its own standardized_table from 0.  Raises
    ResourceExhausted if more than max_cosets cosets would be live at once.
    """
    subgroup_words = tuple(free_reduce(w) for w in subgroup_words)
    ncols = 2 * p.num_generators
    table = [[-1] * ncols]
    reps = [0]
    merge_queue = []
    dead = 0

    def rep(k):
        while reps[k] != k:
            reps[k] = reps[reps[k]]
            k = reps[k]
        return k

    def define(alpha, c):
        live = len(table) - dead
        if live >= max_cosets:
            raise ResourceExhausted(
                f"coset limit {max_cosets} reached enumerating "
                f"<{[render_word(w, p.generator_names) for w in subgroup_words]}>")
        beta = len(table)
        table.append([-1] * ncols)
        reps.append(beta)
        table[alpha][c] = beta
        table[beta][c ^ 1] = alpha

    def merge(k, l):
        nonlocal dead
        k, l = rep(k), rep(l)
        if k != l:
            keep, die = (k, l) if k < l else (l, k)
            reps[die] = keep
            merge_queue.append(die)
            dead += 1

    def process_coincidences():
        while merge_queue:
            gamma = merge_queue.pop(0)
            row = table[gamma]
            for c in range(ncols):
                delta = row[c]
                if delta == -1:
                    continue
                table[delta][c ^ 1] = -1
                mu, nu = rep(gamma), rep(delta)
                if table[mu][c] != -1:
                    merge(nu, table[mu][c])
                elif table[nu][c ^ 1] != -1:
                    merge(mu, table[nu][c ^ 1])
                else:
                    table[mu][c] = nu
                    table[nu][c ^ 1] = mu

    def scan_and_fill(alpha, cols):
        while True:
            f, i, b, j = _scan(table, alpha, cols)
            if i > j:
                if f != b:
                    merge(f, b)
                    process_coincidences()
                return
            if i == j:
                # one gap: the scan closes by deduction
                table[f][cols[i]] = b
                table[b][cols[i] ^ 1] = f
                return
            define(f, cols[i])

    for w in subgroup_words:
        scan_and_fill(0, _word_cols(w))
    relator_cols = [_word_cols(r) for r in p.relators]
    alpha = 0
    while alpha < len(table):
        for cols in relator_cols:
            if reps[alpha] != alpha:
                break
            scan_and_fill(alpha, cols)
        if reps[alpha] == alpha:
            for c in range(ncols):
                if table[alpha][c] == -1:
                    define(alpha, c)
        alpha += 1

    # processed coincidences leave no live row pointing at a dead coset, so
    # the walk from 0 renumbers the live ones; a -1 left in a live row stays
    # -1 and fails validate, whose retrace of every relator and subgroup
    # word is a certificate, not a repair step
    flat = standardized_table(list(zip(*table)), len(table), 0)
    return _flat_table(p, subgroup_words, flat).validate()


def perm_rep(t):
    """The action on cosets: (PermGroup, generator images)."""
    images = [Perm(column) for column in t.columns[::2]]
    return PermGroup(t.num_cosets, images), images


def spanning_tree(t):
    """Breadth-first spanning tree of the coset graph, from coset 0.

    Returns (discoveries, symbol): discoveries is _walk of the columns
    from 0, a triple (alpha, c, beta) per coset beta other than 0.
    symbol[alpha * |X| + g] numbers the positive edge (alpha, g) among the
    edges off the tree, in (alpha, g) order, and is None on a tree edge;
    k(|X|-1)+1 edges are off the tree.  Raises InvariantViolation unless every coset
    is reached, the certificate that the table is transitive.
    """
    n = t.num_cosets
    ngens = t.presentation.num_generators
    discoveries = _walk(t.columns, n, 0)
    if len(discoveries) != n - 1:
        raise InvariantViolation(f"coset table is not transitive: {len(discoveries) + 1} "
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
            beta = t.columns[2 * g][alpha]
            gens.append(transversal[alpha] * Word(((g, 1),))
                        * transversal[beta].inverse())
    return gens


def base_orbit(images, base, max_order=DEFAULT_MAX_COSETS):
    """The images of the tuple base under the group the images generate,
    breadth first from base with the images tried in order, as
    permgrp.orbit walks a point.  Raises ResourceExhausted past max_order
    tuples."""
    start = tuple(base)
    seen = {start}
    walk = [start]
    for x in walk:
        for g in images:
            y = gather(g.images, x)
            if y not in seen:
                if len(walk) >= max_order:
                    raise ResourceExhausted(
                        f"image group exceeds {max_order} elements")
                seen.add(y)
                walk.append(y)
    return walk


def regular_action_table(p, columns, walk):
    """Coset table of the image group acting on a walk: the orbit of a
    point, from permgrp.orbit, or of a base tuple, from base_orbit, listed
    breadth first from its start with the images tried in order.

    columns holds the images and their inverses in a table's layout, as
    ChainLevel.columns does.  Coset k is the walk's k-th entry, so coset 0
    is the start, and column c is the position of every entry moved by
    columns[c], gathered whole and handed to the table as it is.  When
    only the identity fixes the start, the table is the regular action of the
    image, one row per element, describing the kernel of the map sending
    generators to images; schreier_generators(table) generates that
    kernel.  The walk must be closed under the images.
    """
    if len(columns) != 2 * p.num_generators:
        raise ValueError(f"{len(columns)} columns for {p.num_generators} generators")
    position = dict(zip(walk, range(len(walk))))
    if walk and isinstance(walk[0], tuple):
        moved = [gather(position, [gather(c, x) for x in walk]) for c in columns]
    else:
        moved = [gather(position, gather(c, walk)) for c in columns]
    table = _column_table(p, (), len(walk), moved)
    # the table check does not need the position map
    del position
    return table.validate()


def standardized_table(columns, n, start=0):
    """Flatten a table on n cosets, given by its columns, after BFS
    renumbering from a basepoint, rows one after another.

    Two (table, basepoint) pairs describe the same subgroup exactly when
    their standardized flattenings agree, so the set of flattenings over all
    basepoints counts the conjugates of the subgroup a table describes.
    Rows not reached from start are left out; an entry -1 stays -1.
    """
    order = [start] + [beta for _, _, beta in _walk(columns, n, start)]
    # the extra slot keeps number[-1] == -1
    number = [-1] * (n + 1)
    for new, old in enumerate(order):
        number[old] = new
    return tuple(number[column[alpha]] for alpha in order for column in columns)


def low_index_subgroups(p, max_index, max_cosets=DEFAULT_MAX_COSETS):
    """All subgroups of index <= max_index, one table per conjugacy class.

    Backtracking over partial tables with relator-driven deductions.  Every
    completed table is renumbered from each possible base point and the
    lexicographically least flattening is kept, which both canonicalizes
    the numbering and collapses conjugate subgroups.  Output is sorted by
    index, then by canonical table; the tables carry no subgroup words.
    Past ten nodes per coset of max_cosets it raises ResourceExhausted.
    """
    ncols = 2 * p.num_generators
    relator_cols = [_word_cols(r) for r in p.relators]
    max_nodes = 10 * max_cosets
    nodes = 0
    found = set()

    def propagate(table):
        # apply forced relator deductions until stable; False on contradiction
        changed = True
        while changed:
            changed = False
            for alpha in range(len(table)):
                for cols in relator_cols:
                    f, i, b, j = _scan(table, alpha, cols)
                    if i > j:
                        if f != b:
                            return False
                    elif i == j:
                        table[f][cols[i]] = b
                        table[b][cols[i] ^ 1] = f
                        changed = True
        return True

    def search(work):
        # work is the caller's fresh copy, filled in place
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise ResourceExhausted(f"low index search exceeded {max_nodes} nodes, "
                                    f"ten per coset of the budget {max_cosets}")
        if not propagate(work):
            return
        pos = next(((alpha, c) for alpha, row in enumerate(work)
                    for c, beta in enumerate(row) if beta == -1), None)
        if pos is None:
            columns = list(zip(*work))
            found.add(min(standardized_table(columns, len(work), s)
                          for s in range(len(work))))
            return
        alpha, c = pos
        candidates = [b for b in range(len(work)) if work[b][c ^ 1] == -1]
        if len(work) < max_index:
            candidates.append(len(work))
        for beta in candidates:
            trial = [row[:] for row in work]
            if beta == len(trial):
                trial.append([-1] * ncols)
            trial[alpha][c] = beta
            trial[beta][c ^ 1] = alpha
            search(trial)

    if max_index < 1:
        raise ValueError(f"max_index must be >= 1, got {max_index}")
    search([[-1] * ncols])
    return [_flat_table(p, (), canon).validate()
            for canon in sorted(found, key=lambda f: (len(f), f))]
