"""Words in free generators and finite presentations.

A word is stored run-length encoded: a tuple of (generator index, exponent)
pairs with nonzero exponents.  Reduction merges adjacent runs on the same
generator and drops cancelling pairs.  Configs and reports write words as
text: whitespace separated tokens, each ``name`` or ``name^k`` with k a
nonzero integer, e.g. ``"a b^-2 a^3"``.  A word the code builds itself is
made from runs, never from text.
"""

import itertools


class Word:
    """Run-length encoded word over integer generator indices."""

    __slots__ = ("runs",)

    def __init__(self, runs=()):
        cleaned = []
        for gen, exp in runs:
            if exp == 0:
                raise ValueError(f"zero exponent on generator {gen}")
            if gen < 0:
                raise ValueError(f"negative generator index {gen}")
            cleaned.append((int(gen), int(exp)))
        self.runs = tuple(cleaned)

    def is_empty(self):
        return not self.runs

    def letters(self):
        """Yield (generator, sign) for each letter, exponents expanded."""
        for gen, exp in self.runs:
            sign = 1 if exp > 0 else -1
            for _ in range(abs(exp)):
                yield gen, sign

    def inverse(self):
        return Word(tuple((g, -e) for g, e in reversed(self.runs)))

    def shifted(self, offset):
        """The same runs with every generator index moved by offset."""
        return Word(tuple((g + offset, e) for g, e in self.runs))

    def __mul__(self, other):
        return free_reduce(Word(self.runs + other.runs))

    def __eq__(self, other):
        return isinstance(other, Word) and self.runs == other.runs

    def __hash__(self):
        return hash(self.runs)

    def __repr__(self):
        return f"Word({list(self.runs)!r})"


def free_reduce(w):
    """Freely reduce a word.

    Merges adjacent runs on the same generator and deletes runs whose
    exponents cancel.  Idempotent, and never increases letter length.
    """
    stack = []
    for gen, exp in w.runs:
        if stack and stack[-1][0] == gen:
            merged = stack[-1][1] + exp
            stack.pop()
            if merged != 0:
                stack.append((gen, merged))
        else:
            stack.append((gen, exp))
    return Word(tuple(stack))


def parse_word(text, generator_names):
    """Parse the token format into a freely reduced Word.

    Each token is ``name`` or ``name^k``, with k written exactly as str(k)
    writes it.  Unknown names and zero exponents are rejected.  The empty
    string parses to the empty word.
    """
    index = {name: i for i, name in enumerate(generator_names)}
    runs = []
    for token in text.split():
        if "^" in token:
            name, _, exp_text = token.partition("^")
            try:
                exp = int(exp_text)
                if str(exp) != exp_text:
                    raise ValueError
            except ValueError:
                raise ValueError(f"bad exponent {exp_text!r} in token {token!r}")
        else:
            name, exp = token, 1
        if name not in index:
            raise ValueError(f"unknown generator {name!r} (have {list(generator_names)})")
        if exp == 0:
            raise ValueError(f"zero exponent in token {token!r}")
        runs.append((index[name], exp))
    return free_reduce(Word(tuple(runs)))


def render_word(w, generator_names):
    """Inverse of parse_word on reduced words."""
    parts = []
    for gen, exp in w.runs:
        if gen >= len(generator_names):
            raise ValueError(f"generator index {gen} out of range")
        name = generator_names[gen]
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return " ".join(parts)


def exponent_sums(w, num_generators):
    """Abelianized image of w as a list of exponent sums."""
    sums = [0] * num_generators
    for gen, exp in w.runs:
        sums[gen] += exp
    return sums


def commutator(u, v):
    """u v u^-1 v^-1, freely reduced once."""
    return free_reduce(Word(u.runs + v.runs + u.inverse().runs
                            + v.inverse().runs))


def distinct_names(candidates):
    """The candidates in order, each given trailing underscores until it
    differs from every name before it."""
    names = []
    for candidate in candidates:
        while candidate in names:
            candidate += "_"
        names.append(candidate)
    return tuple(names)


class Presentation:
    """A finite presentation <generator_names | relators>.

    The aspherical flag marks presentations whose presentation 2-complex is
    known to be a classifying space; degree-2 homology of covers is reported
    as exact group homology only under this flag.
    """

    __slots__ = ("generator_names", "relators", "aspherical")

    def __init__(self, generator_names, relators, aspherical=False):
        names = tuple(generator_names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate generator names in {names}")
        for name in names:
            if not name or not name.replace("_", "a").isalnum() or name[0].isdigit():
                raise ValueError(f"generator name {name!r} is not an identifier")
        rels = tuple(free_reduce(r) for r in relators)
        for r in rels:
            for gen, _ in r.runs:
                if gen >= len(names):
                    raise ValueError(f"relator uses generator index {gen}, only {len(names)} generators")
        self.generator_names = names
        self.relators = rels
        self.aspherical = aspherical

    def __eq__(self, other):
        if type(other) is not Presentation:
            return NotImplemented
        return ((self.generator_names, self.relators, self.aspherical)
                == (other.generator_names, other.relators, other.aspherical))

    @property
    def num_generators(self):
        return len(self.generator_names)

    def word(self, text):
        return parse_word(text, self.generator_names)

    def render(self, w):
        return render_word(w, self.generator_names)


def presentation_from_texts(names, relator_texts, aspherical=False):
    names = tuple(names)
    rels = tuple(parse_word(t, names) for t in relator_texts)
    return Presentation(names, rels, aspherical)


def abelianized_relator_matrix(p):
    """Rows are relators, columns generators, entries exponent sums."""
    return [exponent_sums(r, p.num_generators) for r in p.relators]


def presentation_euler_characteristic(p):
    """Euler characteristic of the presentation 2-complex, 1 - |X| + |R|."""
    return 1 - p.num_generators + len(p.relators)


def product_presentation(factors):
    """Presentation of a direct product: disjoint generators, factor relators,
    and one commutator per cross-factor generator pair.

    Generator names get their factor's position as a suffix (a0 b0 a1 b1
    for two copies of <a, b>).  The aspherical flag survives only
    for a product of exactly two relator-free factors, where the presentation
    complex coincides with the product of wedges.
    """
    if not factors:
        raise ValueError("need at least one factor")
    if len(factors) == 1:
        return factors[0]
    names = distinct_names(f"{name}{i}" for i, p in enumerate(factors)
                           for name in p.generator_names)
    offsets = list(itertools.accumulate(
        (p.num_generators for p in factors), initial=0))
    relators = [r.shifted(off) for p, off in zip(factors, offsets)
                for r in p.relators]
    spans = [range(a, b) for a, b in itertools.pairwise(offsets)]
    for left, right in itertools.combinations(spans, 2):
        relators.extend(commutator(Word(((a, 1),)), Word(((b, 1),)))
                        for a in left for b in right)
    aspherical = (
        len(factors) == 2
        and all(not p.relators for p in factors)
        and all(p.aspherical for p in factors)
    )
    return Presentation(names, tuple(relators), aspherical)
