"""Words in free generators and finite presentations.

A word is stored run-length encoded: a tuple of (generator index, exponent)
pairs with nonzero exponents.  Reduction merges adjacent runs on the same
generator and drops cancelling pairs.  The text format used everywhere
(configs, relator tables, edge words) is whitespace separated tokens,
each ``name`` or ``name^k`` with k a nonzero integer, e.g. ``"a b^-2 a^3"``.
"""

from dataclasses import dataclass


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

    @property
    def length(self):
        """Total letter count, i.e. the sum of |exponent| over runs."""
        return sum(abs(e) for _, e in self.runs)

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

    def __mul__(self, other):
        return free_reduce(Word(self.runs + other.runs))

    def __pow__(self, n):
        if n == 0:
            return Word()
        base = self if n > 0 else self.inverse()
        out = Word()
        for _ in range(abs(n)):
            out = out * base
        return out

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

    Each token is ``name`` or ``name^k``.  Unknown names and zero exponents
    are rejected.  The empty string parses to the empty word.
    """
    index = {name: i for i, name in enumerate(generator_names)}
    runs = []
    for token in text.split():
        if "^" in token:
            name, _, exp_text = token.partition("^")
            try:
                exp = int(exp_text)
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
    return u * v * u.inverse() * v.inverse()


@dataclass(frozen=True)
class Presentation:
    """A finite presentation <generator_names | relators>.

    The aspherical flag marks presentations whose presentation 2-complex is
    known to be a classifying space; degree-2 homology of covers is reported
    as exact group homology only under this flag.
    """

    generator_names: tuple
    relators: tuple
    aspherical: bool = False

    def __post_init__(self):
        names = tuple(self.generator_names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate generator names in {names}")
        for name in names:
            if not name or not name.replace("_", "a").isalnum() or name[0].isdigit():
                raise ValueError(f"generator name {name!r} is not an identifier")
        rels = tuple(free_reduce(r) for r in self.relators)
        for r in rels:
            for gen, _ in r.runs:
                if gen >= len(names):
                    raise ValueError(f"relator uses generator index {gen}, only {len(names)} generators")
        object.__setattr__(self, "generator_names", names)
        object.__setattr__(self, "relators", rels)

    @property
    def num_generators(self):
        return len(self.generator_names)

    def gen(self, name):
        return self.generator_names.index(name)

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


def product_presentation(factors, labels=None):
    """Presentation of a direct product: disjoint generators, factor relators,
    and one commutator per cross-factor generator pair.

    Generator names get a factor suffix.  The aspherical flag survives only
    for a product of exactly two relator-free factors, where the presentation
    complex coincides with the product of wedges.
    """
    if not factors:
        raise ValueError("need at least one factor")
    if len(factors) == 1:
        return factors[0]
    names = []
    offsets = []
    for i, p in enumerate(factors):
        offsets.append(len(names))
        suffix = str(labels[i]) if labels else str(i)
        for name in p.generator_names:
            candidate = f"{name}{suffix}"
            while candidate in names:
                candidate += "_"
            names.append(candidate)
    names = tuple(names)

    def shift(w, off):
        return Word(tuple((g + off, e) for g, e in w.runs))

    relators = []
    for i, p in enumerate(factors):
        for r in p.relators:
            relators.append(shift(r, offsets[i]))
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            for gi in range(factors[i].num_generators):
                for gj in range(factors[j].num_generators):
                    a = Word(((offsets[i] + gi, 1),))
                    b = Word(((offsets[j] + gj, 1),))
                    relators.append(commutator(a, b))
    aspherical = (
        len(factors) == 2
        and all(not p.relators for p in factors)
        and all(p.aspherical for p in factors)
    )
    return Presentation(names, tuple(relators), aspherical)
