"""Exceptions shared across the toolkit.

The command line maps these to exit codes: ResourceExhausted -> 2,
InvariantViolation -> 3.  Everything else is an ordinary error; bad input
is a ValueError that names the offending config key.
"""


class GradlabError(Exception):
    pass


class ResourceExhausted(GradlabError):
    """A computation hit a configured ceiling (cosets, search nodes, group order)."""


class InvariantViolation(GradlabError):
    """An internal consistency check failed.

    These are raised when two pipelines that must agree do not, or when a
    certified identity fails.  They indicate a bug, never bad user input.
    """


def _is(value, kind):
    # JSON true and false are Python bools, which are ints too
    return isinstance(value, kind) and not (kind is int and isinstance(value, bool))


def need(spec, key, where, kind, item=None):
    """spec[key] of a config object, which must be a kind (holding only
    items, if given: the values of a dict, the entries of a list); a
    ValueError naming the key otherwise.  A bool is not an int here."""
    if not isinstance(spec, dict) or key not in spec:
        raise ValueError(f"{where} needs {key!r}")
    value = spec[key]
    items = value.values() if isinstance(value, dict) else value
    if not _is(value, kind) or (
            item is not None and not all(_is(v, item) for v in items)):
        raise ValueError(f"{where}: bad {key!r} value {value!r}")
    return value


def reject_unknown(spec, where, known):
    """A ValueError naming every key of a config object that its reader
    does not read; a spec that is not an object is left to need."""
    unknown = set(spec) - set(known) if isinstance(spec, dict) else ()
    if unknown:
        raise ValueError(f"unknown {where} keys {sorted(unknown)}")
