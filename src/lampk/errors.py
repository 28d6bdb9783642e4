"""Exception hierarchy shared across the package.

Everything raised on bad *mathematical* input derives from LampkError so the
CLI can map domain failures to a single exit code; genuinely malformed
invocations (unparseable JSON, unknown flags) are usage errors and stay out
of this hierarchy.
"""

import sys


class LampkError(Exception):
    """Base class for domain errors raised by lampk."""


class CatalogError(LampkError):
    """Unknown built-in group name."""


class GroupDataError(LampkError):
    """Representation data violates a structural invariant."""


class NonAbelianGroupError(LampkError):
    """A full-shift operation was asked for a non-abelian group.

    The function model on the dual only exists when every irreducible
    representation is one-dimensional, i.e. the group is abelian.
    """


class TruncationError(LampkError):
    """A level vector has support beyond the configured truncation."""


class BudgetError(LampkError):
    """A computation would exceed one of the package's size limits."""


# Characters of an outside value an error message quotes: a longer quote is
# cut there, so a message never echoes all of a long input.
MAX_QUOTED_CHARS = 64


def quoted(value, form=repr) -> str:
    """``form(value)``, its repr by default, as an error message quotes it:
    past MAX_QUOTED_CHARS characters it is cut, and the length it was cut
    from is stated.  A value holding an integer past the interpreter's digit
    limit has no text: its type is stated instead."""
    try:
        text = form(value)
    except ValueError:  # an integer past the digit limit
        limit = sys.get_int_max_str_digits()
        return f"a value of type {type(value).__name__} past the {limit}-digit limit"
    if len(text) <= MAX_QUOTED_CHARS:
        return text
    return f"{text[:MAX_QUOTED_CHARS]}... (cut from {len(text)} characters)"


def exact_int(value, what: str) -> int:
    """The integer ``value`` denotes, read as int() reads it; a bool, or a
    number int() would truncate, is an error.  A string of digits (a JSON
    object key) is read as its integer; one past the interpreter's digit
    limit is an error that states the limit, not the string, and any other
    value is quoted through ``quoted``."""
    if type(value) is int:
        return value
    try:
        n = int(value)
        if isinstance(value, bool) or (not isinstance(value, str) and n != value):
            raise ValueError
    except (TypeError, ValueError, OverflowError) as exc:
        if isinstance(value, str) and str(exc).startswith("Exceeds the limit"):
            limit = sys.get_int_max_str_digits()
            raise LampkError(f"{what} has more than {limit} digits") from exc
        raise LampkError(f"{what} must be an integer, got {quoted(value)}") from exc
    return n


def check_budget(what, work, limit, noun, *, steps=None, stated=None) -> None:
    """Raise BudgetError, before any work starts, if ``work`` is over ``limit``.

    ``work`` counts ``noun``.  With ``steps`` it is a closed form work(k),
    nondecreasing and at least 2^(k-1), tried at k = 1, 2, 4, ..., steps
    until over the limit (work(steps) is then over too): about
    log2(limit.bit_length()) tries, none past about limit^2.  The message
    states the limit (``stated`` on the noun's scale), never the count.
    """
    if steps is not None:
        k = min(steps, 1)
        while k < steps and work(k) <= limit:
            k = min(2 * k, steps)
        work = work(k)
    if work > limit:
        raise BudgetError(f"{what} needs more than {stated or limit} {noun}")
