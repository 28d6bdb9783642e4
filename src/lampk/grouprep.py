"""Finite groups presented by their irreducible-representation dimensions.

Every computation in this package depends on a finite group F only through
the vector of irrep dimensions (d_1, ..., d_r) and the order |F|:
induction multiplicities, minimal-projection traces, and the basis counts
are all functions of this data.  Character tables are deliberately not
modelled.

Index 0 always denotes the trivial representation (d_1 = 1); word and tuple
entries throughout the package are indices into ``dims``.
"""

from __future__ import annotations

import re
from collections.abc import Mapping

from .errors import CatalogError, GroupDataError, check_budget, exact_int, quoted

ISO = "iso"
NOT_ISO = "not-iso"
UNDECIDED = "undecided"


class GroupRepData:
    """A finite group known through |F| and its irrep dimension vector.

    Immutable, and equal and hashable by all four fields; abelian_order
    (|F^ab|, the count of 1-dimensional irreps) is derived, not passed.
    """

    __slots__ = ("name", "order", "dims", "abelian_order")

    def __init__(self, name: str, order: int, dims):
        order = exact_int(order, "group order")
        if not isinstance(name, str):
            raise GroupDataError(f"group name must be a string, got {quoted(name)}")
        if isinstance(dims, (str, bytes, bytearray, Mapping)):
            raise GroupDataError(f"{quoted(name)}: dims must be a list, got {quoted(dims)}")
        dims = tuple(exact_int(d, "irrep dimension") for d in dims)
        if order < 2:
            raise GroupDataError(f"{quoted(name)}: order must be at least 2, got {order}")
        if not dims or dims[0] != 1:
            raise GroupDataError(
                f"{quoted(name)}: index 0 must be the trivial representation "
                f"(dims[0] = 1), got dims = {dims}"
            )
        if any(d < 1 for d in dims):
            raise GroupDataError(f"{quoted(name)}: irrep dimensions must be positive")
        square_sum = sum(d * d for d in dims)
        if square_sum != order:
            raise GroupDataError(
                f"{quoted(name)}: sum of squared dimensions is {square_sum}, "
                f"expected the group order {order}"
            )
        abelian_order = sum(1 for d in dims if d == 1)
        if order % abelian_order != 0:
            raise GroupDataError(
                f"{quoted(name)}: count of 1-dimensional irreps "
                f"({abelian_order}) does not divide the order {order}"
            )
        # Frobenius: every irrep dimension divides the group order
        for d in dict.fromkeys(dims):
            if order % d:
                raise GroupDataError(
                    f"{quoted(name)}: irrep dimension {quoted(d)} does not divide "
                    f"the order {quoted(order)}"
                )
        for attr, value in zip(self.__slots__, (name, order, dims, abelian_order)):
            object.__setattr__(self, attr, value)

    def _fields(self) -> tuple:
        return (self.name, self.order, self.dims, self.abelian_order)

    def __setattr__(self, attr, value):
        raise AttributeError(f"cannot assign to field {attr!r}")

    def __delattr__(self, attr):
        raise AttributeError(f"cannot delete field {attr!r}")

    def __reduce__(self):
        return GroupRepData, (self.name, self.order, self.dims)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"GroupRepData(name={self.name!r}, order={self.order!r}, "
            f"dims={self.dims!r}, abelian_order={self.abelian_order!r})"
        )

    @property
    def num_irreps(self) -> int:
        """r = |F^|, the size of the word/tuple alphabet."""
        return len(self.dims)

    @property
    def is_abelian(self) -> bool:
        return self.abelian_order == self.order


# Non-cyclic catalog entries; cyclic groups are generated on demand.
_CATALOG: dict[str, tuple[int, tuple[int, ...]]] = {
    "klein4": (4, (1, 1, 1, 1)),
    "S3": (6, (1, 1, 2)),
    "D4": (8, (1, 1, 1, 1, 2)),
    "Q8": (8, (1, 1, 1, 1, 2)),
    "A4": (12, (1, 1, 1, 3)),
    "S4": (24, (1, 1, 2, 3, 3)),
    "A5": (60, (1, 3, 3, 4, 5)),
}

_CYCLIC_RE = re.compile(r"^(?:c(\d+)|cyclic\((\d+)\))$", re.IGNORECASE)

# Irreps a catalog cyclic group may have: its dims are built as a tuple.
MAX_CYCLIC_ORDER = 1 << 16


def builtin(name: str) -> GroupRepData:
    """Look up a group in the built-in catalog.

    Cyclic groups are written ``C5`` or ``cyclic(5)``; the remaining names
    are klein4, S3, D4, Q8, A4, S4 and A5 (case-insensitive).
    """
    if not isinstance(name, str):
        raise CatalogError(f"group name must be a string, got {quoted(name)}")
    cyclic = _CYCLIC_RE.match(name.strip())
    if cyclic:
        try:
            n = int(cyclic.group(1) or cyclic.group(2))
        except ValueError as exc:  # more digits than the interpreter converts
            raise CatalogError(f"cyclic group order: {exc}") from exc
        if n < 2:
            raise CatalogError(f"cyclic({n}): order must be at least 2")
        check_budget("a catalog cyclic group", n, MAX_CYCLIC_ORDER, "irreps")
        return GroupRepData(name=f"C{n}", order=n, dims=(1,) * n)
    for key, (order, dims) in _CATALOG.items():
        if key.lower() == name.strip().lower():
            return GroupRepData(name=key, order=order, dims=dims)
    available = "C<n> (n >= 2), " + ", ".join(_CATALOG)
    raise CatalogError(f"unknown group {quoted(name)}; available: {available}")


def fingerprint(group: GroupRepData) -> tuple[int, tuple[int, ...], int]:
    """(|F|, sorted irrep dims, |F^ab|); invariant under irrep reordering."""
    return (group.order, tuple(sorted(group.dims)), group.abelian_order)


def csalgebras_isomorphic_abelian_case(
    f1: GroupRepData, f2: GroupRepData
) -> str:
    """Decide isomorphism of the two lamplighter C*-algebras when possible.

    With at least one abelian factor the answer is complete: the algebras
    are isomorphic exactly when both groups are abelian of the same order.
    With two non-abelian factors we return ``undecided``.
    """
    if not (f1.is_abelian or f2.is_abelian):
        return UNDECIDED
    if f1.is_abelian and f2.is_abelian and f1.order == f2.order:
        return ISO
    return NOT_ISO
