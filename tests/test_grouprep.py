import copy
import pickle
import sys

import pytest

from lampk.errors import BudgetError, CatalogError, GroupDataError
from lampk.grouprep import (
    ISO,
    MAX_CYCLIC_ORDER,
    NOT_ISO,
    UNDECIDED,
    GroupRepData,
    builtin,
    csalgebras_isomorphic_abelian_case,
    fingerprint,
)

BUILTIN_NAMES = ["C2", "C3", "C6", "klein4", "S3", "D4", "Q8", "A4", "S4", "A5"]


def test_cyclic():
    c2 = builtin("cyclic(2)")
    assert c2.order == 2 and c2.dims == (1, 1)
    assert builtin("C7").dims == (1,) * 7
    assert builtin("c5").order == 5


def test_s3_and_q8_character_data():
    # Oracle: Peter-Weyl count fixes the dimension vectors.
    s3 = builtin("S3")
    assert s3.order == 6 and s3.dims == (1, 1, 2)
    assert sum(d * d for d in s3.dims) == 6
    q8 = builtin("Q8")
    assert q8.order == 8 and q8.dims == (1, 1, 1, 1, 2)
    assert sum(d * d for d in q8.dims) == 8


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_invariants(name):
    g = builtin(name)
    assert sum(d * d for d in g.dims) == g.order
    assert g.dims[0] == 1
    assert g.abelian_order == sum(1 for d in g.dims if d == 1)
    assert g.order % g.abelian_order == 0
    assert g.order >= 2


def test_unknown_name_lists_catalog():
    with pytest.raises(CatalogError, match="klein4"):
        builtin("F20")
    with pytest.raises(CatalogError):
        builtin("cyclic(1)")


@pytest.mark.parametrize("name", [2.5, True, 1, None, b"C2"])
def test_non_string_name_is_a_catalog_error(name):
    with pytest.raises(CatalogError, match=f"^group name must be a string, got {name!r}$"):
        builtin(name)


def test_cyclic_order_guards():
    assert builtin("C65536").num_irreps == MAX_CYCLIC_ORDER
    with pytest.raises(BudgetError, match="more than 65536 irreps"):
        builtin("C65537")
    old_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(CatalogError):
            builtin("C" + "9" * 4301)
    finally:
        sys.set_int_max_str_digits(old_limit)


def test_validate():
    g = GroupRepData(name="user", order=6, dims=(1, 1, 2))
    assert g.abelian_order == 2
    assert GroupRepData(name="v4", order=4, dims=(1, 1, 1, 1)).is_abelian
    with pytest.raises(GroupDataError, match="squared dimensions"):
        GroupRepData(name="bad", order=6, dims=(1, 2))
    with pytest.raises(GroupDataError, match="trivial"):
        GroupRepData(name="bad", order=5, dims=(2, 1))
    with pytest.raises(GroupDataError, match="order"):
        GroupRepData(name="bad", order=1, dims=(1,))
    with pytest.raises(GroupDataError, match="divide"):
        GroupRepData(name="bad", order=7, dims=(1, 1, 1, 2))
    # a string, bytes or mapping is not read one character, byte or key at a
    # time as if it were a list, and a name is a string, not printed as a repr
    for dims in ("11", b"\x01\x01", bytearray(b"\x01\x01"), {"1": 0, "01": 0}, {1: 0, 2: 0}):
        with pytest.raises(GroupDataError, match="dims must be a list"):
            GroupRepData(name="bad", order=2, dims=dims)
    for name in (["x"], 6, None, b"x"):
        with pytest.raises(GroupDataError, match="group name must be a string"):
            GroupRepData(name=name, order=2, dims=(1, 1))


def test_group_rep_data_is_an_immutable_value():
    g = builtin("S3")
    same = GroupRepData(name="S3", order=6, dims=[1, 1, 2])
    assert g == same and hash(g) == hash(same) and g is not same
    assert g != GroupRepData(name="S3'", order=6, dims=(1, 1, 2))
    assert g != builtin("C6")
    assert g != ("S3", 6, (1, 1, 2), 2)
    assert repr(g) == "GroupRepData(name='S3', order=6, dims=(1, 1, 2), abelian_order=2)"
    with pytest.raises(AttributeError):
        g.order = 7
    with pytest.raises(AttributeError):
        g.extra = 1
    with pytest.raises(AttributeError):
        del g.dims
    with pytest.raises(TypeError):
        GroupRepData("S3", 6, (1, 1, 2), 2)  # abelian_order is derived
    assert copy.deepcopy(g) == g == pickle.loads(pickle.dumps(g))


def test_fingerprint():
    assert fingerprint(builtin("C2")) == (2, (1, 1), 2)
    assert fingerprint(builtin("S3")) == (6, (1, 1, 2), 2)
    assert fingerprint(builtin("Q8")) == (8, (1, 1, 1, 1, 2), 4)
    # invariant under permuting nontrivial irreps
    a = GroupRepData(name="a", order=24, dims=(1, 1, 2, 3, 3))
    b = GroupRepData(name="b", order=24, dims=(1, 3, 2, 1, 3))
    assert fingerprint(a) == fingerprint(b)


def test_classification_decisions():
    assert csalgebras_isomorphic_abelian_case(builtin("C4"), builtin("klein4")) == ISO
    assert csalgebras_isomorphic_abelian_case(builtin("C6"), builtin("S3")) == NOT_ISO
    assert csalgebras_isomorphic_abelian_case(builtin("S3"), builtin("D4")) == UNDECIDED
    assert csalgebras_isomorphic_abelian_case(builtin("C2"), builtin("C3")) == NOT_ISO


@pytest.mark.parametrize("a", BUILTIN_NAMES)
@pytest.mark.parametrize("b", BUILTIN_NAMES)
def test_classification_symmetric(a, b):
    g1, g2 = builtin(a), builtin(b)
    assert csalgebras_isomorphic_abelian_case(
        g1, g2
    ) == csalgebras_isomorphic_abelian_case(g2, g1)
