import io
import json
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import islice, product
from math import prod
from types import SimpleNamespace

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from lampk import cli, intdet, jsonio, shiftwords, zchain
from lampk.colimitk import complement_tuples, f_apply, level_tuples, tuple_dim
from lampk.errors import GroupDataError, LampkError
from lampk.fullshift import coboundary_decompose, coboundary_terms, cylinder_terms, cylinder_to_chain
from lampk.grouprep import _CATALOG, GroupRepData, builtin
from lampk.lamplighterk import trace_of_chain
from lampk.shiftwords import EMPTY_WORD, Word, canonicalize, enumerate_canonical, shift
from lampk.zchain import (
    ZChain,
    alpha,
    coinvariant_class,
    decompose,
    is_invariant,
    projection_chain,
)

words_st = st.builds(
    Word,
    st.dictionaries(st.integers(-5, 5), st.integers(1, 2), max_size=4),
)
chains_st = st.builds(
    ZChain,
    st.lists(st.tuples(words_st, st.integers(-9, 9)), max_size=5),
)


def test_group_arithmetic():
    x = ZChain.of(Word({0: 1}))
    y = ZChain.of(Word({1: 1}))
    assert x + (-x) == ZChain()
    assert (x + y) * 2 == 2 * x + 2 * y
    assert x * 3 + (-x) == x * 2
    assert not ZChain()
    assert (x - x).coeff(Word({0: 1})) == 0


terms_st = st.lists(st.tuples(words_st, st.integers(-9, 9)), max_size=5)


@given(chains_st, chains_st, terms_st)
def test_group_laws(x, y, terms):
    zero = ZChain()
    assert x + (-x) == zero
    assert (x + y) - y == x
    assert x - y == x + (-y) == -(y - x)
    assert 0 * x == x * 0 == zero
    assert 3 * x == x + x + x
    # repeated words add up, and a word summing to 0 is dropped
    chain = ZChain(terms)
    for word in {w for w, _ in terms}:
        assert chain.coeff(word) == sum(c for w, c in terms if w == word)
    assert ZChain(terms + [(w, -c) for w, c in terms]) == zero
    for z in (x, y, chain, x + y, x - y, -x, 2 * x, x * -3):
        assert all(type(c) is int and c != 0 for _, c in z.items())
        assert len(z) == len(list(z)) == sum(1 for _ in z.terms())


def test_alpha():
    c = ZChain.of(EMPTY_WORD, 3)
    assert alpha(c) == c
    assert alpha(ZChain.of(Word({0: 1}))) == ZChain.of(Word({1: 1}))
    x = ZChain.of(Word({0: 1}))
    y = ZChain.of(Word({2: 2}))
    assert alpha(x - y) == alpha(x) - alpha(y)
    assert alpha(alpha(x), -1) == alpha(x, 0) == x


def test_is_invariant():
    assert is_invariant(ZChain.of(EMPTY_WORD, 7))
    assert not is_invariant(ZChain.of(Word({0: 1})))
    c = ZChain.of(Word({0: 1})) + ZChain.of(Word({1: 1}))
    assert alpha(c) != c
    assert not is_invariant(c)
    assert is_invariant(ZChain.of(EMPTY_WORD))


@given(chains_st)
def test_invariant_iff_multiple_of_empty(c):
    assert is_invariant(c) == (alpha(c) == c) == all(w.is_empty for w in c)


def test_decompose_examples():
    # pure coboundary
    x = ZChain.of(Word({0: 1, 3: 2}), 4)
    witness, canonical = decompose(x - alpha(x))
    assert canonical == ZChain()
    assert (witness - alpha(witness)) == x - alpha(x)

    # single shifted word
    witness, canonical = decompose(ZChain.of(Word({3: 1})))
    assert canonical == ZChain.of(Word({0: 1}))
    assert (witness - alpha(witness)) + canonical == ZChain.of(Word({3: 1}))

    # two words in one orbit
    chain = ZChain.of(Word({0: 1})) + 2 * ZChain.of(Word({5: 1}))
    witness, canonical = decompose(chain)
    assert canonical == 3 * ZChain.of(Word({0: 1}))
    assert (witness - alpha(witness)) + canonical == chain


@given(chains_st)
def test_decompose_identity(c):
    witness, canonical = decompose(c)
    assert (witness - alpha(witness)) + canonical == c
    assert all(w.is_canonical() for w in canonical)
    assert witness.coeff(EMPTY_WORD) == 0


@given(chains_st, chains_st)
def test_coinvariant_kills_coboundaries(c, m):
    assert coinvariant_class(m - alpha(m)) == ZChain()
    assert coinvariant_class(c + m - alpha(m)) == coinvariant_class(c)


@given(chains_st)
def test_coinvariant_idempotent(c):
    once = coinvariant_class(c)
    assert coinvariant_class(once) == once


def test_coinvariant_examples():
    s = Word({0: 1, 1: 2})
    assert coinvariant_class(ZChain.of(s)) == ZChain.of(s)
    assert coinvariant_class(ZChain.of(Word({1: 1, 2: 2}))) == ZChain.of(
        Word({0: 1, 1: 2})
    )


def test_kernel_brute_force():
    # Solve (Id - alpha)c = 0 over all chains with support words inside
    # [-1, 1] and coefficients in {-1, 0, 1}: only multiples of the empty
    # word appear.
    r = 2
    basis = [
        Word((p - 1, v) for p, v in enumerate(vec) if v)
        for vec in product(range(r), repeat=3)
    ]
    solutions = []
    for coeffs in product((-1, 0, 1), repeat=len(basis)):
        c = ZChain(zip(basis, coeffs))
        if c - alpha(c) == ZChain():
            solutions.append(c)
    assert all(is_invariant(c) for c in solutions)
    assert sorted(c.coeff(EMPTY_WORD) for c in solutions) == [-1, 0, 1]
    assert all(len(c) <= 1 for c in solutions)


def _snf_diagonal(rows):
    """Diagonal of an integer diagonalization (not divisibility-sorted);
    the cokernel is the direct sum of Z/d over the diagonal plus a free
    part of rank (#rows - #nonzero diagonal entries)."""
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    t = 0
    diag = []
    while t < min(nrows, ncols):
        piv = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if m[i][j] and (piv is None or abs(m[i][j]) < abs(m[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        i0, j0 = piv
        m[t], m[i0] = m[i0], m[t]
        for row in m:
            row[t], row[j0] = row[j0], row[t]
        while True:
            changed = False
            for i in range(t + 1, nrows):
                q = m[i][t] // m[t][t]
                if q:
                    m[i] = [a - q * b for a, b in zip(m[i], m[t])]
                if m[i][t]:
                    m[t], m[i] = m[i], m[t]
                    changed = True
            for j in range(t + 1, ncols):
                q = m[t][j] // m[t][t]
                if q:
                    for i in range(nrows):
                        m[i][j] -= q * m[i][t]
                if m[t][j]:
                    for i in range(nrows):
                        m[i][t], m[i][j] = m[i][j], m[i][t]
                    changed = True
            if not changed:
                break
        diag.append(abs(m[t][t]))
        t += 1
    return diag


def test_coinvariant_rank_matches_snf_cokernel():
    # The classes of the window words span freely with rank = orbit count;
    # cross-check against the cokernel of (Id - alpha) as a finite matrix
    # from the window into the one-step-larger window.
    r = 2
    for N in (1, 2, 3):
        domain = [
            Word((p - N, v) for p, v in enumerate(vec) if v)
            for vec in product(range(r), repeat=2 * N + 1)
        ]
        codomain = [
            Word((p - N, v) for p, v in enumerate(vec) if v)
            for vec in product(range(r), repeat=2 * N + 2)
        ]
        reps_in_codomain = {canonicalize(w)[0] for w in codomain}

        # rank of the span of the canonical classes of domain words
        class_words = sorted(
            {canonicalize(w)[0] for w in domain}, key=Word.sort_key
        )
        assert len(class_words) == len({canonicalize(w)[0] for w in domain})

        index = {w: i for i, w in enumerate(codomain)}
        columns = [
            [(index[word], coeff) for word, coeff in (ZChain.of(w) - alpha(ZChain.of(w))).items()]
            for w in domain
        ]
        matrix = [[0] * len(columns) for _ in codomain]
        for j, column in enumerate(columns):
            for i, coeff in column:
                matrix[i][j] = coeff
        rk = intdet.rank(columns, len(codomain))
        # kernel of (Id - alpha) on the window is exactly the empty-word line
        assert rk == len(domain) - 1
        diag = _snf_diagonal(matrix)
        assert len([d for d in diag if d]) == rk
        free_rank = len(codomain) - rk
        assert free_rank == len(reps_in_codomain)
        assert all(d == 1 for d in diag if d), "unexpected torsion in the cokernel"


# --- the projection expansion Phi -------------------------------------------


@st.composite
def groups_st(draw):
    """A catalog group, or an inline dims vector that passes validation."""
    if draw(st.booleans()):
        return builtin(draw(st.sampled_from(["C2", "C3", "C4", *_CATALOG])))
    dims = [1, *draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))]
    try:
        return GroupRepData(
            name="inline", order=sum(d * d for d in dims), dims=tuple(dims)
        )
    except GroupDataError:
        assume(False)


@st.composite
def group_and_tuple_st(draw):
    group = draw(groups_st())
    t = draw(st.lists(st.integers(0, group.num_irreps - 1), min_size=1, max_size=3))
    return group, tuple(t)


def _phi(group, t):
    return projection_chain(group, enumerate(t))


@given(group_and_tuple_st())
def test_phi_kills_the_induction_map(case):
    group, t = case
    image = f_apply(group, {t: 1}, len(t) + 1)
    assert sum((c * _phi(group, s) for s, c in image.items()), ZChain()) == ZChain()


@given(group_and_tuple_st())
def test_phi_preserves_traces(case):
    group, t = case
    expected = Fraction(tuple_dim(group, t), group.order ** len(t))
    assert trace_of_chain(group, _phi(group, t)) == expected


@given(group_and_tuple_st())
def test_phi_is_unitriangular(case):
    # word(t) with coefficient 1, plus only words with more entries
    group, t = case
    image = _phi(group, t)
    word = Word(enumerate(t))
    assert image.coeff(word) == 1
    assert all(len(w.entries) > len(word.entries) for w in image if w != word)


def test_phi_is_unimodular_on_the_complement_basis():
    # The complement basis at truncation N maps onto the r^N words in
    # [0, N), with determinant +-1, and their classes are the canonical words.
    for name, levels in (("C2", 4), ("C3", 3), ("S3", 3), ("klein4", 2), ("S4", 2)):
        group = builtin(name)
        basis = [t for n in range(1, levels + 1) for t in complement_tuples(group, n)]
        words = [Word(enumerate(t)) for t in basis]
        assert len(set(words)) == len(words) == group.num_irreps**levels
        row = {w: i for i, w in enumerate(words)}
        columns = [[(row[w], c) for w, c in _phi(group, t).items()] for t in basis]
        assert intdet.det(columns) in (1, -1)
        classes = {canonicalize(w)[0] for w in words}
        assert classes == set(enumerate_canonical(group, levels))


def _cylinder_by_signs(group, constraints):
    """The abelian cylinder expansion as first written: each trivial pin is
    (absent) minus each nontrivial value, coefficients +-1."""
    fixed = [(p, i) for p, i in constraints.items() if i != 0]
    trivial = [p for p, i in constraints.items() if i == 0]
    options = [[(None, 1)] + [(g, -1) for g in range(1, group.num_irreps)] for _ in trivial]
    terms = []
    for choice in product(*options):
        coeff, entries = 1, list(fixed)
        for pos, (val, sign) in zip(trivial, choice):
            coeff *= sign
            if val is not None:
                entries.append((pos, val))
        terms.append((Word(entries), coeff))
    return ZChain(terms)


def test_phi_is_the_cylinder_expansion_on_abelian_groups():
    for name in ("C2", "C3", "klein4", "C5"):
        group = builtin(name)
        for n in range(1, 5):
            for t in level_tuples(group, n):
                expected = _cylinder_by_signs(group, dict(enumerate(t)))
                assert _phi(group, t) == expected, (name, t)
                assert cylinder_to_chain(group, enumerate(t)) == expected


def _projection_by_words(group, pins):
    """Phi as first written: one validated Word per choice of letters, the
    weights multiplied out, and the terms merged by ZChain."""
    choices = [
        [((p, idx), 1)] if idx
        else [(None, 1)] + [((p, g), -d) for g, d in enumerate(group.dims) if g]
        for p, idx in pins
    ]
    return ZChain(
        (Word([e for e, _ in choice if e]), prod([w for _, w in choice]))
        for choice in product(*choices)
    )


@st.composite
def group_and_pins_st(draw):
    """A group and pins that are all fixed, all trivial, or mixed; any kind
    may draw no pins at all."""
    group = draw(groups_st())
    kind = draw(st.sampled_from(["fixed", "trivial", "mixed"]))
    low = 1 if kind == "fixed" else 0
    high = 0 if kind == "trivial" else group.num_irreps - 1
    positions = draw(st.lists(st.integers(-6, 6), unique=True, max_size=5))
    pins = [(p, draw(st.integers(low, high))) for p in positions]
    return group, sorted(pins), draw(st.permutations(pins))


def _sorted_terms(chain):
    return sorted(chain.items(), key=lambda term: term[0].sort_key())


@given(group_and_pins_st())
def test_projection_chain_is_the_word_built_product(case):
    group, pins, shuffled = case
    chain = projection_chain(group, shuffled)
    reference = _projection_by_words(group, pins)
    assert chain == reference == projection_chain(group, pins)
    # built in word order: written as they stand, in a full sort's order
    assert list(chain.terms()) == _sorted_terms(reference)
    # every word is one Word.__init__ would build, and the words share one
    # (position, index) pair per distinct entry
    assert all(Word(w.entries).entries == w.entries for w in chain)
    pairs = [e for w in chain for e in w.entries]
    assert len({id(e) for e in pairs}) == len(set(pairs))


def test_lettered_pins_build_in_linear_time():
    # one word of 40 000 entries: a block costs time linear in its pins
    pins = [(p, 1) for p in range(40_000)]
    start = time.monotonic()
    chain = projection_chain(builtin("C2"), pins)
    assert time.monotonic() - start < 2
    assert [(w.entries, c) for w, c in chain.items()] == [(tuple(pins), 1)]


# --- word order of built chains ----------------------------------------------


def _telescope_by_terms(chain, step, sign):
    """The splitting as first written: each term telescoped on its own, the
    witness words merged by ZChain, and every witness word shifted ``step``
    more places with its coefficient times ``sign``."""
    witness, canonical = [], []
    for word, coeff in chain.items():
        rep, offset = canonicalize(word)
        canonical.append((rep, coeff))
        c = -sign * coeff if offset > 0 else sign * coeff
        witness += [(shift(rep, j + step), c) for j in range(min(offset, 0), max(offset, 0))]
    return ZChain(witness), ZChain(canonical)


# Chains with several words in one orbit, whose telescopes overlap and cancel.
_REPS = [EMPTY_WORD, Word({0: 1}), Word({0: 2}), Word({0: 1, 1: 1}), Word({0: 2, 2: 1}),
         Word({0: 1, 3: 1, 4: 2})]
orbit_chains_st = st.builds(
    ZChain,
    st.lists(
        st.tuples(st.builds(shift, st.sampled_from(_REPS), st.integers(-6, 6)), st.integers(-3, 3)),
        max_size=8,
    ),
)


@given(st.one_of(chains_st, orbit_chains_st))
def test_decompositions_are_built_in_word_order(c):
    for (step, sign), split in (
        ((0, 1), decompose(c)),
        ((1, -1), coboundary_decompose(builtin("C3"), c)),
    ):
        for got, reference in zip(split, _telescope_by_terms(c, step, sign)):
            assert dict(got.items()) == dict(reference.items())
            assert list(got.terms()) == _sorted_terms(reference)


@pytest.mark.parametrize(
    "rep",
    [
        Word({p: 1 for p in range(16)}),
        Word({0: 1, 2: 1, 3: 1, 40: 1, 10**8: 1, 10**8 + 5: 1}),
        Word({0: 1, 1: 2, 2: 1, 4: 2, 5: 1}),
    ],
)
@pytest.mark.parametrize("offset", [-300, 90])
def test_witness_terms_are_the_shifts_of_their_rep(rep, offset):
    # shift(rep, offset) telescopes to rep through one run of the words
    # shift(rep, u), u from offset to 0, with coefficient 1 below 0 and -1
    # above; the coboundary's g shifts each word once more and negates it
    chain = ZChain.of(shift(rep, offset))
    lo, hi, c = (offset, 0, 1) if offset < 0 else (0, offset, -1)
    for (step, sign), (witness, _) in (
        ((0, 1), zchain._telescope(chain, 0, 1)),
        ((1, -1), coboundary_terms(builtin("C3"), chain)),
    ):
        assert list(witness) == [(shift(rep, u + step), sign * c) for u in range(lo, hi)]


def test_witness_terms_are_made_as_they_are_taken():
    # the first terms of a run at the witness limit are made with nothing
    # built for the terms after them
    word = Word({-131072: 1})
    tracemalloc.start()
    try:
        first = list(islice(zchain._telescope(ZChain.of(word), 0, 1)[0], 8))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first == [(shift(word, u), 1) for u in range(8)]
    assert peak < 1 << 20


@given(chains_st, chains_st, st.integers(-3, 3))
def test_other_chains_are_written_in_word_order(x, y, k):
    witness, canonical = decompose(x)
    for z in (
        x, ZChain(reversed(list(x.items()))), x + y, x - y, -x, k * x, x * k,
        alpha(x, k), alpha(witness, k), witness + canonical, witness - alpha(witness), -canonical,
    ):
        assert list(z.terms()) == _sorted_terms(z)


def test_built_chains_are_written_with_no_sort_key(monkeypatch):
    # once decompose or cylinder-expand returns, writing its payload adds no
    # Word.sort_key call to those its builder makes: decompose's terms make
    # none, and a cylinder's make only the ones merging its blocks
    c3 = builtin("C3")
    chain = ZChain.of(Word({-3: 1, 0: 2}), 2) + ZChain.of(Word({5: 1})) + ZChain.of(Word({2: 1}))
    pins = [(p, 0) for p in range(4)]
    fn = json.dumps(jsonio.chain_to_json(chain))
    spec = json.dumps({str(p): v for p, v in pins})
    decomposed, _ = cli.cmd_decompose(SimpleNamespace(fn=fn), c3)
    expanded, _ = cli.cmd_cylinder_expand(SimpleNamespace(spec=spec), c3)
    calls = []
    monkeypatch.setattr(Word, "sort_key", lambda word: calls.append(word) or ())
    monkeypatch.setattr(sys, "stdout", io.StringIO())
    cli._emit(decomposed)
    assert calls == []
    assert json.loads(sys.stdout.getvalue())["witness"]
    cli._emit(expanded)
    emitted = len(calls)
    del calls[:]
    list(cylinder_terms(c3, pins))
    assert emitted == len(calls) > 0
    # any ZChain's terms sort its words
    del calls[:]
    list(chain.terms())
    assert len(calls) == len(chain) == 3


@pytest.mark.parametrize(
    "pins, message",
    [
        ([(0, -1)], "irrep index must be >= 0, got -1"),
        ([(3, 1), (0, 0), (1, -2)], "irrep index must be >= 0, got -2"),
        ([(0, 3)], "constraint value 3 out of range for C3"),
        ([(0, 0), (0, 0)], "duplicate position 0 in word entries"),
        ([(0, 1), (0, 0)], "duplicate position 0 in word entries"),
        ([(5, 2), *((p, 0) for p in range(40)), (5, 2)], "duplicate position 5 in word entries"),
    ],
)
def test_projection_chain_refuses_bad_pins_before_any_term(monkeypatch, pins, message):
    def build(items):
        raise AssertionError("a term was built")

    monkeypatch.setattr(zchain, "_trusted_word", build)
    monkeypatch.setattr(shiftwords, "_trusted_word", build)
    with pytest.raises(LampkError) as info:
        projection_chain(builtin("C3"), pins)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ZChain.of(Word({0: 1}), 2.5), "coeff must be an integer, got 2.5"),
        (lambda: ZChain([(Word({0: 1}), True)]), "coeff must be an integer, got True"),
        (
            lambda: ZChain.of(Word({0: 1}), Fraction(5, 2)),
            "coeff must be an integer, got Fraction(5, 2)",
        ),
        (lambda: Word({0.7: 1.9}), "word position must be an integer, got 0.7"),
        (lambda: Word({0: True}), "word entry must be an integer, got True"),
        (lambda: Word([(0, 1.5)]), "word entry must be an integer, got 1.5"),
        (lambda: GroupRepData("x", 6, (1, 1, 2.9)), "irrep dimension must be an integer, got 2.9"),
        (lambda: GroupRepData("x", 6.5, (1, 1, 2)), "group order must be an integer, got 6.5"),
        (lambda: GroupRepData("x", 2, (1, False)), "irrep dimension must be an integer, got False"),
    ],
)
def test_constructors_refuse_what_int_would_truncate(build, message):
    with pytest.raises(LampkError) as exc:
        build()
    assert str(exc.value) == message


def test_constructors_read_integral_values():
    assert ZChain.of(Word({0: 1}), 2.0) == ZChain.of(Word({0: 1}), 2)
    assert Word({3.0: 1.0, "5": 2}) == Word({3: 1, 5: 2})
    assert GroupRepData("S3", 6.0, [1.0, 1, 2]) == builtin("S3")
