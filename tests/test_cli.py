import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lampk import cli, jsonio, shiftwords
from lampk.cli import MAX_CHAIN_FILE_CHARS, main
from lampk.errors import BudgetError, LampkError
from lampk.fullshift import (
    coboundary_decompose,
    coboundary_terms,
    cylinder_terms,
    cylinder_to_chain,
    livsic_check,
)
from lampk.grouprep import GroupRepData, builtin
from lampk.shiftwords import Word, enumerate_canonical
from lampk.zchain import (
    Terms,
    ZChain,
    _telescope,
    alpha,
    decompose,
    projection_chain,
    projection_terms,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def assert_no_floats(value):
    if isinstance(value, float):
        raise AssertionError(f"float leaked into output: {value}")
    if isinstance(value, dict):
        for v in value.values():
            assert_no_floats(v)
    elif isinstance(value, list):
        for v in value:
            assert_no_floats(v)


# --- jsonio round trips -----------------------------------------------------


def test_word_round_trip():
    w = Word({0: 1, 3: 2, -4: 1})
    assert jsonio.word_from_json(jsonio.word_to_json(w)) == w
    assert jsonio.word_from_json({"0": 1, "3": 1}) == Word({0: 1, 3: 1})


def test_chain_round_trip():
    chain = ZChain.of(Word({0: 1}), -3) + ZChain.of(Word({2: 2, 5: 1}), 7)
    data = jsonio.chain_to_json(chain)
    assert jsonio.chain_from_json(data) == chain
    assert jsonio.chain_to_json(ZChain()) == []


# positions near zero and far from it; coefficients up to 400 digits
positions = st.integers(-3, 3) | st.integers(-(10**40), 10**40)
coefficients = st.integers(-5, 5) | st.integers(-(10**400), 10**400)
words = st.dictionaries(positions, st.integers(0, 4), max_size=5).map(Word)
chains = st.lists(st.tuples(words, coefficients), max_size=6).map(ZChain)


@settings(max_examples=300)
@given(chains)
@example(ZChain())
@example(ZChain.of(Word()))
@example(ZChain.of(Word(), 7) - ZChain.of(Word(), 7))
@example(ZChain.of(Word({-(10**30): 3, 0: 1, 5: 2}), -(10**300)) + ZChain.of(Word(), 10**300))
def test_chain_text_is_the_indented_dump(chain):
    dump = json.dumps(jsonio.chain_to_json(chain), indent=2)
    largest = jsonio._largest(chain, [c for _, c in chain.items()])
    assert "".join(jsonio.terms_pieces(Terms(chain.terms(), largest))) == dump
    text = "".join(jsonio.terms_pieces(Terms(chain.terms(), largest), "  "))
    assert text == dump.replace("\n", "\n  ")


word_lists = st.lists(words, max_size=6)


@settings(max_examples=300)
@given(word_lists)
@example([])
@example([Word()])
@example([Word(), Word({0: 1}), Word({-(10**30): 3, 0: 1, 5: 2})])
def test_words_text_is_the_indented_dump(ws):
    dump = json.dumps([jsonio.word_to_json(w) for w in ws], indent=2)
    largest = jsonio._largest(ws)
    # the words are taken once, as the pieces are
    assert "".join(jsonio.words_pieces(iter(ws), largest)) == dump
    assert "".join(jsonio.words_pieces(iter(ws), largest, "  ")) == dump.replace("\n", "\n  ")


class StdoutRecorder:
    """A stand-in for sys.stdout that keeps every write."""

    encoding, errors = "utf-8", "strict"

    def __init__(self):
        self.writes = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)


def test_chains_and_word_lists_are_written_a_few_terms_at_a_time(monkeypatch):
    # the payloads the handlers return, with their writers bound in
    c3, c2 = builtin("C3"), builtin("C2")
    pins = [(p, 0) for p in range(8)]
    chain = cylinder_to_chain(c3, pins)
    spec = json.dumps({str(p): v for p, v in pins})
    words = enumerate_canonical(c2, 11)
    orbits = SimpleNamespace(command="orbits", max_len=11, format="json")
    cases = [
        (cli.cmd_cylinder_expand(SimpleNamespace(spec=spec), c3)[0],
         {"chain": jsonio.chain_to_json(chain)}),
        (cli.cmd_words(orbits, c2)[0], {"words": [jsonio.word_to_json(w) for w in words]}),
    ]
    for payload, as_json in cases:
        recorder = StdoutRecorder()
        monkeypatch.setattr(sys, "stdout", recorder)
        cli._emit(payload)
        monkeypatch.undo()
        dump = json.dumps({**payload, **as_json}, indent=2, ensure_ascii=False) + "\n"
        assert "".join(recorder.writes) == dump
        # a few terms' worth a write, never the whole text joined
        assert len(dump) > 100_000
        assert max(map(len, recorder.writes)) <= 4096


# --- chains written as their terms are made ----------------------------------


def main_output(*argv):
    """(exit code, stdout, stderr) of the CLI in process, with no fixture."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def in_word_order(chain):
    return sorted(chain.items(), key=lambda term: term[0].sort_key())


def assert_terms_are_the_chain(terms, chain):
    """dict of the terms is the chain, term for term and in word order, and
    their ``largest`` is the largest integer the chain's JSON holds."""
    largest = terms.largest
    pairs = list(terms)
    assert list(dict(pairs).items()) == pairs == list(chain.items()) == in_word_order(chain)
    assert largest == jsonio._largest(chain, [c for _, c in pairs])


# chains drawn as above, with positions near the origin or past the witness
# budget, so that a witness is either quick to build or refused
far = st.integers(2**17 + 1, 10**40)
split_positions = st.integers(-40, 40) | far | far.map(int.__neg__)
split_words = st.dictionaries(split_positions, st.integers(0, 4), max_size=5).map(Word)
split_chains = st.lists(st.tuples(split_words, coefficients), max_size=6).map(ZChain)
C5 = builtin("C5")


@settings(max_examples=150, deadline=None)
@given(split_chains)
@example(ZChain())
@example(ZChain.of(Word({0: 1, 5: 2}), 3) - ZChain.of(Word({2: 1, 7: 2}), 3))
def test_witness_terms_are_the_library_witness(chain):
    try:
        reference = coboundary_decompose(C5, chain)
    except BudgetError:
        with pytest.raises(BudgetError):
            coboundary_terms(C5, chain)
        code, out, err = main_output(
            "decompose", "--group", "C5", "--fn", json.dumps(jsonio.chain_to_json(chain)))
        assert (code, out, json.loads(err)["error"]["type"]) == (1, "", "BudgetError")
        return
    witness, canonical = coboundary_terms(C5, chain)
    assert_terms_are_the_chain(witness, reference.witness)
    assert_terms_are_the_chain(canonical, reference.canonical)
    witness, canonical = _telescope(chain, 0, 1)
    assert_terms_are_the_chain(witness, decompose(chain).witness)
    assert_terms_are_the_chain(canonical, decompose(chain).canonical)
    payload = {
        "group": "C5",
        "witness": jsonio.chain_to_json(reference.witness),
        "canonical": jsonio.chain_to_json(reference.canonical),
    }
    fn = json.dumps(jsonio.chain_to_json(chain))
    assert main_output("decompose", "--group", "C5", "--fn", fn) == (
        0, json.dumps(payload, indent=2) + "\n", "")


@st.composite
def group_and_pins(draw):
    """A group, S3 among them, and pins near the origin or far from it."""
    group = builtin(draw(st.sampled_from(["C2", "C3", "klein4", "S3", "D4"])))
    pins = draw(st.lists(positions, unique=True, max_size=6))
    return group, [(p, draw(st.integers(0, group.num_irreps - 1))) for p in pins]


@settings(max_examples=150, deadline=None)
@given(group_and_pins())
@example((builtin("S3"), [(-2, 0), (0, 2), (3, 0)]))
@example((builtin("C2"), []))
def test_cylinder_terms_are_the_library_chain(case):
    group, pins = case
    chain = projection_chain(group, pins)
    assert_terms_are_the_chain(projection_terms(group, pins), chain)
    if group.name == "S3" and any(v == 0 for _, v in pins):
        # the letter of the 2-dimensional irrep comes with weight -2
        assert any(c % 2 == 0 for _, c in chain.items())
    if not group.is_abelian:
        return
    assert_terms_are_the_chain(cylinder_terms(group, pins), cylinder_to_chain(group, pins))
    group_arg = json.dumps({"name": group.name, "order": group.order, "dims": list(group.dims)})
    spec = json.dumps({str(p): v for p, v in pins})
    payload = {"group": group.name, "chain": jsonio.chain_to_json(chain)}
    assert main_output("cylinder-expand", "--group", group_arg, "--spec", spec) == (
        0, json.dumps(payload, indent=2) + "\n", "")


def test_group_round_trip():
    data = {"name": "S4", "order": 24, "dims": [1, 1, 2, 3, 3]}
    assert jsonio.group_from_json(data) == builtin("S4")


def test_fraction_round_trip():
    value = Fraction(-3, 8)
    assert jsonio.ratio_to_json(value.numerator, value.denominator) == {"num": -3, "den": 8}


# --- commands ----------------------------------------------------------------


def test_fingerprint(capsys):
    data = run_json(capsys, "fingerprint", "--group", "Q8")
    assert data == {"order": 8, "dims": [1, 1, 1, 1, 2], "abelian_order": 4}


def test_inline_group_json(capsys):
    inline = '{"name": "user6", "order": 6, "dims": [1, 1, 2]}'
    data = run_json(capsys, "fingerprint", "--group", inline)
    assert data["order"] == 6 and data["abelian_order"] == 2


def test_inline_group_non_integer_is_domain_error(capsys):
    for inline in (
        '{"name": "x", "order": "a", "dims": [1, 1]}',
        '{"name": "x", "order": 2, "dims": [1, 1.5]}',
        # a digit string or an integral float is no JSON integer
        '{"name": "x", "order": "2", "dims": [1, 1]}',
        '{"name": "x", "order": 2.0, "dims": [1e0, 1]}',
        '{"name": "x", "order": 2, "dims": ["1", 1]}',
    ):
        code, out, err = run_cli(capsys, "fingerprint", "--group", inline)
        assert code == 1
        assert out == ""
        assert "must be an integer" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["trace", "--group", "C2", "--word", '{"0":"1"}'], "word entry must be an integer, got '1'"),
        (["trace", "--group", "C2", "--word", '{"0":1.0}'], "word entry must be an integer, got 1.0"),
        (["decompose", "--group", "C2", "--fn",
          '[{"word":{"entries":{"-2":"1"}},"coeff":"3"}]'], "word entry must be an integer, got '1'"),
        (["decompose", "--group", "C2", "--fn", '[{"word":{"entries":{"-2":1}},"coeff":"3"}]'],
         "coeff must be an integer, got '3'"),
        (["cylinder-expand", "--group", "C2", "--spec", '{"0":"1"}'],
         "cylinder value must be an integer, got '1'"),
    ],
)
def test_json_values_that_are_not_json_integers_are_domain_errors(capsys, argv, message):
    # a digit string or an integral float is no JSON integer, though
    # exact_int reads it as one for library callers
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == {"type": "LampkError", "message": message}


def test_inline_group_of_the_wrong_shape_is_domain_error(capsys):
    # dims given as a string or an object, or a name that is not a string,
    # is refused, not read digit by digit, key by key or through its repr
    for inline, message in (
        ('{"name": "x", "order": 2, "dims": "11"}', "dims must be a list"),
        ('{"name": "x", "order": 2, "dims": {"1": 0, "01": 0}}', "dims must be a list"),
        ('{"name": ["x"], "order": 2, "dims": [1, 1]}', "name must be a string"),
        ('{"name": 6, "order": 6, "dims": [1, 1, 2]}', "name must be a string"),
        # no group of order 5 has an irrep of dimension 2 (Frobenius)
        ('{"name": "x", "order": 5, "dims": [1, 2]}', "dimension 2 does not divide the order 5"),
    ):
        code, out, err = run_cli(capsys, "fingerprint", "--group", inline)
        assert (code, out) == (1, "")
        error = json.loads(err)["error"]
        assert error["type"] == "GroupDataError" and message in error["message"]


def test_classify(capsys):
    assert run_json(capsys, "classify", "--group", "C4", "--other", "klein4")[
        "decision"
    ] == "iso"
    assert run_json(capsys, "classify", "--group", "C6", "--other", "S3")[
        "decision"
    ] == "not-iso"
    assert run_json(capsys, "classify", "--group", "S3", "--other", "D4")[
        "decision"
    ] == "undecided"


def test_orbits(capsys):
    data = run_json(capsys, "orbits", "--group", "C2", "--max-len", "3")
    assert data["count"] == 5
    assert data["words"][0] == {"entries": {}}
    assert data["words"][1] == {"entries": {"0": 1}}


def test_orbits_table(capsys):
    code, out, _ = run_cli(
        capsys, "orbits", "--group", "C2", "--max-len", "2", "--format", "table"
    )
    assert code == 0
    assert "(empty)" in out
    assert "0:1 1:1" in out


def test_k0_basis(capsys):
    data = run_json(capsys, "k0-basis", "--group", "S3", "--max-len", "2")
    assert data["count"] == 7
    assert data["sides_identical"] is True


@pytest.mark.parametrize("command", ["orbits", "k0-basis"])
def test_word_lists_are_the_indented_dump(capsys, monkeypatch, command):
    # the table is built only when it is printed
    def no_table(words):
        raise AssertionError("_word_table called for --format json")

    monkeypatch.setattr(cli, "_word_table", no_table)
    group = GroupRepData(name='Z/3 "Drei" ß✓', order=3, dims=(1, 1, 1))
    group_arg = json.dumps({"name": group.name, "order": 3, "dims": [1, 1, 1]})
    words = enumerate_canonical(group, 3)
    payload = {"group": group.name, "max_len": 3, "count": len(words)}
    if command == "orbits":
        payload["words"] = [jsonio.word_to_json(w) for w in words]
    else:
        payload["basis"] = [jsonio.word_to_json(w) for w in words]
        payload["sides_identical"] = True
    code, out, _ = run_cli(capsys, command, "--group", group_arg, "--max-len", "3")
    assert code == 0
    assert out == json.dumps(payload, indent=2, ensure_ascii=False) + "\n"
    with pytest.raises(AssertionError, match="_word_table called"):
        main([command, "--group", "C2", "--max-len", "2", "--format", "table"])


def test_word_lists_are_never_built_whole(capsys, monkeypatch):
    def no_list(group, max_len):
        raise AssertionError("enumerate_canonical called")

    monkeypatch.setattr(shiftwords, "enumerate_canonical", no_list)
    for command in ("orbits", "k0-basis"):
        for argv in (("--max-len", "6"), ("--max-len", "2", "--format", "table")):
            code, out, err = run_cli(capsys, command, "--group", "S3", *argv)
            assert (code, err) == (0, "") and out


@pytest.mark.parametrize("command, key", [("orbits", "words"), ("k0-basis", "basis")])
def test_word_list_count_is_the_printed_length(capsys, command, key):
    for name, max_len in (("C2", 1), ("C2", 16), ("C3", 5), ("S3", 4), ("A5", 3)):
        data = run_json(capsys, command, "--group", name, "--max-len", str(max_len))
        assert data["count"] == len(data[key]) == len(enumerate_canonical(builtin(name), max_len))


def test_k1(capsys):
    data = run_json(capsys, "k1", "--group", "S3")
    assert data == {"K1": "Z", "generator": "[u]", "boundary": "∂1[u] = -[1]"}


def test_claim_check(capsys):
    data = run_json(capsys, "claim-check", "--group", "S3", "--levels", "3")
    assert data["size"] == 39
    assert data["holds"] is True
    assert data["det"] in (1, -1)
    assert isinstance(data["elapsed_ms"], int)


def test_claim_check_over_the_column_limit(capsys):
    # C2 at 17 levels: 262 142 columns, over the limit of 100 000
    code, out, err = run_cli(capsys, "claim-check", "--group", "C2", "--levels", "17")
    assert (code, out) == (1, "")
    error = json.loads(err)["error"]
    assert error["type"] == "BudgetError"
    assert "more than 100000 columns" in error["message"]


def test_claim_check_c2_level_12_is_fast(capsys):
    start = time.monotonic()
    data = run_json(capsys, "claim-check", "--group", "C2", "--levels", "12")
    assert time.monotonic() - start < 5
    assert data["size"] == 8190
    assert data["det"] == -1


def test_pv_check(capsys):
    data = run_json(
        capsys,
        "pv-check", "--group", "C2", "--samples", "50", "--window", "3",
        "--seed", "9",
    )
    assert data["passed"] is True
    assert data["seed"] == 9
    assert data["counterexamples"] == 0


def test_pv_check_rejects_negative_samples(capsys):
    code, out, err = run_cli(capsys, "pv-check", "--group", "C2", "--samples", "-5")
    assert code == 1
    assert out == ""
    assert "samples" in json.loads(err)["error"]["message"]


def test_trace(capsys):
    data = run_json(capsys, "trace", "--group", "C2", "--word", '{"0":1,"3":1}')
    assert data["trace"] == {"num": 1, "den": 4}


def test_trace_image(capsys):
    data = run_json(capsys, "trace-image", "--group", "C2", "--level", "3")
    assert data["generator"] == {"num": 1, "den": 8}
    data = run_json(capsys, "trace-image", "--group", "S3", "--level", "1")
    assert data["generator"] == {"num": 1, "den": 6}


def test_decompose_file_and_inline(capsys, tmp_path):
    chain_json = '[{"word": {"entries": {"2": 1}}, "coeff": 1}]'
    data = run_json(capsys, "decompose", "--group", "C2", "--fn", chain_json)
    assert data["canonical"] == [{"word": {"entries": {"0": 1}}, "coeff": 1}]
    path = tmp_path / "f.json"
    path.write_text(chain_json)
    from_file = run_json(capsys, "decompose", "--group", "C2", "--fn", str(path))
    assert from_file == data


def test_decompose_fractional_coeff_is_domain_error(capsys):
    chain_json = '[{"word": {"entries": {"0": 1}}, "coeff": "1.5"}]'
    code, out, err = run_cli(capsys, "decompose", "--group", "C2", "--fn", chain_json)
    assert code == 1
    assert out == ""
    assert "error" in json.loads(err)


def test_decompose_float_coeff_is_domain_error(capsys):
    # a JSON number 1.5 used to be truncated to 1
    chain_json = '[{"word": {"entries": {"0": 1}}, "coeff": 1.5}]'
    code, out, err = run_cli(capsys, "decompose", "--group", "C2", "--fn", chain_json)
    assert code == 1
    assert out == ""
    assert "coeff" in json.loads(err)["error"]["message"]


def test_cylinder_spec_bool_and_float_values_are_domain_errors(capsys):
    for spec in ('{"0":true,"1":1}', '{"0":1,"1":1.9}'):
        code, out, err = run_cli(
            capsys, "cylinder-expand", "--group", "C2", "--spec", spec
        )
        assert code == 1
        assert out == ""
        assert "cylinder value" in json.loads(err)["error"]["message"]


def test_out_of_range_irrep_index_is_domain_error(capsys):
    chain_json = '[{"word": {"entries": {"0": 7}}, "coeff": 1}]'
    for command in ("decompose", "livsic"):
        code, out, err = run_cli(capsys, command, "--group", "C2", "--fn", chain_json)
        assert code == 1
        assert out == ""
        assert "out of range" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["cylinder-expand", "--group", "C2", "--spec", '{"0":7}'],
        ["cylinder-expand", "--group", "C2", "--spec", '{"0":-1}'],
        # a pin off the group after two that are on it ("01", as a second
        # pin at 1, is refused as no plain decimal before the library reads it)
        ["cylinder-expand", "--group", "C2", "--spec", '{"1":0,"2":1,"3":2}'],
        ["cylinder-expand", "--group", "S3", "--spec", '{"0":7}'],
        ["decompose", "--group", "C2", "--fn", '[{"word":{"entries":{"0":7}},"coeff":1}]'],
        ["livsic", "--group", "C2", "--fn", '[{"word":{"entries":{"0":7}},"coeff":1}]'],
        ["livsic", "--group", "S3", "--fn", '[{"word":{"entries":{"0":7}},"coeff":1}]'],
    ],
)
def test_a_value_off_its_group_is_refused_by_the_library_alone(capsys, argv):
    # The CLI parses the JSON and calls the library, whose error it prints
    # as raised: no check of its own stands in front of the library's.
    command, group, value = argv[0], builtin(argv[2]), json.loads(argv[4])
    with pytest.raises(LampkError) as raised:
        if command == "cylinder-expand":
            cylinder_to_chain(group, value.items())
        elif command == "decompose":
            coboundary_decompose(group, jsonio.chain_from_json(value))
        else:
            livsic_check(group, jsonio.chain_from_json(value))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    error = json.loads(err)["error"]
    assert (error["type"], error["message"]) == (type(raised.value).__name__, str(raised.value))


def test_pv_check_rejects_negative_window(capsys):
    code, out, err = run_cli(
        capsys, "pv-check", "--group", "C2", "--samples", "5", "--window", "-3"
    )
    assert code == 1
    assert out == ""
    assert "window" in json.loads(err)["error"]["message"]


def _wide_chain_json() -> str:
    """m - alpha(m) for m the sum of 1 000 distinct three-letter C2 words in
    positions 0..39: few patterns to period 14, but about 1 700 terms."""
    rng = random.Random(0)
    supports = set()
    while len(supports) < 1000:
        supports.add(tuple(sorted(rng.sample(range(40), 3))))
    m = ZChain((Word((p, 1) for p in support), 1) for support in supports)
    return json.dumps(jsonio.chain_to_json(m - alpha(m)))


# one word at position 10^8: its witness would have 10^8 terms
FAR_WORD = '[{"word":{"entries":{"100000000":1}},"coeff":1}]'


@pytest.mark.parametrize(
    "argv, code",
    [
        (["livsic", "--group", "C2", "--fn", "[]", "--max-period", "40"], 1),
        (["trace-image", "--group", "C2", "--level", "26"], 0),
        (["orbits", "--group", "C3", "--max-len", "16"], 1),
        (["cylinder-expand", "--group", "C2", "--spec",
          json.dumps({str(p): 0 for p in range(40)})], 1),
        (["livsic", "--group", "C2", "--fn", _wide_chain_json(), "--max-period", "14"], 1),
        (["claim-check", "--group", "C2", "--levels", "20000"], 1),
        (["claim-check", "--group", "C2", "--levels", "200000"], 1),
        (["decompose", "--group", "C2", "--fn", FAR_WORD], 1),
        (["pv-check", "--group", "C2", "--samples", "100000000"], 1),
        (["pv-check", "--group", "C2", "--samples", "1", "--window", "100000000"], 1),
        (["fingerprint", "--group", "C100000000"], 1),
    ],
)
def test_large_sizes_end_in_the_contract_quickly(capsys, argv, code):
    start = time.monotonic()
    got, out, err = run_cli(capsys, *argv)
    assert time.monotonic() - start < 2
    assert got == code
    if code == 1:
        assert out == ""
        assert json.loads(err)["error"]["type"] == "BudgetError"
    else:
        assert json.loads(out)["generator"] == {"num": 1, "den": 2**26}


def test_far_word_livsic_builds_no_witness(capsys):
    start = time.monotonic()
    data = run_json(capsys, "livsic", "--group", "C2", "--fn", FAR_WORD)
    assert time.monotonic() - start < 2
    assert data["is_coboundary"] is False
    assert data["violating_orbit"] == [1]


@pytest.mark.parametrize(
    "argv",
    [
        ["cylinder-expand", "--group", "C4", "--spec", '{"-1": 0, "100000000": 2}'],
        ["decompose", "--group", "C2", "--fn",
         '[{"word":{"entries":{"0":1,"100000000":1}},"coeff":1},'
         '{"word":{"entries":{"0":1,"2":1}},"coeff":1}]'],
    ],
)
def test_wide_words_print_in_order_quickly(capsys, argv):
    # words 10^8 wide are sorted for printing with no dense vector built
    start = time.monotonic()
    data = run_json(capsys, *argv)
    assert time.monotonic() - start < 2
    chain = data["chain"] if "chain" in data else data["canonical"]
    assert "100000000" in chain[-1]["word"]["entries"]


def test_huge_bases_end_in_the_contract_quickly(capsys):
    # an inline group whose order has 3 001 digits: |F|^2 is over the digit
    # limit already, so no power near |F|^14 286 is ever built.  Its dims,
    # the Fibonacci numbers F(7177) and F(7179), each divide the order: for
    # odd n, F(n - 2) F(n + 2) = F(n)^2 + 1 (Catalan's identity)
    a, b = 0, 1
    for _ in range(7177):
        a, b = b, a + b
    b += a  # a = F(7177), b = F(7178) + F(7177) = F(7179)
    group = json.dumps({"name": "big", "order": 1 + a * a + b * b, "dims": [1, a, b]})
    old_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        start = time.monotonic()
        code, out, err = run_cli(capsys, "trace-image", "--group", group, "--level", "20000")
        assert time.monotonic() - start < 2
        assert (code, out) == (1, "")
        assert "more than 4300 digits" in json.loads(err)["error"]["message"]
    finally:
        sys.set_int_max_str_digits(old_limit)


def test_integers_past_the_digit_limit_end_in_the_contract(capsys):
    old_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        term = '{"word": {"entries": {"%d": 1}}, "coeff": %s}'
        cases = [
            # parsed: a 4 301-digit coefficient
            (["decompose", "--group", "C2", "--fn", "[%s]" % (term % (0, "9" * 4301))],
             "LampkError"),
            # emitted: two 4 300-digit coefficients add up to 4 301 digits
            (["decompose", "--group", "C2", "--fn",
              "[%s, %s]" % (term % (0, "9" * 4300), term % (1, "9" * 4300))],
             "LampkError"),
            # emitted: the canonical word's last position has 4 301 digits
            (["decompose", "--group", "C2", "--fn",
              '[{"word": {"entries": {"-5": 1, "%s": 1}}, "coeff": 1}]' % ("9" * 4300)],
             "LampkError"),
            # emitted: the witness and the first canonical term print, and the
            # last sorted term's coefficient is two 4 300-digit ones added up
            (["decompose", "--group", "C2", "--fn",
              "[%s, %s, %s]" % (
                  term % (0, 1),
                  '{"word": {"entries": {"0": 1, "5": 1}}, "coeff": %s}' % ("9" * 4300),
                  '{"word": {"entries": {"1": 1, "6": 1}}, "coeff": %s}' % ("9" * 4300))],
             "LampkError"),
            # emitted: the canonical part is 0, and the witness coefficient on
            # [2, 5) is two 4 300-digit ones added up
            (["decompose", "--group", "C2", "--fn",
              "[%s]" % ", ".join([term % (1, "9" * 4300), term % (2, "9" * 4300),
                                  term % (5, "-" + "9" * 4300), term % (6, "-" + "9" * 4300)])],
             "LampkError"),
            # refused before computing: 2^14 285 has 4 301 digits
            (["trace-image", "--group", "C2", "--level", "14285"], "BudgetError"),
        ]
        for argv, error_type in cases:
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (1, "")
            assert json.loads(err)["error"]["type"] == error_type
        data = run_json(capsys, "trace-image", "--group", "C2", "--level", "14284")
        assert data["generator"] == {"num": 1, "den": 2**14284}
        # a far trivial pin's position has 4 301 digits: the writer refuses
        # the terms when called, before its first piece
        s3, pins = builtin("S3"), [(10**4300, 0), (0, 2)]
        with pytest.raises(ValueError):
            jsonio.terms_pieces(projection_terms(s3, pins))
        chain = projection_chain(s3, pins)
        largest = jsonio._largest(chain, [c for _, c in chain.items()])
        with pytest.raises(ValueError):
            jsonio.terms_pieces(Terms(chain.terms(), largest))
    finally:
        sys.set_int_max_str_digits(old_limit)


@pytest.mark.parametrize(
    ("command", "flag", "argument", "what"),
    [
        ("decompose", "--fn", '[{"word": {"entries": {"%s": 1}}, "coeff": 1}]', "word position"),
        ("trace", "--word", '{"%s": 1}', "word position"),
        ("cylinder-expand", "--spec", '{"0": "%s"}', "cylinder value"),
    ],
)
def test_digit_strings_past_the_limit_are_not_echoed(capsys, command, flag, argument, what):
    old_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        argv = [command, "--group", "C2", flag, argument % ("1" + "0" * 4300)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        error = json.loads(err)["error"]
        assert error == {"type": "LampkError", "message": f"{what} has more than 4300 digits"}
    finally:
        sys.set_int_max_str_digits(old_limit)


def test_horizon_past_the_digit_limit_is_not_printed(capsys):
    # words at -(10^4300 - 1) and 10^4300 - 1: the default horizon has 4 301
    # digits, so the refusal must not format it
    old_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        far = "9" * 4300
        chain_json = '[{"word":{"entries":{"-%s":1,"%s":1}},"coeff":1}]' % (far, far)
        code, out, err = run_cli(capsys, "livsic", "--group", "C2", "--fn", chain_json)
        assert (code, out) == (1, "")
        error = json.loads(err)["error"]
        assert error["type"] == "BudgetError"
        assert "more than 131072 patterns" in error["message"]
    finally:
        sys.set_int_max_str_digits(old_limit)


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--group", "C2", "--fn", "[" * 100_000 + "]" * 100_000],
        ["decompose", "--group", "C2", "--fn", "[" * 100_000],
        ["livsic", "--group", "C2", "--fn", "[" * 100_000 + "]" * 100_000],
        ["trace", "--group", "C2", "--word", '{"a":' * 100_000 + "1" + "}" * 100_000],
        ["cylinder-expand", "--group", "C2", "--spec", '{"a":' * 100_000 + "0" + "}" * 100_000],
        ["fingerprint", "--group", '{"a":' * 100_000 + "0" + "}" * 100_000],
    ],
)
def test_json_nested_past_the_recursion_limit_is_a_domain_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert "nested too deeply" in json.loads(err)["error"]["message"]


def test_closed_stdout_ends_in_the_contract():
    # 8 193 words, or the 6 561 terms of a C3 cylinder with 8 trivial pins,
    # print as about 1 MB, past any pipe buffer, so the writer is still
    # writing when the reader goes away after 100 bytes
    spec = json.dumps({str(p): 0 for p in range(8)})
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for args in (
        ["orbits", "--group", "C2", "--max-len", "14"],
        ["cylinder-expand", "--group", "C3", "--spec", spec],
    ):
        argv = [sys.executable, "-m", "lampk.cli", *args]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=30) == 1
        assert "Traceback" not in err
        assert json.loads(err)["error"]["type"] == "BrokenPipeError"


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--group", '{"name":"\\ud800","order":2,"dims":[1,1]}', "--other", "C2"],
        ["orbits", "--group", '{"name":"\\ud800","order":2,"dims":[1,1]}', "--max-len", "1"],
    ],
)
def test_unencodable_name_is_a_domain_error_with_empty_stdout(capsys, argv):
    # JSON admits a lone surrogate, which no UTF-8 stdout can write: the
    # result is refused before anything is printed
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    message = json.loads(err)["error"]["message"]
    assert message.startswith("the result cannot be printed") and "surrogates" in message


def test_livsic_default_horizon_is_proven(capsys):
    # support [-6, -3], so w = 4 and the horizon is 2w - 1 = 7
    chain_json = (
        '[{"word":{"entries":{"-6":1}},"coeff":1},'
        '{"word":{"entries":{"-4":1,"-3":1}},"coeff":-2},'
        '{"word":{"entries":{"-5":1,"-3":1}},"coeff":-1},'
        '{"word":{"entries":{"-6":1,"-4":1,"-3":1}},"coeff":2}]'
    )
    data = run_json(capsys, "livsic", "--group", "C2", "--fn", chain_json)
    assert data["max_period_checked"] == 7
    assert data["is_coboundary"] is False
    assert data["periodic_sums_vanish"] is False
    assert data["violating_orbit"] == [0, 0, 1]
    assert data["violating_sum"] == 1


def test_livsic(capsys):
    chain_json = '[{"word": {"entries": {"0": 1}}, "coeff": 1}]'
    data = run_json(
        capsys, "livsic", "--group", "C3", "--fn", chain_json, "--max-period", "6"
    )
    assert data["is_coboundary"] is False
    assert data["periodic_sums_vanish"] is False
    assert data["violating_orbit"] == [1]
    assert data["violating_sum"] == 1


def test_cylinder_expand(capsys):
    data = run_json(
        capsys, "cylinder-expand", "--group", "C2", "--spec", '{"0":0,"1":1}'
    )
    chain = jsonio.chain_from_json(data["chain"])
    assert chain == ZChain.of(Word({1: 1})) - ZChain.of(Word({0: 1, 1: 1}))


def test_cylinder_spec_non_integer_key_is_domain_error(capsys):
    code, out, err = run_cli(
        capsys, "cylinder-expand", "--group", "C2", "--spec", '{"a":0}'
    )
    assert code == 1
    assert out == ""
    assert "error" in json.loads(err)


@pytest.mark.parametrize("key", ["1_0", " 3 ", "+0", "00", "-0", "01", "١", "3.0", "1e3"])
@pytest.mark.parametrize(
    "command, flag, template, what",
    [
        ("trace", "--word", "{}", "word position"),
        ("cylinder-expand", "--spec", "{}", "cylinder position"),
        ("decompose", "--fn", '[{{"word":{{"entries":{}}},"coeff":1}}]', "word position"),
    ],
)
def test_position_key_must_be_a_plain_decimal(capsys, key, command, flag, template, what):
    # int() reads most of these keys, some as an integer a plain decimal
    # writes another way; a position is read only from a plain decimal
    entries = json.dumps({key: 1})
    code, out, err = run_cli(capsys, command, "--group", "C2", flag, template.format(entries))
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == {
        "type": "LampkError", "message": f"{what} must be an integer, got {key!r}",
    }


@pytest.mark.parametrize("spec", ['{"0":0,"00":1}', '{"0":1,"-0":0}'])
def test_cylinder_spec_duplicate_position_is_domain_error(capsys, spec):
    # a position key is a plain decimal, so no JSON object can name one
    # position twice: "00" and "-0" are refused as non-integers, not read
    # as a second pin at 0
    code, out, err = run_cli(
        capsys, "cylinder-expand", "--group", "C2", "--spec", spec
    )
    assert code == 1
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "LampkError"
    second = json.loads(spec).keys() - {"0"}
    assert error["message"] == f"cylinder position must be an integer, got {second.pop()!r}"
    # conflicting pins at one position define an empty cylinder, and the
    # library refuses them rather than letting the last one win
    with pytest.raises(LampkError, match="^duplicate position 0 in word entries$"):
        projection_chain(builtin("C2"), [(0, 0), (0, 1)])


@pytest.mark.parametrize(
    "argv, key",
    [
        (["cylinder-expand", "--group", "C2", "--spec", '{"0":0,"0":1}'], "--spec: key \"0\""),
        (["decompose", "--group", "C3", "--fn",
          '[{"word":{"entries":{"0":1,"0":2}},"coeff":1}]'], "--fn: key \"0\""),
        (["decompose", "--group", "C3", "--fn",
          '[{"word":{"entries":{"0":1}},"coeff":1,"coeff":2}]'], "--fn: key \"coeff\""),
        (["trace", "--group", "C2", "--word", '{"3":1,"3":1}'], "--word: key \"3\""),
        (["fingerprint", "--group", '{"name":"C2","order":2,"dims":[1,1],"order":3}'],
         "--group: key \"order\""),
    ],
)
def test_repeated_json_key_is_domain_error(capsys, argv, key):
    # json.loads keeps the last value of a repeated key: conflicting input
    # must be refused, not silently collapsed
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    error = json.loads(err)["error"]
    assert error["type"] == "LampkError"
    assert error["message"] == f"{key} given twice in one object"


def test_chain_outputs_are_the_indented_dump(capsys):
    # a group name that needs escaping and is not ASCII, as inline JSON
    group = GroupRepData(name='Z/2 "Zwei" ß✓', order=2, dims=(1, 1))
    group_arg = json.dumps({"name": group.name, "order": 2, "dims": [1, 1]})
    terms = [({"-3": 1, "0": 1}, -(10**200)), ({"2": 1}, 5), ({}, 3)]
    fn = json.dumps([{"word": {"entries": e}, "coeff": c} for e, c in terms])
    witness, canonical = coboundary_decompose(group, jsonio.chain_from_json(json.loads(fn)))
    payload = {
        "group": group.name,
        "witness": jsonio.chain_to_json(witness),
        "canonical": jsonio.chain_to_json(canonical),
    }
    code, out, _ = run_cli(capsys, "decompose", "--group", group_arg, "--fn", fn)
    assert code == 0
    assert witness and canonical
    assert out == json.dumps(payload, indent=2, ensure_ascii=False) + "\n"

    pins = [(0, 0), (1, 1), (3, 0)]
    payload = {
        "group": group.name,
        "chain": jsonio.chain_to_json(cylinder_to_chain(group, pins)),
    }
    spec = json.dumps({str(p): v for p, v in pins})
    code, out, _ = run_cli(capsys, "cylinder-expand", "--group", group_arg, "--spec", spec)
    assert code == 0
    assert out == json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def test_nonabelian_fullshift_is_domain_error(capsys):
    code, out, err = run_cli(capsys, "decompose", "--group", "S3", "--fn", "[]")
    assert code == 1
    error = json.loads(err)["error"]
    assert error["type"] == "NonAbelianGroupError"
    assert "abelian" in error["message"]


def test_unknown_group_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "fingerprint", "--group", "nope")
    assert code == 1
    assert json.loads(err)["error"]["type"] == "CatalogError"


def test_negative_level_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "trace-image", "--group", "C2", "--level", "-1")
    assert code == 1
    assert "level" in json.loads(err)["error"]["message"]


def test_malformed_json_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["trace", "--group", "C2", "--word", "not json"])
    assert exc.value.code == 2


def test_missing_fn_file_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["livsic", "--group", "C2", "--fn", "/nonexistent/f.json"])
    assert exc.value.code == 2


@pytest.mark.parametrize("source", ["/dev/zero", "sparse file"])
def test_oversized_fn_file_ends_in_the_contract_quickly(capsys, tmp_path, source):
    # a --fn file is read to one character past the limit and no further
    if source == "/dev/zero":
        if not os.path.exists(source):
            pytest.skip("no /dev/zero on this platform")
        path = source
    else:
        path = tmp_path / "big.json"
        with open(path, "wb") as file:
            file.truncate(MAX_CHAIN_FILE_CHARS + 1)
    start = time.monotonic()
    code, out, err = run_cli(capsys, "decompose", "--group", "C2", "--fn", str(path))
    assert time.monotonic() - start < 5
    assert (code, out) == (1, "")
    assert "Traceback" not in err
    error = json.loads(err)["error"]
    assert error["type"] == "BudgetError"
    assert f"more than {MAX_CHAIN_FILE_CHARS} characters" in error["message"]


def test_fn_file_at_the_limit_is_read(tmp_path):
    # NUL characters up to the limit pass the guard and fail as JSON
    path = tmp_path / "limit.json"
    with open(path, "wb") as file:
        file.truncate(MAX_CHAIN_FILE_CHARS)
    with pytest.raises(SystemExit) as exc:
        main(["decompose", "--group", "C2", "--fn", str(path)])
    assert exc.value.code == 2


def test_outputs_reparse_and_carry_no_floats(capsys):
    commands = [
        ["fingerprint", "--group", "S4"],
        ["orbits", "--group", "C3", "--max-len", "2"],
        ["k1", "--group", "C2"],
        ["claim-check", "--group", "C2", "--levels", "3"],
        ["trace", "--group", "S3", "--word", '{"0":2,"1":1}'],
        ["trace-image", "--group", "Q8", "--level", "2"],
        ["cylinder-expand", "--group", "C3", "--spec", '{"0":0}'],
        ["pv-check", "--group", "C2", "--samples", "5", "--window", "2"],
    ]
    for argv in commands:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        parsed = json.loads(out)
        assert_no_floats(parsed)
        assert json.loads(json.dumps(parsed)) == parsed


def test_deterministic_output(capsys):
    _, out1, _ = run_cli(capsys, "pv-check", "--group", "C2", "--samples", "20")
    _, out2, _ = run_cli(capsys, "pv-check", "--group", "C2", "--samples", "20")
    assert out1 == out2


def test_selfcheck_budget_exhaustion_is_distinct(capsys):
    # A budget of 0 is spent before the first criterion, so none starts:
    # every criterion is reported skipped, with an exit code distinct from
    # both success and failure.
    code, out, err = run_cli(capsys, "selfcheck", "--budget", "0")
    assert code == 3
    data = json.loads(out)
    assert data["status"] == "incomplete"
    assert [c["status"] for c in data["checks"]] == ["skipped"] * 9
    assert data["seed"] == 42
    # stdout carries no timings, so repeated runs are byte-identical
    code2, out2, _ = run_cli(capsys, "selfcheck", "--budget", "0")
    assert out2 == out


@pytest.mark.parametrize("budget", ["nan", "NaN", "+nan"])
def test_selfcheck_nan_budget_is_usage_error(capsys, budget):
    # every comparison with NaN is false, so it would never run out
    with pytest.raises(SystemExit) as exc:
        main(["selfcheck", "--budget", budget])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: --budget: expected a number of seconds, got nan\n"


def test_selfcheck_library_refuses_a_nan_budget(monkeypatch):
    from lampk import selfcheck

    monkeypatch.setattr(selfcheck, "run_criterion", lambda c: pytest.fail("a criterion ran"))
    with pytest.raises(LampkError, match="^budget_s must be a number of seconds, got nan$"):
        selfcheck.run_all(budget_s=float("nan"))


def test_selfcheck_negative_budget_starts_nothing(capsys):
    code, out, _ = run_cli(capsys, "selfcheck", "--budget", "-1")
    assert code == 3
    assert json.loads(out)["status"] == "incomplete"
