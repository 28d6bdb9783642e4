"""JSON wire formats.

Words carry string integer keys ({"entries": {"0": 1}}); chains are arrays
of {"word", "coeff"} sorted in word order with the zero chain as []; group
data is {"name", "order", "dims"}; traces are emitted as {"num", "den"}
from their reduced integer pairs.
Chains and words re-parse to the same value.  A JSON value that stands
for an integer must be a JSON integer (``json_int``): "1" and 1.0, which
errors.exact_int reads as 1 for library callers, are refused, and a
position given as an object key must be written as a plain ASCII decimal
(``0|-?[1-9][0-9]*``): "+1", " 1", "1_0", "01" and "-0", which int()
reads, are refused too.  Values are checked pair by pair
as the library reads them, so the first refusal and its message are the
ones the library would give.  Nothing here checks a value against its
group: the constructors and the library entries a value goes to do.  A
chain is written from its Terms, the pairs made as they are taken in word
order, and a word list from its words: each as a stream of pieces of a few
terms or words, never as one text, by one writer for terms and one for
words; the digit limit is checked before the first piece, from the largest
integer to be written.
"""

from __future__ import annotations

import re
from itertools import islice
from operator import attrgetter, itemgetter

from .errors import LampkError, exact_int, quoted
from .grouprep import GroupRepData
from .shiftwords import Word
from .zchain import Terms, ZChain


def json_int(value, what: str) -> int:
    """The JSON integer ``value``, an int that is not a bool.  What exact_int
    refuses is refused as it words it; what it would read as an integer,
    such as "1" or 1.0, is refused in the same words."""
    if type(value) is int:
        return value
    exact_int(value, what)
    raise LampkError(f"{what} must be an integer, got {quoted(value)}")


# A JSON object key read as an integer: one way to write each integer.
_DECIMAL_KEY = re.compile("0|-?[1-9][0-9]*")


def int_pairs(items, key_what: str, value_what: str):
    """The (key, value) pairs of a JSON object, as they are taken, each key
    read by exact_int and each value by json_int: in the order a library
    entry reading its pairs with exact_int checks them.  A string key (as
    every key of parsed JSON is) must be a plain decimal first: any other
    is refused in exact_int's words, and exact_int refuses one past the
    digit limit."""
    for key, value in items:
        if isinstance(key, str) and not _DECIMAL_KEY.fullmatch(key):
            raise LampkError(f"{key_what} must be an integer, got {quoted(key)}")
        yield exact_int(key, key_what), json_int(value, value_what)


def group_from_json(data: dict) -> GroupRepData:
    try:
        name, order, dims = data["name"], data["order"], data["dims"]
        order = json_int(order, "group order")
        # GroupRepData checks the name and the type of dims before any dim
        if isinstance(name, str) and isinstance(dims, list):
            dims = [json_int(d, "irrep dimension") for d in dims]
        return GroupRepData(name, order, dims)
    except (KeyError, TypeError) as exc:
        raise LampkError(f"malformed group JSON: {exc}") from exc


def word_to_json(word: Word) -> dict:
    return {"entries": {str(pos): idx for pos, idx in word.entries}}


def word_from_json(data: dict) -> Word:
    # Accept both the wrapped shape and a bare entries mapping.
    entries = data.get("entries", data) if isinstance(data, dict) else data
    try:
        items = entries.items()
    except AttributeError as exc:
        raise LampkError(f"malformed word JSON: {exc}") from exc
    return Word(int_pairs(items, "word position", "word entry"))


def chain_to_json(chain: ZChain) -> list:
    return [
        {"word": word_to_json(word), "coeff": coeff} for word, coeff in chain.terms()
    ]


def _entries_writer(n: str):
    """A function writing a word's ``"entries": {...}`` as ``indent=2`` does
    on a line whose newline and indent are ``n``: the one place the word
    shape is written, for chains and word lists alike."""
    head, sep, tail = f'"entries": {{{n}  ', f",{n}  ", f"{n}}}"

    def entries_text(entries: tuple) -> str:
        if not entries:
            return '"entries": {}'
        return head + sep.join([f'"{pos}": {idx}' for pos, idx in entries]) + tail

    return entries_text


def _largest(words, coeffs=()) -> int:
    """The largest magnitude of an integer written with these words and
    coefficients.  The positions of largest magnitude are the smallest
    first position and the largest last one.  Irrep indices are left out:
    each is below its group's number of irreps."""
    largest = max(map(abs, coeffs), default=0)
    entries = list(filter(None, map(attrgetter("entries"), words)))
    if entries:
        # (position, index) pairs compare by position first
        lo = min(map(itemgetter(0), entries))[0]
        hi = max(map(itemgetter(-1), entries))[0]
        largest = max(largest, abs(lo), abs(hi))
    return largest


def _array_pieces(items, n: str):
    """The items laid out as ``indent=2`` lays out a JSON array on lines
    whose newline and indent are ``n``, in pieces of eight items: a piece
    holds a few kB at most, and writing the pieces costs about what writing
    one joined text does, where a write per item costs more."""
    items = iter(items)
    head, sep = f"[{n}", f",{n}"
    while chunk := list(islice(items, 8)):
        yield head + sep.join(chunk)
        head = sep
    yield f"{n}]" if head == sep else "[]"


def terms_pieces(terms: Terms, indent: str = ""):
    """``json.dumps(chain_to_json(chain), indent=2)``, for the chain of these
    terms, as pieces of text of a few terms each, written straight from the
    terms, with ``indent`` after every newline.  Every term has the same
    shape, so no dicts are built for the encoder to walk (with an indent it
    takes its pure-Python path), and a caller nesting the chain in an
    indented object needs no second, re-indented copy.  ``str`` of
    ``terms.largest`` is taken when this is called: the interpreter's digit
    limit counts digits, not the sign, so it raises exactly when writing
    some term would, and terms that cannot be written raise its ValueError
    before the first piece.  The pieces are made as they are taken, and
    are ASCII."""
    str(terms.largest)
    n = "\n" + indent
    entries_text = _entries_writer(n + "      ")
    return _array_pieces(
        (
            f'  {{{n}    "word": {{{n}      {entries_text(word.entries)}{n}    }},{n}'
            f'    "coeff": {coeff}{n}  }}'
            for word, coeff in terms
        ),
        n,
    )


def words_pieces(words: list[Word], indent: str = ""):
    """``json.dumps([word_to_json(w) for w in words], indent=2)`` as pieces of
    text of a few words each, written straight from the entries as
    terms_pieces writes a chain, with ``indent`` after every newline and the
    digit limit checked when this is called."""
    str(_largest(words))
    n = "\n" + indent
    entries_text = _entries_writer(n + "    ")
    return _array_pieces((f"  {{{n}    {entries_text(word.entries)}{n}  }}" for word in words), n)


def chain_from_json(data: list) -> ZChain:
    if not isinstance(data, list):
        raise LampkError("chain JSON must be an array of {word, coeff} objects")
    try:
        return ZChain(
            (word_from_json(item["word"]), json_int(item["coeff"], "coeff")) for item in data
        )
    except (KeyError, TypeError) as exc:
        raise LampkError(f"malformed chain JSON: {exc}") from exc


def ratio_to_json(num: int, den: int) -> dict:
    """A reduced ratio, such as a trace pair, as {"num", "den"}."""
    return {"num": num, "den": den}
