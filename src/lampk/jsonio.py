"""JSON wire formats.

Words carry string integer keys ({"entries": {"0": 1}}); chains are arrays
of {"word", "coeff"} sorted in word order with the zero chain as []; group
data is {"name", "order", "dims"}; traces are emitted as {"num", "den"}
from their reduced integer pairs.
Chains and words re-parse to the same value.  Nothing here checks a value
against its group or reads an integer: the constructors and the library
entries a value goes to do, through errors.exact_int.  A chain is written
from its Terms, the pairs made as they are taken in word order, and a word
list from its words: each as a stream of pieces of a few terms or words,
never as one text, by one writer for terms and one for words; the digit
limit is checked before the first piece, from the largest integer to be
written.
"""

from __future__ import annotations

from itertools import islice
from operator import attrgetter, itemgetter

from .errors import LampkError, exact_int  # noqa: F401  (exact_int is importable here too)
from .grouprep import GroupRepData
from .shiftwords import Word
from .zchain import Terms, ZChain


def group_from_json(data: dict) -> GroupRepData:
    try:
        return GroupRepData(data["name"], data["order"], data["dims"])
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
    return Word(items)


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
        return ZChain((word_from_json(item["word"]), item["coeff"]) for item in data)
    except (KeyError, TypeError) as exc:
        raise LampkError(f"malformed chain JSON: {exc}") from exc


def ratio_to_json(num: int, den: int) -> dict:
    """A reduced ratio, such as a trace pair, as {"num", "den"}."""
    return {"num": num, "den": den}
