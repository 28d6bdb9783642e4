"""Output checks for lampk CLI invocations, computed apart from the program.

Every check is built from the inputs the benchmark generated and returns a
callable ``check(code, stdout, stderr) -> str | None``: ``None`` when the
invocation met its contract, otherwise a one-line reason.  The arithmetic
here (group catalog, chains as dicts, shifts, orbit sums, closed-form
counts) is the benchmark's own; nothing is compared with saved output of
the program and nothing imports lampk.

A word is a tuple of ``(position, irrep index)`` pairs sorted by position,
with nonzero indices only; a chain is a dict word -> nonzero int.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product
from math import gcd, prod

# name -> (|F|, irrep dimensions with the trivial one first)
CATALOG = {
    "C2": (2, (1, 1)),
    "C3": (3, (1, 1, 1)),
    "C4": (4, (1, 1, 1, 1)),
    "C5": (5, (1, 1, 1, 1, 1)),
    "klein4": (4, (1, 1, 1, 1)),
    "S3": (6, (1, 1, 2)),
    "D4": (8, (1, 1, 1, 1, 2)),
    "Q8": (8, (1, 1, 1, 1, 2)),
    "A4": (12, (1, 1, 1, 3)),
    "S4": (24, (1, 1, 2, 3, 3)),
    "A5": (60, (1, 3, 3, 4, 5)),
}

BOUNDARY_IDENTITY = "∂1[u] = -[1]"


class Mismatch(Exception):
    """An output that breaks the contract; the message says how."""


def _require(cond, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def _checker(body):
    """Wrap ``body(code, stdout, stderr)`` so a Mismatch becomes its reason."""

    def check(code: int, stdout: str, stderr: str):
        try:
            body(code, stdout, stderr)
        except Mismatch as exc:
            return str(exc)
        except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
            return f"unreadable output: {type(exc).__name__}: {exc}"
        return None

    return check


def _result(code: int, stdout: str, stderr: str, **echo) -> dict:
    """The JSON object on stdout of a successful run; ``echo`` lists the
    fields that must repeat the inputs."""
    _require(code == 0, f"exit {code}, expected 0: {stderr.strip()[-200:]}")
    data = json.loads(stdout)
    _require(isinstance(data, dict), "stdout is not a JSON object")
    for key, value in echo.items():
        _require(data[key] == value, f"{key} is {data[key]!r}, expected {value!r}")
    return data


def abelian_order(group: str) -> int:
    return sum(1 for d in CATALOG[group][1] if d == 1)


def is_abelian(group: str) -> bool:
    return abelian_order(group) == CATALOG[group][0]


# ----------------------------------------------------------------- chains


def word_window(word) -> int:
    return word[-1][0] - word[0][0] + 1 if word else 0


def shift_word(word, k: int):
    return tuple((p + k, v) for p, v in word)


def add_term(chain: dict, word, coeff: int) -> None:
    total = chain.get(word, 0) + coeff
    if total:
        chain[word] = total
    else:
        chain.pop(word, None)


def chain_sub_shift(m: dict, k: int) -> dict:
    """m - shift(m, k), term by term."""
    out = dict(m)
    for word, coeff in m.items():
        add_term(out, shift_word(word, k), -coeff)
    return out


def chain_window(chain: dict) -> int:
    """Width of the union of the supports: the function's dependence window."""
    positions = [p for word in chain for p, _ in word]
    return max(positions) - min(positions) + 1 if positions else 0


def chain_to_json(chain: dict) -> list:
    return [
        {"word": {"entries": {str(p): v for p, v in word}}, "coeff": c}
        for word, c in chain.items()
    ]


def _sort_key(word):
    """The contract's word order: window length, dense vector, position."""
    if not word:
        return (0, (), 0)
    lo = word[0][0]
    dense = [0] * word_window(word)
    for p, v in word:
        dense[p - lo] = v
    return (len(dense), tuple(dense), lo)


def parse_word(data, r: int):
    """Word JSON -> word: plain integer position keys, letters in 1..r-1."""
    if not (type(data) is dict and len(data) == 1 and type(data.get("entries")) is dict):
        raise Mismatch(f"bad word {data!r}")
    word = []
    for key, value in data["entries"].items():
        pos = int(key)
        if str(pos) != key or type(value) is not int or not 0 < value < r:
            raise Mismatch(f"bad word entry {key!r}: {value!r}")
        word.append((pos, value))
    word.sort()
    return tuple(word)


def parse_chain(data, r: int) -> dict:
    """Chain JSON -> dict: unique words, nonzero coefficients, word order."""
    _require(isinstance(data, list), "chain is not a JSON array")
    chain = {}
    previous = None
    for item in data:
        if not (type(item) is dict and len(item) == 2 and "word" in item):
            raise Mismatch(f"bad term {item!r}")
        coeff = item["coeff"]
        if type(coeff) is not int or coeff == 0:
            raise Mismatch(f"bad coefficient {coeff!r}")
        word = parse_word(item["word"], r)
        if word in chain:
            raise Mismatch(f"repeated word {word}")
        key = _sort_key(word)
        if previous is not None and not previous < key:
            raise Mismatch("chain terms out of word order")
        previous = key
        chain[word] = coeff
    return chain


def orbit_sum(chain: dict, pattern) -> int:
    """Sum of the chain's function over every shift of the periodic point."""
    p = len(pattern)
    total = 0
    for k in range(p):
        for word, coeff in chain.items():
            if all(pattern[(pos + k) % p] == v for pos, v in word):
                total += coeff
    return total


# ------------------------------------------------------------ the checks


def claim_check(group: str, levels: int):
    r = len(CATALOG[group][1])

    def body(code, out, err):
        data = _result(code, out, err)
        size = sum(r**n for n in range(1, levels + 1))
        _require(data["size"] == size, f"size {data['size']} != {size}")
        _require(data["det"] in (1, -1), f"det {data['det']} is not +-1")
        _require(data["holds"] is True, "holds is not true")

    return _checker(body)


def cylinder_expand(group: str, spec: dict):
    """The chain must be the inclusion-exclusion expansion of the cylinder."""
    r = len(CATALOG[group][1])
    fixed = [(p, v) for p, v in spec.items() if v]
    trivial = [p for p, v in spec.items() if v == 0]
    expected = {}
    for letters in product(range(r), repeat=len(trivial)):
        word = tuple(sorted(fixed + [(p, v) for p, v in zip(trivial, letters) if v]))
        sign = -1 if sum(1 for v in letters if v) % 2 else 1
        add_term(expected, word, sign)

    def body(code, out, err):
        data = _result(code, out, err, group=group)
        chain = parse_chain(data["chain"], r)
        _require(chain == expected, f"{len(chain)} terms differ from the {len(expected)}-term expansion")

    return _checker(body)


def decompose(group: str, chain: dict):
    """input == witness - shift(witness, -1) + canonical, canonical anchored at 0."""
    r = len(CATALOG[group][1])

    def body(code, out, err):
        data = _result(code, out, err, group=group)
        witness = parse_chain(data["witness"], r)
        canonical = parse_chain(data["canonical"], r)
        _require(all(not w or w[0][0] == 0 for w in canonical), "canonical word not anchored at 0")
        rebuilt = chain_sub_shift(witness, -1)
        for word, coeff in canonical.items():
            add_term(rebuilt, word, coeff)
        _require(rebuilt == chain, "splitting identity fails")

    return _checker(body)


def pv_check(group: str, samples: int, window: int, seed: int):
    def body(code, out, err):
        data = _result(code, out, err, group=group, samples=samples, window=window, seed=seed)
        _require(data["passed"] is True, "passed is not true")
        _require(data["counterexamples"] == 0, f"{data['counterexamples']} counterexamples")

    return _checker(body)


def livsic(group: str, chain: dict, coboundary: bool, max_period: int | None):
    """Inputs are built with a known answer; a reported violating orbit is
    re-evaluated here and must carry the reported nonzero sum."""
    r = len(CATALOG[group][1])

    def body(code, out, err):
        data = _result(code, out, err, group=group)
        _require(data["is_coboundary"] is coboundary, f"is_coboundary is {data['is_coboundary']}")
        if max_period is not None:
            _require(data["max_period_checked"] == max_period, "horizon not as pinned")
        if coboundary:
            _require(data["periodic_sums_vanish"] is True, "orbit sums of a coboundary do not vanish")
            _require(data["violating_orbit"] is None and data["violating_sum"] is None,
                     "coboundary reported a violating orbit")
            return
        _require(data["periodic_sums_vanish"] is False, "orbit sums vanish for a non-coboundary")
        pattern = data["violating_orbit"]
        _require(isinstance(pattern, list) and 0 < len(pattern) <= data["max_period_checked"],
                 f"bad violating orbit {pattern!r}")
        _require(all(type(v) is int and 0 <= v < r for v in pattern), "orbit letter out of range")
        total = orbit_sum(chain, pattern)
        _require(total != 0 and total == data["violating_sum"],
                 f"orbit sum {total}, reported {data['violating_sum']}")

    return _checker(body)


def canonical_count(r: int, max_len: int) -> int:
    return r + sum((r - 1) ** 2 * r ** (n - 2) for n in range(2, max_len + 1))


def orbit_words(group: str, max_len: int, key: str):
    """orbits / k0-basis: the closed-form count of distinct canonical words."""
    r = len(CATALOG[group][1])

    def body(code, out, err):
        data = _result(code, out, err, group=group, max_len=max_len)
        words = [parse_word(w, r) for w in data[key]]
        count = canonical_count(r, max_len)
        _require(data["count"] == len(words) == count, f"{len(words)} words, expected {count}")
        _require(len(set(words)) == count, "repeated words")
        for word in words:
            _require(not word or (word[0][0] == 0 and word[-1][0] < max_len),
                     f"word {word} not anchored in [0, {max_len})")
        if key == "basis":
            _require(data["sides_identical"] is True, "K0 sides differ")

    return _checker(body)


def trace_image(group: str, level: int):
    """gcd over the product set is the product of per-letter gcds."""
    order, dims = CATALOG[group]
    expected = Fraction(gcd(order, *dims) ** level, order**level)

    def body(code, out, err):
        data = _result(code, out, err, group=group, level=level)
        gen = data["generator"]
        _require(gcd(gen["num"], gen["den"]) == 1, "generator not reduced")
        _require(Fraction(gen["num"], gen["den"]) == expected, f"generator {gen}, expected {expected}")

    return _checker(body)


def fingerprint(group: str):
    order, dims = CATALOG[group]

    def body(code, out, err):
        data = _result(code, out, err)
        want = {"order": order, "dims": sorted(dims), "abelian_order": abelian_order(group)}
        _require(data == want, f"{data} != {want}")

    return _checker(body)


def classify(group: str, other: str):
    if is_abelian(group) and is_abelian(other):
        decision = "iso" if CATALOG[group][0] == CATALOG[other][0] else "not-iso"
    elif is_abelian(group) or is_abelian(other):
        decision = "not-iso"
    else:
        decision = "undecided"

    def body(code, out, err):
        data = _result(code, out, err)
        _require(data == {"groups": [group, other], "decision": decision}, f"{data}")

    return _checker(body)


def trace(group: str, word):
    order, dims = CATALOG[group]
    expected = Fraction(prod(dims[v] for _, v in word), order ** len(word))

    def body(code, out, err):
        data = _result(code, out, err, group=group)
        gen = data["trace"]
        _require(gcd(gen["num"], gen["den"]) == 1, "trace not reduced")
        _require(Fraction(gen["num"], gen["den"]) == expected, f"trace {gen}, expected {expected}")
        _require(parse_word(data["word"], len(dims)) == tuple(word), "word not echoed")

    return _checker(body)


def k1():
    want = {"K1": "Z", "generator": "[u]", "boundary": BOUNDARY_IDENTITY}

    def body(code, out, err):
        _require(_result(code, out, err) == want, "K1 report differs")

    return _checker(body)


def domain_error():
    """Malformed input: exit 1, nothing on stdout, {"error": ...} on stderr."""

    def body(code, out, err):
        _require(code == 1, f"exit {code}, expected 1")
        _require(out == "", "stdout is not empty")
        try:
            data = json.loads(err)
        except ValueError:
            raise Mismatch(f"stderr is not JSON: {err.strip().splitlines()[-1:]}") from None
        _require(isinstance(data, dict) and "error" in data, "stderr has no error object")

    return _checker(body)
