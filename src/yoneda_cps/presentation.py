"""Monomial presentations of connected graded algebras.

A presentation is an alphabet of degree-1 generators together with a
finite set of monomial relations (words of degree >= 2).  The quotient
of the free tensor algebra by the two-sided ideal generated by the
relations is the algebra every other module works with.

A word is a tuple of generator names, leftmost tensor factor first (a
"letter tuple").  Relations, graph vertices and chain words all take
this one form.  A function that builds a word from a caller's argument
accepts any sequence of names, so a plain string spells a word over a
one-character alphabet, which keeps tests readable.
"""

from dataclasses import dataclass
import json

__all__ = [
    "Presentation",
    "PresentationError",
    "format_word",
    "parse_presentation",
    "serialize_presentation",
    "make_presentation",
]


class PresentationError(ValueError):
    """Raised for malformed presentation input.

    For syntax errors in JSON text, `line` and `column` locate the
    problem; both are None for structural errors.
    """

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


def format_word(letters):
    """Display form of a letter tuple: plain join for one-char alphabets."""
    if not letters:
        return "1"
    if all(len(name) == 1 for name in letters):
        return "".join(letters)
    return "*".join(letters)


@dataclass(frozen=True)
class Presentation:
    generator_names: tuple  # in index order
    relations: tuple        # letter tuples, sorted by (degree, index sequence)


def _index_map(names):
    return {name: i for i, name in enumerate(names)}


def _sort_key(letters, index):
    return (len(letters), tuple(index[c] for c in letters))


def _contains_factor(haystack, needle):
    """First position where needle occurs contiguously in haystack, else None."""
    n, m = len(haystack), len(needle)
    for start in range(n - m + 1):
        if haystack[start:start + m] == needle:
            return start
    return None


def _prune_nonminimal(relation_tuples):
    """Drop relations that properly contain another relation as a factor.

    Relations equal to each other were deduplicated before this runs, so
    "contains a different relation" is the only redundancy left.
    """
    kept = []
    for r in relation_tuples:
        redundant = False
        for other in relation_tuples:
            if other is r or len(other) >= len(r):
                continue
            if _contains_factor(r, other) is not None:
                redundant = True
                break
        if not redundant:
            kept.append(r)
    return kept


def make_presentation(generator_names, relation_letter_tuples):
    """Build a validated Presentation from raw pieces.

    Deduplicates, prunes non-minimal relations, and sorts by
    (degree, index sequence).  Raises PresentationError on an empty
    alphabet, unknown generator tokens, or relations of degree < 2.
    """
    names = list(generator_names)
    if not names:
        raise PresentationError("empty alphabet")
    if len(set(names)) != len(names):
        raise PresentationError("duplicate generator names")
    index = _index_map(names)

    cleaned = []
    for rel in relation_letter_tuples:
        rel = tuple(rel)
        for tok in rel:
            if tok not in index:
                raise PresentationError(f"unknown generator {tok!r} in relation {format_word(rel)}")
        if len(rel) < 2:
            raise PresentationError(f"relation {format_word(rel) if rel else '1'} has degree {len(rel)} < 2")
        cleaned.append(rel)

    cleaned = sorted(set(cleaned), key=lambda r: _sort_key(r, index))
    return Presentation(tuple(names), tuple(_prune_nonminimal(cleaned)))


def parse_presentation(source):
    """Parse the input schema into a Presentation.

    Accepts JSON text or an already-decoded dict:

        {"generators": ["a", "b"], "relations": [["a", "b"]],
         "generator_order": ["a", "b"]}        # optional

    generator_order, when present, must be a permutation of generators
    and fixes the index order used for sorting.
    """
    if isinstance(source, (str, bytes)):
        try:
            data = json.loads(source)
        except json.JSONDecodeError as e:
            raise PresentationError(f"syntax error: {e.msg}", line=e.lineno, column=e.colno) from e
    else:
        data = source

    if not isinstance(data, dict):
        raise PresentationError("top-level value must be an object")
    unknown = set(data) - {"generators", "relations", "generator_order"}
    if unknown:
        raise PresentationError(f"unknown keys {sorted(unknown)}")
    gens = data.get("generators")
    rels = data.get("relations")
    if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
        raise PresentationError("generators must be an array of tokens")
    if not isinstance(rels, list) or not all(
            isinstance(r, list) and all(isinstance(t, str) for t in r) for r in rels):
        raise PresentationError("relations must be an array of token arrays")

    order = data.get("generator_order")
    if order is not None:
        if not isinstance(order, list) or not all(isinstance(g, str) for g in order) \
                or sorted(order) != sorted(gens):
            raise PresentationError("generator_order must be a permutation of generators")
        gens = order
    return make_presentation(gens, rels)


def serialize_presentation(p):
    """Inverse of parse_presentation: emit the input schema as a dict."""
    return {
        "generators": list(p.generator_names),
        "relations": [list(r) for r in p.relations],
    }
