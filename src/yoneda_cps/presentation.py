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

import json
import os

__all__ = [
    "Presentation",
    "PresentationError",
    "Record",
    "WalkCapExceeded",
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


DEFAULT_WALK_CAP = 10 ** 7


class WalkCapExceeded(RuntimeError):
    """A bounded search of the walk layer passed its cap.  `stage` names
    what was counted."""

    def __init__(self, cap, stage="walk enumeration"):
        super().__init__(
            f"{stage} exceeded the cap of {cap}"
            " (raise YONEDA_CPS_MAX_WALK_CAP to allow more)")
        self.cap = cap


def walk_cap():
    """The cap of the walk layer's searches, from YONEDA_CPS_MAX_WALK_CAP.

    It lives here, not in `walks`, so that every verb can check it
    without loading the walk calculus."""
    raw = os.environ.get("YONEDA_CPS_MAX_WALK_CAP")
    if not raw:
        return DEFAULT_WALK_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError("YONEDA_CPS_MAX_WALK_CAP must be a positive "
                         f"integer, got {raw!r}")
    return cap


def format_word(letters):
    """Display form of a letter tuple: plain join for one-char alphabets."""
    if not letters:
        return "1"
    if all(len(name) == 1 for name in letters):
        return "".join(letters)
    return "*".join(letters)


_setattr = object.__setattr__


class Record:
    """Base of the package's immutable value classes.

    A subclass lists its fields as annotations, in order; a class
    attribute of the same name is that field's default.  A record is
    built by position or keyword, compares and hashes by its field
    values, prints as `Name(field=value, ...)` and refuses assignment.
    A subclass's `__post_init__` runs once the fields are set and may
    normalise one with `object.__setattr__`.  The fields are read once,
    when the subclass is created.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields
                         if name in cls.__dict__}
        cls._post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        i = 0
        for name in fields:    # an index, not zip: records are built in bulk
            _setattr(self, name, args[i])
            i += 1
        if self._post_init is not None:
            self._post_init()

    def _bind(self, args, kwargs):
        """The field values, in order, of a call with keywords or defaults."""
        cls, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls}() takes {len(fields)} positional "
                            f"arguments but {len(args)} were given")
        given = dict(zip(fields, args))
        for name in kwargs:
            if name not in fields:
                raise TypeError(f"{cls}() got an unexpected keyword "
                                f"argument {name!r}")
            if name in given:
                raise TypeError(f"{cls}() got multiple values for "
                                f"argument {name!r}")
        values = {**self._defaults, **given, **kwargs}
        missing = [name for name in fields if name not in values]
        if missing:
            raise TypeError(f"{cls}() missing required arguments: "
                            + ", ".join(missing))
        return [values[name] for name in fields]

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Presentation(Record):
    generator_names: tuple  # in index order
    relations: tuple        # letter tuples, sorted by (degree, index sequence)


def make_presentation(generator_names, relation_letter_tuples):
    """Build a validated Presentation from raw pieces.

    Deduplicates, prunes non-minimal relations (those with a proper
    factor that is another relation), and sorts by (degree, index
    sequence).  Raises PresentationError on an empty alphabet, unknown
    generator tokens, relations of degree < 2, a name that does not
    encode as UTF-8 (a lone surrogate, which no output could print), a
    name containing `*`, or a name of two or more characters spelled by
    one-character names.  Refusing the last two gives distinct nonempty
    words distinct `format_word` displays: words of one-character names
    show their joins, words with a longer name `*`-joins that split back
    at each `*`, and a join of one-character names has no `*`, so it
    could equal only a single longer name.
    """
    names = list(generator_names)
    if not names:
        raise PresentationError("empty alphabet")
    if len(set(names)) != len(names):
        raise PresentationError("duplicate generator names")
    letters = {name for name in names if len(name) == 1}
    for name in names:
        try:
            name.encode("utf-8")
        except UnicodeEncodeError:
            raise PresentationError(f"generator name {name!r} does not "
                                    "encode as UTF-8") from None
        if "*" in name:
            raise PresentationError(f"generator name {name!r} contains '*'")
        if len(name) > 1 and set(name) <= letters:
            raise PresentationError(f"generator name {name!r} is spelled by "
                                    "one-character generator names")
    index = {name: i for i, name in enumerate(names)}

    rels = set()
    for rel in relation_letter_tuples:
        rel = tuple(rel)
        for tok in rel:
            if tok not in index:
                raise PresentationError(f"unknown generator {tok!r} in relation {format_word(rel)}")
        if len(rel) < 2:
            raise PresentationError(f"relation {format_word(rel) if rel else '1'} has degree {len(rel)} < 2")
        rels.add(rel)

    lengths = {len(r) for r in rels}    # a factor in rels has one of these
    minimal = [r for r in rels
               if not any(r[a:a + k] in rels for k in lengths if k < len(r)
                          for a in range(len(r) - k + 1))]
    minimal.sort(key=lambda r: (len(r), tuple(index[c] for c in r)))
    return Presentation(tuple(names), tuple(minimal))


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
