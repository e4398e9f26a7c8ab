"""Independent cohomology dimensions via word-graded complexes.

The bigraded dimensions are computed one word at a time: the complex of
a word has a basis in homological degree n for every splitting into n
nonempty parts none of which lies in the ideal, and the differential
merges adjacent parts, killing splittings whose merged part falls into
the ideal.  Only words covered by overlapping chains of relations
contribute, and those are enumerable by extending each relation through
overlaps; everything else has contractible complex.

Whether a part [a, b) of a word lies in the ideal depends only on the
least end of a relation occurrence starting at or past a.  The complex
of a word is therefore fixed by its length and that array of least
ends, min_end, and `minimal_resolution` reduces one complex per
distinct (length, min_end) key, not one per chain word.
"""

from dataclasses import dataclass

from .ext import poincare_table
from .linalg import gf2_rank, gfp_rank

__all__ = [
    "BettiTable",
    "algebra_basis",
    "chain_words",
    "word_homology",
    "minimal_resolution",
    "cross_validate",
]


def algebra_basis(ideal, degree):
    """All normal words of the given degree, in sorted order."""
    names = ideal.presentation.generator_names
    words = [()]
    for _ in range(degree):
        words = [w + (x,) for w in words for x in names
                 if not ideal.contains(w + (x,))]
    return tuple(sorted(words, key=ideal.sort_key))


@dataclass(frozen=True)
class BettiTable:
    entries: dict        # (i, j) -> dimension, zeros omitted
    max_i: int
    max_j: int
    field_char: int
    truncation_reached: bool  # some chain word fell beyond max_j

    def to_json(self):
        return {
            "max_i": self.max_i,
            "max_j": self.max_j,
            "field_char": self.field_char,
            "truncation_reached": self.truncation_reached,
            "entries": [
                {"i": i, "j": j, "dim": d}
                for (i, j), d in sorted(self.entries.items())
            ],
        }

    def to_text(self):
        cols = list(range(self.max_i + 1))
        lines = ["    " + "".join(f"{i:>6}" for i in cols)]
        for j in range(self.max_j + 1):
            row = [self.entries.get((i, j), 0) for i in cols]
            if any(row):
                lines.append(f"{j:>4}" + "".join(
                    f"{d:>6}" if d else "     ." for d in row))
        return "\n".join(lines)


def chain_words(ideal, max_len):
    """Words coverable by an overlapping chain of relation occurrences.

    Starting from each relation, extend by any relation that starts
    inside the word, matches the overlap, and runs past the end.  Words
    not coverable this way have contractible complexes: any uncrossed
    internal position splits them.  Returns (words, truncated).
    """
    relations = ideal.relations
    truncated = False
    words = set()
    stack = []
    for r in relations:
        if len(r) > max_len:
            truncated = True
        else:
            stack.append(r)
    while stack:
        w = stack.pop()
        if w in words:
            continue
        words.add(w)
        for r in relations:
            for s in range(max(1, len(w) - len(r) + 1), len(w)):
                overlap = len(w) - s
                if w[s:] == r[:overlap]:
                    new = w + r[overlap:]
                    if len(new) > max_len:
                        truncated = True
                    elif new not in words:
                        stack.append(new)
    return sorted(words, key=ideal.sort_key), truncated


def _min_occurrence_end(ideal, word):
    """m[a] = least end of a relation occurrence starting at or past a."""
    n = len(word)
    inf = n + 1
    m = [inf] * (n + 1)
    ends = {}
    for start, rel in ideal.occurrences(word):
        end = start + len(ideal.relations[rel])
        ends[start] = min(ends.get(start, inf), end)
    for a in range(n - 1, -1, -1):
        m[a] = min(ends.get(a, inf), m[a + 1])
    return m


def word_homology(ideal, word, max_i, field_char):
    """Homology dimensions {n: dim} of the word's splitting complex."""
    word = tuple(word)
    return _splitting_homology(len(word), _min_occurrence_end(ideal, word),
                               max_i, field_char)


def _splitting_homology(n_len, min_end, max_i, field_char):
    """Homology of the splitting complex of a word of length n_len.

    The word enters only through min_end, its least occurrence ends: a
    part [a, b) lies in the ideal exactly when min_end[a] <= b.
    """
    if n_len == 0:
        return {0: 1}
    max_parts = min(n_len, max_i + 1)

    layers = {n: [] for n in range(1, max_parts + 1)}

    def rec(a, cuts):
        parts = len(cuts) + 1
        if n_len < min_end[a]:
            layers[parts].append(cuts)
        if parts == max_parts:
            return
        for b in range(a + 1, min(min_end[a], n_len)):
            rec(b, cuts + (b,))

    rec(0, ())

    index = {n: {cuts: k for k, cuts in enumerate(layer)}
             for n, layer in layers.items()}
    ranks = {}
    for n in range(2, max_parts + 1):
        target = index[n - 1]
        rows = []
        for cuts in layers[n]:
            ext = (0,) + cuts + (n_len,)
            if field_char == 2:
                row = 0
                for t in range(1, n):
                    if min_end[ext[t - 1]] > ext[t + 1]:
                        row ^= 1 << target[cuts[:t - 1] + cuts[t:]]
            else:
                row = {}
                for t in range(1, n):
                    if min_end[ext[t - 1]] > ext[t + 1]:
                        col = target[cuts[:t - 1] + cuts[t:]]
                        row[col] = row.get(col, 0) + (1 if t % 2 else -1)
            rows.append(row)
        if field_char == 2:
            ranks[n] = gf2_rank(rows)
        else:
            ranks[n] = gfp_rank(rows, field_char)

    out = {}
    for n in range(1, min(n_len, max_i) + 1):
        dim = len(layers[n]) - ranks.get(n, 0) - ranks.get(n + 1, 0)
        assert dim >= 0
        if dim:
            out[n] = dim
    return out


def minimal_resolution(ideal, field_char=2, max_i=8, max_j=16, jobs=1,
                       progress=None):
    """Bigraded dimensions (i, j) -> dim for i <= max_i, j <= max_j.

    A word's splitting complex depends on the word only through its
    length and its least occurrence ends, so one complex is reduced per
    distinct (length, min_end) key and its homology is added once for
    every chain word with that key.  This is exact, not a heuristic:
    two words with the same key have the same complex, basis for basis
    and differential for differential.  With jobs > 1 the distinct keys
    are reduced in worker processes.  progress, if given, receives a
    line every 50 chain words and one at the end.
    """
    assert field_char >= 2, "field characteristic"
    words, truncated = chain_words(ideal, max_j)
    entries = {(0, 0): 1, (1, 1): len(ideal.presentation.generator_names)}

    keys = [(len(w), tuple(_min_occurrence_end(ideal, w))) for w in words]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        distinct = list(dict.fromkeys(keys))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            homology = dict(zip(distinct, pool.map(
                _splitting_homology,
                [n_len for n_len, _ in distinct],
                [min_end for _, min_end in distinct],
                [max_i] * len(distinct), [field_char] * len(distinct),
                chunksize=8)))
    else:
        homology = {}
        for k, key in enumerate(keys):
            if key not in homology:
                homology[key] = _splitting_homology(*key, max_i, field_char)
            if progress and (k + 1) % 50 == 0:
                progress(f"{k + 1}/{len(keys)} words resolved")
    for n_len, min_end in keys:
        for n, dim in homology[n_len, min_end].items():
            entries[n, n_len] = entries.get((n, n_len), 0) + dim
    if progress:
        progress(f"{len(keys)} words resolved")
    return BettiTable(entries, max_i, max_j, field_char, truncated)


def cross_validate(g, table):
    """Compare anchored walk counts against a Betti table.

    Walks of cohomological degree i <= max_i and internal degree
    j <= max_j must match the table exactly; walks outside the window
    are excluded rather than reported.  The counts come from
    poincare_table, which counts walks without building them, so no
    window trips the walk cap.  Returns mismatch records.
    """
    counts = {k: d for k, d in poincare_table(g, table.max_i).entries.items()
              if k[1] <= table.max_j}
    keys = set(counts) | {k for k in table.entries
                          if k[0] <= table.max_i and k[1] <= table.max_j}
    mismatches = []
    for key in sorted(keys):
        walks = counts.get(key, 0)
        betti = table.entries.get(key, 0)
        if walks != betti:
            mismatches.append({"i": key[0], "j": key[1],
                               "walk_count": walks, "betti": betti})
    return mismatches
