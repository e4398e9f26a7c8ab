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
ends, min_end, and `minimal_resolution` resolves one complex per
distinct (length, min_end) key, not one per chain word.

A key's complex splits at its forced cuts: the internal positions v
that no normal part straddles.  The shortest part straddling v is
[v - 1, v + 1), and min_end never decreases, so v is forced exactly
when min_end[v - 1] <= v + 1, that is when a relation of degree 1 or 2
lies inside [v - 1, v + 1).  Every splitting cuts at every forced cut,
and no face deletes one, since the part it merges would straddle the
cut.  So the complex is the tensor product of the complexes of the
factors between forced cuts: a splitting is one splitting of each
factor, and the parts add up.  If x has p parts, the t-th cut of y is
cut p + t of x (x) y, and its sign (-1)^(p + t + 1) is the Koszul sign
of d(x (x) y) = dx (x) y + (-1)^p x (x) dy.  Over a field the Kunneth
formula then gives H_n(x (x) y) as the sum over p + q = n of
H_p(x) H_q(y), so one complex is reduced per distinct factor.

Each factor's complex is shrunk before any rank is taken, from its
incidences alone.  If a cell a is the only face of a cell c, then
d c = +-a and d a = +-d d c = 0, so a and c span an acyclic subcomplex;
the incidence +-1 is a unit in every field.  The quotient by it has the
same homology, and its differential is the old one with a and c struck
out, so nothing fills in.  Only splittings of at most max_i + 1 parts
are listed.  They form a subcomplex whose homology is the true one in
degrees <= max_i: its top layer is only a source of boundaries, and
cancelling inside it keeps that.  Every factor's complex sits in
degrees >= 1, so in a total degree n <= max_i each factor's degree is
at most n, where its homology is exact; the convolution keeps degrees
<= max_i only.
"""

from .ext import poincare_table
from .linalg import gf2_rank, gfp_rank
from .presentation import Record

__all__ = [
    "BettiTable",
    "chain_words",
    "minimal_resolution",
    "cross_validate",
]


class BettiTable(Record):
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


def chain_words(ideal, max_len):
    """Words coverable by an overlapping chain of relation occurrences.

    Starting from each relation, extend by any relation that starts
    inside the word, matches the overlap, and runs past the end.  Words
    not coverable this way have contractible complexes: any uncrossed
    internal position splits them.  Returns (words, truncated), the
    words in the order they are found.
    """
    relations = ideal.relations
    rests = {}    # proper prefix p of a relation p + q -> the rests q
    for r in relations:
        for k in range(1, len(r)):
            rests.setdefault(r[:k], []).append(r[k:])
    stack = [r for r in relations if len(r) <= max_len]
    truncated = len(stack) < len(relations)
    words = {}    # an ordered set, so the order never depends on hashing
    while stack:
        w = stack.pop()
        if w in words:
            continue
        words[w] = None
        for k in range(1, len(w)):
            for rest in rests.get(w[-k:], ()):
                new = w + rest
                if len(new) > max_len:
                    truncated = True
                elif new not in words:
                    stack.append(new)
    return list(words), truncated


def _min_occurrence_ends(ideal, words):
    """For each word, m[a] = least end of a relation occurrence starting
    at or past a."""
    relations = set(ideal.relations)
    lengths = sorted({len(r) for r in relations})
    out = []
    for word in words:
        m = [len(word) + 1] * (len(word) + 1)
        for a in range(len(word) - 1, -1, -1):
            m[a] = m[a + 1]
            for k in lengths:
                if a + k < m[a] and word[a:a + k] in relations:
                    m[a] = a + k
                    break
        out.append(m)
    return out


def _factor_keys(n_len, min_end):
    """The (length, min_end) keys of the factors between forced cuts.

    v is a forced cut when min_end[v - 1] <= v + 1; a factor [s, e)
    keeps min_end[s:e + 1], shifted by s and capped at e + 1.
    """
    cuts = [v for v in range(1, n_len) if min_end[v - 1] <= v + 1]
    out = []
    for s, e in zip([0] + cuts, cuts + [n_len]):
        out.append((e - s, tuple([min(m, e + 1) - s
                                  for m in min_end[s:e + 1]])))
    return out


def _splitting_homology(n_len, min_end, max_i, field_char):
    """Homology of the splitting complex of a word of length n_len.

    The word enters only through min_end, its least occurrence ends: a
    part [a, b) lies in the ideal exactly when min_end[a] <= b.
    """
    if n_len == 0:
        return {0: 1}
    max_parts = min(n_len, max_i + 1)
    # need[a]: fewest normal parts covering [a, n_len), above n_len if
    # none do.  Greedy is exact: any piece of a normal part is normal.
    need = [0] * (n_len + 1)
    for a in range(n_len - 1, -1, -1):
        reach = min(min_end[a] - 1, n_len)
        need[a] = need[reach] + 1 if reach > a else n_len + 1
    layers = [[] for _ in range(max_parts + 1)]
    stack = [(0, (0,), 0)]    # (end, (0, cuts...), bitmask of the cuts)
    while stack:
        a, ext, mask = stack.pop()
        if n_len < min_end[a]:
            layers[len(ext)].append((ext + (n_len,), mask))
        for b in range(min(min_end[a], n_len) - 1, a, -1):
            if len(ext) + need[b] <= max_parts:
                stack.append((b, ext + (b,), mask | 1 << b))

    cells = [cell for layer in layers for cell in layer]
    ids = {mask: c for c, (_, mask) in enumerate(cells)}
    faces = [{} for _ in cells]       # cell -> {face: sign}
    cofaces = [[] for _ in cells]
    for c, (ext, mask) in enumerate(cells):
        for t in range(1, len(ext) - 1):
            if min_end[ext[t - 1]] > ext[t + 1]:
                f = ids[mask ^ 1 << ext[t]]
                faces[c][f] = 1 if t % 2 else -1
                cofaces[f].append(c)
    alive = [True] * len(cells)
    queue = [c for c, fs in enumerate(faces) if len(fs) == 1]
    while queue:    # cancel (a, c) while a is the only face of c
        c = queue.pop()
        if alive[c] and len(faces[c]) == 1:
            (a,) = faces[c]
            alive[a] = alive[c] = False
            for dead in (a, c):
                for x in cofaces[dead]:
                    if faces[x].pop(dead, None) and len(faces[x]) == 1:
                        queue.append(x)
    left = [[] for _ in layers]
    for c, (ext, _) in enumerate(cells):
        if alive[c]:
            left[len(ext) - 1].append(c)
    # Cells are numbered in lexicographic order of their cuts.  Feeding
    # the rows last cell first, so that each pivot is a lex-least face,
    # keeps the fill-in of the elimination small.
    ranks = {}
    for n in range(2, max_parts + 1):
        rows = [faces[c] for c in reversed(left[n])]
        if field_char == 2:
            col = {f: 1 << k for k, f in enumerate(left[n - 1])}
            ranks[n] = gf2_rank([sum(col[f] for f in row) for row in rows])
        else:
            ranks[n] = gfp_rank(rows, field_char)
    out = {}
    for n in range(1, min(n_len, max_i) + 1):
        dim = len(left[n]) - ranks.get(n, 0) - ranks.get(n + 1, 0)
        assert dim >= 0
        if dim:
            out[n] = dim
    return out


def _factored_homology(n_len, min_end, max_i, field_char, memo):
    """_splitting_homology of a key, from its factors between forced cuts.

    Each factor's homology is reduced once and kept in memo; the key's
    is their Kunneth convolution, cut at degree max_i.
    """
    total = {0: 1}
    for factor in _factor_keys(n_len, min_end):
        h = memo.get(factor)
        if h is None:
            h = memo[factor] = _splitting_homology(*factor, max_i, field_char)
        product = {}
        for p, a in total.items():
            for q, b in h.items():
                if p + q <= max_i:
                    product[p + q] = product.get(p + q, 0) + a * b
        total = product
    return {n: total[n] for n in sorted(total)}


def minimal_resolution(ideal, field_char=2, max_i=8, max_j=16,
                       progress=None):
    """Bigraded dimensions (i, j) -> dim for i <= max_i, j <= max_j.

    A word's splitting complex depends on the word only through its
    length and its least occurrence ends, so one complex is resolved per
    distinct (length, min_end) key and its homology is added once for
    every chain word with that key.  This is exact, not a heuristic:
    two words with the same key have the same complex, basis for basis
    and differential for differential.

    A key's complex is the tensor product of its factors' complexes
    between forced cuts, the positions v with min_end[v - 1] <= v + 1
    that every splitting cuts and no face deletes.  Each distinct
    factor is reduced once per call, its unit-incidence pairs cancelled
    first, and a key's homology is the Kunneth convolution of its
    factors' homologies, cut at degree max_i.  Both steps are exact in
    every field (see the module docstring): each factor sits in degrees
    >= 1, so its homology is needed only in degrees <= max_i, where it
    is exact.  progress, if given, receives a line every 50 chain words
    and one at the end.
    """
    assert field_char >= 2, "field characteristic"
    words, truncated = chain_words(ideal, max_j)
    entries = {(0, 0): 1, (1, 1): len(ideal.presentation.generator_names)}

    keys = [(len(w), tuple(m))
            for w, m in zip(words, _min_occurrence_ends(ideal, words))]
    homology = {}
    factors = {}    # factor key -> its homology
    for k, key in enumerate(keys):
        if key not in homology:
            homology[key] = _factored_homology(*key, max_i, field_char,
                                               factors)
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
