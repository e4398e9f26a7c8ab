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
of a word is therefore fixed by its key: its length and that array of
least ends, min_end.  Two words with the same key have the same
complex, basis for basis and differential for differential, so one
complex is reduced per distinct key.

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

Chain words are not listed; they are counted by their factors.
Relations are minimal, none a factor of another, and have degree >= 2,
so the forced cuts of a chain word w are the v with w[v - 1:v + 1] a
relation.  An occurrence straddling a forced cut v contains
w[v - 1:v + 1], so it is that occurrence.  Hence an occurrence
straddling a position between consecutive forced cuts v < v' starts at
or past v and ends by v': otherwise it would straddle v or v', and the
degree-2 occurrence there straddles nothing between them.  So if w has
the forced cuts v_1 < ... < v_m, and v_0 = 0, each
u_k = w[v_(k-1):v_k + 1] is a chain word whose only degree-2
occurrence is its last two letters, a middle word, and w[v_m:] is a
chain word with no degree-2 occurrence, a last word, or the lone letter
w[-1].  Conversely, middle words, each starting with the last letter of
the one before, then a last word or the lone letter starting with the
last shared letter, glue into a chain word whose forced cuts are the
glue points: any two adjacent letters lie in one factor, so the
degree-2 occurrences are the middle words' last two letters.  The chain
words of length n are thus the factor sequences whose lengths sum to
n, each shared letter counted once.

Each factor's key is read from its factor word alone, since an
occurrence of w that starts at or past v_(k-1) and ends by v_k + 1 lies
in u_k.  The factor between v_(k-1) and v_k has the key
(len(u_k) - 1, min_end of u_k, cut to len(u_k) entries and capped at
len(u_k)); the last factor has the last word's own key, and the lone
letter's complex is one cell in degree 1.  So a Betti number in
(i, n) is the sum, over the factor sequences of total length n, of the
degree-i coefficients of the Kunneth products of their factors'
homologies.  `minimal_resolution` sums it by a transfer matrix
(Stanley, EC1 4.7) over the states (L, c): L letters placed before
the shared letter c.  The factor words are listed by the
overlap-extension step of `chain_words` without extending a middle
word.  Every factor word is still reached: the prefixes along the
chain of occurrences covering it have no degree-2 occurrence, so they
are last words, and extending a last word by a relation of degree >= 3
adds no degree-2 occurrence, which would lie inside that relation.

Both the listing and the keys read one forward Aho-Corasick automaton
over the relations, `_RelationTrie`, which the oracle builds for itself
and shares no code with the ideal's index over the reversed relations.
Its size is the relations' total length.  The suffixes of a word that
are relation prefixes, which the extension step needs, are the failure
chain of the state the word reaches; the relation occurrences ending
after e letters of a word, which min_end needs, end the state reached
there, and only the shortest, whose start is latest, counts.

The truncation flag says whether some chain word is longer than max_j.
`chain_words` flags when a relation or an extension runs past max_j,
and that is the same: a chain word is reached through the prefixes
along the chain of occurrences covering it, and its longest such
prefix within max_j, or its first relation, runs past max_j at the
next step.  `minimal_resolution` flags when its listing runs past
max_j, or a step out of a reachable state does: a middle word after
which even the lone letter would pass max_j, or a last word that
passes it.  Each names a chain word longer than max_j, since factor
words are chain words.  Conversely, if a chain word is longer than
max_j, either one of its factors is, and the listing runs past max_j on
the way to it, or its factor sequence takes a step out of the last
state it reaches within max_j that runs past max_j.  A state counts as
reached whether or not its polynomial vanishes below max_i.

Each factor's complex C is first cut down to a subcomplex K with the
same homology, listed on its own: the splittings that cut at 1 and
whose second part [1, s2) ends at s2 >= min_end[0], with s2 = n if
there is no second cut, so that [0, s2) lies in the ideal.  Let Y be
the splittings with no cut at 1.  Y is a subcomplex, since a face only
removes a cut.  So is K: removing the cut at 1 from a cell of K merges
[0, s2), which is not normal, so it is no face, and removing a later
cut only moves s2 to the right.  Adding the cut at 1 is a bijection h
from Y onto the cells that cut at 1 and lie outside K: any piece of a
normal part is normal, so [0, 1) and [1, s) are normal when [0, s) is,
and removing the cut at 1 from a cell outside K leaves the normal part
[0, s2).  In d h(y) the cut at 1 is the first, so y comes with
incidence +1.  Every other cut of h(y) is cut t + 1 if it is cut t of
y, so its sign flips, and its face is h of y's face or lies in K.
Only the cut at s2 merges a part that differs, [1, s3) in h(y) against
[0, s3) in y; min_end[0] <= min_end[1], so if [0, s3) is normal so is
[1, s3), and if only [1, s3) is, that face ends its second part at
s3 >= min_end[0] and lies in K.  So in C / K, d h(y) = y - h(d y):
C / K is the cone of the identity of Y, which is acyclic, and the long
exact sequence of 0 -> K -> C -> C / K -> 0 gives H(K) = H(C) in every
degree.  The cut at 1 needs n >= 2 and [0, 1) normal: if min_end[0] is
1 there is no cell at all, and a lone normal letter is one cell in
degree 1.  Repeating the step on later letters would give the
Jollenbeck-Welker (Anick) matching, which the oracle leaves out, so as
to stay apart from the chain calculus it checks.

The cells of K are listed as bitmasks of their cuts alone, by a search
that chooses the cuts left to right.  Removing the t-th cut a of a
cell merges [prev, next), so it gives a face, with incidence
(-1)^(t + 1), exactly when min_end[prev] > next: the search knows it
once it has chosen the cut after a, and carries a second bitmask of the
cuts so far known to be removable.  A face is then looked up by its
cut mask, and t - 1 is the number of cuts below a.  The cut at 1 is
never removable in K, since [0, s2) lies in the ideal, and is never
tested.

Each factor's complex is shrunk before any rank is taken, from its
incidences alone.  If a cell a is the only face of a cell c, then
d c = +-a and d a = +-d d c = 0, so a and c span an acyclic subcomplex;
the incidence +-1 is a unit in every field.  The quotient by it has the
same homology, and its differential is the old one with a and c struck
out, so nothing fills in.  Only the cells of K with at most max_i + 1
parts are listed.  They form a subcomplex of K whose homology is K's,
and so C's, in degrees <= max_i: its top layer is only a source of
boundaries, and cancelling inside it keeps that.  Every factor's
complex sits in degrees >= 1, so in a total degree n <= max_i each
factor's degree is at most n, where its homology is exact; the
convolution keeps degrees <= max_i only.
"""

from .ext import poincare_table
from .linalg import gf2_rank, gfp_rank, is_small_prime
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


class _RelationTrie:
    """Aho-Corasick automaton over the relations, read forwards (Aho &
    Corasick, "Efficient string matching", CACM 18(6), 1975).

    States are integers, state 0 the root; state s stands for a prefix
    of some relations, of length `depth[s]`.  `goto[s]` holds the trie
    moves of s and nothing else; a letter with no move from s is read
    from `fail[s]`, the state of the longest proper suffix of s's word
    that is a state.  So after a word is read, the failure chain of the
    state reached lists every suffix of the word that is a relation
    prefix, longest first.  For each state s:
    - `through[s]` lists, in relation order, the relations of which s's
      word is a proper prefix, `sum(map(len, relations))` entries in
      all;
    - `shortest[s]` is the length of the shortest relation that is a
      suffix of s's word, 0 if there is none.
    """

    def __init__(self, relations):
        goto, depth, through, shortest = [{}], [0], [[]], [0]
        for i, r in enumerate(relations):
            s = 0
            for ch in r:
                through[s].append(i)
                t = goto[s].get(ch)
                if t is None:
                    t = goto[s][ch] = len(goto)
                    goto.append({})
                    depth.append(depth[s] + 1)
                    through.append([])
                    shortest.append(0)
                s = t
            shortest[s] = len(r)
        # BFS: a state's failure target is shallower, so its shortest
        # relation suffix is known when the state's is merged with it.
        fail = [0] * len(goto)
        queue = list(goto[0].values())
        for s in queue:
            for ch, t in goto[s].items():
                f = fail[s]
                while f and ch not in goto[f]:
                    f = fail[f]
                fail[t] = f = goto[f].get(ch, 0)
                shortest[t] = shortest[f] or shortest[t]
                queue.append(t)
        self.relations = relations
        self.goto, self.fail, self.depth = goto, fail, depth
        self.through, self.shortest = through, shortest


def chain_words(ideal, max_len):
    """Words coverable by an overlapping chain of relation occurrences.

    Words not coverable this way have contractible complexes: any
    uncrossed internal position splits them.  Returns (words,
    truncated), the words in the order they are found; truncated says
    whether some chain word is longer than max_len.  Only the benchmark
    and the tests read it: `minimal_resolution` lists factor words.
    """
    return _overlap_words(_RelationTrie(ideal.relations), max_len, ())


def _overlap_words(trie, max_len, final):
    """The words reached from the relations by the overlap-extension
    step, never extending a word whose last two letters are in final.

    Starting from each relation, extend by any relation that starts
    inside the word, matches the overlap, and runs past the end: for
    each suffix of w of length k < len(w) that is a relation prefix,
    shortest first, each relation r through it, in relation order,
    gives w + r[k:].  The suffixes are the failure chain of the state
    that the trie reaches on w.  A word on the stack carries the state
    of the word it extends, so only the new letters are read.  Returns
    (words, truncated): the words of length <= max_len in the order
    they are found, and whether a relation or an extension ran past
    max_len.
    """
    relations = trie.relations
    goto, fail, depth, through = trie.goto, trie.fail, trie.depth, trie.through
    # (word, state after its first `read` letters, read)
    stack = [(r, 0, 0) for r in relations if len(r) <= max_len]
    truncated = len(stack) < len(relations)
    words = {}    # an ordered set, so the order never depends on hashing
    while stack:
        w, s, read = stack.pop()
        if w in words:
            continue
        words[w] = None
        if w[-2:] in final:
            continue
        for ch in w[read:]:
            while s and ch not in goto[s]:
                s = fail[s]
            s = goto[s].get(ch, 0)
        end, suffixes = s, []
        while s:
            suffixes.append(s)
            s = fail[s]
        n = len(w)
        for s in reversed(suffixes):
            k = depth[s]
            if k < n:
                for i in through[s]:
                    new = w + relations[i][k:]
                    if len(new) > max_len:
                        truncated = True
                    elif new not in words:
                        stack.append((new, end, n))
    return list(words), truncated


def _min_occurrence_ends(trie, words):
    """For each word, m[a] = least end of a relation occurrence starting
    at or past a, len(word) + 1 if none does.

    Reading the word through the trie, the latest start of an
    occurrence ending at e is e - shortest[s], s the state after e
    letters; m[a] is the first e whose latest start is a or past it.
    """
    goto, fail, shortest = trie.goto, trie.fail, trie.shortest
    out = []
    for word in words:
        m = [len(word) + 1] * (len(word) + 1)
        s = a = 0
        for e, ch in enumerate(word, 1):
            while s and ch not in goto[s]:
                s = fail[s]
            s = goto[s].get(ch, 0)
            if shortest[s]:
                start = e - shortest[s]
                while a <= start:
                    m[a] = e
                    a += 1
        out.append(m)
    return out


def _first_letter_cells(n_len, min_end, max_parts):
    """The cells of K with at most max_parts parts, and their faces.

    K is the subcomplex of the splittings that cut at 1 and whose second
    part [1, s2) ends at s2 >= min_end[0], s2 = n_len if there is no
    second cut (module docstring); it needs 2 <= n_len and [0, 1)
    normal, min_end[0] > 1.  A part [a, b) is normal exactly when
    min_end[a] > b.  Returns (layers, faces, cofaces): layers[n] lists
    the cells of n parts in lexicographic order of their cuts, each as
    (cuts, removable), the bitmasks of its cuts and of the cuts whose
    removal gives a face.  The cells are numbered through the layers in
    turn; faces[c] maps each face of cell c to its incidence, and
    cofaces[c] lists the cells that have c as a face.  The search, which
    never starts a part that cannot be completed within max_parts, and
    the rule for faces are in the module docstring.
    """
    # need[a]: fewest normal parts covering [a, n_len), above n_len if
    # none do.  Greedy is exact: any piece of a normal part is normal.
    need = [0] * (n_len + 1)
    for a in range(n_len - 1, -1, -1):
        reach = min(min_end[a] - 1, n_len)
        need[a] = need[reach] + 1 if reach > a else n_len + 1
    layers = [[] for _ in range(max_parts + 1)]
    if min_end[0] <= n_len < min_end[1] and max_parts >= 2:
        layers[2].append((2, 0))
    # (last cut a, min_end of the cut before it, parts before a, cuts,
    # removable cuts before a), seeded with [0, 1)[1, s2)
    stack = [(b, min_end[1], 2, 2 | 1 << b, 0)
             for b in range(min(min_end[1], n_len) - 1, min_end[0] - 1, -1)
             if 2 + need[b] <= max_parts]
    while stack:
        a, prev_end, parts, cuts, removable = stack.pop()
        end = min_end[a]
        with_a = removable | 1 << a
        if n_len < end:
            layers[parts + 1].append(
                (cuts, with_a if prev_end > n_len else removable))
        for b in range(min(end, n_len) - 1, a, -1):
            if parts + 1 + need[b] <= max_parts:
                stack.append((b, end, parts + 1, cuts | 1 << b,
                              with_a if prev_end > b else removable))

    listed = [cell for layer in layers for cell in layer]
    ids = {cuts: c for c, (cuts, _) in enumerate(listed)}
    faces = [{} for _ in listed]
    cofaces = [[] for _ in listed]
    for c, (cuts, removable) in enumerate(listed):
        face = faces[c]
        while removable:
            bit = removable & -removable
            removable ^= bit
            f = ids[cuts ^ bit]
            face[f] = -1 if (cuts & (bit - 1)).bit_count() & 1 else 1
            cofaces[f].append(c)
    return layers, faces, cofaces


def _splitting_homology(n_len, min_end, max_i, field_char):
    """Homology of the splitting complex of a word of length n_len.

    The word enters only through min_end, its least occurrence ends: a
    part [a, b) lies in the ideal exactly when min_end[a] <= b.

    Only the subcomplex K is listed, by `_first_letter_cells`, each cell
    as the bitmask of its cuts and each face as that mask with one
    removable cut cleared: the splittings that cut at 1 and whose
    second part [1, s2) ends at s2 >= min_end[0], so that [0, s2) lies
    in the ideal (s2 = n_len if there is no second cut).  Its homology
    is the whole complex's; the proof is in the module docstring.  Cutting at 1 needs n_len >= 2
    and [0, 1) normal, so a first letter in the ideal leaves no cell,
    and a lone normal letter is one cell in degree 1.
    """
    if n_len == 0:
        return {0: 1}
    if min_end[0] == 1:
        return {}
    if n_len == 1:
        return {1: 1} if max_i >= 1 else {}
    max_parts = min(n_len, max_i + 1)
    layers, faces, cofaces = _first_letter_cells(n_len, min_end, max_parts)
    alive = [True] * len(faces)
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
    left, first = [], 0
    for layer in layers:
        left.append([c for c in range(first, first + len(layer)) if alive[c]])
        first += len(layer)
    # Cells are numbered in lexicographic order of their cuts.  Feeding
    # the rows last cell first, so that each pivot is a lex-least face,
    # keeps the fill-in of the elimination small.
    ranks = {}
    for n in range(2, max_parts + 1):
        rows = [faces[c] for c in reversed(left[n])]
        if field_char == 2:
            col = {f: 1 << k for k, f in enumerate(left[n - 1])}
            ranks[n] = gf2_rank([sum(map(col.__getitem__, row))
                                 for row in rows])
        else:
            ranks[n] = gfp_rank(rows, field_char)
    out = {}
    for n in range(1, min(n_len, max_i) + 1):
        dim = len(left[n]) - ranks.get(n, 0) - ranks.get(n + 1, 0)
        assert dim >= 0
        if dim:
            out[n] = dim
    return out


def _kunneth(a, b, max_i):
    """The product of two homology polynomials {degree: dim}, cut at
    degree max_i."""
    out = {}
    for p, x in a.items():
        for q, y in b.items():
            if p + q <= max_i:
                out[p + q] = out.get(p + q, 0) + x * y
    return out


def _add_into(total, poly):
    for n, dim in poly.items():
        total[n] = total.get(n, 0) + dim


def minimal_resolution(ideal, field_char=2, max_i=8, max_j=16,
                       progress=None):
    """Bigraded dimensions (i, j) -> dim for i <= max_i, j <= max_j.

    A chain word is a sequence of factor words glued on one shared
    letter: middle words, each ending in its only degree-2 relation,
    then a last word, with no degree-2 relation, or the lone shared
    letter.  Its splitting complex is the tensor product of its
    factors' complexes, so its homology is the Kunneth product of
    theirs, and each Betti number is a sum over factor sequences (see
    the module docstring for both proofs).  No chain word is listed.
    The factor words are listed by the overlap-extension step of
    `chain_words`, which stops at each middle word.  Each factor word
    gives one (length, min_end) key read from that word alone; each
    distinct key is reduced once, its unit-incidence pairs cancelled
    first, with its homology needed only in degrees <= max_i, where it
    is exact, since every factor sits in degrees >= 1.

    The sum runs as a transfer matrix over states (L, c): L letters
    placed before the shared letter c.  A state holds the summed
    Kunneth products of the middle-word sequences that reach it, cut at
    max_i; it steps by a middle word starting with c, or ends the word
    with a last word starting with c or with the lone letter, whose
    homology is {1: 1}.  truncation_reached is set when the listing or
    a step out of a reachable state passes max_j, which happens exactly
    when some chain word is longer than max_j.  progress, if given,
    receives a line every 50 factor words and one at the end.  A
    field_char that is not a prime below 2^31, or a negative max_i or
    max_j, raises ValueError.
    """
    if not is_small_prime(field_char):
        raise ValueError(
            f"field_char must be a prime below 2^31, got {field_char}")
    if max_i < 0 or max_j < 0:
        raise ValueError(f"max_i and max_j must be non-negative, "
                         f"got {max_i} and {max_j}")
    quadratic = {r for r in ideal.relations if len(r) == 2}
    trie = _RelationTrie(ideal.relations)
    words, truncated = _overlap_words(trie, max_j, quadratic)
    entries = {(0, 0): 1}
    if max_i >= 1 and max_j >= 1:
        entries[1, 1] = len(ideal.presentation.generator_names)

    homology = {}   # factor key -> its homology
    # the summed homologies of the factor words starting with c:
    steps = {}      # c -> {(letters placed, last letter): middle words}
    endings = {}    # c -> {length: last words}
    for k, (w, min_end) in enumerate(
            zip(words, _min_occurrence_ends(trie, words))):
        if w[-2:] in quadratic:   # its factor ends before the last letter
            key = (len(w) - 1,
                   tuple([min(m, len(w)) for m in min_end[:len(w)]]))
            into = steps.setdefault(w[0], {}).setdefault(
                (len(w) - 1, w[-1]), {})
        else:
            key = (len(w), tuple(min_end))
            into = endings.setdefault(w[0], {}).setdefault(len(w), {})
        if key not in homology:
            homology[key] = _splitting_homology(*key, max_i, field_char)
        _add_into(into, homology[key])
        if progress and (k + 1) % 50 == 0:
            progress(f"{k + 1}/{len(words)} words resolved")

    # layers[L]: shared letter -> polynomial; nothing is placed at L = 0
    layers = [{} for _ in range(max_j + 1)]
    layers[0] = {w[0]: {0: 1} for w in words}
    betti = [{} for _ in range(max_j + 1)]    # j -> polynomial
    for placed in range(max_j):
        for c, poly in layers[placed].items():
            if placed:    # the lone letter ends the word
                _add_into(betti[placed + 1], _kunneth(poly, {1: 1}, max_i))
            for n_len, h in endings.get(c, {}).items():
                if placed + n_len > max_j:
                    truncated = True
                else:
                    _add_into(betti[placed + n_len], _kunneth(poly, h, max_i))
            for (n_len, last), h in steps.get(c, {}).items():
                if placed + n_len >= max_j:   # even the lone letter passes
                    truncated = True
                else:
                    _add_into(layers[placed + n_len].setdefault(last, {}),
                              _kunneth(poly, h, max_i))
    for j, poly in enumerate(betti):
        for n, dim in poly.items():
            entries[n, j] = entries.get((n, j), 0) + dim
    if progress:
        progress(f"{len(words)} words resolved")
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
