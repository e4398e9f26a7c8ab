"""Reference routes of the resolution oracle, kept for the tests.

`minimal_resolution_dense` is a degree-by-degree computation of the
minimal resolution over GF(p), structurally different from the
splitting complexes of `yoneda_cps.oracle`.  It is exponential in
max_j, so the tests run it on small windows only.

`reference_splitting_homology` ranks a whole splitting complex, every
splitting listed by recursion, with no reduction and no cancellation:
the route that `oracle._splitting_homology` replaced, which lists only
the subcomplex that survives its first-letter reduction.

`word_homology` reduces one chain word's complex on its own, with no
memo by (length, min_end) key.

`minimal_resolution_by_words` is the per-chain-word route that
`oracle.minimal_resolution` replaced: it lists every chain word, keys
each by its length and least-end array, and convolves the homologies of
the key's factors between forced cuts (`factor_keys`,
`factored_homology`).

Both read their chain words and least-end arrays from the slicing
references of tests/propcore.py, not from the oracle's relation trie.
"""

from propcore import reference_min_occurrence_ends, reference_overlap_words
from yoneda_cps.linalg import gf2_rank, gfp_rank
from yoneda_cps.oracle import BettiTable, _splitting_homology


def word_homology(ideal, word, max_i, field_char):
    """Homology dimensions {n: dim} of one word's splitting complex."""
    min_end = reference_min_occurrence_ends(ideal, [word])[0]
    return _splitting_homology(len(word), min_end, max_i, field_char)


def factor_keys(n_len, min_end):
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


def factored_homology(n_len, min_end, max_i, field_char, memo):
    """_splitting_homology of a key, from its factors between forced cuts.

    Each factor's homology is reduced once and kept in memo; the key's
    is their Kunneth convolution, cut at degree max_i.
    """
    total = {0: 1}
    for factor in factor_keys(n_len, min_end):
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


def minimal_resolution_by_words(ideal, field_char=2, max_i=8, max_j=16):
    """The Betti table of `oracle.minimal_resolution`, one chain word at
    a time: every chain word of length <= max_j adds the homology of its
    (length, min_end) key, each key reduced once by its factors."""
    words, truncated = reference_overlap_words(ideal, max_j)
    entries = {(0, 0): 1}
    if max_i >= 1 and max_j >= 1:
        entries[1, 1] = len(ideal.presentation.generator_names)
    keys = [(len(w), tuple(m)) for w, m in
            zip(words, reference_min_occurrence_ends(ideal, words))]
    homology = {}
    factors = {}    # factor key -> its homology
    for key in keys:
        if key not in homology:
            homology[key] = factored_homology(*key, max_i, field_char,
                                              factors)
        for n, dim in homology[key].items():
            entries[n, key[0]] = entries.get((n, key[0]), 0) + dim
    return BettiTable(entries, max_i, max_j, field_char, truncated)


def reference_splitting_homology(n_len, min_end, max_i, field_char):
    """Homology of the splitting complex of a word of length n_len.

    The word enters only through min_end, its least occurrence ends: a
    part [a, b) lies in the ideal exactly when min_end[a] <= b.  Every
    splitting of at most max_i + 1 parts is listed and the whole complex
    is ranked, with no reduction to a subcomplex and no cancellation.
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


def gfp_rref(rows, ncols, p):
    """Dense reduced row echelon form; returns (rref rows, pivot cols)."""
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] % p), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = pow(mat[r][c], p - 2, p)
        mat[r] = [(x * inv) % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] % p:
                f = mat[i][c]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat[:r], pivots


def gfp_nullspace(rows, ncols, p):
    """Basis of the right null space of a dense matrix (rows x ncols)."""
    rref, pivots = gfp_rref(rows, ncols, p)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for r, c in enumerate(pivots):
            vec[c] = (-rref[r][free]) % p
        basis.append(vec)
    return basis


def minimal_resolution_dense(ideal, field_char, max_i, max_j):
    """Degree-by-degree syzygy route, structurally independent of the
    splitting complexes.  Exponential in max_j; use small windows.

    Modules are free with recorded generator degrees; kernels are found
    degree by degree, and new generators are kernel vectors independent
    of letter multiples of lower-degree kernel elements.  Minimality is
    asserted: no new generator may have a scalar component.
    """
    p = field_char
    names = ideal.presentation.generator_names
    basis = {0: [()]}
    for j in range(1, max_j + 1):
        basis[j] = [w + (x,) for w in basis[j - 1] for x in names
                    if not ideal.contains(w + (x,))]
    index = {j: {w: t for t, w in enumerate(ws)} for j, ws in basis.items()}

    entries = {(0, 0): 1}
    cur_gdegs = [0]
    cur_diff = None  # None marks the augmentation P_0 -> k

    def layer(gdegs, j):
        out = []
        for t, d in enumerate(gdegs):
            if 0 <= j - d:
                out.extend((t, w) for w in basis[j - d])
        return out

    for i in range(max_i):
        new_gdegs = []
        new_diff = []
        kernel_by_degree = {}
        for j in range(max_j + 1):
            dom = layer(cur_gdegs, j)
            if not dom:
                kernel_by_degree[j] = []
                continue
            if cur_diff is None:
                kernel = [] if j == 0 else [{bw: 1} for bw in dom]
            else:
                cod = layer(prev_gdegs, j)
                cod_index = {bw: k for k, bw in enumerate(cod)}
                images = []
                for (t, w) in dom:
                    img = {}
                    for (s, u), c in cur_diff[t].items():
                        prod = w + u
                        if ideal.contains(prod):
                            continue
                        k = cod_index[(s, prod)]
                        img[k] = (img.get(k, 0) + c) % p
                    images.append(img)
                # kernel of the map: null space of the cod x dom matrix
                mat = [[0] * len(dom) for _ in range(len(cod))]
                for d_idx, img in enumerate(images):
                    for k, c in img.items():
                        mat[k][d_idx] = c
                null = gfp_nullspace(mat, len(dom), p)
                kernel = [{dom[t]: v for t, v in enumerate(vec) if v}
                          for vec in null]
            kernel_by_degree[j] = kernel

            # span of letter multiples of the lower-degree kernel
            dom_index = {bw: k for k, bw in enumerate(dom)}
            span_rows = []
            for z in kernel_by_degree.get(j - 1, []):
                for x in names:
                    vec = [0] * len(dom)
                    ok = True
                    for (t, w), c in z.items():
                        prod = (x,) + w
                        if ideal.contains(prod):
                            continue
                        # left letter multiple shifts the word
                        key = (t, prod)
                        if key not in dom_index:
                            ok = False
                            break
                        vec[dom_index[key]] = (vec[dom_index[key]] + c) % p
                    if ok and any(vec):
                        span_rows.append(vec)
            # eliminate, then pick kernel vectors outside the span
            pivots = {}

            def reduce_vec(vec):
                vec = vec[:]
                for col in range(len(vec)):
                    if vec[col] % p and col in pivots:
                        f = vec[col]
                        vec = [(a - f * b) % p for a, b in zip(vec, pivots[col])]
                return vec

            def insert(vec):
                vec = reduce_vec(vec)
                lead = next((c for c in range(len(vec)) if vec[c] % p), None)
                if lead is None:
                    return False
                inv = pow(vec[lead], p - 2, p)
                pivots[lead] = [(a * inv) % p for a in vec]
                return True

            for row in span_rows:
                insert(row)
            for z in kernel:
                vec = [0] * len(dom)
                for bw, c in z.items():
                    vec[dom_index[bw]] = c
                if insert(vec):
                    # a genuinely new generator in degree j
                    for (t, w), c in z.items():
                        assert len(w) > 0 or c % p == 0, \
                            "minimality: no scalar components in new generators"
                    entries[(i + 1, j)] = entries.get((i + 1, j), 0) + 1
                    new_gdegs.append(j)
                    new_diff.append(dict(z))
        prev_gdegs = cur_gdegs
        cur_gdegs = new_gdegs
        cur_diff = new_diff
        if not cur_gdegs:
            break
    return BettiTable(entries, max_i, max_j, p,
                      truncation_reached=True)
