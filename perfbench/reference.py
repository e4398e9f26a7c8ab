"""Reference routines the benchmark checks the program against.

None of these calls into the program's walk enumerator, automaton or
oracle.  They read only the finished graph (its `out` adjacency and
generator vertices) and the relation words, and count by the simplest
method that is obviously correct:

- anchored walks by dynamic programming over (vertex, internal degree),
  the transfer-matrix method (Stanley, Enumerative Combinatorics I,
  section 4.7);
- normal words by extending normal words one letter at a time and
  searching the new word's suffixes for a relation by plain slicing;
- the Euler identity H_A(t) * sum (-1)^i dim Ext^{i,j} t^j = 1
  (Anick, Trans. AMS 296, 1986) on those two counts.
"""


def walk_table(out, starts, max_i, max_j=None):
    """{(i, j): count} of anchored walks, plus (0, 0): 1.

    A walk of length n starting at a vertex of `starts` sits in
    cohomological degree i = n + 1 and internal degree j = the total
    letter count of its vertices.  Counts stop at i <= max_i and, when
    given, j <= max_j.
    """
    table = {(0, 0): 1}
    layer = {}
    for v in starts:
        if max_j is None or len(v) <= max_j:
            layer[(v, len(v))] = layer.get((v, len(v)), 0) + 1
    i = 1
    while layer and i <= max_i:
        for (_, j), c in layer.items():
            table[(i, j)] = table.get((i, j), 0) + c
        if i == max_i:
            break
        nxt = {}
        for (v, j), c in layer.items():
            for t in out[v]:
                jt = j + len(t)
                if max_j is None or jt <= max_j:
                    nxt[(t, jt)] = nxt.get((t, jt), 0) + c
        layer = nxt
        i += 1
    return table


def counts_by_degree(table, max_i):
    """[dim Ext^0, ..., dim Ext^max_i] summed over internal degree."""
    out = [0] * (max_i + 1)
    for (i, _), c in table.items():
        if i <= max_i:
            out[i] += c
    return out


def normal_counts(generators, relations, max_degree):
    """[number of normal words of degree d for d = 0..max_degree].

    A word extends a normal word by one letter, so it is normal exactly
    when no relation is a suffix of it.
    """
    rels = [tuple(r) for r in relations]
    words = [()]
    counts = [1]
    for _ in range(max_degree):
        nxt = []
        for w in words:
            for x in generators:
                u = w + (x,)
                if not any(len(r) <= len(u) and u[len(u) - len(r):] == r
                           for r in rels):
                    nxt.append(u)
        words = nxt
        counts.append(len(words))
    return counts


def euler_defect(hilbert, table, degree):
    """Coefficients of H_A(t) * P(-1, t) - 1 through t^degree.

    `hilbert` lists normal word counts from degree 0; `table` maps
    (i, j) to dim Ext^{i,j} and must hold every i for each j <= degree.
    All zero means the identity holds through that degree.
    """
    euler = [0] * (degree + 1)
    for (i, j), d in table.items():
        if j <= degree:
            euler[j] += -d if i % 2 else d
    conv = [sum(hilbert[k] * euler[d - k] for k in range(d + 1))
            for d in range(degree + 1)]
    conv[0] -= 1
    return conv


def euler_degree(n_generators, budget=30000, cap=10):
    """Largest degree <= cap whose brute-force word count stays in budget."""
    d = 1
    while d < cap and n_generators ** (d + 1) <= budget:
        d += 1
    return d


def walk_of_edges(out, vertices):
    """True when consecutive vertices are joined by graph edges."""
    return all(b in out[a] for a, b in zip(vertices, vertices[1:]))


def self_check(graph_of):
    """Check the routines on answers known by hand.

    `graph_of(name)` returns the program's graph of a fixture.  x_square
    (x^2 = 0) has dim Ext^i = 1 for every i and Hilbert series 1 + t;
    abc_cdab has dim Ext^i = 2 for 2 <= i <= 12; xy_single (xy = 0) has
    d + 1 normal words in degree d.  Returns a list of failures.
    """
    failures = []
    g = graph_of("x_square")
    if counts_by_degree(walk_table(g.out, g.g0, 20), 20) != [1] * 21:
        failures.append("walk_table: x_square dim Ext^i != 1")
    if normal_counts(["x"], [("x", "x")], 6) != [1, 1, 0, 0, 0, 0, 0]:
        failures.append("normal_counts: x_square")
    if any(euler_defect([1, 1] + [0] * 11, walk_table(g.out, g.g0, 12, 12), 12)):
        failures.append("euler_defect: x_square")
    g = graph_of("abc_cdab")
    dims = counts_by_degree(walk_table(g.out, g.g0, 12), 12)
    if dims[2:] != [2] * 11:
        failures.append(f"walk_table: abc_cdab dims {dims}")
    if normal_counts(["x", "y"], [("x", "y")], 6) != [1, 2, 3, 4, 5, 6, 7]:
        failures.append("normal_counts: xy_single")
    return failures
