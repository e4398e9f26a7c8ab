"""The walk calculus on the annihilator graph.

A walk of length n is a vertex sequence p_0 .. p_n along edges.  Its
word is the reversed concatenation p_n (x) ... (x) p_0; two walks are
equivalent when they share both length and word.  Anchored walks start
at a degree-1 vertex and index a cohomology basis: length n walks sit
in cohomological degree n+1.

A walk is admissible when an equivalent anchored walk exists.  That
partner is unique and is found by a greedy right-to-left parse of the
word along the graph: each step takes the out-neighbour of the previous
vertex that ends the unconsumed part of the word.  The partner chains
take the same step, so the layer reads the graph and never the ideal.

An anchored walk is decomposable when its class is a product of lower
ones.  The indecomposable walks of positive length, which with the
generators generate the algebra, are the accepted paths of one finite
automaton, `WalkAutomaton`: `ext-basis` lists them and the finite
generation verdict asks whether they are finitely many.
"""

from .presentation import Record, WalkCapExceeded, format_word, walk_cap

__all__ = [
    "AnchoredWalk",
    "EventuallyPeriodicWalk",
    "WalkAutomaton",
    "WalkCapExceeded",
    "vertices_of",
    "word_of",
    "greedy_parse",
    "canonical_anchored",
    "is_decomposable",
    "enumerate_anchored",
    "is_dense",
    "partner_step",
    "display_walk",
    "parse_display_walk",
    "validate_walk",
]


class AnchoredWalk(Record):
    vertices: tuple  # letter tuples, the first one a generator

    @property
    def length(self):
        return len(self.vertices) - 1

    @property
    def internal_degree(self):
        return sum(len(v) for v in self.vertices)

    @property
    def cohomological_degree(self):
        return self.length + 1


def vertices_of(w):
    if isinstance(w, AnchoredWalk):
        return w.vertices
    return tuple(tuple(v) for v in w)


def word_of(w):
    vs = vertices_of(w)
    out = ()
    for v in reversed(vs):
        out += v
    return out


def display_walk(w):
    return [format_word(v) for v in vertices_of(w)]


def parse_display_walk(g, items):
    lookup = {format_word(v): v for v in g.vertices}
    out = []
    for item in items:
        if item not in lookup:
            raise ValueError(f"unknown vertex {item!r}; graph vertices are "
                             + ", ".join(sorted(lookup)))
        out.append(lookup[item])
    return tuple(out)


def validate_walk(g, w):
    vs = vertices_of(w)
    if not vs:
        raise ValueError("a walk needs at least one vertex")
    for v in vs:
        if v not in g.out:
            raise ValueError(f"{format_word(v)} is not a vertex of the graph")
    for a, b in zip(vs, vs[1:]):
        if (a, b) not in g.admissible:
            raise ValueError(f"{format_word(a)} -> {format_word(b)} is not an edge")
    return vs


def _step(g, prev, word, rest):
    """The out-neighbour of `prev` in `g` that ends word[:rest], or None.
    `g.out` lists targets by degree, so the scan stops at the first one
    longer than word[:rest]."""
    for s in g.out.get(prev, ()):
        if len(s) > rest:
            return None
        if word[rest - len(s):rest] == s:
            return s
    return None


def greedy_parse(g, word, length, after=None):
    """Right-to-left parse of `word` into a walk of `g` of the given length.

    Returns the vertex sequence in walk order (first vertex consumes the
    right end of the word) or None.  The first vertex is the last
    letter, so a successful parse is anchored; with `after`, a vertex of
    `g`, the parse continues from that vertex, which consumes no letters,
    and returns the length + 1 vertices that follow it.  Each later
    vertex is the shortest normal suffix s of the unread part with
    s prev in the ideal, which is the one out-neighbour of prev that
    ends the unread part:
    - no proper suffix of s annihilates prev, so s is a minimal
      annihilator of prev, an out-neighbour;
    - every out-neighbour ending the unread part is normal and
      annihilates prev, and none is a proper suffix of another;
    - once a suffix lies in the ideal no longer one is normal, so
      neither a scan of the suffixes nor the lookup goes past it.
    """
    word = tuple(word)
    rest = len(word)
    if after is None:    # an empty word leaves rest at -1: no parse
        q = [word[-1:]]
        rest -= 1
    else:
        q = [tuple(after)]
        length += 1
    for _ in range(length):
        s = _step(g, q[-1], word, rest)
        if s is None:
            return None
        q.append(s)
        rest -= len(s)
    if rest != 0:
        return None
    return tuple(q) if after is None else tuple(q[1:])


def canonical_anchored(g, w):
    """The unique anchored walk equivalent to `w`, or None; a walk of
    `g` by construction, since the parse steps along `g.out`."""
    vs = vertices_of(w)
    return greedy_parse(g, word_of(vs), len(vs) - 1)


def is_decomposable(g, w):
    """Whether the class of an anchored walk is a product of lower ones.

    True exactly when some proper suffix walk is admissible, the
    length-0 suffix counting when the last vertex is a generator.  A
    suffix whose first edge is not admissible never parses, but an
    admissible first edge is not enough when relation degrees mix:
    an annihilator two steps up can concatenate into the ideal and
    kill the parse, so every candidate suffix is parsed outright,
    shortest first.
    """
    vs = validate_walk(g, w)
    n = len(vs) - 1
    if n < 1:
        raise ValueError("decomposability needs length at least 1")
    if len(vs[0]) != 1:
        raise ValueError("walk is not anchored")
    for j in range(1, n + 1):
        if len(vs[j]) == 1:
            return True
    for j in range(n - 1, 0, -1):
        if not g.admissible[(vs[j], vs[j + 1])]:
            continue
        if greedy_parse(g, word_of(vs[j:]), n - j) is not None:
            return True
    return False


def enumerate_anchored(g, max_length, cap=None):
    """Yield all anchored walks of length 0..max_length, shortest first.

    Deterministic: generators in alphabet order, successors in sorted
    order.  Counts every constructed walk against the cap.
    """
    if cap is None:
        cap = walk_cap()
    count = 0
    layer = [(v,) for v in g.g0]
    for n in range(max_length + 1):
        count += len(layer)
        if count > cap:
            raise WalkCapExceeded(cap)
        for vs in layer:
            yield AnchoredWalk(vs)
        if n == max_length:
            break
        layer = [vs + (t,) for vs in layer for t in g.out[vs[-1]]]


class EventuallyPeriodicWalk(Record):
    """An infinite walk given as a finite prefix plus a repeating cycle.

    The prefix runs p_0 .. p_a; the cycle c_0 .. c_L is closed and
    spliced at c_0 == c_L == p_a, so vertex a+k is c_(k mod L).
    """
    prefix: tuple
    cycle: tuple

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(tuple(v) for v in self.prefix))
        object.__setattr__(self, "cycle", tuple(tuple(v) for v in self.cycle))
        if not self.prefix:
            raise ValueError("prefix must contain at least the splice vertex")
        if len(self.cycle) < 2:
            raise ValueError("cycle must contain at least one edge")
        if self.cycle[0] != self.cycle[-1]:
            raise ValueError("cycle must be closed")
        if self.prefix[-1] != self.cycle[0]:
            raise ValueError("last prefix vertex must equal the cycle start")

    @property
    def cycle_length(self):
        return len(self.cycle) - 1

    def vertex(self, i):
        if i < 0:
            raise ValueError(f"vertex index {i} is negative")
        a = len(self.prefix) - 1
        if i <= a:
            return self.prefix[i]
        k = (i - a - 1) % self.cycle_length
        return self.cycle[k + 1]

    def to_json(self):
        return {
            "prefix": [format_word(v) for v in self.prefix],
            "cycle": [format_word(v) for v in self.cycle],
        }


def partner_step(g, r, nxt, after):
    """Advance a partner chain, top vertex `r`, past the walk's next two
    vertices `nxt` and `after`.  Returns `(True, r)` on an even-offset
    rejoin, `(False, None)` when the chain dies, else `(False, r')` with
    the partner's new top vertex.

    r is a vertex starting with the walk vertex before nxt, so nxt r
    lies in the ideal.  The parse's step s, the shortest suffix of nxt
    annihilating r, is a minimal annihilator of r, so an out-neighbour,
    and the only one ending nxt: no minimal annihilator is a proper
    suffix of another.  The chain rejoins when s is nxt.  Else, with
    nxt = u s, r' = after u has r' s = after nxt in the ideal, and no
    proper suffix of r' annihilates s: it would be a proper suffix of
    after followed by u, against the minimality of after over nxt, or a
    suffix of u, whose product with s is a factor of the normal word
    nxt.  So r' is normal, and the chain lives, exactly when r' is an
    out-neighbour of s, again a vertex.
    """
    s = _step(g, r, nxt, len(nxt))
    if s is None:
        raise AssertionError(f"no out-neighbour of {format_word(r)} "
                             f"ends {format_word(nxt)}")
    if s == nxt:
        return True, r
    r = after + nxt[:len(nxt) - len(s)]
    return False, (r if r in g.out[s] else None)


def is_dense(g, w, edge_index):
    """Whether the admissible edge at edge_index >= 0 of the walk w has
    admissible even-length extensions along w arbitrarily far.

    Tracks the anchored partner of the growing extension: the partner of
    the edge alone, then two more vertices per `partner_step`.  The
    extension is admissible exactly when the partner rejoins the walk at
    an even offset.  If the chain dies, no longer extension of either
    parity parses (it would have the failed one as an odd prefix); if
    the partner state repeats at the same point of the cycle without
    rejoining, it never will.  The edge u -> v alone has partner
    u[-1:] -> v u[:-1] (`_chain_step` proves it).  Raises ValueError on
    a negative edge_index, a w that is no walk of g or an inadmissible
    edge.
    """
    validate_walk(g, w.prefix + w.cycle[1:])
    u, v = w.vertex(edge_index), w.vertex(edge_index + 1)
    if not g.admissible[(u, v)]:
        raise ValueError(
            f"edge {format_word(u)} -> {format_word(v)} is not admissible")
    if len(u) == 1:
        return True
    r = v + u[:-1]
    a = len(w.prefix) - 1
    cyc = w.cycle_length
    ell = 1
    seen = set()
    while True:
        pos = edge_index + ell
        if pos >= a:
            state = (r, (pos - a) % cyc)
            if state in seen:
                return False
            seen.add(state)
        x = w.vertex(pos)
        # partner vertices at odd offsets extend the walk's on the right
        assert len(r) >= len(x) and r[:len(x)] == x, "partner lost the walk"
        rejoined, r = partner_step(g, r, w.vertex(pos + 1), w.vertex(pos + 2))
        if rejoined:
            return True
        if r is None:
            return False
        ell += 2


def _chain_step(g, v, chains, t):
    """The partner chains after the edge v -> t, or None when one
    rejoins at an even offset.

    Each admissible tail edge carries a chain (steps, r): r is the top
    vertex of the anchored partner of the edge's odd-length extension,
    and `steps` says whether the chain advances, by `partner_step`, at
    this edge; a chain alternates, advancing at every second edge.  A
    tail edge is one that does not leave the walk's first vertex, which
    is its only degree-1 vertex since the automaton cuts at every later
    one.  A chain that dies is dropped: its carried word lies in the
    ideal, so no suffix from its edge parses again.  This is the
    automaton's one step function.

    A chain's top vertex is always a vertex.  The chain of an admissible
    edge v -> t starts at r = t v[:-1], the closed form of the greedy
    parse of its word t v, an out-neighbour of v[-1:]: t v is a relation,
    and relations are minimal, so no proper factor of t v lies in the
    ideal, and no proper suffix of t v[:-1] annihilates v[-1:].  Then
    `partner_step` keeps r a vertex.
    """
    advanced = []
    for steps, r in chains:
        if not steps:
            advanced.append((True, r))
            continue
        rejoined, r = partner_step(g, r, v, t)
        if rejoined:
            return None
        if r is not None:
            advanced.append((False, r))
    if len(v) > 1 and g.admissible[(v, t)]:
        advanced.append((False, t + v[:-1]))
    return frozenset(advanced)


_NO_CHAINS = frozenset()


class WalkAutomaton:
    """The indecomposable anchored walks as the accepted paths of a
    finite deterministic automaton.

    Grown vertex by vertex from a generator, a walk is cut once every
    completion is decomposable: at a degree-1 vertex, which starts an
    anchored suffix, or where a partner chain rejoins at an even offset
    and so grafts onto any continuation (`_chain_step`).  A walk that is
    kept is summed up by its state: its last vertex and the frozenset of
    its live partner chains.  The last vertex also says whether the walk
    has an edge yet, since only the first vertex has degree 1.  The next
    state is a function of the state and the next vertex, `_chain_step`,
    so the kept walks are exactly the paths from the start states, one
    per generator.  The automaton is built breadth first from the
    generators in order, and a state accepts by the closed condition
    proved below.  Then the indecomposable walks are the accepted
    paths, a regular language: `accepted` lists them for
    `ext.generators_up_to`, and Ext is finitely generated exactly when
    the language is finite (Bar-Hillel, Perles and Shamir).

    Acceptance depends only on the state.  Take a kept walk v_0 .. v_n
    and a tail edge v_j -> v_(j+1), j >= 1.  If the edge is not
    admissible, no suffix walk from it parses.  If it is, its chain
    follows the greedy parse of the suffix walks from it: at an odd
    offset the partner vertex r is the parse's step over v_(k+1) from
    the previous partner vertex, with the rest of v_(k+1) carried along,
    and `partner_step` proves it is the whole word the parse has left
    there.  Hence, with v = v_n:
    - a dropped chain: its word r lies in the ideal, so no suffix from
      its edge that reaches v_(k+1) parses;
    - a live chain that started or stepped at the last edge (steps
      False): the suffix ending at v parses, with last partner vertex r;
    - a live chain that did not (steps True): r starts with v_(n-1), so
      v r lies in the ideal, and the suffix ending at v parses exactly
      when the parse's step from r over v is v itself, that is when v
      is an out-neighbour of r: the rejoin that `partner_step` reports
      at the next edge.
    So the walk is indecomposable exactly when it has an edge and every
    live chain has steps True and v not in g.out[r]: a condition on v
    and the live chains alone, which the automaton reads off each
    state.  The suite checks it too: acceptance agrees with
    `is_decomposable` on each state's first walk, and accepted paths
    and indecomposable walks have equal counts at each length on the
    fixtures and random draws.

    The states count against the walk cap, and so do the steps of
    `accepted`.
    """

    def __init__(self, g, cap=None):
        self.cap = walk_cap() if cap is None else cap
        self.states = [(v, _NO_CHAINS) for v in g.g0]
        self.succ = []  # per state: the next states, in g.out order
        index = {state: i for i, state in enumerate(self.states)}
        for v, chains in self.states:  # grows
            row = []
            for t in g.out[v]:
                if len(t) == 1:
                    continue  # anchored suffix in every completion
                after = _chain_step(g, v, chains, t)
                if after is None:
                    continue
                state = (t, after)
                i = index.get(state)
                if i is None:
                    i = index[state] = len(self.states)
                    if i >= self.cap:
                        raise WalkCapExceeded(self.cap, "the walk automaton's "
                                              "state count")
                    self.states.append(state)
                row.append(i)
            self.succ.append(tuple(row))
        self.accepting = [
            len(v) > 1 and all(steps and v not in g.out[r]
                               for steps, r in chains)
            for v, chains in self.states]
        self.starts = range(len(g.g0))
        self.pred = [[] for _ in self.states]  # per state: its sources
        for s, row in enumerate(self.succ):
            for c in row:
                self.pred[c].append(s)

    def accepted(self, lengths):
        """Yield the accepted walks whose length is in `lengths`, depth
        first in `g.out` order, so walks of one length come in
        `enumerate_anchored`'s order; nothing when `lengths` is empty.

        The search enters at depth d only the states allowed[d] with an
        accepted path of n - d more edges for a listed n >= d, so it never
        backs out of a dead branch.  allowed[d] is the sources in `pred`
        of allowed[d + 1], plus the accepting states when d is listed.
        """
        lengths = {n for n in lengths if n >= 0}
        top = max(lengths, default=-1)
        accepting = {s for s, yes in enumerate(self.accepting) if yes}
        allowed = {top + 1: set()}   # depth -> the states entered there
        for d in range(top, -1, -1):
            allowed[d] = {s for c in allowed[d + 1] for s in self.pred[c]}
            if d in lengths:
                allowed[d] |= accepting
        steps = 0
        path = []   # the states of the walk so far
        stack = [iter(self.starts)]
        while stack:
            s = next(stack[-1], None)
            if s is None:
                stack.pop()
                if path:
                    path.pop()
                continue
            depth = len(path)
            if s not in allowed[depth]:
                continue
            steps += 1
            if steps > self.cap:
                raise WalkCapExceeded(self.cap, "the walk automaton's search")
            path.append(s)
            if depth in lengths and self.accepting[s]:
                yield tuple(self.states[i][0] for i in path)
            stack.append(iter(self.succ[s]))

    def longest_or_lasso(self):
        """The length of the longest accepted walk, 0 when there is none,
        or, when they have no bound, a lasso of vertex tuples (P, C, S):
        C is closed, P ends and S starts where it does, and P . C^k . S
        is accepted for every k >= 0.

        The live states, those with an accepted path, grow backwards from
        the accepting ones along `pred`, and `toward[s]` is the successor
        s was first reached through, so following it is a shortest path
        to acceptance.  One depth-first pass from the starts, in `succ`
        order inside the live states, either meets an edge into a state
        c on its stack, which closes the lasso: P is the stack up to c, C
        the stack from c back to c, S follows `toward` from c; or it
        meets none, and then it finishes each state after its
        successors, so their longest accepted paths are known.
        """
        toward = {s: None for s, yes in enumerate(self.accepting) if yes}
        live = list(toward)
        for c in live:   # grows: every state with an accepted path
            for s in self.pred[c]:
                if s not in toward:
                    toward[s] = c
                    live.append(s)
        depth = {}   # finished live state -> its longest accepted path
        path, at = [], {}   # the stack, and the place of each state on it
        rows = [iter(self.starts)]
        while rows:
            c = next(rows[-1], None)
            if c is None:
                rows.pop()
                if path:
                    s = path.pop()
                    del at[s]
                    # a live state without live successors accepts
                    depth[s] = max((depth[t] + 1 for t in self.succ[s]
                                    if t in toward), default=0)
            elif c in at:
                suffix = [c]
                while toward[suffix[-1]] is not None:
                    suffix.append(toward[suffix[-1]])
                return tuple(tuple(self.states[i][0] for i in states)
                             for states in (path[:at[c] + 1],
                                            path[at[c]:] + [c], suffix))
            elif c in toward and c not in depth:
                at[c] = len(path)
                path.append(c)
                rows.append(iter(self.succ[c]))
        return max((depth[s] for s in self.starts if s in toward), default=0)
