"""Ideal-theoretic primitives for monomial ideals.

One Aho-Corasick automaton over the reversed relations, built with the
ideal, answers every question about it.  A word is read from its last
letter to its first: a relation r is a factor of w exactly when rev(r)
is a factor of rev(w).  So `contains` stops at the first state where a
relation ends, and `occurrences` turns each end position e in rev(w)
into the start len(w) - e in w.  `normal_count` counts the words on
which the automaton completes no relation; reversal is a bijection on
the words of each length, so these are the ideal's normal counts.  The
annihilator sets that become graph edges come from one scan of the
vertex, `end_state`: the failure chain of its final state lists the
relations that end in a prefix of it, and scanning on into each left
part tests minimality, both in `state_annihilators`, which reads the
final state alone.  The walk layer reads the graph alone.
"""

from .presentation import Presentation, format_word

__all__ = ["MonomialIdeal", "PreconditionError", "annihilator_generators",
           "end_state", "state_annihilators"]


class PreconditionError(ValueError):
    """An operation precondition failed; `clause` names which one."""

    def __init__(self, clause, message):
        super().__init__(message)
        self.clause = clause


class _ReversedAutomaton:
    """Aho-Corasick automaton over the reversed relations (Aho &
    Corasick, "Efficient string matching", CACM 18(6), 1975).

    States are integers, state 0 the root; state s stands for a prefix
    of some reversed relations.  `goto[s]` holds the trie moves of s and
    nothing else, so the tables hold one entry per state but the root.
    A letter with no move from s is read from `fail[s]`, the state of
    the longest proper suffix of s's word that is a state, down to the
    root.  For each state s:
    - `depth[s]` is the length of its word;
    - `hits[s]` lists (length, index) of each relation whose reversed
      word ends at s, merged along the failure links, longest first;
    - `through[s]` lists the relations whose reversed word passes
      through s, `sum(map(len, relations))` entries in all.
    """

    def __init__(self, relations):
        goto, depth, hits, through = [{}], [0], [()], [[]]
        for i, r in enumerate(relations):
            s = 0
            for ch in reversed(r):
                if ch not in goto[s]:
                    goto[s][ch] = len(goto)
                    goto.append({})
                    depth.append(depth[s] + 1)
                    hits.append(())
                    through.append([])
                s = goto[s][ch]
                through[s].append(r)
            hits[s] += ((len(r), i),)

        # BFS: a state's failure target is shallower, so its hits are
        # complete when they are appended; they are shorter, so the
        # merged list stays longest first.
        fail = [0] * len(goto)
        queue = list(goto[0].values())
        for s in queue:
            for ch, t in goto[s].items():
                f = fail[s]
                while f and ch not in goto[f]:
                    f = fail[f]
                fail[t] = f = goto[f].get(ch, 0)
                hits[t] += hits[f]
                queue.append(t)
        self.goto, self.fail, self.depth = goto, fail, depth
        self.hits, self.through = hits, through

    def states(self, word, s=0):
        """Yield the state after each letter of word, read from its last
        letter to its first, starting from state s."""
        goto, fail = self.goto, self.fail
        for ch in reversed(word):
            while s and ch not in goto[s]:
                s = fail[s]
            s = goto[s].get(ch, 0)
            yield s


class MonomialIdeal:
    """The two-sided ideal generated by a presentation's relations.

    Immutable after construction.  `factor_index`, the automaton over
    the reversed relations, is built here and is the one index every
    query reads; all queries are read-only and take any sequence of
    generator names as it is.
    """

    def __init__(self, presentation):
        if not isinstance(presentation, Presentation):
            raise TypeError("MonomialIdeal expects a Presentation")
        self.presentation = presentation
        self.relations = presentation.relations
        self._gen_index = {c: i for i, c in enumerate(presentation.generator_names)}
        self.factor_index = _ReversedAutomaton(self.relations)

    def contains(self, word):
        """Whether some relation is a factor of word.

        Reads word from its last letter to its first and stops at the
        first state where a relation ends: O(len(word)) steps.
        """
        index = self.factor_index
        return any(map(index.hits.__getitem__, index.states(tuple(word))))

    def occurrences(self, word):
        """All relation occurrences in word as (start, rel_index), sorted."""
        word, hits = tuple(word), self.factor_index.hits
        return sorted((len(word) - end, ri) for end, s in
                      enumerate(self.factor_index.states(word), 1)
                      for _, ri in hits[s])

    def sort_key(self, word):
        """Deterministic word order: (degree, generator index sequence)."""
        return (len(word), tuple(map(self._gen_index.__getitem__, word)))

    def normal_count(self, degree):
        """dim of the degree-j component: number of words avoiding all relations.

        DP over automaton states, never stepping into a state that
        completes a relation.
        """
        index = self.factor_index
        counts = {0: 1}
        for _ in range(degree):
            nxt = {}
            for state, c in counts.items():
                for ch in self.presentation.generator_names:
                    t = next(index.states((ch,), state))
                    if not index.hits[t]:
                        nxt[t] = nxt.get(t, 0) + c
            counts = nxt
        return sum(counts.values())


def end_state(ideal, m):
    """The state of the ideal's automaton after reading m from its last
    letter to its first.  A relation ending during the scan is the
    failure of the precondition that m be normal."""
    index = ideal.factor_index
    goto, fail, hits = index.goto, index.fail, index.hits
    s = 0
    for ch in reversed(m):
        while s and ch not in goto[s]:
            s = fail[s]
        s = goto[s].get(ch, 0)
        if hits[s]:
            raise PreconditionError("m_in_ideal", f"m = {format_word(m)} lies in the ideal")
    return s


def state_annihilators(ideal, end):
    """The minimal left annihilators of every normal word whose scan
    ends at state `end`, as a dict u -> whether u is a left part
    r[:len(r) - depth[end]] of a relation r through `end` itself.

    `annihilator_generators` shows that the candidates, and the scans
    that test their minimality, are read off `end` alone.  When
    depth[end] = len(m), `end` stands for rev(m) itself and the
    relations through it are those that end in m, so u tensor m is a
    relation exactly when the flag of u is set; otherwise no relation
    ends in m and no edge out of m is admissible.
    """
    index = ideal.factor_index
    goto, fail, hits, depth, through = (index.goto, index.fail, index.hits,
                                        index.depth, index.through)
    k = depth[end]
    candidates = {r[:len(r) - k]: True for r in through[end]}
    s = fail[end]
    while s:
        k = depth[s]
        for r in through[s]:
            candidates.setdefault(r[:len(r) - k], False)
        s = fail[s]
    minimal = {}
    for u, own in candidates.items():
        # read u[j] for j = len(u) - 1, ..., 1: then t = len(u) - j letters
        s, j = end, len(u)
        while j > 1:
            j -= 1
            ch = u[j]
            while s and ch not in goto[s]:
                s = fail[s]
            s = goto[s].get(ch, 0)
            if hits[s] and hits[s][0][0] > len(u) - j:
                break
        else:
            minimal[u] = own
    return minimal


def annihilator_generators(ideal, m):
    """The set of minimal left annihilators of m, as a frozenset: the
    keys of `state_annihilators` at `end_state(ideal, m)`.

    The candidates C are the left parts u of the relation splits
    r = u tensor v with v a nonempty prefix of m and a proper suffix of
    r.  Each u in C annihilates m, since u tensor m begins with r, and u
    is normal: it is a proper prefix of r, and a relation inside it
    would be a proper factor of r, which `make_presentation`, the one
    constructor of a Presentation, prunes.  Let s be normal with
    s tensor m in the ideal.  m is normal too, so the relation
    occurrence straddles the s/m boundary, and its left part is a
    nonempty suffix of s lying in C.  So a normal word annihilates m
    exactly when it has a suffix in C, and u in C is minimal exactly
    when no proper suffix of u is in C.

    Both sets are read off one scan of m, last letter first, by the
    ideal's automaton over the reversed relations; a relation ending
    during that scan is the precondition's failure.  A state of depth k
    on the failure chain of the final state is a word rev(m[:k]) that
    begins rev(r) for each relation r through it, so m[:k] ends r and
    u = r[:len(r) - k] is in C; k < len(r), or r would have ended in
    the scan.  For the minimality of u the scan goes on from m's final
    state over u[-1], ..., u[1].  After t of those letters it has read
    rev(u[j:] tensor m), j = len(u) - t, and the relations ending there
    are the occurrences in u[j:] tensor m that start at its first
    letter.  One longer than t reaches into m, which is exactly
    u[j:] in C.  One of length at most t lies inside u and says nothing
    of m: a pruned presentation has none, but a Presentation built
    directly can, so only the relations longer than t count.

    Past the precondition, all of this reads the final state alone: its
    failure chain, and the automaton's moves on from it.  So two
    vertices whose scans end at one state have the same minimal
    annihilators, which lets the graph build work once per state.
    """
    return frozenset(state_annihilators(ideal, end_state(ideal, m)))
