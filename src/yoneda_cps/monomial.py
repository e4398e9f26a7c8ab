"""Ideal-theoretic primitives for monomial ideals.

A word lies in the ideal exactly when some relation occurs in it as a
contiguous factor.  `contains` answers that by looking up the word's
factors of each relation length in the set of relations, the test
`make_presentation` prunes with.  The Aho-Corasick automaton over the
relations, its failure links folded into the transition tables, lists
every occurrence and counts normal words; it is built only when
`occurrences` or `normal_count` first asks, and no verb does.  The
annihilator sets that become graph edges are read from an index of
relation suffixes: a vertex's minimal annihilators are the candidate
left parts with no candidate as a proper suffix, so the graph build
scans only the vertex itself.  The walk layer reads the graph alone.
"""

from functools import cached_property

from .presentation import Presentation, format_word

__all__ = [
    "MonomialIdeal",
    "PreconditionError",
    "annihilator_generators",
]


class PreconditionError(ValueError):
    """An operation precondition failed; `clause` names which one."""

    def __init__(self, clause, message):
        super().__init__(message)
        self.clause = clause


class _Automaton:
    """Aho-Corasick matcher over the relation words, as a DFA, for the
    readers that want every occurrence or a walk over the states.

    States are integers; state 0 is the root.  From state s, letter ch
    leads to `goto[s].get(ch) or goto[0].get(ch, 0)`: `goto[s]` holds
    each move of s to a state two or more letters deep, and every other
    move is the root's, so a scan never follows a failure link.  Leaving
    the root's moves out keeps the tables from growing as states times
    letters.  `hits[s]` lists (length, index) of the relations ending at
    state s (following suffix links), so scanning a text yields every
    occurrence endpoint in one pass.
    """

    def __init__(self, patterns):
        self.goto = [{}]
        self.hits = [()]
        for pat_index, pat in enumerate(patterns):
            s = 0
            for ch in pat:
                if ch not in self.goto[s]:
                    self.goto.append({})
                    self.hits.append(())
                    self.goto[s][ch] = len(self.goto) - 1
                s = self.goto[s][ch]
            self.hits[s] = self.hits[s] + ((len(pat), pat_index),)

        # BFS: set each trie child's suffix link, merge hit sets down
        # suffix chains, and give each state the moves of its suffix
        # link's state, which is shallower and so already complete; the
        # root's moves are not copied.
        root = self.goto[0]
        fail = [0] * len(self.goto)
        queue = list(root.values())
        for s in queue:
            goto_s, goto_f = self.goto[s], self.goto[fail[s]]
            for ch, t in goto_s.items():
                fail[t] = goto_f.get(ch) or root.get(ch, 0)
                self.hits[t] = self.hits[t] + self.hits[fail[t]]
                queue.append(t)
            if fail[s]:
                for ch, t in goto_f.items():
                    goto_s.setdefault(ch, t)

    def scan(self, text):
        """Yield (end_position, pattern_length, pattern_index) for every occurrence."""
        goto, root, hits = self.goto, self.goto[0], self.hits
        s = 0
        for pos, ch in enumerate(text):
            s = goto[s].get(ch) or root.get(ch, 0)
            for length, pat_index in hits[s]:
                yield pos + 1, length, pat_index


class MonomialIdeal:
    """The two-sided ideal generated by a presentation's relations.

    Immutable after construction, but for the automaton that
    `factor_index` builds on first use; all queries are read-only and
    take any sequence of generator names as it is.
    """

    def __init__(self, presentation):
        if not isinstance(presentation, Presentation):
            raise TypeError("MonomialIdeal expects a Presentation")
        self.presentation = presentation
        self.relations = presentation.relations
        self._relation_set = frozenset(self.relations)
        self._lengths = sorted({len(r) for r in self.relations})
        self._alphabet = presentation.generator_names
        self._gen_index = {name: i for i, name in enumerate(self._alphabet)}
        # each proper suffix v of a relation u (x) v -> the left parts u
        self._left_parts = {}
        for r in self.relations:
            for k in range(1, len(r)):
                self._left_parts.setdefault(r[k:], []).append(r[:k])

    @cached_property
    def factor_index(self):
        """The `_Automaton` over the relations, built the first time
        `occurrences` or `normal_count` asks for it.  Membership does
        not read it."""
        return _Automaton(self.relations)

    def contains(self, word):
        """Whether some relation is a factor of word.

        Looks up each factor whose length is a relation length in the
        set of relations: O(len(word) * l) slices, l the number of
        distinct relation lengths, against the automaton's O(len(word))
        steps, but with nothing to build.
        """
        word = tuple(word)
        rels, n = self._relation_set, len(word)
        for k in self._lengths:
            if k > n:
                break
            for a in range(n - k + 1):
                if word[a:a + k] in rels:
                    return True
        return False

    def occurrences(self, word):
        """All relation occurrences in word as (start, rel_index), sorted."""
        occ = [(end - length, ri) for end, length, ri in self.factor_index.scan(word)]
        occ.sort()
        return occ

    def sort_key(self, word):
        """Deterministic word order: (degree, generator index sequence)."""
        return (len(word), tuple(self._gen_index[c] for c in word))

    def normal_count(self, degree):
        """dim of the degree-j component: number of words avoiding all relations.

        DP over automaton states, never stepping into a state that
        completes a relation.
        """
        goto, hits = self.factor_index.goto, self.factor_index.hits
        root = goto[0]
        counts = {0: 1}
        for _ in range(degree):
            nxt = {}
            for state, c in counts.items():
                for ch in self._alphabet:
                    t = goto[state].get(ch) or root.get(ch, 0)
                    if not hits[t]:
                        nxt[t] = nxt.get(t, 0) + c
            counts = nxt
        return sum(counts.values())


def annihilator_generators(ideal, m):
    """The set of minimal left annihilators of m, as a frozenset; the
    graph build puts it in the vertex order.

    The candidates C are the left parts u of the relation splits
    r = u tensor v with v a nonempty prefix of m and a proper suffix of
    r, read from the ideal's index of relation suffixes.  Each u in C
    annihilates m, since u tensor m begins with r, and u is normal: it
    is a proper prefix of r, and a relation inside it would be a proper
    factor of r, which `make_presentation`, the one constructor of a
    Presentation, prunes.  Let s be normal with s tensor m in the ideal.
    m is normal too, so the relation occurrence straddles the s/m
    boundary, and its left part is a nonempty suffix of s lying in C.
    So a normal word annihilates m exactly when it has a suffix in C,
    and u in C is minimal exactly when no proper suffix of u is in C:
    the minimal annihilators are the suffix-free part of C, and no word
    past m's own check is scanned.
    """
    m = tuple(m)
    if ideal.contains(m):
        raise PreconditionError("m_in_ideal", f"m = {format_word(m)} lies in the ideal")
    candidates = set()
    for split in range(1, len(m) + 1):
        candidates.update(ideal._left_parts.get(m[:split], ()))
    return frozenset(u for u in candidates
                     if not any(u[k:] in candidates for k in range(1, len(u))))
