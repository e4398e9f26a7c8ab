"""Regenerate perfbench/pool.json, the presentation pool of decide-corpus.

Usage: python3 perfbench/make_pool.py [--check]

Draws random monomial presentations in three size tiers from a fixed
pool seed.  A draw is left out when the anchored simple-path search
that `graph_params` runs to find L would visit more than NODE_BUDGET
paths: that search has no bound, and on such draws `analyze` runs for
seconds to minutes, so the time a run takes would hang on which draws
the seed picked.  The left-out draws are counted in the file.

`--check` regenerates the pool in memory and exits 1 if pool.json
differs from it.  Otherwise the script writes pool.json and prints, per
tier, the draws kept and left out and the census of the finite
generation verdict methods that `analyze` gives on the kept ones.
"""

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from yoneda_cps.decide import analyze  # noqa: E402
from yoneda_cps.graph import build_marked_graph  # noqa: E402
from yoneda_cps.monomial import MonomialIdeal  # noqa: E402
from yoneda_cps.presentation import parse_presentation  # noqa: E402

POOL_SEED = 20261017
NODE_BUDGET = 200_000
LETTERS = "abcdefgh"
# name, generators, relations drawn, max relation degree, presentations kept
TIERS = (("small", 3, 4, 4, 90),
         ("medium", 6, 16, 6, 80),
         ("large", 8, 30, 8, 40))


def l_search_nodes(g, budget):
    """Paths the L search of graph_params visits, stopping past budget.

    Mirrors graph_params.extend: a path grows along unvisited vertices
    and dies once an admissible edge would become interior.
    """
    nodes = 0
    stack = [(s, frozenset((s,)), None, 0) for s in g.g0]
    while stack:
        v, visited, last_admissible, k = stack.pop()
        nodes += 1
        if nodes > budget:
            return nodes
        if last_admissible is not None and last_admissible >= 1:
            continue
        for t in g.out[v]:
            if t not in visited:
                stack.append((t, visited | {t},
                              k if g.admissible[(v, t)] else None, k + 1))
    return nodes


def draw(rng, n_gens, n_rels, max_degree):
    names = list(LETTERS[:n_gens])
    rels = [[rng.choice(names) for _ in range(rng.randint(2, max_degree))]
            for _ in range(n_rels)]
    return {"generators": names, "relations": rels}


def make_pool():
    rng = random.Random(POOL_SEED)
    presentations = []
    excluded = {}
    for name, n_gens, n_rels, max_degree, keep in TIERS:
        kept = 0
        excluded[name] = 0
        while kept < keep:
            data = draw(rng, n_gens, n_rels, max_degree)
            g = build_marked_graph(MonomialIdeal(parse_presentation(data)))
            if l_search_nodes(g, NODE_BUDGET) > NODE_BUDGET:
                excluded[name] += 1
                continue
            presentations.append({"tier": name, **data})
            kept += 1
    return {
        "pool_seed": POOL_SEED,
        "node_budget": NODE_BUDGET,
        "tiers": [{"name": n, "generators": g, "relations": r,
                   "max_degree": d, "kept": k, "excluded": excluded[n]}
                  for n, g, r, d, k in TIERS],
        "presentations": presentations,
    }


def main(argv):
    pool = make_pool()
    text = json.dumps(pool, separators=(",", ":")) + "\n"
    path = HERE / "pool.json"
    if "--check" in argv:
        same = path.exists() and path.read_text() == text
        print("pool.json is current" if same else "pool.json differs")
        return 0 if same else 1
    path.write_text(text)
    census = {}
    for entry in pool["presentations"]:
        method = analyze(parse_presentation(
            {k: entry[k] for k in ("generators", "relations")})).fg.method
        tier = census.setdefault(entry["tier"], {})
        tier[method] = tier.get(method, 0) + 1
    for tier in pool["tiers"]:
        print(f"{tier['name']}: kept {tier['kept']}, "
              f"excluded {tier['excluded']}, fg methods "
              f"{dict(sorted(census[tier['name']].items()))}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
