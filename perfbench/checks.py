"""Output checks on one report.json, independent of the program's code.

The candidate named "exact" is a byte copy of the ground truth, so its
scores are known without running anything.
"""

from __future__ import annotations

import json

KEMENY_EXACT_LIMIT = 10
TOPOLOGY_GROUPS = ("basic", "microscopic", "mesoscopic")
ALL_GROUPS = TOPOLOGY_GROUPS + ("quality", "clustering")


def expected_tables(groups: list[str]) -> set[str]:
    tables = set(groups)
    if all(g in groups for g in TOPOLOGY_GROUPS):
        tables.add("all_topological")
    if set(groups) == set(ALL_GROUPS):
        tables.add("all_properties")
    return tables


def kemeny_score(order: list[str], ranks: dict[str, list[int]]) -> int:
    """Pairs (a before b in `order`) times the criteria ranking a strictly
    better than b."""
    return sum(sum(ra < rb for ra, rb in zip(ranks[a], ranks[b]))
               for i, a in enumerate(order) for b in order[i + 1:])


def kemeny_optimum(names: list[str], ranks: dict[str, list[int]]) -> tuple[int, list[str]]:
    """The highest Kemeny score and the lexicographically smallest order that
    reaches it, by dynamic programming over subsets: best[S] is the highest
    score of an order of the candidates in bit set S among themselves."""
    names = sorted(names)
    m = len(names)
    pref = [[sum(ra < rb for ra, rb in zip(ranks[a], ranks[b])) for b in names]
            for a in names]

    def gain(a: int, rest: int) -> int:
        """Score of placing a before every candidate in `rest`."""
        return sum(pref[a][b] for b in range(m) if rest >> b & 1)

    best = [0] * (1 << m)
    for subset in range(1, 1 << m):
        best[subset] = max(gain(a, subset & ~(1 << a)) + best[subset & ~(1 << a)]
                           for a in range(m) if subset >> a & 1)
    order, subset = [], (1 << m) - 1
    while subset:
        # names are sorted, so the first candidate that keeps the optimum
        # reachable gives the lexicographically smallest order
        a = next(a for a in range(m) if subset >> a & 1
                 and gain(a, subset & ~(1 << a)) + best[subset & ~(1 << a)] == best[subset])
        order.append(names[a])
        subset &= ~(1 << a)
    return best[-1], order


def check_report(text: str | bytes) -> list[str]:
    """Problems found in one report; an empty list means it passed."""
    try:
        return _problems(json.loads(text))
    except ValueError as exc:
        return [f"report.json is not JSON: {exc}"]
    except (KeyError, TypeError, IndexError) as exc:
        return [f"report.json lacks an expected field: {exc!r}"]


def _problems(rep: dict) -> list[str]:
    problems: list[str] = []
    groups = rep["config"]["property_groups"]
    names = [name for name, _ in rep["config"]["candidates"]]
    tables = rep["tables"]

    missing = expected_tables(groups) - set(tables)
    if missing:
        problems.append(f"missing tables {sorted(missing)}")
    for tname, entry in tables.items():
        kem = entry.get("kemeny")
        if kem is None:
            problems.append(f"{tname}: no Kemeny consensus")
            continue
        if sorted(kem["order"]) != sorted(names):
            problems.append(f"{tname}: Kemeny order is not a permutation of the candidates")
            continue
        score = kemeny_score(kem["order"], entry["ranks"])
        if kem["score"] != score:
            problems.append(f"{tname}: Kemeny score {kem['score']} != {score} recomputed")
        if kem["exact"] != (len(names) <= KEMENY_EXACT_LIMIT):
            problems.append(f"{tname}: Kemeny exact={kem['exact']} for m={len(names)}")
        elif kem["exact"]:
            optimum, order = kemeny_optimum(names, entry["ranks"])
            if kem["score"] != optimum:
                problems.append(f"{tname}: Kemeny score {kem['score']} is not the "
                                f"optimum {optimum}")
            elif kem["order"] != order:
                problems.append(f"{tname}: Kemeny order {kem['order']} is not the "
                                f"lexicographically smallest optimal order {order}")

    cgs = rep["community_graphs"]
    if cgs["exact"]["basic"] != cgs["ground_truth"]["basic"]:
        problems.append("exact candidate's basic properties differ from the ground truth's")
    if rep["quality"]["exact"] != rep["quality"]["ground_truth"]:
        problems.append("exact candidate's quality metrics differ from the ground truth's")
    if "clustering" in groups:
        scores = rep["clustering"]["exact"]
        if any(scores[k] != 1.0 for k in ("NMI", "OI", "F1-score")):
            problems.append(f"exact candidate's clustering scores are not 1.0: {scores}")
        table = tables.get("clustering")
        if table is not None:
            if any(r != 1 for r in table["ranks"]["exact"]):
                problems.append("exact candidate does not rank first on every clustering column")
            if table["kemeny"]["order"][0] != "exact":
                problems.append("exact candidate is not first in the clustering consensus")
    return problems
