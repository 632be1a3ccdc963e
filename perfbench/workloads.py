"""The four benchmark workloads and their oracles.

A workload builds its state in ``setup`` (presentations, a pool of known
subgroups, parsed inputs), then ``stream`` serves a seeded sequence of
*rounds*.  A round is a seeded shuffle of a fixed multiset of operations, so
every round holds each kind of operation in the same proportion; the runner
measures whole rounds, which keeps latency percentiles comparable between
seeds.
Operations are plain tuples of strings and integers: the same seed gives a
byte-identical stream, and the library receives only these inputs.

``execute`` makes the library call that is timed; ``verify`` checks its
result against an oracle and returns a description of the first mismatch,
or ``None``.  Oracles are known values (published subgroup counts, group
orders) or checks computed here without lpcoset (permutation group orders,
orbit sizes).
"""

from __future__ import annotations

import io
import random

import lpcoset
import lpcoset.cli

# Subgroup counts per index; indexes missing from a dict have none.
GRIGORCHUK_COUNTS = {1: 1, 2: 7, 4: 31, 8: 183}
GRIGORCHUK_NORMAL = {1: 1, 2: 7, 4: 7, 8: 7}
BASILICA_COUNTS = dict(enumerate([1, 3, 7, 19, 11, 39, 15, 163, 115, 83], start=1))
BASILICA_NORMAL = dict(enumerate([1, 3, 4, 7, 6, 13, 8, 19, 13, 19], start=1))


def count_mismatch(label: str, got: dict, expected: dict, max_index: int):
    for i in range(1, max_index + 1):
        if got.get(i, 0) != expected.get(i, 0):
            return f"{label} at index {i}: got {got.get(i, 0)}, expected {expected.get(i, 0)}"
    return None


def perm_group_order(gens: list[tuple[int, ...]]) -> int:
    """Order of the group generated by 0-based permutations, by closure."""
    ident = tuple(range(len(gens[0])))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                p = tuple(g[x] for x in e)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return len(seen)


def pair_orbit_size(u_rows, v_rows, ngens: int) -> int:
    """Size of the orbit of coset pair (1, 1) under the generators."""
    seen = {(1, 1)}
    frontier = [(1, 1)]
    while frontier:
        nxt = []
        for c, d in frontier:
            for g in range(ngens):
                t = (u_rows[c - 1][2 * g], v_rows[d - 1][2 * g])
                if t not in seen:
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return len(seen)


class Workload:
    name = ""
    trace_rounds: int = 1  # rounds in one traced pass

    def setup(self):
        raise NotImplementedError

    def stream(self, state, seed: int):
        """Endless seeded sequence of rounds, each a list of operations."""
        raise NotImplementedError

    def execute(self, state, op: tuple):
        raise NotImplementedError

    def verify(self, state, op: tuple, result) -> str | None:
        raise NotImplementedError


class LowIndexJob(Workload):
    """One verified job: all subgroups up to an index, marked normal/maximal.

    The job has no free inputs, so the seed does not change it.
    """

    def __init__(self, name, group, max_index, level, counts, normal):
        self.name = name
        self.group = group
        self.max_index = max_index
        self.level = level
        self.counts = counts
        self.normal = normal

    def setup(self):
        return getattr(lpcoset, self.group)()

    def stream(self, state, seed):
        while True:
            yield [("low-index", self.group, self.max_index, self.level)]

    def execute(self, lp, op):
        _, _, max_index, level = op
        return lpcoset.mark_normal_and_maximal(lpcoset.low_index(lp, max_index, level=level))

    def verify(self, lp, op, slist):
        if not slist.complete:
            return "incomplete subgroup list"
        return count_mismatch(
            "subgroups", slist.counts(), self.counts, self.max_index
        ) or count_mismatch("normal subgroups", slist.normal_counts(), self.normal, self.max_index)


class _Pool:
    def __init__(self, lp, slist):
        self.lp = lp
        self.subs = [e.subgroup for e in slist.entries]
        self.normal = [e.normal for e in slist.entries]


class SubgroupQueries(Workload):
    """Closed loop, one client: small queries on subgroups of index <= 8."""

    name = "subgroup-queries"
    POOL_INDEX = 8
    POOL_ORACLE = {
        "grigorchuk": (GRIGORCHUK_COUNTS, GRIGORCHUK_NORMAL),
        "basilica": (BASILICA_COUNTS, BASILICA_NORMAL),
    }
    # The repository has no record of real query traffic, so the mix is an
    # assumption by rule: the five kinds (index, member, normal, core,
    # intersect) take equal shares, and index queries are split evenly
    # between the library call and the command line
    ROUND = ("index",) * 2 + ("cli",) * 2 + ("member",) * 4 + ("normal",) * 4 \
        + ("core",) * 4 + ("intersect",) * 4
    trace_rounds = 50
    NIELSEN_MOVES = 3
    MEMBER_FACTORS = 4

    def setup(self):
        pools = {}
        for group, (counts, normal) in self.POOL_ORACLE.items():
            lp = getattr(lpcoset, group)()
            slist = lpcoset.mark_normal_and_maximal(
                lpcoset.low_index(lp, self.POOL_INDEX, level=1)
            )
            bad = count_mismatch(
                f"{group} pool", slist.counts(), counts, self.POOL_INDEX
            ) or count_mismatch(
                f"{group} pool normal", slist.normal_counts(), normal, self.POOL_INDEX
            )
            if bad:
                raise RuntimeError(bad)
            pools[group] = _Pool(lp, slist)
        return {"pools": pools, "memo": {}}

    def stream(self, state, seed):
        """Each kind of query draws its subgroups from its own deck: a seeded
        shuffle of the whole pool, refilled when empty.  A run of a few
        thousand queries then covers the pool about evenly for every kind,
        so the tail does not depend on which heavy subgroups a seed drew."""
        rng = random.Random(seed)
        pool_keys = [
            (g, k) for g in sorted(state["pools"]) for k in range(len(state["pools"][g].subs))
        ]
        decks = {kind: [] for kind in self.ROUND}

        def draw(kind):
            if not decks[kind]:
                decks[kind] = pool_keys[:]
                rng.shuffle(decks[kind])
            return decks[kind].pop()

        while True:
            yield self._round(state, rng, draw)

    def _round(self, state, rng, draw):
        kinds = list(self.ROUND)
        rng.shuffle(kinds)
        ops = []
        for kind in kinds:
            group, k = draw(kind)
            pool = state["pools"][group]
            gens = pool.subs[k].generators
            if kind in ("index", "cli"):
                shuffled = _nielsen(gens, rng, self.NIELSEN_MOVES)
                ops.append((kind, group, k, ",".join(str(w) for w in shuffled)))
            elif kind == "member":
                w = lpcoset.Word.identity(pool.lp.alphabet)
                for _ in range(self.MEMBER_FACTORS):
                    w = w * rng.choice(gens) ** rng.choice((1, -1))
                ops.append((kind, group, k, str(w)))
            elif kind == "intersect":
                ops.append((kind, group, k, rng.randrange(len(pool.subs))))
            else:
                ops.append((kind, group, k))
        return ops

    def execute(self, state, op):
        kind, group, k = op[:3]
        pool = state["pools"][group]
        u = pool.subs[k]
        if kind == "index":
            return lpcoset.finite_index_subgroup(
                pool.lp, lpcoset.parse_subgroup(pool.lp.alphabet, op[3])
            )
        if kind == "cli":
            out, err = io.StringIO(), io.StringIO()
            argv = ["index", f"builtin:{group}", "--subgroup", op[3]]
            return lpcoset.cli.main(argv, out=out, err=err), out.getvalue()
        if kind == "member":
            return u.contains(lpcoset.parse_word(pool.lp.alphabet, op[3]))
        if kind == "core":
            return lpcoset.core(u)
        if kind == "intersect":
            return lpcoset.intersect(u, pool.subs[op[3]])
        return u.is_normal()

    def verify(self, state, op, result):
        kind, group, k = op[:3]
        pool = state["pools"][group]
        u = pool.subs[k]
        memo = state["memo"]
        if kind == "index":
            ok = lpcoset.subgroup_equal(result, u)
        elif kind == "cli":
            code, text = result
            ok = code == 0 and f"index: {u.index}" in text.splitlines()
        elif kind == "member":
            ok = result is True
        elif kind == "core":
            key = ("core", group, k)
            if key not in memo:
                memo[key] = perm_group_order(
                    [tuple(x - 1 for x in p.images) for p in u.rep.perms]
                )
            ok = (result.index == memo[key] and result.is_normal()
                  and lpcoset.contains_subgroup(u, result))
        elif kind == "intersect":
            v = pool.subs[op[3]]
            key = ("intersect", group, k, op[3])
            if key not in memo:
                memo[key] = pair_orbit_size(u.table.rows, v.table.rows, len(pool.lp.alphabet))
            ok = (result.index == memo[key] and lpcoset.contains_subgroup(u, result)
                  and lpcoset.contains_subgroup(v, result))
        else:
            ok = result == pool.normal[k]
        return None if ok else f"wrong answer to {op!r}"


def _nielsen(gens, rng, moves):
    """A seed-drawn Nielsen transform of a generating tuple: products
    g_i <- g_i * g_j^e, then inversions and a reordering."""
    gens = list(gens)
    if len(gens) > 1:
        for _ in range(moves):
            i, j = rng.sample(range(len(gens)), 2)
            gens[i] = gens[i] * gens[j] ** rng.choice((1, -1))
    gens = [g.inverse() if rng.random() < 0.5 else g for g in gens]
    rng.shuffle(gens)
    return gens


class BurnsideEscalation(Workload):
    """Index computations in small free Burnside groups B(n, m).

    Every subgroup is proper, so Todd-Coxeter overflows at truncation
    level 0 (and 1 unless n = 1) before the run closes.  B(2,4) gives up
    after about 15 s at a 2^18-coset ceiling and B(3,3) runs for more than
    15 min; both are left out for run time only.
    """

    name = "burnside-escalation"
    # known orders: B(1,m) is cyclic of order m, B(n,2) elementary abelian
    # of order 2^n, B(2,3) the Heisenberg group of order 27
    ORDERS = {(1, 3): 3, (1, 5): 5, (1, 7): 7, (2, 2): 4, (3, 2): 8, (4, 2): 16, (2, 3): 27}
    # (n, m, subgroup generators, subgroup order); "1" is the trivial subgroup
    ITEMS = (
        (1, 3, "1", 1),
        (1, 5, "1", 1),
        (1, 7, "1", 1),
        (2, 2, "1", 1),
        (2, 2, "a1", 2),
        (3, 2, "1", 1),
        (3, 2, "a1*a2*a3", 2),
        (4, 2, "1", 1),
        (4, 2, "a1,a2", 4),
        (2, 3, "1", 1),
        (2, 3, "a1", 3),
        (2, 3, "[a1,a2]", 3),
    )

    def setup(self):
        groups = {}
        specs = {}
        for n, m, gens, _ in self.ITEMS:
            if (n, m) not in groups:
                groups[(n, m)] = lpcoset.burnside(n, m)
            specs[(n, m, gens)] = lpcoset.parse_subgroup(groups[(n, m)].alphabet, gens)
        return {"groups": groups, "specs": specs}

    def stream(self, state, seed):
        rng = random.Random(seed)
        while True:
            ops = [(n, m, gens, self.ORDERS[(n, m)] // sub_order)
                   for n, m, gens, sub_order in self.ITEMS]
            rng.shuffle(ops)
            yield ops

    def execute(self, state, op):
        n, m, gens, _ = op
        return lpcoset.enumerate_cosets(state["groups"][(n, m)], state["specs"][(n, m, gens)])

    def verify(self, state, op, result):
        n, m, gens, index = op
        if result.index != index:
            return f"B({n},{m}) subgroup <{gens}>: index {result.index}, expected {index}"
        return None


WORKLOADS = {
    w.name: w
    for w in (
        LowIndexJob(
            "grigorchuk-lowindex", "grigorchuk", 15, 2, GRIGORCHUK_COUNTS, GRIGORCHUK_NORMAL
        ),
        LowIndexJob("basilica-lowindex", "basilica", 10, 1, BASILICA_COUNTS, BASILICA_NORMAL),
        SubgroupQueries(),
        BurnsideEscalation(),
    )
}
