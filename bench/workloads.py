"""The benchmark workloads.

Each workload has
  inputs(seed)          the inputs, a pure function of the seed;
  setup(inputs)         build, validate and basis-reduce the lattices (timed as setup_s);
  solve(state)          every library call whose result is checked (timed as solve_s);
  reference(inputs)     values the checks need that come from the library on
                        other inputs (random-gram only; computed in its own process);
  check(result, ref)    one bool per checked statement, computed from the
                        solve's outputs, the oracle module and mathematical facts.

Library functions are looked up on their modules at call time, so the spans
that spans.install() puts in place are seen.
"""

from __future__ import annotations

import random
from fractions import Fraction

import oracle
from thetalab import enumeration, jacobi, lattices, niemeier, theta

JOBS = 1


def table(series) -> dict:
    """A truncation as {Gram rows: coefficient}."""
    return {t.entries: c for t, c in series.items_sorted()}


def trace(key) -> int:
    return sum(key[i][i] for i in range(len(key)))


def restricts_to(upper: dict, lower: dict, bound: int) -> list[bool]:
    """Siegel operator: coefficients of `upper` whose last row and column are
    zero are the coefficients of `lower`, index by index up to trace `bound`."""
    dropped = {tuple(row[:-1] for row in key[:-1]): c for key, c in upper.items() if not any(key[-1])}
    keys = {k for k in set(dropped) | set(lower) if trace(k) <= bound}
    return [dropped.get(k, 0) == lower.get(k, 0) for k in sorted(keys)]


def factorizes(upper: dict, lower: dict, genus1: dict, bound: int) -> list[bool]:
    """Block factorization: summed over the last off-diagonal column, r of
    [[T1, b], [b^T, d]] is r(T1) * r(d).  One statement per (T1, d), so every
    coefficient of `upper` is in exactly one sum."""
    sums: dict = {}
    for key, c in upper.items():
        block = (tuple(row[:-1] for row in key[:-1]), key[-1][-1])
        sums[block] = sums.get(block, 0) + c
    for t1 in lower:
        for ((d,),) in genus1:
            if trace(t1) + d <= bound:
                sums.setdefault((t1, d), 0)
    return [c == lower.get(t1, 0) * genus1.get(((d,),), 0) for (t1, d), c in sorted(sums.items())]


def agree(a: dict, b: dict) -> list[bool]:
    return [a.get(k, 0) == b.get(k, 0) for k in sorted(set(a) | set(b))]


def validated(lats: dict) -> dict:
    """The lattices, each validated.  `validate` finds the minimum norm by
    enumeration, which basis-reduces the lattice (LLL) first.  The builtins
    validate glued and plus-construction lattices as they build them, but
    not root lattices and their direct sums, which would otherwise be reduced
    inside the first solve."""
    for lat in lats.values():
        lattices.validate(lat)
    return lats


A2 = ((2, -1), (-1, 2))
A2_PLUS = ((2, 1), (1, 2))
A1_SQ = ((2, 0), (0, 2))


def root_pair_checks(t2: dict, components) -> list[bool]:
    """Genus-2 root indices against the closed forms (both signs of A2)."""
    return [
        t2.get(A2, 0) == oracle.r_a2(components),
        t2.get(A2_PLUS, 0) == oracle.r_a2(components),
        t2.get(A1_SQ, 0) == oracle.r_a1_squared(components),
    ]


class WittG3:
    name = "witt-g3"
    why = ("E8+E8 against D16+ at genus 1/2/3: the rank-16 shell walk, the genus-2 pair "
           "histogram, the genus-3 root DFS, cache writes, then warm cache reads")
    # Trace bounds per genus.  The paper's 8/8/6 needs the 1.05M-vector norm-6
    # shells and a ~65 s cold solve per lattice pair, longer than a run may take.
    BOUNDS = {1: 8, 2: 6, 3: 6}
    COMPONENTS = {"E8+E8": [("E", 8), ("E", 8)], "D16+": [("D", 16)]}

    def inputs(self, seed):
        return None

    def setup(self, inputs):
        return validated({name: niemeier.builtin(name) for name in self.COMPONENTS})

    def solve(self, lats):
        return {
            (name, g): theta.theta_truncated(lat, g, b, jobs=JOBS)
            for g, b in self.BOUNDS.items()
            for name, lat in lats.items()
        }

    reference = None

    def check(self, res, ref):
        tabs = {k: table(v) for k, v in res.items()}
        ops = []
        for g in self.BOUNDS:
            ops += agree(tabs[("E8+E8", g)], tabs[("D16+", g)])
        for name, comps in self.COMPONENTS.items():
            t1 = tabs[(name, 1)]
            ops += [t1.get(((q,),), 0) == oracle.genus1_rank16(q) for q in range(0, self.BOUNDS[1] + 1)]
            ops += root_pair_checks(tabs[(name, 2)], comps)
            for g in (2, 3):
                ops += restricts_to(tabs[(name, g)], tabs[(name, g - 1)], self.BOUNDS[g])
                ops += factorizes(tabs[(name, g)], tabs[(name, g - 1)], t1, self.BOUNDS[g])
        return ops


def heat_checks(jac, t_g: dict, r2: int, c: Fraction, trace_bound: int) -> list[bool]:
    """Heat identity r2 * S_ij * r(S) = c * sum_l l_i l_j N(S, l) and the
    marginal sum_l N(S, l) = r(S) * r2, one statement per index S, from the
    raw Jacobi table and the genus-g counts t_g."""
    by_s: dict = {}
    for (s, ell), n in jac.entries.items():
        by_s.setdefault(s.entries, []).append((ell, n))
    ops = []
    for s in sorted(set(by_s) | {k for k in t_g if trace(k) <= trace_bound}):
        rows = by_s.get(s, [])
        r_s = t_g.get(s, 0)
        g = len(s)
        ok = all(
            r2 * s[i][j] * r_s * c.denominator == c.numerator * sum(ell[i] * ell[j] * n for ell, n in rows)
            for i in range(g)
            for j in range(i, g)
        )
        ops.append(ok and sum(n for _, n in rows) == r_s * r2)
    return ops


class KIdentity:
    name = "k-identity"
    why = ("A17E7:D10E7^2: degree-4 k-identity on the nine curated indices (root-tuple DFS on the "
           "pair and the weight-12 side), A4 separation, Venkov, heat; set-up is two rank-24 LLLs")
    PAIR = ("A17E7", "D10E7^2")
    COMPONENTS = {"A17E7": [("A", 17), ("E", 7)], "D10E7^2": [("D", 10), ("E", 7), ("E", 7)]}
    ROOTS = 432
    GENUS1_BOUND = 10
    # Per-vector Venkov checks and heat identity on the roots only: norm 4
    # would add a 186k-vector shell walk per lattice to every round.
    VENKOV_CAP = 2
    HEAT_TRACE = 2

    def inputs(self, seed):
        return None

    def setup(self, inputs):
        return validated({name: niemeier.builtin(name) for name in self.PAIR + ("E8", "E8+E8", "D16+")})

    def solve(self, lats):
        left, right = (lats[n] for n in self.PAIR)
        out = {"k": theta.k_identity_check(left, right, jobs=JOBS), "genus1": {}, "a4": {}, "roots": {},
               "venkov": {}, "heat": {}}
        for name in self.PAIR:
            lat = lats[name]
            out["genus1"][name] = enumeration.shell_counts_upto(lat, self.GENUS1_BOUND)
            # Curated indices (A4, and A2 / A1^2 padded by zeros), so these
            # are cache hits that expose the individual counts.
            out["a4"][name] = enumeration.representation_count(lat, theta.GRAM_A4, jobs=JOBS)
            for t in (A2, A1_SQ):
                out["roots"][(name, t)] = enumeration.representation_count(lat, [list(r) for r in t], jobs=JOBS)
            rep = jacobi.venkov_constant(lat, norm_bound=8, per_vector_norm_cap=self.VENKOV_CAP)
            out["venkov"][name] = rep
            for g in (1, 2):
                jac = jacobi.jacobi_coefficient(lat, g, 1, self.HEAT_TRACE, jobs=JOBS)
                counts, verdicts = {}, {}
                for s in enumeration.candidate_targets(g, self.HEAT_TRACE):
                    counts[s.entries] = enumeration.representation_count(lat, s, jobs=JOBS)
                    if counts[s.entries]:
                        verdicts[s.entries] = jacobi.heat_coefficient_check(lat, g, s, rep.constant, jacobi=jac, jobs=JOBS)
                out["heat"][(name, g)] = (jac, counts, verdicts)
        return out

    reference = None

    def check(self, res, ref):
        report = res["k"]
        ratios = {Fraction(lhs, rhs) for _, lhs, rhs in report.rows if rhs}
        k = next(iter(ratios)) if len(ratios) == 1 else None
        ops = [k is not None and lhs * k.denominator == k.numerator * rhs for _, lhs, rhs in report.rows]
        ops.append(k is not None and k != 0 and report.k == k and report.verified and len(report.rows) == 9)
        a, b = self.PAIR
        for q in range(0, self.GENUS1_BOUND + 1, 2):
            law = oracle.genus1_rank24(q, self.ROOTS)
            ops.append(res["genus1"][a].get(q, 0) == res["genus1"][b].get(q, 0) == law)
        ops.append(res["a4"][a] != res["a4"][b])
        for name, comps in self.COMPONENTS.items():
            ops.append(res["a4"][name] == oracle.r_a_chain(comps, 4))
            ops.append(res["roots"][(name, A2)] == oracle.r_a2(comps))
            ops.append(res["roots"][(name, A1_SQ)] == oracle.r_a1_squared(comps))
            rep = res["venkov"][name]
            ops.append(rep.consistent and rep.constant == Fraction(24, 2))
            ops.append(rep.r2 == self.ROOTS and rep.verified_vectors == self.ROOTS)
        for (name, g), (jac, counts, verdicts) in res["heat"].items():
            ops += heat_checks(jac, counts, self.ROOTS, Fraction(12), self.HEAT_TRACE)
            ops.append(all(verdicts.values()) and len(verdicts) == sum(1 for v in counts.values() if v))
        return ops


class RandomGram:
    name = "random-gram"
    why = ("seeded Gram matrices of seven small A_n/D_n sums under random unimodular bases: LLL on "
           "unreduced input, the counting walk, the general DFS, genus-2 Jacobi tuples")
    # Fixed make-up, so the counting does not depend on the seed; the seed
    # picks the change of basis.  One Coxeter number per lattice makes the
    # heat identity hold with c = rank / 2.
    LATTICES = {
        "A2^3": [("A", 2)] * 3,
        "A3^2": [("A", 3)] * 2,
        "D5": [("D", 5)],
        "A4": [("A", 4)],
        "D4": [("D", 4)],
        "A2^2": [("A", 2)] * 2,
        "A1^4": [("A", 1)] * 4,
    }
    TRACE = 8
    JACOBI_TRACE = 6

    def inputs(self, seed):
        rng = random.Random(seed)
        out = {}
        for name, comps in self.LATTICES.items():
            g = oracle.block_diagonal([oracle.cartan(k, r) for k, r in comps])
            out[name] = (g, _conjugate(g, _random_unimodular(len(g), rng)))
        return out

    def setup(self, inputs):
        return validated({name: lattices.from_gram(f"{name}#basis", gram) for name, (_, gram) in inputs.items()})

    def solve(self, lats):
        out = {}
        for name, lat in lats.items():
            for g in (1, 2, 3):
                out[(name, g)] = theta.theta_truncated(lat, g, self.TRACE, jobs=JOBS)
            out[(name, "jacobi")] = jacobi.jacobi_coefficient(lat, 2, 1, self.JACOBI_TRACE, jobs=JOBS)
        return out

    def reference(self, inputs):
        """The same computation on the block-diagonal Gram matrices."""
        lats = {name: lattices.from_gram(name, g) for name, (g, _) in inputs.items()}
        res = self.solve(lats)
        return {k: (_jacobi_table(v) if k[1] == "jacobi" else table(v)) for k, v in res.items()}

    def check(self, res, ref):
        ops = []
        for name, comps in self.LATTICES.items():
            tabs = {g: table(res[(name, g)]) for g in (1, 2, 3)}
            for g in (1, 2, 3):
                ops += agree(tabs[g], ref[(name, g)])
            law = oracle.genus1_of_sum(comps, self.TRACE)
            ops += [tabs[1].get(((q,),), 0) == law.get(q, 0) for q in range(self.TRACE + 1)]
            ops += root_pair_checks(tabs[2], comps)
            for g in (2, 3):
                ops += restricts_to(tabs[g], tabs[g - 1], self.TRACE)
                ops += factorizes(tabs[g], tabs[g - 1], tabs[1], self.TRACE)
            jac = res[(name, "jacobi")]
            ops += agree(_jacobi_table(jac), ref[(name, "jacobi")])
            rank = sum(r for _, r in comps)
            r2 = sum(oracle.root_data(k, r)[0] for k, r in comps)
            ops += heat_checks(jac, tabs[2], r2, Fraction(rank, 2), self.JACOBI_TRACE)
        return ops


def _jacobi_table(jac) -> dict:
    return {(s.entries, ell): n for (s, ell), n in jac.entries.items()}


def _random_unimodular(n: int, rng: random.Random) -> list[list[int]]:
    """A signed permutation times 2n elementary row operations with small multipliers."""
    perm = list(range(n))
    rng.shuffle(perm)
    u = [[(rng.choice((-1, 1)) if perm[i] == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        m = rng.choice((-2, -1, 1, 2))
        u[i] = [x + m * y for x, y in zip(u[i], u[j])]
    return u


def _conjugate(g, u) -> list[list[int]]:
    """u g u^T."""
    n = len(g)
    ug = [[sum(u[i][k] * g[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(ug[i][k] * u[j][k] for k in range(n)) for j in range(n)] for i in range(n)]


WORKLOADS = {w.name: w for w in (WittG3(), KIdentity(), RandomGram())}
