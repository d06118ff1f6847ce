"""Homological verifiers.

schur_multiplier computes H2 of a finite group by Hopf's formula, routed
through exact integer linear algebra: enumerate the group, present the
kernel N of F -> Q on Schreier generators (N is free, so N_ab is a lattice),
impose the conjugation coinvariants N/[F,N], and take the kernel of the
induced map to F_ab.  The identifications are

    H2(Q) = (N \\cap [F,F]) / [F,N] = ker( N/[F,N] -> F_ab ).

The image of that map is free, so the kernel splits off: H2(Q) is the
torsion of the coinvariant cokernel N/[F,N], and its free rank less the rank
of the map (zero for finite Q).  Both are read off Smith diagonals.

The other entry points are finite-instance checks used by the construction
pipeline: a coinvariants-versus-H2 comparison for central quotients, the H2
rank count for aspherical presentations, and the arithmetic isomorphism test
for the metacyclic pairs Z/n x| Z given by a unit and its powers.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

from .budget import Budget, BudgetExhausted
from .cosets import CosetTable, Exhausted, SchreierRewriter, todd_coxeter
from .permrep import (
    PermGroup,
    close_under_products,
    compose,
    evaluate_word,
    identity_perm,
    invert,
)
from .presentations import Presentation
from .words import Word
from .zlattice import (
    AbelianInvariants,
    IntMatrix,
    abelianization,
    kernel_invariants,
)


class HomologyError(ValueError):
    pass


@dataclass(frozen=True)
class SchurReport:
    group_order: int
    h2: AbelianInvariants
    schreier_rank: int
    coinvariant_rows: int

    def to_json(self) -> dict:
        return {
            "group_order": self.group_order,
            "h2": self.h2.to_json(),
            "schreier_rank": self.schreier_rank,
            "coinvariant_rows": self.coinvariant_rows,
        }


def _certified_table(p: Presentation, budget: Budget | None) -> CosetTable:
    """The regular coset table, which certifies the group finite, or raise."""
    t = todd_coxeter(p, (), budget)
    if isinstance(t, Exhausted):
        raise BudgetExhausted(
            f"group not certified finite within budget ({t.reason}, "
            f"{t.cosets_used} cosets)"
        )
    return t


def schur_multiplier(p: Presentation, budget: Budget | None = None) -> SchurReport:
    """H2 of the presented group, once a coset enumeration certifies it finite."""
    budget = budget or Budget.start()
    return _schur_from_table(p, _certified_table(p, budget), budget)


def _schur_from_table(p: Presentation, t: CosetTable, budget: Budget) -> SchurReport:
    """The coinvariant rows, one per ambient generator and Schreier generator
    (the deadline is read once per row), then the kernel of their map to F_ab."""
    rw = SchreierRewriter(p, t)
    rank = rw.rank
    ngens = len(p.alphabet)
    sgens = [rw.generator_word(i) for i in range(rank)]
    expo = IntMatrix(rank, ngens, [list(w.exponent_vector()) for w in sgens])
    # conjugation action of each ambient generator on N_ab
    rows: list[list[int]] = []
    for gi in range(ngens):
        g = Word(p.alphabet, (gi + 1,))
        ginv = g.inverse()
        for i in range(rank):
            budget.check()
            conj = (g * sgens[i] * ginv).reduce()
            row = list(rw.rewrite(conj, 0).exponent_vector())
            row[i] -= 1  # coinvariant relation  g·s_i·g^-1 - s_i
            rows.append(row)
    h2 = kernel_invariants(IntMatrix(len(rows), rank, rows), expo, budget)
    return SchurReport(
        group_order=t.n, h2=h2, schreier_rank=rank, coinvariant_rows=len(rows)
    )


# ---------------------------------------------------------------------------
# Lemma-style finite-instance check: H2(Q) vs coinvariants of the kernel


@dataclass(frozen=True)
class L0Instance:
    """A finite superperfect ambient group, a normal subgroup given by
    normal generators, and a presentation of the quotient."""

    ambient: Presentation
    normal_gens: tuple[Word, ...]
    quotient: Presentation


@dataclass(frozen=True)
class L0Report:
    hypotheses_met: bool
    reason: str
    kernel_order: int | None
    coinvariants: AbelianInvariants | None
    h2_quotient: AbelianInvariants | None
    equal: bool | None

    def to_json(self) -> dict:
        return {
            "hypotheses_met": self.hypotheses_met,
            "reason": self.reason,
            "kernel_order": self.kernel_order,
            "coinvariants": None if self.coinvariants is None else self.coinvariants.to_json(),
            "h2_quotient": None if self.h2_quotient is None else self.h2_quotient.to_json(),
            "equal": self.equal,
        }


def _abelian_invariants_from_orders(orders: list[int]) -> AbelianInvariants:
    """Invariant factors of a finite abelian group from its element orders
    (the counts of solutions of d·x = 0 determine the group)."""
    size = len(orders)
    invariants: list[int] = []
    while size > 1:
        e = lcm(*orders)
        invariants.append(e)
        size //= e
        # orders of the complement A' with A = Z/e + A': each count of
        # solutions of d x = 0 divides out gcd(d, e)
        counts = {}
        for d in sorted({o for o in orders}):
            counts[d] = sum(1 for o in orders if d % o == 0) // gcd(d, e)
        # rebuild the order multiset of A' from divisor counts
        new_orders = []
        divisors = sorted(counts)
        exact = {}
        for d in divisors:
            below = sum(v for dd, v in exact.items() if d % dd == 0)
            exact[d] = counts[d] - below
            new_orders.extend([d] * exact[d])
        orders = new_orders or [1]
    invariants.reverse()
    return AbelianInvariants(0, tuple(d for d in invariants if d > 1))


def _normal_closure(seed: list, gen_perms: list, budget: Budget) -> frozenset:
    degree = len(gen_perms[0]) if gen_perms else 0
    current = close_under_products([identity_perm(degree)] + seed, compose, invert, budget)
    while True:
        extra = []
        for g in gen_perms:
            ginv = invert(g)
            for n in current:
                c = compose(compose(g, n), ginv)
                if c not in current:
                    extra.append(c)
        if not extra:
            return current
        current = close_under_products(list(current) + extra, compose, invert, budget)


def lemma_l0_check(inst: L0Instance, budget: Budget | None = None) -> L0Report:
    """For 1 -> N -> G -> Q -> 1 with G finite and H1(G) = H2(G) = 0, the
    coinvariants H0(Q, H1 N) must equal H2(Q).  Both sides are computed by
    independent routes: the left brute-force in the regular permutation
    image of G, the right by the Hopf formula on the quotient presentation.
    Hypothesis failures are reported, not raised."""
    budget = budget or Budget.start()
    g = inst.ambient
    if not abelianization(g).is_trivial:
        return L0Report(False, "ambient group has nontrivial H1", None, None, None, None)
    t = _certified_table(g, budget)
    if not _schur_from_table(g, t, budget).h2.is_trivial:
        return L0Report(False, "ambient group has nontrivial H2", None, None, None, None)

    gen_perms = [t.permutation(name) for name in g.alphabet.names]
    degree = t.n
    seed = [evaluate_word(w, gen_perms, degree) for w in inst.normal_gens]
    N = _normal_closure(seed, gen_perms, budget)

    # [G, N]: normal closure of the generator-element commutators
    comms = []
    for gp in gen_perms:
        gpi = invert(gp)
        for n in N:
            c = compose(compose(compose(gp, n), gpi), invert(n))
            if c != identity_perm(degree):
                comms.append(c)
    K = (
        _normal_closure(comms, gen_perms, budget)
        if comms
        else frozenset([identity_perm(degree)])
    )
    # element orders of N/K via coset multiplication
    cosets: dict = {}
    for n in N:
        key = frozenset(compose(n, k) for k in K)
        cosets.setdefault(key, n)
    idcoset = frozenset(K)
    orders = []
    for key, rep in cosets.items():
        power, o = rep, 1
        while frozenset(compose(power, k) for k in K) != idcoset:
            power = compose(power, rep)
            o += 1
        orders.append(o)
    coinv = _abelian_invariants_from_orders(orders)

    quotient_report = schur_multiplier(inst.quotient, budget)
    if quotient_report.group_order * len(N) != t.n:
        return L0Report(
            False,
            f"quotient order {quotient_report.group_order} is not |G|/|N| = {t.n}/{len(N)}",
            len(N),
            None,
            None,
            None,
        )
    h2_q = quotient_report.h2
    return L0Report(
        True,
        "ambient certified finite and superperfect",
        len(N),
        coinv,
        h2_q,
        coinv == h2_q,
    )


# ---------------------------------------------------------------------------


def aspherical_h2_rank(p: Presentation, aspherical: bool) -> int:
    """Rank of the (free abelian) H2 for an aspherical presentation of a
    perfect group: relator count minus generator count.  The asphericity is
    the caller's assertion; the trivial-H1 hypothesis is checked."""
    if not aspherical:
        raise HomologyError("caller must assert asphericity; it is not decidable here")
    if not abelianization(p).is_trivial:
        raise HomologyError("rank formula needs trivial abelianization")
    return len(p.relators) - len(p.generators)


@dataclass(frozen=True)
class BaumslagIsoReport:
    modulus: int
    unit: int
    k: int
    power: int
    branches: tuple[int, int]
    isomorphic: bool

    def to_json(self) -> dict:
        return {
            "modulus": self.modulus,
            "unit": self.unit,
            "k": self.k,
            "power": self.power,
            "branches": list(self.branches),
            "isomorphic": self.isomorphic,
        }


def baumslag_iso_test(modulus: int, unit: int, k: int) -> BaumslagIsoReport:
    """Isomorphism test for the metacyclic pair Z/n x|_u Z versus
    Z/n x|_{u^k} Z: conjugation can only invert the cyclic factor's
    automorphism, so the groups are isomorphic iff u^k = u^{+-1} (mod n).
    Deliberately scoped to this family; not a general isomorphism test."""
    if modulus < 2:
        raise HomologyError("modulus must be at least 2")
    if gcd(unit, modulus) != 1:
        raise HomologyError(f"unit {unit} is not invertible mod {modulus}")
    power = pow(unit, k, modulus)
    branches = (unit % modulus, pow(unit, -1, modulus))
    return BaumslagIsoReport(
        modulus=modulus,
        unit=unit,
        k=k,
        power=power,
        branches=branches,
        isomorphic=power in branches,
    )
