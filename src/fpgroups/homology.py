"""Homological verifiers.

schur_multiplier computes H2 of a finite group by Hopf's formula, routed
through exact integer linear algebra: enumerate the group, present the
kernel N of F -> Q on Schreier generators (N is free, so N_ab is a lattice),
and impose the conjugation coinvariants N/[F,N].  The identifications are

    H2(Q) = (N \\cap [F,F]) / [F,N] = ker( N/[F,N] -> F_ab ).

The image of that map is free, so the kernel splits off.  For finite Q the
image has finite index, as its cokernel is Q_ab, so it is free of rank |X|
and N/[F,N] = H2(Q) + Z^|X|: H2(Q) is the torsion of the coinvariant
cokernel, and its free rank must be |X|, which every run checks.  The
coinvariant rows are built lazily as sparse maps and reduced by unit-pivot
elimination (zlattice's one cokernel function); only the small residue that
has no +-1 entry left reaches the Smith normal form core.  The live entries
are capped at a coset table's entry count at the coset cap,
max_cosets · 2·|X|, so a matrix too large for the budget exhausts it.

lemma_l0_check compares H2(G/N) with N/[G,N] for N normal in a finite
superperfect G.  With M = ker(F -> G/N) and R the relators of G, N/[G,N] =
M/([F,M]·R^F): the cokernel of the coinvariant rows of G/N, as above, with
the rewritten relators appended.  The other entry points are the H2 rank
count for aspherical presentations and the arithmetic isomorphism test for
the metacyclic pairs Z/n x| Z given by a unit and its powers.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import chain
from math import gcd
from typing import Iterator

from .budget import Budget, BudgetExhausted
from .cosets import CosetTable, SchreierRewriter, todd_coxeter
from .presentations import Presentation, PresentationWarning
from .words import Word
from .zlattice import AbelianInvariants, abelianization, cokernel_invariants


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
    try:
        return todd_coxeter(p, (), budget)
    except BudgetExhausted as ex:
        raise BudgetExhausted(
            f"group not certified finite within budget ({ex.what}, {ex.cosets_used} cosets)"
        ) from None


def schur_multiplier(p: Presentation, budget: Budget | None = None) -> SchurReport:
    """H2 of the presented group, once a coset enumeration certifies it finite."""
    budget = budget or Budget.start()
    return _schur_from_table(p, _certified_table(p, budget), budget)


def _entry_cap(p: Presentation, budget: Budget) -> int:
    """The cap on a coinvariant matrix's entries, live or in the dense
    residue: the entry count of a coset table of p at the coset cap."""
    return budget.max_cosets * 2 * len(p.alphabet)


def _coinvariant_rows(
    p: Presentation, t: CosetTable, budget: Budget
) -> tuple[SchreierRewriter, Iterator[dict[int, int]]]:
    """The Schreier rewriter of the regular table t and the coinvariant rows
    g·s_i·g^-1 - s_i as sparse {Schreier generator: coefficient} maps, one
    per ambient generator g and Schreier generator s_i, built lazily as the
    signed label counts of the walks (the deadline is read once per row)."""
    rw = SchreierRewriter(p, t)

    def rows() -> Iterator[dict[int, int]]:
        for col in range(0, 2 * len(p.alphabet), 2):
            # t is regular, so s_i fixes every coset: the g edge out of coset
            # 1 and the g^-1 edge back into it cancel in the abelianized rewrite
            c = t.action[col][0]
            for i, s in enumerate(rw.generators):
                budget.check()
                row = rw.exponent_sums(s, c)
                e = row.pop(i, 0) - 1
                if e:
                    row[i] = e
                yield row

    return rw, rows()


def _schur_from_table(p: Presentation, t: CosetTable, budget: Budget) -> SchurReport:
    """H2 of the finite group whose regular table is t: the torsion of the
    coinvariant cokernel N/[F,N], whose free rank |X| certifies the split."""
    rw, rows = _coinvariant_rows(p, t, budget)
    coinv = cokernel_invariants(rows, rw.rank, budget, _entry_cap(p, budget))
    if coinv.free_rank != len(p.alphabet):
        raise HomologyError(
            f"internal: coinvariant free rank {coinv.free_rank}, not {len(p.alphabet)}"
        )
    return SchurReport(
        group_order=t.n,
        h2=AbelianInvariants(0, coinv.torsion),
        schreier_rank=rw.rank,
        coinvariant_rows=len(p.alphabet) * rw.rank,
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


def _kernel_coinvariants(
    g: Presentation, table: CosetTable, normal_gens: tuple[Word, ...], budget: Budget
) -> tuple[int, AbelianInvariants]:
    """|G/N| and N/[G,N] for N the normal closure of normal_gens in the
    finite group g presents, whose regular coset table is given: the
    cokernel of the coinvariant rows of G/N with one row appended per
    relator of g."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PresentationWarning)
        g_mod_n = Presentation(g.alphabet, (*g.relators, *normal_gens))
    # when every normal generator reduces away, G/N is G and so is its table
    t = table if g_mod_n.relators == g.relators else _certified_table(g_mod_n, budget)
    rw, rows = _coinvariant_rows(g_mod_n, t, budget)
    relator_rows = (rw.exponent_sums(r.letters) for r in g.relators)
    return t.n, cokernel_invariants(
        chain(rows, relator_rows), rw.rank, budget, _entry_cap(g, budget)
    )


def lemma_l0_check(inst: L0Instance, budget: Budget | None = None) -> L0Report:
    """For 1 -> N -> G -> Q -> 1 with G finite and H1(G) = H2(G) = 0, the
    coinvariants H0(Q, H1 N) = N/[G,N] must equal H2(Q).  With F free on
    G's generators, R its relators and M = ker(F -> G/N) the normal closure
    of R and the normal generators, N/[G,N] = M/([F,M]·R^F) = M/([F,M]·R),
    as a conjugate of a relator equals it modulo [F,M]: the left side is the
    Schreier coinvariant matrix of G/N, as `schur` builds it, with one row
    per relator of G.  The right side is the Hopf formula on the quotient
    presentation.  Hypothesis failures are reported, not raised."""
    budget = budget or Budget.start()
    g = inst.ambient
    if not abelianization(g, budget).is_trivial:
        return L0Report(False, "ambient group has nontrivial H1", None, None, None, None)
    t = _certified_table(g, budget)
    ambient_report = _schur_from_table(g, t, budget)
    if not ambient_report.h2.is_trivial:
        return L0Report(False, "ambient group has nontrivial H2", None, None, None, None)
    quotient_order, coinv = _kernel_coinvariants(g, t, inst.normal_gens, budget)
    kernel_order = t.n // quotient_order

    q = inst.quotient
    if (q.alphabet, q.relators) == (g.alphabet, g.relators):
        quotient_report = ambient_report  # the quotient is presented as G is
    else:
        quotient_report = schur_multiplier(q, budget)
    if quotient_report.group_order * kernel_order != t.n:
        reason = f"quotient order {quotient_report.group_order} is not |G|/|N| = {t.n}/{kernel_order}"
        return L0Report(False, reason, kernel_order, None, None, None)
    h2_q = quotient_report.h2
    return L0Report(
        True,
        "ambient certified finite and superperfect",
        kernel_order,
        coinv,
        h2_q,
        coinv == h2_q,
    )


# ---------------------------------------------------------------------------


def aspherical_h2_rank(p: Presentation, aspherical: bool, budget: Budget | None = None) -> int:
    """Rank of the (free abelian) H2 for an aspherical presentation of a
    perfect group: relator count minus generator count.  The asphericity is
    the caller's assertion; the trivial-H1 hypothesis is checked."""
    if not aspherical:
        raise HomologyError("caller must assert asphericity; it is not decidable here")
    if not abelianization(p, budget).is_trivial:
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
