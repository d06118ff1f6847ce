"""Small-cancellation embeddings and central-extension assembly.

rips(Q, m) fits an arbitrary finite presentation Q = <X | R> into a short
exact sequence 1 -> N -> Gamma -> Q -> 1 where Gamma = <X, a_1, a_2 | ...>
satisfies C'(1/m) and N is the normal closure of {a_1, a_2}.  Each relator
carries a long filler word in the a-letters; fillers are consecutive disjoint
segments of one binary de Bruijn sequence of order d, so any word of length d
occurs at most once across all of them and pieces between fillers are shorter
than d.  The segment length grows linearly with m, d, and the longest input
relator, which keeps every piece under a 1/m fraction of its relator; the
result is certified after the fact by check_metric, and d is bumped and the
construction retried in the (unexpected) case the certificate fails.

With zero_exponent set, fillers are passed through the substitution

    sigma_0:  a_1 -> a_1 a_2 a_1^-2 a_2^-1 a_1,    a_2 -> a_2 a_1 a_2^-2 a_1^-1 a_2

whose images have exponent sum zero in both letters.  The filler part of
every relator then vanishes under abelianization, so the conjugation relators
x^e a_i x^-e v kill the a-columns outright and H_1(Gamma) = H_1(Q); in
particular Gamma is perfect whenever Q is.  The segment lengths are designed
at m as for the positive scheme: sigma_0 stretches every filler bit, and so
every piece between fillers and every segment alike, sixfold.

uce(G) presents the universal central extension of a perfect group on the
same generators: the commutator family [a, r] makes every old relator
central, and the expression family w_a = prod_r r^{c_{a,r}} -- with exponents
solved in the relation lattice so that ab(w_a) = ab(a) -- forces perfection.
The presentation lists the commutators first, then the w_a.  Since each w_a
is a product of relators it dies in G, so the identity on generators induces
the covering map onto G.

pipeline(Q, m) composes the two, doubles the result into E = Gtilde x Gtilde,
and writes down the finite generating set of the fibre product over Q,
together with a finite-quotient evidence report for Q.  All three take the
run budget and check its deadline between their stages, so one time limit
bounds the whole chain.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, replace
from itertools import chain
from typing import Iterable, Sequence

from .budget import Budget, BudgetExhausted
from .cancellation import PieceReport, check_metric
from .cosets import Fingerprint, low_index
from .homology import schur_multiplier
from .presentations import Presentation, PresentationWarning
from .words import Alphabet, Word
from .zlattice import (
    AbelianInvariants,
    abelianization,
    exponent_matrix,
    lattice_solve,
)


class ConstructionError(ValueError):
    """A construction's hypotheses are not met."""


class RipsError(ConstructionError):
    """The small-cancellation embedding could not be produced."""


# ---------------------------------------------------------------------------
# de Bruijn fillers


def de_bruijn_bits(d: int) -> list[int]:
    """The binary de Bruijn sequence of order d (length 2^d), by the standard
    Lyndon-word concatenation; every bit string of length d occurs exactly
    once cyclically."""
    if d < 1:
        raise ValueError("order must be positive")
    seq: list[int] = []
    a = [0] * (d + 1)

    def extend(t: int, p: int) -> None:
        if t > d:
            if d % p == 0:
                seq.extend(a[1 : p + 1])
            return
        a[t] = a[t - p]
        extend(t + 1, p)
        for j in range(a[t - p] + 1, 2):
            a[t] = j
            extend(t + 1, t)

    extend(1, 1)
    return seq


# images of the positive letters under sigma_0, over a virtual {1, 2} alphabet;
# both have exponent sum 0 in each letter, and positive words substitute with
# no cancellation (every block starts and ends with a positive letter)
_SIGMA0 = {1: (1, 2, -1, -1, -2, 1), 2: (2, 1, -2, -2, -1, 2)}


@dataclass(frozen=True)
class RipsResult:
    gamma: Presentation
    normal_gens: tuple[Word, Word]
    m: int
    zero_exponent: bool
    de_bruijn_order: int
    metric: PieceReport

    def to_json(self) -> dict:
        return {
            "gamma": self.gamma.to_json(),
            "normal_generators": [w.text() for w in self.normal_gens],
            "m": self.m,
            "zero_exponent": self.zero_exponent,
            "de_bruijn_order": self.de_bruijn_order,
            "relator_count": len(self.gamma.relators),
            "total_letters": self.gamma.total_relator_length(),
            "metric_verdict": self.metric.verdict,
            "max_piece": self.metric.max_piece(),
        }


def rips(
    q: Presentation,
    m: int,
    *,
    zero_exponent: bool = False,
    budget: Budget | None = None,
) -> RipsResult:
    """Embed q in a C'(1/m) group with a two-generator normal subgroup.

    The de Bruijn order d starts at the smallest value whose sequence holds
    all W = |R| + 4|X| segments and is raised until the output's C'(1/m)
    certificate passes; in practice the first d succeeds.  With zero_exponent
    the segments are the positive scheme's, stretched sixfold by sigma_0.
    The budget's deadline is checked before each attempt, after the de
    Bruijn sequence and once per filler.
    """
    if m < 6:
        raise RipsError(f"cancellation parameter must be at least 6, got {m}")
    if len(q.alphabet) < 1:
        raise RipsError("input presentation needs at least one generator")
    budget = budget or Budget.start()

    nx = len(q.alphabet)
    base = "a"
    while f"{base}1" in q.alphabet or f"{base}2" in q.alphabet:
        base += "a"
    ab = Alphabet(q.alphabet.names + (f"{base}1", f"{base}2"))

    # heads are untouched by sigma_0: the x-letters of an input relator, or
    # x^eps a_i x^-eps -- the lone a_i keeps its unit abelianization row,
    # which is what deletes the a-columns
    heads = [r.letters for r in q.relators]
    heads += [
        (eps * xi, nx + i, -eps * xi)
        for xi in range(1, nx + 1)
        for i in (1, 2)
        for eps in (1, -1)
    ]
    n_segments = len(heads)
    prefix_max = max(map(len, heads))
    stretch = 6 if zero_exponent else 1

    def segment_length(d: int) -> int:
        # piece candidates span at most one prefix plus two sub-d filler runs
        return m * (prefix_max + 2 * d + 4) + 1

    d = 2
    while n_segments * segment_length(d) > (1 << d):
        d += 1

    for _attempt in range(7):
        budget.check()
        seg = segment_length(d)
        total = sum(map(len, heads)) + n_segments * stretch * seg
        if total > budget.max_letters:
            raise BudgetExhausted(
                f"rips output needs {total} letters at de Bruijn order {d}, "
                f"over the {budget.max_letters}-letter cap"
            )

        bits = de_bruijn_bits(d)
        budget.check()

        def filler(k: int) -> tuple[int, ...]:
            budget.check()
            block = bits[k * seg : (k + 1) * seg]
            if zero_exponent:
                out: list[int] = []
                for b in block:
                    out.extend(_SIGMA0[b + 1])
            else:
                out = [b + 1 for b in block]
            # shift the virtual {1,2} letters past the X block of the alphabet
            return tuple(l + nx if l > 0 else l - nx for l in out)

        gamma = Presentation(
            ab, [Word(ab, h + filler(k), _reduced=True) for k, h in enumerate(heads)]
        )
        report = check_metric(gamma, m, budget)
        if report.verdict:
            break
        d += 1
    else:
        raise RipsError(
            f"no C'(1/{m}) certificate up to de Bruijn order {d - 1}; worst piece "
            f"fraction {report.max_piece()} in relators {list(report.failing)}"
        )

    return RipsResult(
        gamma=gamma,
        normal_gens=(ab.gen(f"{base}1"), ab.gen(f"{base}2")),
        m=m,
        zero_exponent=zero_exponent,
        de_bruijn_order=d,
        metric=report,
    )


# ---------------------------------------------------------------------------
# universal central extensions


@dataclass(frozen=True)
class UceResult:
    source: Presentation
    tilde: Presentation  # the commutators [a, r] first, then the w_a
    witnesses: tuple[tuple[int, ...], ...]  # c_a per generator, relator order

    def to_json(self) -> dict:
        return {
            "tilde": self.tilde.to_json(),
            "relator_count": len(self.tilde.relators),
            "witnesses": {
                name: list(c)
                for name, c in zip(self.source.alphabet.names, self.witnesses)
            },
        }


def _inverse(letters: Sequence[int]) -> list[int]:
    return [-l for l in reversed(letters)]


def _reduced_product(parts: Iterable[Sequence[int]]) -> list[int]:
    """The letters of the freely reduced product of freely reduced words:
    only the junctions can cancel, so each part is cancelled against the
    end of the product so far and appended."""
    out: list[int] = []
    for part in parts:
        k, n = 0, min(len(out), len(part))
        while k < n and out[-1 - k] == -part[k]:
            k += 1
        if k:
            del out[-k:]
        out.extend(part[k:])
    return out


def _commutator_relator(rank: int, ai: int, r: Word) -> Word:
    """[a, r] for the ai-th generator a, falling back to [a, g r g^-1] over
    the other generators g and then their inverses when r is a power of a
    (so the plain commutator is freely trivial), and to r itself in the
    rank-one case."""
    a = ai + 1
    others = [g for g in range(1, rank + 1) if g != a]
    conjugates = (_reduced_product([(g,), r.letters, (-g,)]) for g in others + [-g for g in others])
    for u in chain([r.letters], conjugates):
        w = _reduced_product([(a,), u, (-a,), _inverse(u)])
        if w:
            return Word(r.alphabet, w, _reduced=True)
    return r


def _round_div(a: int, b: int) -> int:
    """round(a / b) for b > 0, halves to even as round(Fraction(a, b))."""
    q, r = divmod(2 * a + b, 2 * b)
    return q - 1 if r == 0 and q % 2 else q


def _integral_gram_schmidt(b: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Gram-Schmidt in integers (Cohen 1993, Algorithm 2.6.7, step 2).

    d[j] is the Gram determinant of b[:j], so d[0] = 1 and |b_j*|^2 is
    d[j+1] / d[j]; lam[k][j] = d[j+1] * mu_kj for j < k, where mu_kj is b_k's
    coefficient on b_j*.  All are integers, and every division in the
    recurrence is exact.  The last row may lie in the span of the others (its
    d is then 0): nothing divides by it."""
    d, lam = [1], []
    for v in b:
        row: list[int] = []
        lam.append(row)
        # j runs up to v's own row, whose last entry is its d
        for bj, lj in zip(b, lam):
            u = sum(x * y for x, y in zip(v, bj))
            for i, (x, y) in enumerate(zip(row, lj)):
                u = (d[i + 1] * u - x * y) // d[i]
            row.append(u)
        d.append(row.pop())
    return d, lam


def _lll(basis: list[list[int]]) -> list[list[int]]:
    """LLL with delta = 3/4 on the integral Gram-Schmidt data (Cohen 1993,
    Algorithm 2.6.7).  Each step size-reduces b_k fully, from b_{k-1} down to
    b_0, then tests Lovasz's condition |b_k*|^2 >= (3/4 - mu^2) |b_{k-1}*|^2,
    times 4 d[k] d[k-1] to clear denominators, and swaps b_k with b_{k-1}
    where it fails.  Zero rows are dropped; the others must be independent."""
    b = [list(v) for v in basis if any(v)]
    d, lam = _integral_gram_schmidt(b)
    k = 1
    while k < len(b):
        for j in range(k - 1, -1, -1):
            q = _round_div(lam[k][j], d[j + 1])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                # lam_jj = d[j+1], as mu_jj = 1
                lam[k][: j + 1] = [x - q * y for x, y in zip(lam[k], lam[j] + [d[j + 1]])]
        lk = lam[k][k - 1]
        if 4 * d[k + 1] * d[k - 1] >= 3 * d[k] ** 2 - 4 * lk * lk:
            k += 1
            continue
        # lam_{k,k-1} and every d but d[k] stay; rows below k change only
        # their coefficients on b_{k-1}* and b_k*
        b[k - 1], b[k] = b[k], b[k - 1]
        lam[k - 1], lam[k] = lam[k][: k - 1], lam[k - 1] + [lk]
        dk = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
        for row in lam[k + 1 :]:
            t = row[k]
            row[k] = (d[k + 1] * row[k - 1] - lk * t) // d[k]
            row[k - 1] = (dk * t + lk * row[k]) // d[k + 1]
        d[k] = dk
        k = max(k - 1, 1)
    return b


def _shrink_certificate(
    c: Sequence[int], kernel: list[list[int]], weights: Sequence[int]
) -> list[int]:
    """Size-reduce c modulo the kernel lattice, minimizing sum |c_j|*w_j (the
    letter count of the assembled word).  The cost is convex piecewise-linear
    along each kernel direction, so the per-direction optimum is a weighted
    median, reachable in one jump however far away; coordinate descent over
    the directions then settles in a handful of sweeps."""

    def cost(v: Sequence[int]) -> int:
        return sum(abs(x) * w for x, w in zip(v, weights))

    def best_step(cur: list[int], v: Sequence[int]) -> int:
        # t = x/y zeroes a coordinate at weight w*|y|; summing the weights in
        # order of floor(x/y) reaches half at the weighted median's floor
        pts = sorted((x // y, w * abs(y)) for x, y, w in zip(cur, v, weights) if y)
        if not pts:
            return 0
        total = sum(w for _, w in pts)
        acc = 0
        for lo, w in pts:
            acc += w
            if 2 * acc >= total:
                break
        return min(
            (lo, lo + 1),
            key=lambda t: cost([x - t * y for x, y in zip(cur, v)]),
        )

    # Babai nearest-plane first: brings the solver's arbitrary representative
    # within basis-sized distance of the origin in one pass, whatever its
    # magnitude; the weighted descent then polishes for letter count.
    # Subtracting q*b_i changes cur's coefficients on b_i* and below only
    cur = list(c)
    d, lam = _integral_gram_schmidt(kernel + [cur])
    lc = lam.pop()
    for i in reversed(range(len(kernel))):
        q = _round_div(lc[i], d[i + 1])
        if q:
            cur = [x - q * y for x, y in zip(cur, kernel[i])]
            lc[:i] = [x - q * y for x, y in zip(lc, lam[i])]

    for _sweep in range(100):
        moved = False
        for v in kernel:
            t = best_step(cur, v)
            if t:
                cand = [x - t * y for x, y in zip(cur, v)]
                if cost(cand) < cost(cur):
                    cur = cand
                    moved = True
        if not moved:
            break
    return cur


def uce(g: Presentation, budget: Budget | None = None) -> UceResult:
    """Present the universal central extension of a perfect group on the same
    generators: relators {[a, r]} make R central, {w_a} force perfection.
    One Smith normal form of the exponent matrix gives every w_a and the
    relation kernel they are shortened against: the kernel is LLL-reduced,
    and each w_a's exponents are brought near the origin by Babai's nearest
    plane, then polished for letter count; all of it in integers, on the
    integral Gram-Schmidt data of Cohen's LLL.  The group is perfect exactly
    when every unit vector lies in the relation lattice, so the same SNF
    decides that.  The budget's deadline is checked at every pivot of that
    SNF, after the commutators, after the kernel's reduction and after each
    generator's certificate."""
    budget = budget or Budget.start()
    rank = len(g.alphabet)
    units = [[int(i == j) for j in range(rank)] for i in range(rank)]
    solutions, kernel = lattice_solve(units, exponent_matrix(g), budget)
    if None in solutions:
        raise ConstructionError(
            "universal central extension needs a perfect group; "
            f"abelianization is {abelianization(g, budget)}"
        )

    commutators = [_commutator_relator(rank, ai, r) for ai in range(rank) for r in g.relators]
    budget.check()

    # the SNF's kernel rows are a basis, not a short one: the certificates
    # are shortened against an LLL-reduced basis
    kernel = _lll(kernel)
    budget.check()
    weights = [len(r) for r in g.relators]
    expressions: list[Word] = []
    witnesses: list[tuple[int, ...]] = []
    for c in solutions:
        c = _shrink_certificate(c, kernel, weights)
        parts: list[Sequence[int]] = []
        for cj, r in zip(c, g.relators):
            parts += [r.letters if cj > 0 else _inverse(r.letters)] * abs(cj)
        # ab(w) = ab(a) != 0, so w cannot freely reduce away
        expressions.append(Word(g.alphabet, _reduced_product(parts), _reduced=True))
        witnesses.append(tuple(c))
        budget.check()

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PresentationWarning)
        tilde = Presentation(g.alphabet, commutators + expressions)
    assert len(tilde.relators) == len(g.alphabet) * (1 + len(g.relators))
    return UceResult(
        source=g,
        tilde=tilde,
        witnesses=tuple(witnesses),
    )


# ---------------------------------------------------------------------------
# fibre products over a common quotient


def fibre_generators(
    g: Presentation, q_relators: Sequence[Word]
) -> tuple[tuple[Word, Word], ...]:
    """Generating pairs of the fibre product G x_Q G, where Q is presented by
    adjoining q_relators to g: the diagonal on every generator together with
    (w, 1) for each normal generator of the kernel."""
    for w in q_relators:
        if w.alphabet != g.alphabet:
            raise ConstructionError(
                f"kernel word {w.text()!r} is not over the group's alphabet"
            )
    one = Word.identity(g.alphabet)
    pairs = [(g.gen(name), g.gen(name)) for name in g.alphabet.names]
    pairs += [(w, one) for w in q_relators]
    return tuple(pairs)


# ---------------------------------------------------------------------------
# finite-quotient evidence


_VERDICT_OK = "criterion satisfied at tested scale"
_VERDICT_FAIL = "criterion fails"
_VERDICT_OPEN = "inconclusive: time limit reached"
_H2_UNKNOWN = "not computed (group not certified finite within budget)"


@dataclass(frozen=True)
class GrothendieckEvidence:
    """What the finite-quotient criteria could see of Q within budget: H_1,
    a low-index subgroup fingerprint, and H_2 when Q certifies finite."""

    h1: AbelianInvariants
    subgroups: Fingerprint
    h2: AbelianInvariants | None
    h2_status: str
    verdict: str

    def to_json(self) -> dict:
        return {
            "h1": self.h1.to_json(),
            "subgroups": self.subgroups.to_json(),
            "h2": self.h2.to_json() if self.h2 is not None else None,
            "h2_status": self.h2_status,
            "verdict": self.verdict,
        }


def grothendieck_evidence(
    q: Presentation, index_bound: int, budget: Budget | None = None
) -> GrothendieckEvidence:
    """Test the profinite-triviality criteria at a bounded scale: trivial H_1,
    no proper subgroups of index <= index_bound, trivial H_2 where computable.
    Exhaustion of any single item is recorded, never fatal; but when the
    deadline cut an item short and nothing seen fails, it is no pass."""
    budget = budget or Budget.start()
    # H_1 is decided even with no time left, so that a run cut short still
    # fails on a nontrivial H_1: its SNF alone runs outside the deadline
    h1 = abelianization(q, replace(budget, deadline=math.inf))
    fp = low_index(q, index_bound, budget)
    try:
        h2: AbelianInvariants | None = schur_multiplier(q, budget).h2
        h2_status = str(h2)
    except BudgetExhausted:
        h2 = None
        h2_status = _H2_UNKNOWN
    timed_out = not fp.complete or (h2 is None and time.monotonic() >= budget.deadline)
    proper = any(fp.totals.get(k, 0) for k in range(2, index_bound + 1))
    fails = not h1.is_trivial or proper or (h2 is not None and not h2.is_trivial)
    verdict = _VERDICT_FAIL if fails else _VERDICT_OPEN if timed_out else _VERDICT_OK
    return GrothendieckEvidence(
        h1=h1,
        subgroups=fp,
        h2=h2,
        h2_status=h2_status,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# the full pipeline


@dataclass(frozen=True)
class PipelineResult:
    rips_stage: RipsResult
    tilde: Presentation  # Gtilde; the extension is Gtilde x Gtilde
    p_generators: tuple[tuple[Word, Word], ...]  # over Gtilde's alphabet
    counts: dict
    evidence: GrothendieckEvidence

    def to_json(self) -> dict:
        return {
            "counts": dict(self.counts),
            "rips": {
                "m": self.rips_stage.m,
                "de_bruijn_order": self.rips_stage.de_bruijn_order,
                "relator_count": len(self.rips_stage.gamma.relators),
                "metric_verdict": self.rips_stage.metric.verdict,
            },
            "p_generators": [
                [u.text() or "1", v.text() or "1"] for u, v in self.p_generators
            ],
            "evidence": self.evidence.to_json(),
        }


# the subgroup index bound of pipeline's evidence report
_EVIDENCE_INDEX = 3


def pipeline(q: Presentation, m: int, *, budget: Budget | None = None) -> PipelineResult:
    """rips (zero-exponent) -> uce -> direct square, with the fibre-product
    generating pairs {(x,x)} u {(a_1,1), (a_2,1)} u {(r,1) : r in R}.

    The result carries Gtilde; the square Gtilde x Gtilde is built only by a
    caller that writes it (direct_product).  Generator and relator counts of
    the extension depend only on (|X|, |R|):
    2(|X|+2) generators and (|X|+2)^2 + 2(|X|+2)(1+|R|+4|X|) relators.
    """
    budget = budget or Budget.start()
    h1 = abelianization(q, budget)
    if not h1.is_trivial:
        raise ConstructionError(f"pipeline input must be perfect; abelianization is {h1}")
    rr = rips(q, m, zero_exponent=True, budget=budget)
    ur = uce(rr.gamma, budget)

    galph = rr.gamma.alphabet
    one = Word.identity(galph)
    p_gens = [(galph.gen(name), galph.gen(name)) for name in q.alphabet.names]
    p_gens += [(w, one) for w in rr.normal_gens]
    # X occupies the leading indices of gamma's alphabet, so the letters of a
    # q-relator are valid as-is
    p_gens += [(Word(galph, r.letters, _reduced=True), one) for r in q.relators]

    # direct_product keeps every relator of both factors and adds one
    # commutator per pair of generators
    nx, nr = len(ur.tilde.alphabet), len(ur.tilde.relators)
    counts = {
        "extension_generators": 2 * nx,
        "extension_relators": 2 * nr + nx * nx,
        "p_generators": len(p_gens),
    }

    # the evidence is a side report: narrow it to at most 10 s and 20k cosets
    deadline = min(budget.deadline, time.monotonic() + 10.0)
    sub_budget = replace(budget, deadline=deadline, max_cosets=min(budget.max_cosets, 20_000))
    evidence = grothendieck_evidence(q, _EVIDENCE_INDEX, sub_budget)
    budget.check()  # the evidence keeps its own exhaustion; an overrun run is exhausted

    return PipelineResult(
        rips_stage=rr,
        tilde=ur.tilde,
        p_generators=tuple(p_gens),
        counts=counts,
        evidence=evidence,
    )
