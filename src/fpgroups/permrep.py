"""Finite permutation quotients: homomorphism search and fibre products.

Permutations are tuples of 0-based images and compose LEFT TO RIGHT:
(p * q)[i] = q[p[i]], i.e. p acts first.  This matches the right action of
a group on its cosets, so coset tables hand their generator permutations to
this module unchanged.  The convention is locked by a regression test.

Element enumeration is naive closure under the run budget's element cap,
raising BudgetExhausted when it runs out; every target this library
cares about is at most SL(2,5) x SL(2,5) sized, so there is no Schreier-Sims
machinery here on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass

from .budget import Budget, BudgetExhausted
from .presentations import Presentation, direct_product
from .words import Word, WordError

Perm = tuple[int, ...]


class PermError(ValueError):
    pass


def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def compose(p: Perm, q: Perm) -> Perm:
    """p then q (left-to-right)."""
    return tuple(q[i] for i in p)


def invert(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def perm_from_cycles(degree: int, cycles: list[tuple[int, ...]]) -> Perm:
    """Build a permutation from disjoint cycles in 1-based point labels."""
    img = list(range(degree))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            if not (1 <= a <= degree and 1 <= b <= degree):
                raise PermError(f"point out of range in cycle {cyc}")
            img[a - 1] = b - 1
    p = tuple(img)
    if sorted(p) != list(range(degree)):
        raise PermError("cycles are not disjoint")
    return p


def cycle_notation(p: Perm) -> str:
    seen = [False] * len(p)
    parts = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        parts.append("(" + " ".join(str(x + 1) for x in cyc) + ")")
    return "".join(parts) if parts else "()"


def evaluate_word(w: Word, images: dict[str, Perm] | list[Perm], degree: int) -> Perm:
    """Image of a free word under generator images (list aligned with the
    word's alphabet, or a name-keyed mapping)."""
    if isinstance(images, dict):
        imgs = [images[name] for name in w.alphabet.names]
    else:
        imgs = list(images)
    acc = identity_perm(degree)
    for l in w.letters:
        g = imgs[abs(l) - 1]
        acc = compose(acc, g if l > 0 else invert(g))
    return acc


class PermGroup:
    """A permutation group given by generators, with cached naive closure."""

    __slots__ = ("degree", "generators", "name", "_elements")

    def __init__(self, degree: int, generators: list[Perm], name: str = ""):
        for g in generators:
            if sorted(g) != list(range(degree)):
                raise PermError("generator is not a permutation of the degree")
        self.degree = degree
        self.generators = [tuple(g) for g in generators]
        self.name = name
        self._elements: frozenset[Perm] | None = None

    def elements(self, budget: Budget | None = None) -> frozenset[Perm]:
        if self._elements is None:
            self._elements = close_under_products(
                [identity_perm(self.degree)] + self.generators, compose, invert, budget
            )
        return self._elements

    def order(self, budget: Budget | None = None) -> int:
        return len(self.elements(budget))

    def __repr__(self) -> str:
        label = self.name or f"degree-{self.degree} group"
        return f"<{label} with {len(self.generators)} generators>"


def close_under_products(seed, mul, inv, budget: Budget | None = None):
    """Closure of the seed under the binary operation and inverses."""
    cap = (budget or Budget.start()).max_elements
    elems = set(seed)
    for x in list(elems):
        elems.add(inv(x))
    frontier = list(elems)
    while frontier:
        nxt = []
        for x in frontier:
            for g in seed:
                for y in (mul(x, g), mul(g, x)):
                    if y not in elems:
                        elems.add(y)
                        nxt.append(y)
                        if len(elems) > cap:
                            raise BudgetExhausted(f"element cap {cap} exceeded")
        frontier = nxt
    return frozenset(elems)


class GroupHom:
    """A homomorphism from a presented group to a permutation group, given
    by generator images.  Relators are verified on construction."""

    __slots__ = ("source", "degree", "images")

    def __init__(self, source: Presentation, images: list[Perm], degree: int):
        if len(images) != len(source.generators):
            raise PermError("one image per generator, please")
        for g in images:
            if len(g) != degree:
                raise PermError("images must share the degree")
        self.source = source
        self.degree = degree
        self.images = [tuple(g) for g in images]
        for r in source.relators:
            img = evaluate_word(r, self.images, degree)
            if img != identity_perm(degree):
                raise PermError(f"relator {r.text()!r} does not die: {cycle_notation(img)}")


# ---------------------------------------------------------------------------
# homomorphism search


@dataclass(frozen=True)
class HomSearchResult:
    homs: tuple[GroupHom, ...]
    epi_flags: tuple[bool, ...]
    complete: bool

    @property
    def epi_count(self) -> int:
        return sum(self.epi_flags)


def _single_occurrence(letters: tuple[int, ...], gen: int):
    """If generator `gen` (1-based) occurs exactly once in the relator,
    return (prefix, sign, suffix); otherwise None."""
    hits = [i for i, l in enumerate(letters) if abs(l) == gen]
    if len(hits) != 1:
        return None
    i = hits[0]
    return letters[:i], (1 if letters[i] > 0 else -1), letters[i + 1 :]


def hom_search(
    p: Presentation, target: PermGroup, budget: Budget | None = None
) -> HomSearchResult:
    """All homomorphisms from the presented group to the target, in
    deterministic (lexicographic image tuple) order, each flagged as an
    epimorphism or not.

    The search assigns generator images in order, pruning with every relator
    that becomes fully evaluable, and deducing images outright from relators
    in which the next generator occurs exactly once.
    """
    budget = budget or Budget.start()
    degree = target.degree
    elems = sorted(target.elements(budget))
    elem_set = frozenset(elems)
    target_order = len(elems)
    idp = identity_perm(degree)
    ngens = len(p.generators)
    rel_support = [frozenset(abs(l) for l in r.letters) for r in p.relators]

    found: list[GroupHom] = []
    flags: list[bool] = []
    complete = True

    def finish(images: list[Perm]):
        h = GroupHom(p, images, degree)
        gen_set = close_under_products([idp] + list(images), compose, invert, budget)
        found.append(h)
        flags.append(len(gen_set) == target_order)

    def assign(images: dict[int, Perm], level: int):
        budget.check("homomorphism search")
        if level > ngens:
            finish([images[i] for i in range(1, ngens + 1)])
            return
        # deduction: a relator where `level` is the only unassigned generator
        # and occurs exactly once pins its image
        forced: Perm | None = None
        assigned = set(images)
        for ri, r in enumerate(p.relators):
            if level not in rel_support[ri]:
                continue
            if not (rel_support[ri] - assigned <= {level}):
                continue
            so = _single_occurrence(r.letters, level)
            if so is None:
                continue
            pre, sign, post = so
            acc = idp
            for l in pre:
                g = images[abs(l)]
                acc = compose(acc, g if l > 0 else invert(g))
            tail = idp
            for l in post:
                g = images[abs(l)]
                tail = compose(tail, g if l > 0 else invert(g))
            # pre * x^sign * post = 1  =>  x^sign = pre^-1 * post^-1
            val = compose(invert(acc), invert(tail))
            if sign < 0:
                val = invert(val)
            if forced is not None and forced != val:
                return
            forced = val
        candidates = [forced] if forced is not None else elems
        if forced is not None and forced not in elem_set:
            return
        for cand in candidates:
            images[level] = cand
            assigned_now = set(images)
            ok = True
            for ri, r in enumerate(p.relators):
                if level in rel_support[ri] and rel_support[ri] <= assigned_now:
                    acc = idp
                    for l in r.letters:
                        g = images[abs(l)]
                        acc = compose(acc, g if l > 0 else invert(g))
                    if acc != idp:
                        ok = False
                        break
            if ok:
                assign(images, level + 1)
            del images[level]

    try:
        assign({}, 1)
    except BudgetExhausted:
        complete = False
    return HomSearchResult(tuple(found), tuple(flags), complete)


@dataclass(frozen=True)
class EpiProductReport:
    """e1 = |Epi(H, Q)|, e2 = |Epi(H x H, Q)|; any epimorphism from H lifts
    through both projections, so e2 >= 2 e1 whenever e1 > 0 and Q != 1."""

    e1: int
    e2: int
    holds: bool | None  # None when vacuous (e1 = 0 or trivial target)
    complete: bool


def epi_count_product_check(
    p: Presentation, target: PermGroup, budget: Budget | None = None
) -> EpiProductReport:
    budget = budget or Budget.start()
    r1 = hom_search(p, target, budget)
    r2 = hom_search(direct_product(p, p), target, budget)
    e1, e2 = r1.epi_count, r2.epi_count
    complete = r1.complete and r2.complete
    if e1 == 0 or target.order(budget) == 1 or not complete:
        holds = None
    else:
        holds = e2 >= 2 * e1
    return EpiProductReport(e1, e2, holds, complete)


# ---------------------------------------------------------------------------
# finite fibre products


@dataclass(frozen=True)
class FiniteFibreProduct:
    """P = {(g, h) in G x G : eta(g) = eta(h)} for a finite permutation group
    G (the factor, realizing the source generators) and a quotient map eta
    given on generators.  Elements are stored as pairs of G-permutations."""

    source: Presentation
    factor: PermGroup
    elements: frozenset[tuple[Perm, Perm]]
    kernel_size: int


def _pair_mul(a, b):
    return (compose(a[0], b[0]), compose(a[1], b[1]))


def _pair_inv(a):
    return (invert(a[0]), invert(a[1]))


def fibre_product_finite(
    h: GroupHom, ambient: PermGroup, budget: Budget | None = None
) -> FiniteFibreProduct:
    """Brute-force fibre product of two copies of G over Q.

    `ambient` realizes the source group as a permutation group G (one
    generator per source generator, in order); `h` sends the same generators
    onto Q.  The induced map G -> Q must be well defined, which is checked by
    closing the generator graph {(g_i, eta(g_i))} and counting.
    """
    if len(ambient.generators) != len(h.source.generators):
        raise PermError("ambient generators must match the source generators")
    budget = budget or Budget.start()
    dG, dQ = ambient.degree, h.degree
    seed = [(identity_perm(dG), identity_perm(dQ))] + [
        (g, q) for g, q in zip(ambient.generators, h.images)
    ]
    graph_pairs = close_under_products(seed, _pair_mul, _pair_inv, budget)
    order_G = ambient.order(budget)
    if order_G * order_G > budget.max_elements:
        raise BudgetExhausted(
            f"|G|^2 = {order_G ** 2} exceeds the element cap {budget.max_elements}"
        )
    if len(graph_pairs) != order_G:
        raise PermError(
            "generator images do not induce a map on the ambient group "
            f"(graph has {len(graph_pairs)} elements, |G| = {order_G})"
        )
    graph = dict(graph_pairs)
    fibres: dict[Perm, list[Perm]] = {}
    for g, q in graph.items():
        fibres.setdefault(q, []).append(g)
    elements = frozenset(
        (x, y) for fibre in fibres.values() for x in fibre for y in fibre
    )
    kernel_size = len(fibres[identity_perm(dQ)])
    assert len(elements) == kernel_size * order_G  # |P| = |ker|·|G|
    return FiniteFibreProduct(h.source, ambient, elements, kernel_size)


def check_generation(
    ffp: FiniteFibreProduct,
    pair_words: list[tuple[Word, Word]],
    budget: Budget | None = None,
) -> bool:
    """Do the given pairs of words generate the whole fibre product?

    Each side is evaluated through the G-realization of the source
    generators; the closure of the evaluated pairs is compared with the
    stored element set."""
    d = ffp.factor.degree
    imgs = ffp.factor.generators

    def ev(w: Word) -> Perm:
        if w.alphabet != ffp.source.alphabet:
            raise WordError("pair word over a foreign alphabet")
        return evaluate_word(w, imgs, d)

    seed = [(identity_perm(d), identity_perm(d))]
    for u, v in pair_words:
        pair = (ev(u), ev(v))
        if pair not in ffp.elements:
            raise PermError("a proposed generator lies outside the fibre product")
        seed.append(pair)
    gen = close_under_products(seed, _pair_mul, _pair_inv, budget)
    return gen == ffp.elements


# ---------------------------------------------------------------------------
# a small atlas of targets


def cyclic_group(n: int) -> PermGroup:
    return PermGroup(n, [perm_from_cycles(n, [tuple(range(1, n + 1))])], name=f"C{n}")


def symmetric_group(n: int) -> PermGroup:
    gens = [perm_from_cycles(n, [(1, 2)])]
    if n > 2:
        gens.append(perm_from_cycles(n, [tuple(range(1, n + 1))]))
    return PermGroup(n, gens, name=f"S{n}")


def alternating_group(n: int) -> PermGroup:
    if n < 3:
        return PermGroup(n, [], name=f"A{n}")
    gens = [perm_from_cycles(n, [(1, 2, 3)])]
    if n > 3:
        cyc = tuple(range(1, n + 1)) if n % 2 == 1 else tuple(range(2, n + 1))
        gens.append(perm_from_cycles(n, [cyc]))
    return PermGroup(n, gens, name=f"A{n}")


def transitive_groups(degree: int) -> list[PermGroup]:
    """The transitive permutation groups of the given degree (2..5), up to
    permutation isomorphism, smallest first."""
    if degree == 2:
        return [cyclic_group(2)]
    if degree == 3:
        return [cyclic_group(3), symmetric_group(3)]
    if degree == 4:
        v4 = PermGroup(
            4,
            [perm_from_cycles(4, [(1, 2), (3, 4)]), perm_from_cycles(4, [(1, 3), (2, 4)])],
            name="V4",
        )
        d4 = PermGroup(
            4,
            [perm_from_cycles(4, [(1, 2, 3, 4)]), perm_from_cycles(4, [(1, 3)])],
            name="D4",
        )
        return [cyclic_group(4), v4, d4, alternating_group(4), symmetric_group(4)]
    if degree == 5:
        d5 = PermGroup(
            5,
            [perm_from_cycles(5, [(1, 2, 3, 4, 5)]), perm_from_cycles(5, [(2, 5), (3, 4)])],
            name="D5",
        )
        f20 = PermGroup(
            5,
            [perm_from_cycles(5, [(1, 2, 3, 4, 5)]), perm_from_cycles(5, [(2, 3, 5, 4)])],
            name="F20",
        )
        return [cyclic_group(5), d5, f20, alternating_group(5), symmetric_group(5)]
    raise PermError("transitive groups are catalogued for degrees 2..5 only")


def sl25() -> PermGroup:
    """SL(2,5) acting on the 24 nonzero vectors of F_5^2 (lex order)."""
    vecs = [(x, y) for x in range(5) for y in range(5) if (x, y) != (0, 0)]
    index = {v: i for i, v in enumerate(vecs)}

    def mat_perm(a, b, c, d):
        return tuple(
            index[((a * x + b * y) % 5, (c * x + d * y) % 5)] for x, y in vecs
        )

    s = mat_perm(0, -1, 1, 0)
    t = mat_perm(1, 1, 0, 1)
    return PermGroup(24, [s, t], name="SL(2,5)")


def sl25_to_a5() -> tuple[PermGroup, GroupHom]:
    """The binary icosahedral group and its central quotient: SL(2,5) on
    nonzero vectors, mapped onto its action on the projective line (six
    points, image isomorphic to A5)."""
    lines = [(1, 0)] + [(x, 1) for x in range(5)]
    index = {v: i for i, v in enumerate(lines)}

    def normalize(x, y):
        if y % 5 == 0:
            return (1, 0)
        inv = pow(y, 3, 5)  # y^-1 mod 5
        return ((x * inv) % 5, 1)

    def mat_perm(a, b, c, d):
        return tuple(
            index[normalize(a * x + b * y, c * x + d * y)] for x, y in lines
        )

    s = mat_perm(0, -1, 1, 0)
    t = mat_perm(1, 1, 0, 1)
    from .presentations import parse_presentation

    free2 = parse_presentation("< s, t | >")
    eta = GroupHom(free2, [s, t], 6)
    return sl25(), eta
