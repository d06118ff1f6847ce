"""Finite permutation quotients: homomorphism search and fibre products.

Permutations are tuples of 0-based images and compose LEFT TO RIGHT:
(p * q)[i] = q[p[i]], i.e. p acts first.  This matches the right action of
a group on its cosets, so coset tables hand their generator permutations to
this module unchanged.  The convention is locked by a regression test.

Element enumeration is naive closure under the run budget's element cap,
raising BudgetExhausted when it runs out; every target this library
cares about is at most SL(2,5) x SL(2,5) sized, so there is no Schreier-Sims
machinery here on purpose.

The homomorphism search does not compose tuples: it sorts the target's
elements, builds their multiplication table with numpy (n^2 entries, which
also count against the element cap), and extends blocks of partial
assignments by gathers from that table; a block's index columns are read
through cosets._compiled, like HLT's.  A found homomorphism is its tuple of
images; GroupHom, which checks relators on tuples, is for maps callers give.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .budget import Budget, BudgetExhausted
from .cosets import _compiled
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


def evaluate_word(w: Word, images: list[Perm], degree: int) -> Perm:
    """Image of a free word under generator images aligned with the word's
    alphabet."""
    inverses = [invert(g) for g in images]
    acc = identity_perm(degree)
    for l in w.letters:
        acc = compose(acc, images[l - 1] if l > 0 else inverses[-l - 1])
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
    homs: tuple[tuple[Perm, ...], ...]  # per hom its images, in alphabet order
    epi_flags: tuple[bool, ...]
    complete: bool
    nodes: int  # partial assignments that passed every check, the empty one included

    @property
    def epi_count(self) -> int:
        return sum(self.epi_flags)


# Rows of an expanded block, so that the search's peak memory does not grow
# with the input; a block whose parents have more than this many children
# between them is expanded a slice of parents at a time.
_BLOCK_ROWS = 1 << 12


def _multiplication_table(elems: list[Perm], degree: int, budget: Budget):
    """mul[i, j] is the index of elems[i] * elems[j] and inv[i] that of
    elems[i]^-1, for elements sorted lexicographically (the identity is 0).

    The table's n^2 entries count against the element cap."""
    n = len(elems)
    if n * n > budget.max_elements:
        raise BudgetExhausted(
            f"element cap {budget.max_elements} exceeded by the {n} x {n} "
            "multiplication table"
        )
    if n == 1:  # the trivial group, possibly on no points at all
        return np.zeros((1, 1), dtype=np.intp), np.zeros(1, dtype=np.intp)
    # a permutation's key is the bytes of its image row, so degrees whose
    # base-degree codes would overflow int64 (SL(2,5) on 24 points) need no
    # special case; the keys sort in byte order, mapped back through `order`
    perms = np.array(elems, dtype=np.intp)
    key = np.dtype((np.void, perms.itemsize * degree))
    keys = perms.view(key).ravel()
    order = np.argsort(keys)
    sorted_keys = keys[order]
    mul = np.empty((n, n), dtype=np.intp)
    for i, p in enumerate(elems):
        # (p * q)[k] = q[p[k]], for every q at once
        products = np.ascontiguousarray(perms[:, p]).view(key).ravel()
        mul[i] = order[np.searchsorted(sorted_keys, products)]
    inv = np.argmin(mul, axis=1)  # the one j with elems[i] * elems[j] = 1
    return mul, inv


def _generates_all(cols: list[np.ndarray], size: int, mul: np.ndarray) -> list[bool]:
    """Does each row of a complete block generate the whole group?  A
    breadth-first closure of the identity under right multiplication by the
    row's images, for all rows at once: y joins when y * g^-1 is in, g^-1
    read off the inverse columns.  A row drops out once a round adds nothing."""
    seen = np.zeros((size, len(mul)), dtype=bool)
    seen[:, 0] = True
    active = np.arange(size)
    while len(active):
        part = seen[active]
        before = part.sum(axis=1)
        at = np.arange(len(active))[:, None]
        for col in cols[1::2]:
            part |= part[at, mul[:, col[active]].T]
        seen[active] = part
        active = active[part.sum(axis=1) > before]
    return seen.all(axis=1).tolist()


def hom_search(
    p: Presentation, target: PermGroup, budget: Budget | None = None
) -> HomSearchResult:
    """All homomorphisms from the presented group to the target, in
    deterministic (lexicographic image tuple) order, each flagged as an
    epimorphism or not.

    The search runs on element indices of the target's multiplication table.
    It assigns generator images in order: a row is a partial assignment, and
    a block of rows is extended by one generator at a time, depth first.  A
    block is a list of index columns, 2i generator i's images and 2i+1 their
    inverses as in CosetTable, so a word's value on every row is `for a in
    cosets._compiled(cols, w): acc = mul[acc, a]`, the walk HLT makes.
    Each relator is checked at its highest generator.  Where that generator
    occurs in it exactly once, the first such relator instead forces its
    image to the value of a word, so the block gains one column, not one row
    per element.  The deadline is read once per block.  `nodes` counts the
    partial assignments that passed every check, from the empty one on.
    """
    budget = budget or Budget.start()
    degree = target.degree
    elems = sorted(target.elements(budget))
    n = len(elems)
    mul, inv = _multiplication_table(elems, degree, budget)
    ngens = len(p.generators)

    # each relator filed under its highest generator x, except the first one
    # with x once, pre x^s post: it holds where x^-s is the value of post pre
    checks: list[list[Word]] = [[] for _ in range(ngens)]
    forcing: list[Word | None] = [None] * ngens
    for r in p.relators:
        ls = r.letters
        top = max(map(abs, ls))
        hits = [i for i, l in enumerate(ls) if abs(l) == top]
        if len(hits) == 1 and forcing[top - 1] is None:
            (i,) = hits
            w = Word._trusted(p.alphabet, ls[i + 1 :] + ls[:i])
            forcing[top - 1] = w.inverse() if ls[i] > 0 else w
        else:
            checks[top - 1].append(r)

    def value(word: Word, cols: list[np.ndarray], size: int) -> np.ndarray:
        acc = np.zeros(size, dtype=np.intp)
        for a in _compiled(cols, word):
            acc = mul[acc, a]
        return acc

    found: list[tuple[Perm, ...]] = []
    flags: list[bool] = []
    nodes = 1
    complete = True
    stack: list[list[np.ndarray]] = [[]]  # a block's level is half its width
    try:
        while stack:
            budget.check("homomorphism search")
            cols = stack.pop()
            level = len(cols) // 2
            size = len(cols[0]) if cols else 1  # the empty block has one row
            if level == ngens:
                flags.extend(_generates_all(cols, size, mul))
                images = [list(map(elems.__getitem__, c.tolist())) for c in cols[::2]]
                found.extend(zip(*images) if images else [()])
                continue
            if forcing[level] is not None:
                column = value(forcing[level], cols, size)
            else:
                parents = max(1, _BLOCK_ROWS // n)
                if size > parents:
                    stack.append([c[parents:] for c in cols])
                    cols = [c[:parents] for c in cols]
                    size = parents
                column = np.tile(np.arange(n), size)
                cols = [np.repeat(c, n) for c in cols]
            cols = cols + [column, inv[column]]
            if checks[level]:
                keep = np.ones(len(column), dtype=bool)
                for r in checks[level]:
                    keep &= value(r, cols, len(column)) == 0
                cols = [c[keep] for c in cols]
            nodes += len(cols[-1])
            if len(cols[-1]):
                stack.append(cols)
    except BudgetExhausted:
        complete = False
    return HomSearchResult(tuple(found), tuple(flags), complete, nodes)


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
    if n < 2:
        return PermGroup(n, [], name=f"S{n}")
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
