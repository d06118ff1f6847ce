"""Finite permutation quotients: homomorphism search and fibre products.

Permutations are tuples of 0-based images and compose LEFT TO RIGHT:
(p * q)[i] = q[p[i]], i.e. p acts first.  This matches the right action of
a group on its cosets, so coset tables hand their generator permutations to
this module unchanged.  The convention is locked by a regression test.

A PermGroup numbers its elements in closure order: the identity is 0, and
each other element is first reached, breadth first, as a parent times a
generator g.  The closure also yields right_g, right multiplication by g on
those indices, and raises BudgetExhausted past the run budget's element cap;
every target this library cares about is at most SL(2,5) x SL(2,5) sized,
so there is no Schreier-Sims machinery here on purpose.  The multiplication
table is one gather per element, mul[:, j] = right_g[mul[:, parent[j]]],
with no sort and no search; only hom_search builds it, and its n^2 entries
also count against the element cap.  The graph of a quotient map, a fibre product and the
subgroup that pairs generate are closures on pairs of such indices.

The homomorphism search does not compose tuples: it extends blocks of
partial assignments by gathers from the table, a block's index columns
read through cosets._compiled like HLT's, and it keeps one row per class
of assignments under conjugation by the target.  Each row carries its
stabilizer as an n-wide bool mask and its class size as its weight, and
every count is a sum of weights.  A found homomorphism is its tuple of
images; GroupHom, which checks relators on tuples, is for maps callers give.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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


class _Closure(NamedTuple):
    """The elements of a group acting on points, numbered in closure order.

    Element 0 is the identity; element j > 0 was first reached, breadth
    first, as parent[j] * generator via[j].  Element i is stored as perms[i],
    its images of the start points (all points for a PermGroup), and
    right[g, i] is the index of element i * generator g."""

    perms: np.ndarray
    parent: np.ndarray
    via: np.ndarray
    right: np.ndarray
    layers: list[int]  # breadth-first layer i is elements layers[i]:layers[i+1]


def _close(start: np.ndarray, tables: np.ndarray, budget: Budget) -> _Closure:
    """The closure of the start points under the point maps tables[g], one
    row per generator; (x * g)[i] = g[x[i]], as for permutations.

    The identity, the generators and their inverses are given; a closure
    that must go past them raises BudgetExhausted beyond the element cap."""
    ngens, npoints = tables.shape
    dtype = np.min_scalar_type(max(npoints - 1, 0))
    tables = tables.astype(dtype)
    start = np.asarray(start, dtype=dtype)
    inverses = np.argsort(tables, axis=1).astype(dtype)
    given = {row.tobytes() for row in (start, *tables[:, start], *inverses[:, start])}
    limit = max(budget.max_elements, len(given))
    width = start.nbytes
    index = {start.tobytes(): 0}
    rows, parent, via, right, layers = [start[None]], [0], [0], [], [0, 1]
    frontier = start[None]
    while len(frontier):
        first = layers[-2]
        # products[a * ngens + g] = frontier[a] * tables[g]
        products = tables[:, frontier].transpose(1, 0, 2)
        products = products.reshape(len(frontier) * ngens, len(start))
        raw = products.tobytes()
        new = []
        for r in range(len(products)):
            key = raw[r * width : (r + 1) * width]
            j = index.get(key)
            if j is None:
                j = index[key] = len(index)
                if j >= limit:
                    raise BudgetExhausted(f"element cap {budget.max_elements} exceeded")
                new.append(r)
                parent.append(first + r // ngens)
                via.append(r % ngens)
            right.append(j)
        frontier = products[new]
        rows.append(frontier)
        layers.append(len(index))
    return _Closure(
        np.concatenate(rows),
        np.array(parent, dtype=np.intp),
        np.array(via, dtype=np.intp),
        np.array(right, dtype=np.intp).reshape(len(index), ngens).T,
        layers,
    )


class PermGroup:
    """A permutation group given by generators, with its cached closure."""

    __slots__ = ("degree", "generators", "name", "_closure")

    def __init__(self, degree: int, generators: list[Perm], name: str = ""):
        for g in generators:
            if sorted(g) != list(range(degree)):
                raise PermError("generator is not a permutation of the degree")
        self.degree = degree
        self.generators = [tuple(g) for g in generators]
        self.name = name
        self._closure: _Closure | None = None

    def closure(self, budget: Budget | None = None) -> _Closure:
        if self._closure is None:
            tables = np.array(self.generators, dtype=np.intp)
            tables = tables.reshape(len(self.generators), self.degree)
            self._closure = _close(np.arange(self.degree), tables, budget or Budget.start())
        return self._closure

    def elements(self, budget: Budget | None = None) -> tuple[Perm, ...]:
        """The elements in closure order; the identity is first."""
        return tuple(map(tuple, self.closure(budget).perms.tolist()))

    def order(self, budget: Budget | None = None) -> int:
        return len(self.closure(budget).perms)

    def __repr__(self) -> str:
        label = self.name or f"degree-{self.degree} group"
        return f"<{label} with {len(self.generators)} generators>"


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
    """The homomorphisms found, one per class under conjugation by the
    target; every count is a sum of class sizes."""

    homs: tuple[tuple[Perm, ...], ...]  # per class its least images, in alphabet order
    weights: tuple[int, ...]  # per class its size |G| / |C_G(images)|
    epi_flags: tuple[bool, ...]
    complete: bool
    nodes: int  # partial assignments that passed every check, the empty one included

    @property
    def hom_count(self) -> int:
        return sum(self.weights)

    @property
    def nontrivial_count(self) -> int:
        return sum(
            w for h, w in zip(self.homs, self.weights) if any(g != tuple(range(len(g))) for g in h)
        )

    @property
    def epi_count(self) -> int:
        return sum(w for w, epi in zip(self.weights, self.epi_flags) if epi)


# Rows of an expanded block, so that the search's peak memory does not grow
# with the input; a block whose parents have more than this many children
# between them is expanded a slice of parents at a time.
_BLOCK_ROWS = 1 << 12


def _multiplication_table(closure: _Closure, budget: Budget):
    """mul[i, j] is the index of element i * element j and inv[i] that of
    element i^-1, in closure order (the identity is 0).  Column j is one
    gather of its parent's column through right multiplication by its
    generator, a breadth-first layer at a time.

    The table's n^2 entries count against the element cap."""
    n = len(closure.perms)
    if n * n > budget.max_elements:
        raise BudgetExhausted(
            f"element cap {budget.max_elements} exceeded by the {n} x {n} "
            "multiplication table"
        )
    columns = np.empty((n, n), dtype=np.intp)  # columns[j] = mul[:, j]
    columns[0] = np.arange(n)
    layers = closure.layers
    for lo, hi in zip(layers[1:], layers[2:]):
        columns[lo:hi] = closure.right[closure.via[lo:hi, None], columns[closure.parent[lo:hi]]]
    mul = np.ascontiguousarray(columns.T)
    return mul, np.argmin(mul, axis=1)  # the one j with i * j = 1


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
    """All homomorphisms from the presented group to the target, one per
    class under simultaneous conjugation by the target, with each class's
    size and whether it is a class of epimorphisms.

    The search runs on the element indices of the target's closure order.
    It assigns generator images in order: a row is a partial assignment, and
    a block of rows is extended by one generator at a time, depth first.  A
    block is a list of index columns, 2i generator i's images and 2i+1 their
    inverses as in CosetTable, so a word's value on every row is `for a in
    cosets._compiled(cols, w): acc = mul[acc, a]`, the walk HLT makes.
    Each relator is checked at its highest generator.  Where that generator
    occurs in it exactly once, the first such relator instead forces its
    image to the value of a word, so the block gains one column, not rows.

    Conjugating an assignment conjugates every relator's value and every
    forced image, so the rows that pass are unions of classes, and a row
    stands for its class.  Each row carries its stabilizer C = C_G(g_1, ...,
    g_k) as an n-wide bool mask and its weight, the class size |G| / |C|.
    An unforced level extends a row only by the x that are least in their
    orbit under conjugation by C, worked out once per distinct stabilizer in
    the search, and the child's stabilizer is C & C_G(x); a forced image is
    a word in the row's images, so C centralizes it already.  So the classes
    come in lexicographic order of their least index tuples, and `nodes`,
    the sum of the weights of the rows that passed every check from the
    empty one on, counts the partial assignments that did.  The deadline is
    read once per block; a run it cuts short has counted whole classes.
    """
    budget = budget or Budget.start()
    closure = target.closure(budget)
    mul, inv = _multiplication_table(closure, budget)
    n = len(mul)
    commute = mul == mul.T  # row x is the mask of C_G(x)
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

    def orbits(stabilizer: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The least element of each orbit of the stabilizer on the target
        under conjugation, and the orbit's size."""
        c = np.flatnonzero(stabilizer)
        least = mul[mul[inv[c]], c[:, None]].min(axis=0)  # over c of c^-1 x c
        reps = np.flatnonzero(least == np.arange(n))
        return reps, np.bincount(least, minlength=n)[reps]

    orbits_of: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}  # by packed stabilizer mask
    found: list[tuple[Perm, ...]] = []
    weights: list[int] = []
    flags: list[bool] = []
    nodes = 1
    complete = True
    # a block: its index columns (its level is half their number), each
    # row's stabilizer mask and each row's weight; the empty block has one row
    stack = [([], np.ones((1, n), dtype=bool), np.ones(1, dtype=np.int64))]
    try:
        while stack:
            budget.check("homomorphism search")
            cols, masks, weight = stack.pop()
            level = len(cols) // 2
            if level == ngens:
                flags.extend(_generates_all(cols, len(weight), mul))
                weights.extend(weight.tolist())
                images = [list(map(tuple, closure.perms[c].tolist())) for c in cols[::2]]
                found.extend(zip(*images) if images else [()])
                continue
            if forcing[level] is not None:
                column = value(forcing[level], cols, len(weight))
                row, gain = np.arange(len(weight)), np.ones(len(weight), dtype=np.int64)
            else:
                packed = np.packbits(masks, axis=1)
                raw, width = packed.tobytes(), packed.shape[1]
                per: list[tuple[np.ndarray, np.ndarray]] = []
                children = 0
                for i in range(len(weight)):
                    key = raw[i * width : (i + 1) * width]
                    if key not in orbits_of:
                        orbits_of[key] = orbits(masks[i])
                    reps, _ = orbits_of[key]
                    if per and children + len(reps) > _BLOCK_ROWS:
                        stack.append(([c[i:] for c in cols], masks[i:], weight[i:]))
                        break
                    per.append(orbits_of[key])
                    children += len(reps)
                row = np.repeat(np.arange(len(per)), [len(reps) for reps, _ in per])
                column = np.concatenate([reps for reps, _ in per])
                gain = np.concatenate([counts for _, counts in per])
                cols = [c[row] for c in cols]
            cols = cols + [column, inv[column]]
            if checks[level]:
                keep = np.ones(len(column), dtype=bool)
                for r in checks[level]:
                    keep &= value(r, cols, len(column)) == 0
                cols = [c[keep] for c in cols]
                row, gain = row[keep], gain[keep]
            # on a forced level this leaves each mask as it was
            masks = masks[row] & commute[cols[-2]]
            weight = weight[row] * gain
            nodes += int(weight.sum())
            if len(weight):
                stack.append((cols, masks, weight))
    except BudgetExhausted:
        complete = False
    return HomSearchResult(tuple(found), tuple(weights), tuple(flags), complete, nodes)


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
    given on generators.  Elements are pairs of the factor's element indices
    in its closure order."""

    source: Presentation
    factor: PermGroup
    elements: frozenset[tuple[int, int]]
    kernel_size: int


def _pairs(right_u: np.ndarray, right_v: np.ndarray, budget: Budget) -> np.ndarray:
    """The group generated by the pairs (u_i, v_i) as index pairs, one row
    per element in closure order, where right_u[i] and right_v[i] are right
    multiplication by u_i and by v_i on the element indices of two closures."""
    n = right_u.shape[1]
    closure = _close(np.array([0, n]), np.hstack([right_u, n + right_v]), budget)
    return closure.perms.astype(np.intp) - [0, n]


def fibre_product_finite(
    h: GroupHom, ambient: PermGroup, budget: Budget | None = None
) -> FiniteFibreProduct:
    """Brute-force fibre product of two copies of G over Q.

    `ambient` realizes the source group as a permutation group G (one
    generator per source generator, in order); `h` sends the same generators
    onto Q.  The induced map G -> Q must be well defined, which is checked by
    closing the generator graph {(g_i, eta(g_i))} on index pairs over the
    closures of G and of Q, and counting.
    """
    if len(ambient.generators) != len(h.source.generators):
        raise PermError("ambient generators must match the source generators")
    budget = budget or Budget.start()
    factor = ambient.closure(budget)
    order_G = len(factor.perms)
    image = PermGroup(h.degree, h.images).closure(budget)
    graph = _pairs(factor.right, image.right, budget)
    if order_G * order_G > budget.max_elements:
        raise BudgetExhausted(
            f"|G|^2 = {order_G ** 2} exceeds the element cap {budget.max_elements}"
        )
    if len(graph) != order_G:
        raise PermError(
            "generator images do not induce a map on the ambient group "
            f"(graph has {len(graph)} elements, |G| = {order_G})"
        )
    fibres: dict[int, list[int]] = {}  # G's indices by their image's index
    for g, q in graph.tolist():
        fibres.setdefault(q, []).append(g)
    elements = frozenset((x, y) for fibre in fibres.values() for x in fibre for y in fibre)
    kernel_size = len(fibres[0])
    assert len(elements) == kernel_size * order_G  # |P| = |ker|·|G|
    return FiniteFibreProduct(h.source, ambient, elements, kernel_size)


def check_generation(
    ffp: FiniteFibreProduct,
    pair_words: list[tuple[Word, Word]],
    budget: Budget | None = None,
) -> bool:
    """Do the given pairs of words generate the whole fibre product?

    Each word is evaluated as right multiplication on the factor's element
    indices, a gather per letter through the closure's generator columns;
    the closure of the evaluated pairs on index pairs is compared in size
    with the stored element set, which contains it."""
    budget = budget or Budget.start()
    factor = ffp.factor.closure(budget)
    n = len(factor.perms)
    back = np.argsort(factor.right, axis=1)  # right multiplication by g^-1

    def right_by(w: Word) -> np.ndarray:
        if w.alphabet != ffp.source.alphabet:
            raise WordError("pair word over a foreign alphabet")
        acc = np.arange(n)
        for l in w.letters:
            acc = (factor.right[l - 1] if l > 0 else back[-l - 1])[acc]
        return acc

    right_u = np.empty((len(pair_words), n), dtype=np.intp)
    right_v = np.empty((len(pair_words), n), dtype=np.intp)
    for i, (u, v) in enumerate(pair_words):
        right_u[i], right_v[i] = right_by(u), right_by(v)
        if (int(right_u[i, 0]), int(right_v[i, 0])) not in ffp.elements:
            raise PermError("a proposed generator lies outside the fibre product")
    return len(_pairs(right_u, right_v, budget)) == len(ffp.elements)


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
