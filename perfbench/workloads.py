"""Seeded inputs, job lists and verdict checks for the three workloads.

Every input is made from the seed before the first timed job.  The fixture
presentations get fresh generator names of the same lengths, so the program
does the same work on differently spelled input, and the Dehn queries are
drawn afresh.  Each job's answer is checked against facts that do not come
from the code under test: the acceptance criteria, closed formulas, and a
second route where one is cheap (the written files are re-read by the small
text reader below, and H_1 is recomputed by the integer elimination below).
Checks never call into fpgroups, so a traced pass only records program work.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import re
import string
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from fpgroups import cancellation, cli, construct, presentations
from fpgroups.words import Word

# The fixture presentations of the test suite, plus PSL(2,7), A5 x PSL(2,7)
# and the (2,3,7) triangle group that criterion 9 feeds to the pipeline.
PRESENTATIONS = {
    "a5": "< a, b | a^2, b^3, a b a b a b a b a b >",
    "bp2": (
        "< a, b, alpha, beta | b a^-2 b^-1 a^3, beta alpha^-2 beta^-1 alpha^3, "
        "b a b^-1 a b a^-1 b^-1 a^-1 beta^-1, "
        "beta alpha beta^-1 alpha beta alpha^-1 beta^-1 alpha^-1 b^-1 >"
    ),
    "free2": "< x1, x2 | >",
    "klein": "< a, b | a^2, b^2, a b a^-1 b^-1 >",
    "z5": "< a | a^5 >",
    "psl27": "< a, b | a^2, b^3, (a b)^7, (a b a b^-1)^4 >",
    "a5xpsl27": (
        "< a, b, c, d | a^2, b^3, (a b)^5, c^2, d^3, (c d)^7, (c d c d^-1)^4, "
        "[a, c], [a, d], [b, c], [b, d] >"
    ),
    "baumslag25_1": "< a, t | a^25, t^-1 a t a^-6 >",
    "baumslag25_2": "< a, t | a^25, t^-1 a t a^-11 >",
    "t237": "< a, b | a^2, b^3, (a b)^7 >",
}

# (verb1, verb2, verb3) of each workload: the per-verb time-to-verdict
# metrics verb1_s, verb2_s and verb3_s report these, in this order.
VERBS = {
    "embed": ("rips", "sc_check", "pipeline"),
    "census": ("fingerprint", "low_index", "hom_search"),
    "audit": ("tc", "schur", "dehn"),
}

DEHN_QUERIES = 2000  # half conjugated relator products, half random words
Z2 = {"free_rank": 0, "torsion": [2]}
TRIVIAL = {"free_rank": 0, "torsion": []}


class CheckFailed(Exception):
    """The program's answer contradicts a known fact."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


@dataclass
class Job:
    label: str
    verb: str | None  # per-verb metric the job's time counts towards
    run: Callable[[], "Answer"]  # timed
    check: Callable[["Answer"], None]  # untimed; raises CheckFailed


@dataclass
class Answer:
    digest: str  # hash of the answer with wall time removed
    value: object
    report_bytes: int = 0
    latencies_s: tuple[float, ...] = ()


# ---------------------------------------------------------------------------
# seeded inputs

_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


def rename(text: str, rng: random.Random) -> tuple[str, dict[str, str]]:
    """Give every generator a fresh random name of the same length."""
    gens = [g.strip() for g in text[text.index("<") + 1 : text.index("|")].split(",")]
    fresh: dict[str, str] = {}
    for g in gens:
        new = ""
        while not new or new in fresh.values():
            new = "".join(rng.choice(string.ascii_lowercase) for _ in g)
        fresh[g] = new
    return _NAME.sub(lambda m: fresh[m.group()], text), fresh


def _random_reduced(rng: random.Random, ngens: int, length: int) -> tuple[int, ...]:
    letters: list[int] = []
    while len(letters) < length:
        l = rng.choice([s * k for k in range(1, ngens + 1) for s in (1, -1)])
        if not letters or letters[-1] != -l:
            letters.append(l)
    return tuple(letters)


def _append_reduced(letters: list[int], part: tuple[int, ...]) -> None:
    """Append a reduced word to a reduced word, cancelling at the junction."""
    i = 0
    while letters and i < len(part) and letters[-1] == -part[i]:
        letters.pop()
        i += 1
    letters.extend(part[i:])


# A5 as even permutations of 0..4, for the oracle of the Dehn queries
def _compose(p, q):
    return tuple(q[p[i]] for i in range(len(p)))


def _order(p) -> int:
    ident, cur, n = tuple(range(len(p))), p, 1
    while cur != ident:
        cur, n = _compose(cur, p), n + 1
    return n


def _even(p) -> bool:
    return sum(p[i] > p[j] for i in range(5) for j in range(i + 1, 5)) % 2 == 0


def _a5_images():
    """The first pair (x, y) of A5 with x^2 = y^3 = (xy)^5 = 1, all nontrivial:
    the images of a and b under an epimorphism <a,b | a^2,b^3,(ab)^5> -> A5."""
    a5 = [p for p in itertools.permutations(range(5)) if _even(p)]
    return next(
        (x, y)
        for x in a5
        if _order(x) == 2
        for y in a5
        if _order(y) == 3 and _order(_compose(x, y)) == 5
    )


def _a5_image(letters, images):
    """Image of a word over rips(a5)'s alphabet (a, b, a1, a2); the quotient
    map kills a1 and a2."""
    ident = tuple(range(5))
    out = ident
    inverses = [tuple(sorted(range(5), key=p.__getitem__)) for p in images]
    for l in letters:
        if abs(l) <= 2:
            out = _compose(out, images[l - 1] if l > 0 else inverses[-l - 1])
    return out


def dehn_queries(rng: random.Random, a5_text: str):
    """rips(a5, 12) and the Dehn queries over it: conjugated relator products
    (which are trivial), then random words whose image in A5 is not the
    identity (which are not)."""
    gamma = construct.rips(presentations.parse_presentation(a5_text), 12).gamma
    alphabet, relators = gamma.alphabet, gamma.relators
    images = _a5_images()
    queries = []
    for _ in range(DEHN_QUERIES // 2):
        letters: list[int] = []
        for _ in range(rng.randint(1, 5)):
            r = rng.choice(relators)
            if rng.random() < 0.5:
                r = r.inverse()
            g = _random_reduced(rng, 4, rng.randint(0, 8))
            for part in (g, r.letters, tuple(-l for l in reversed(g))):
                _append_reduced(letters, part)
        # reduced by construction, as Word.reduce() would leave it
        queries.append(Word(alphabet, letters, _reduced=True))
    while len(queries) < DEHN_QUERIES:
        w = _random_reduced(rng, 4, rng.randint(1, 30))
        if _a5_image(w, images) != tuple(range(5)):
            queries.append(Word(alphabet, w))
    return gamma, queries


def generate(workload: str, seed: int, workdir: Path) -> list[Job]:
    """Make the workload's inputs from the seed, write the input files under
    workdir and return the job list."""
    rng = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    files: dict[str, Path] = {}
    names: dict[str, dict[str, str]] = {}
    texts: dict[str, str] = {}
    for key, text in PRESENTATIONS.items():
        texts[key], names[key] = rename(text, rng)
        files[key] = workdir / f"{key}.pres"
        files[key].write_text(texts[key] + "\n")
    if workload == "embed":
        return _embed(files, texts, workdir)
    if workload == "census":
        return _census(files)
    return _audit(files, names, texts, workdir, rng)


# ---------------------------------------------------------------------------
# jobs


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _cli_job(label: str, verb: str | None, argv: list[str], check) -> Job:
    def run() -> Answer:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.dispatch([*argv, "--json"])
        out = buf.getvalue()
        return Answer(digest="", value=(code, out), report_bytes=len(out.encode()))

    def check_report(ans: Answer) -> None:
        code, out = ans.value
        lines = out.splitlines()
        expect(len(lines) == 1, f"{len(lines)} report lines")
        report = json.loads(lines[0])
        ans.digest = _digest({k: v for k, v in report.items() if k != "wall_time_s"})
        expect(code == 0 and report["outcome"] == "OK", f"exit {code}, {report['outcome']}")
        check(report["payload"])

    return Job(label, verb, run, check_report)


def read_presentation(text: str):
    """Generators and per-relator exponent sums and lengths of a written
    presentation, read from the text alone (syllables `x` or `x^k`)."""
    head, body = text[text.index("<") + 1 : text.rindex(">")].split("|")
    gens = [g.strip() for g in head.split(",")]
    col = {g: i for i, g in enumerate(gens)}
    rows, lengths = [], []
    for rel in filter(str.strip, body.split(",")):
        row = [0] * len(gens)
        n = 0
        for syl in rel.split():
            name, _, e = syl.partition("^")
            k = int(e) if e else 1
            row[col[name]] += k
            n += abs(k)
        rows.append(row)
        lengths.append(n)
    return gens, rows, lengths


def abelian_invariants(rows: list[list[int]], ncols: int) -> dict:
    """Z^ncols modulo the row lattice, by integer elimination to a diagonal."""
    a = [list(r) for r in rows if any(r)]
    diag = []
    while a and any(any(r) for r in a):
        # pivot: smallest nonzero entry in absolute value
        i, j = min(
            ((i, j) for i, r in enumerate(a) for j, v in enumerate(r) if v),
            key=lambda ij: abs(a[ij[0]][ij[1]]),
        )
        p = a[i][j]
        clean = True
        for k, r in enumerate(a):
            if k != i and r[j]:
                q = r[j] // p
                a[k] = [x - q * y for x, y in zip(r, a[i])]
                clean = clean and not a[k][j]
        for c in range(len(a[i])):
            if c != j and a[i][c]:
                q = a[i][c] // p
                for r in a:
                    r[c] -= q * r[j]
                clean = clean and not a[i][c]
        if clean:
            diag.append(abs(p))
            a = [r[:j] + r[j + 1 :] for k, r in enumerate(a) if k != i]
            a = [r for r in a if any(r)]
    # diagonal entries need not divide one another: split into prime powers
    torsion: list[int] = []
    for d in diag:
        f = 2
        while d > 1:
            q = 1
            while d % f == 0:
                d //= f
                q *= f
            if q > 1:
                torsion.append(q)
            f += 1
    return {"free_rank": ncols - len(diag), "torsion": sorted(torsion)}


def _rips_job(files, texts, workdir, key: str, m: int) -> Job:
    out = workdir / f"{key}_rips{m}.pres"
    gens, rows, _ = read_presentation(texts[key])
    h1_q = abelian_invariants(rows, len(gens))

    def check(pl: dict) -> None:
        expect(pl["m"] == m and pl["metric_verdict"] is True, "no metric certificate")
        expect(pl["relator_count"] == len(rows) + 4 * len(gens), "relator count")
        g_gens, g_rows, lengths = read_presentation(out.read_text())
        expect(pl["max_piece"] * m < min(lengths), "max_piece * m >= shortest relator")
        expect(pl["total_letters"] == sum(lengths), "total_letters")
        h1_gamma = abelian_invariants(g_rows, len(g_gens))
        expect(h1_gamma == h1_q, f"H1(gamma) {h1_gamma} != H1(Q) {h1_q}")

    argv = ["rips", str(files[key]), "--m", str(m), "--zero-exponent", "--out", str(out)]
    return _cli_job(f"rips {key} m={m}", "rips", argv, check)


def _embed(files, texts, workdir) -> list[Job]:
    a5_out = workdir / "a5_rips7.pres"

    def sc_check(pl: dict) -> None:
        expect(pl["m"] == 7 and pl["failing"] == [], "C'(1/7) fails")
        expect(all(r["max_piece"] * 7 < r["length"] for r in pl["rows"]), "piece rows")

    def pipeline_counts(pl: dict) -> None:
        # criterion 9's closed formulas at |X| = 2, |R| = 3
        expect(
            pl["counts"]
            == {
                "extension_generators": 2 * (2 + 2),
                "extension_relators": (2 + 2) ** 2 + 2 * (2 + 2) * (1 + 3 + 4 * 2),
                "p_generators": 2 + 2 + 3,
            },
            f"counts {pl['counts']}",
        )
        expect(pl["rips"]["metric_verdict"] is True, "no metric certificate")

    return [
        _rips_job(files, texts, workdir, "bp2", 7),
        _rips_job(files, texts, workdir, "a5", 7),
        _rips_job(files, texts, workdir, "free2", 6),
        _cli_job("sc-check a5 m=7", "sc_check", ["sc-check", "--m", "7", str(a5_out)], sc_check),
        _cli_job("pipeline t237 m=6", "pipeline", ["pipeline", "--m", "6", str(files["t237"])], pipeline_counts),
    ]


def _census(files) -> list[Job]:
    bound = 8

    def fingerprint(pl: dict) -> None:
        expect(pl["equal"] is True and pl["complete"] is True, "fingerprints differ")
        expect([r["index"] for r in pl["per_index"]] == list(range(1, bound + 1)), "indices")
        expect(all(r["equal"] is True and r["left"] == r["right"] for r in pl["per_index"]), "rows")

    def vacant(pl: dict) -> None:
        expect(pl["complete"] is True and pl["totals"]["1"] == 1, "index 1")
        expect(all(pl["totals"].get(str(k), 0) == 0 for k in range(2, 6)), "proper subgroups")

    def trivial_homs(pl: dict) -> None:
        expect(pl["nontrivial_total"] == 0, "nontrivial homomorphisms")
        expect(all(t["complete"] for t in pl["targets"].values()), "incomplete search")

    return [
        _cli_job(
            f"fingerprint baumslag bound={bound}",
            "fingerprint",
            ["fingerprint", "--bound", str(bound), str(files["baumslag25_1"]), str(files["baumslag25_2"])],
            fingerprint,
        ),
        _cli_job("low-index bp2 bound=5", "low_index", ["low-index", "--bound", "5", str(files["bp2"])], vacant),
        _cli_job(
            "hom-search bp2 degree=5",
            "hom_search",
            ["hom-search", "--transitive-degree", "5", str(files["bp2"])],
            trivial_homs,
        ),
    ]


def _audit(files, names, texts, workdir, rng) -> list[Job]:
    tilde = workdir / "a5_uce.pres"
    gamma, queries = dehn_queries(rng, texts["a5"])

    def index(n: int):
        def check(pl: dict) -> None:
            expect(pl.get("index") == n, f"index {pl.get('index')} != {n}")

        return check

    def schur(order: int, h2: dict):
        def check(pl: dict) -> None:
            expect(pl["group_order"] == order and pl["h2"] == h2, f"schur {pl}")

        return check

    def uce_check(pl: dict) -> None:
        expect(pl["relator_count"] == 2 * (1 + 3), "relator count")

    def l0(pl: dict) -> None:
        expect(pl["hypotheses_met"] is True and pl["equal"] is True, "L0")
        expect(pl["coinvariants"] == Z2 and pl["h2_quotient"] == Z2, "L0 invariants")

    def fibre(pl: dict) -> None:
        expect(pl["order"] == 240 and pl["kernel_size"] == 2 and pl["generated"] is True, "fibre")

    def dehn() -> Answer:
        solver = cancellation.DehnSolver(gamma)
        verdicts, latencies = [], []
        for w in queries:
            t0 = time.perf_counter()
            trivial, trace = solver.is_trivial(w)
            latencies.append(time.perf_counter() - t0)
            verdicts.append((trivial, len(trace.steps)))
        return Answer(digest=_digest(verdicts), value=verdicts, latencies_s=tuple(latencies))

    def dehn_check(ans: Answer) -> None:
        half = DEHN_QUERIES // 2
        expect(all(t for t, _ in ans.value[:half]), "a relator product did not reduce to 1")
        expect(not any(t for t, _ in ans.value[half:]), "a word with nontrivial A5 image reduced to 1")

    a = names["a5"]["a"]
    return [
        _cli_job("uce a5", None, ["uce", str(files["a5"]), "--out", str(tilde)], uce_check),
        _cli_job("tc uce(a5)", "tc", ["tc", str(tilde)], index(120)),
        _cli_job("tc a5 x psl27", "tc", ["tc", str(files["a5xpsl27"])], index(60 * 168)),
        _cli_job("schur a5", "schur", ["schur", str(files["a5"])], schur(60, Z2)),
        _cli_job("schur klein", "schur", ["schur", str(files["klein"])], schur(4, Z2)),
        _cli_job("schur z5", "schur", ["schur", str(files["z5"])], schur(5, TRIVIAL)),
        _cli_job("schur psl27", "schur", ["schur", str(files["psl27"])], schur(168, Z2)),
        _cli_job(
            "l0-check uce(a5)",
            None,
            ["l0-check", "--ambient", str(tilde), "--normal", f"{a}^2", "--quotient", str(files["a5"])],
            l0,
        ),
        _cli_job("fibre-check sl25-a5", None, ["fibre-check", "sl25-a5"], fibre),
        Job(f"dehn {DEHN_QUERIES} queries", "dehn", dehn, dehn_check),
    ]
