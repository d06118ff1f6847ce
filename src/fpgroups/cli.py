"""Command-line front end: one verb per invocation, one report per run.

Every verb reads presentation files in the shared grammar (or its JSON form),
runs under one budget started from the global flags before any input is read,
and emits a single RunReport.  With --json the report is the only thing on
standard output (diagnostics go to standard error), and reruns with identical
inputs and budgets are byte-identical apart from the wall_time_s field.  Exit
codes: 0 the operation succeeded (and any check it performed came back true),
1 a check came back false, 2 a budget (time, cosets, elements or letters) ran
out before an answer, 3 bad input.

Each verb is declared once, in _VERBS, as its handler, its one-line help and
its arguments, from which dispatch builds the verb's parser and _usage the
verb listing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
import warnings

from .budget import Budget, BudgetExhausted
from .cancellation import DehnSolver, check_metric
from .construct import fibre_generators, grothendieck_evidence, pipeline, rips, uce
from .cosets import fingerprint_compare, low_index, reidemeister_schreier, todd_coxeter
from .homology import (
    L0Instance,
    aspherical_h2_rank,
    baumslag_iso_test,
    lemma_l0_check,
    schur_multiplier,
)
from .permrep import (
    GroupHom,
    check_generation,
    cyclic_group,
    fibre_product_finite,
    hom_search,
    sl25_to_a5,
    transitive_groups,
)
from .presentations import PresentationWarning, catalog, direct_product, load_presentation
from .zlattice import abelianization

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_EXHAUSTED = 2
EXIT_ERROR = 3

_OUTCOME_CODE = {
    "OK": EXIT_OK,
    "NEGATIVE": EXIT_NEGATIVE,
    "EXHAUSTED": EXIT_EXHAUSTED,
    "ERROR": EXIT_ERROR,
}


def _seconds(text: str) -> float:
    """A finite float: nan or inf would never reach the deadline, and the
    report's parameters would not be JSON."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"time limit must be finite, not {text!r}")
    return value


def _cap(text: str) -> int:
    """A cap of at least 1: no run fits in a cap below that."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"cap must be at least 1, not {text!r}")
    return value


# every verb's parser ends with these, as (name, add_argument keywords)
_GLOBAL_FLAGS = [
    ("--json", {"action": "store_true", "help": "emit one RunReport as JSON"}),
    ("--time-limit", {"type": _seconds, "default": 60.0, "metavar": "SECONDS"}),
    ("--max-cosets", {"type": _cap, "default": 100_000, "metavar": "N"}),
    ("--max-elements", {"type": _cap, "default": 100_000, "metavar": "N"}),
    # randomized property drivers only; every verb below is seed-independent
    ("--seed", {"type": int, "default": 0, "metavar": "N"}),
]


def _load(path: str, inputs: dict) -> "Presentation":
    with open(path, "rb") as fh:
        raw = fh.read()
    inputs[path] = hashlib.sha256(raw).hexdigest()
    return load_presentation(raw.decode("utf-8"))


def _write_out(path: str | None, p) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(p.to_text() + "\n")


# ---------------------------------------------------------------------------
# verb handlers: (args, inputs, budget) -> (outcome, payload)


def _cmd_parse(args, inputs, budget):
    p = _load(args.file, inputs)
    return "OK", {
        "generators": list(p.alphabet.names),
        "relators": len(p.relators),
        "total_letters": p.total_relator_length(),
        "max_relator_length": p.max_relator_length(),
    }


def _cmd_abelianize(args, inputs, budget):
    inv = abelianization(_load(args.file, inputs), budget)
    return "OK", {"h1": inv.to_json(), "pretty": str(inv)}


def _cmd_sc_check(args, inputs, budget):
    p = _load(args.file, inputs)
    report = check_metric(p, args.m, budget)
    return ("OK" if report.verdict else "NEGATIVE"), report.to_json(p.alphabet)


def _cmd_dehn(args, inputs, budget):
    p = _load(args.file, inputs)
    solver = DehnSolver(p, budget)
    w = p.word(args.word)
    trivial, trace = solver.is_trivial(w, budget)
    payload = {
        "word_length": len(w),
        "trivial": trivial,
        "steps": len(trace.steps),
        "residue_length": len(trace.final),
    }
    return ("OK" if trivial else "NEGATIVE"), payload


def _cmd_rips(args, inputs, budget):
    q = _load(args.file, inputs)
    rr = rips(q, args.m, zero_exponent=args.zero_exponent, budget=budget)
    _write_out(args.out, rr.gamma)
    return "OK", rr.to_json()


def _cmd_uce(args, inputs, budget):
    u = uce(_load(args.file, inputs), budget)
    _write_out(args.out, u.tilde)
    return "OK", u.to_json()


def _cmd_fibre(args, inputs, budget):
    g = _load(args.file, inputs)
    pairs = fibre_generators(g, [g.word(k) for k in args.kernel or []])
    return "OK", {
        "count": len(pairs),
        "pairs": [[u.text() or "1", v.text() or "1"] for u, v in pairs],
    }


def _cmd_pipeline(args, inputs, budget):
    q = _load(args.file, inputs)
    pl = pipeline(q, args.m, budget=budget)
    if args.out:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PresentationWarning)
            extension = direct_product(pl.tilde, pl.tilde)
        budget.check()  # direct_product never reads the clock
        _write_out(args.out, extension)
    return "OK", pl.to_json()


def _cmd_evidence(args, inputs, budget):
    ev = grothendieck_evidence(_load(args.file, inputs), args.index_bound, budget)
    outcome = "OK" if ev.verdict.startswith("criterion satisfied") else "NEGATIVE"
    if ev.verdict.startswith("inconclusive"):
        outcome = "EXHAUSTED"
    return outcome, ev.to_json()


def _cmd_tc(args, inputs, budget):
    p = _load(args.file, inputs)
    sub = tuple(p.word(w) for w in args.subgroup or [])
    try:
        return "OK", {"index": todd_coxeter(p, sub, budget).n}
    except BudgetExhausted as e:
        return "EXHAUSTED", {
            "reason": e.what, "cosets_used": e.cosets_used, "max_cosets": budget.max_cosets
        }


def _cmd_rs(args, inputs, budget):
    p = _load(args.file, inputs)
    sub = tuple(p.word(w) for w in args.subgroup or [])
    try:
        table = todd_coxeter(p, sub, budget)
    except BudgetExhausted as e:
        return "EXHAUSTED", {"reason": e.what, "cosets_used": e.cosets_used}
    s = reidemeister_schreier(p, table, budget)
    _write_out(args.out, s)
    return "OK", {
        "index": table.n,
        "generators": len(s.alphabet),
        "relators": len(s.relators),
        "presentation": s.to_json(),
    }


def _cmd_low_index(args, inputs, budget):
    fp = low_index(_load(args.file, inputs), args.bound, budget)
    return ("OK" if fp.complete else "EXHAUSTED"), fp.to_json()


def _cmd_fingerprint(args, inputs, budget):
    if args.file2 is None:
        return _cmd_low_index(args, inputs, budget)
    p = _load(args.file, inputs)
    q = _load(args.file2, inputs)
    cmp = fingerprint_compare(p, q, args.bound, budget)
    outcome = {True: "OK", False: "NEGATIVE", None: "EXHAUSTED"}[cmp.equal]
    return outcome, cmp.to_json()


def _cmd_hom_search(args, inputs, budget):
    p = _load(args.file, inputs)
    if args.transitive_degree < 1:
        raise ValueError("transitive degree must be at least 1")
    targets = []
    for d in range(2, args.transitive_degree + 1):
        targets.extend(transitive_groups(d))
    per_target = {}
    all_complete = True
    nontrivial = 0
    for t in targets:
        res = hom_search(p, t, budget)
        non = sum(
            1 for h in res.homs if any(g != tuple(range(t.degree)) for g in h.images)
        )
        nontrivial += non
        all_complete = all_complete and res.complete
        per_target[t.name] = {
            "homs": len(res.homs),
            "nontrivial": non,
            "epimorphisms": res.epi_count,
            "complete": res.complete,
            "nodes": res.nodes,
        }
    payload = {
        "degree_bound": args.transitive_degree,
        "targets": per_target,
        "nontrivial_total": nontrivial,
    }
    return ("OK" if all_complete else "EXHAUSTED"), payload


def _cmd_fibre_check(args, inputs, budget):
    if args.instance == "z6-z3":
        src = catalog("cyclic", (6,)).presentation
        ambient = cyclic_group(6)
        eta = GroupHom(src, [cyclic_group(3).generators[0]], 3)
        kernel_words = [src.word("a^3")]
    else:  # "sl25-a5"; argparse's choices refuse any other name
        ambient, eta = sl25_to_a5()
        src = eta.source
        kernel_words = [src.word("s^2")]  # s^2 = -I generates the centre
    pairs = list(fibre_generators(src, kernel_words))
    ffp = fibre_product_finite(eta, ambient, budget)
    generated = check_generation(ffp, pairs, budget)
    payload = {
        "instance": args.instance,
        "order": len(ffp.elements),
        "kernel_size": ffp.kernel_size,
        "factor_order": ffp.factor.order(),
        "pairs": [[u.text() or "1", v.text() or "1"] for u, v in pairs],
        "generated": generated,
    }
    return ("OK" if generated else "NEGATIVE"), payload


def _cmd_schur(args, inputs, budget):
    rep = schur_multiplier(_load(args.file, inputs), budget)
    return "OK", rep.to_json()


def _cmd_l0_check(args, inputs, budget):
    ambient = _load(args.ambient, inputs)
    quotient = _load(args.quotient, inputs)
    normal = tuple(ambient.word(w) for w in args.normal or [])
    rep = lemma_l0_check(L0Instance(ambient, normal, quotient), budget)
    return ("OK" if rep.hypotheses_met and rep.equal else "NEGATIVE"), rep.to_json()


def _cmd_h2_rank(args, inputs, budget):
    rank = aspherical_h2_rank(_load(args.file, inputs), args.aspherical, budget)
    return "OK", {"rank": rank}


def _cmd_baumslag_iso(args, inputs, budget):
    rep = baumslag_iso_test(args.modulus, args.unit, args.k)
    return ("OK" if rep.isomorphic else "NEGATIVE"), rep.to_json()


def _cmd_catalog(args, inputs, budget):
    entry = catalog(args.name, tuple(args.params))
    _write_out(args.out, entry.presentation)
    return "OK", {
        "name": entry.name,
        "parameters": list(entry.parameters),
        "notes": entry.notes,
        "generators": list(entry.presentation.alphabet.names),
        "relators": [r.text() for r in entry.presentation.relators],
    }


# ---------------------------------------------------------------------------
# verb table and dispatch

# the arguments several verbs share, as (name, add_argument keywords)
_FILE = ("file", {})
_OUT = ("--out", {"metavar": "FILE"})
_REQUIRED_INT = {"type": int, "required": True}
_M = ("--m", _REQUIRED_INT)
_BOUND = ("--bound", _REQUIRED_INT)
_SUBGROUP = ("--subgroup", {"action": "append", "metavar": "WORD"})

# name -> (handler, one-line help, its arguments in parser order)
_VERBS = {
    "parse": (_cmd_parse, "read a presentation file and summarize it", [_FILE]),
    "abelianize": (_cmd_abelianize, "H_1 invariant factors of a presented group", [_FILE]),
    "sc-check": (
        _cmd_sc_check, "verify the C'(1/m) small-cancellation condition", [_M, _FILE]
    ),
    "dehn": (
        _cmd_dehn,
        "decide triviality of a word over a C'(1/6) presentation",
        [("--word", {"required": True}), _FILE],
    ),
    "rips": (
        _cmd_rips,
        "embed a presentation into a C'(1/m) group",
        [_M, ("--zero-exponent", {"action": "store_true"}), _OUT, _FILE],
    ),
    "uce": (
        _cmd_uce, "universal central extension of a perfect presentation", [_OUT, _FILE]
    ),
    "fibre": (
        _cmd_fibre,
        "generating pairs of a fibre product over a quotient",
        [("--kernel", {"action": "append", "metavar": "WORD"}), _FILE],
    ),
    "pipeline": (
        _cmd_pipeline, "rips, central extension, and doubled fibre product", [_M, _OUT, _FILE]
    ),
    "evidence": (
        _cmd_evidence,
        "finite-quotient criteria at a bounded scale",
        [("--index-bound", _REQUIRED_INT), _FILE],
    ),
    "tc": (
        _cmd_tc, "coset enumeration over a finitely generated subgroup", [_SUBGROUP, _FILE]
    ),
    "rs": (
        _cmd_rs, "subgroup presentation via Schreier rewriting", [_SUBGROUP, _OUT, _FILE]
    ),
    "low-index": (_cmd_low_index, "count subgroups up to an index bound", [_BOUND, _FILE]),
    "fingerprint": (
        _cmd_fingerprint,
        "subgroup-count fingerprint; compare two files",
        [_BOUND, _FILE, ("file2", {"nargs": "?"})],
    ),
    "hom-search": (
        _cmd_hom_search,
        "maps onto transitive permutation groups",
        [("--transitive-degree", _REQUIRED_INT), _FILE],
    ),
    "fibre-check": (
        _cmd_fibre_check,
        "brute-force generation check on a named instance",
        [("instance", {"choices": ("z6-z3", "sl25-a5")})],
    ),
    "schur": (_cmd_schur, "Schur multiplier of a finite presented group", [_FILE]),
    "l0-check": (
        _cmd_l0_check,
        "compare kernel coinvariants with H_2 of the quotient",
        [
            ("--ambient", {"required": True, "metavar": "FILE"}),
            ("--normal", {"action": "append", "metavar": "WORD"}),
            ("--quotient", {"required": True, "metavar": "FILE"}),
        ],
    ),
    "h2-rank": (
        _cmd_h2_rank,
        "H_2 rank of an aspherical presentation by deficiency",
        [("--aspherical", {"action": "store_true"}), _FILE],
    ),
    "baumslag-iso": (
        _cmd_baumslag_iso,
        "power criterion for metabelian Baumslag pairs",
        [("--modulus", _REQUIRED_INT), ("--unit", _REQUIRED_INT), ("--k", _REQUIRED_INT)],
    ),
    "catalog": (
        _cmd_catalog,
        "write a named presentation from the catalog",
        [("name", {}), ("params", {"nargs": "*", "type": int}), _OUT],
    ),
}


def _usage(stream) -> None:
    print("usage: fpgroups VERB [flags] [inputs]", file=stream)
    print("verbs:", file=stream)
    for name, (_, help_text, _) in _VERBS.items():
        print(f"  {name:<14} {help_text}", file=stream)
    print(
        "global flags: --json --time-limit S --max-cosets N --max-elements N --seed N",
        file=stream,
    )


def _parameters(args: argparse.Namespace) -> dict:
    skip = {"json"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def dispatch(argv) -> int:
    argv = list(argv)
    if not argv:
        _usage(sys.stderr)
        return EXIT_ERROR
    if argv[0] in ("-h", "--help"):
        _usage(sys.stdout)
        return EXIT_OK
    verb = argv[0]
    if verb not in _VERBS:
        print(f"unknown verb {verb!r}", file=sys.stderr)
        _usage(sys.stderr)
        return EXIT_ERROR

    handler, help_text, arguments = _VERBS[verb]
    parser = argparse.ArgumentParser(prog=f"fpgroups {verb}", description=help_text)
    for name, keywords in [*arguments, *_GLOBAL_FLAGS]:
        parser.add_argument(name, **keywords)
    try:
        args = parser.parse_args(argv[1:])
    except SystemExit as e:
        return EXIT_OK if e.code == 0 else EXIT_ERROR

    inputs: dict[str, str] = {}
    started = time.perf_counter()
    budget = Budget.start(
        args.time_limit, max_cosets=args.max_cosets, max_elements=args.max_elements
    )
    try:
        outcome, payload = handler(args, inputs, budget)
    except BudgetExhausted as e:
        outcome, payload = "EXHAUSTED", {"error": str(e)}
    # input-driven blow-ups (deep nesting, huge numbers) are bad input, not NEGATIVE
    except (ValueError, OSError, RecursionError, MemoryError, OverflowError) as e:
        outcome, payload = "ERROR", {"error": str(e) or type(e).__name__}
    wall = time.perf_counter() - started

    report = {
        "verb": verb,
        "inputs": inputs,
        "parameters": _parameters(args),
        "outcome": outcome,
        "payload": payload,
        "wall_time_s": round(wall, 6),
    }
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(f"{verb}: {outcome}  ({wall:.2f}s)")
        print(json.dumps(payload, indent=2, sort_keys=True))
    return _OUTCOME_CODE[outcome]


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
