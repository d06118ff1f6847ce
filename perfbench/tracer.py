"""Layer spans recorded from outside the program.

install() wraps each module's public entry points and rebinds every name that
refers to the original in every fpgroups module (cli.check_metric,
construct.check_metric and cancellation.check_metric are one function bound
under three names), so calls between modules are recorded as well as calls
from the benchmark.  A span records its name, start, end and parent; a
layer's self time is its span time minus the time its child spans cover.
Untraced runs never call install(), so they run the program unwrapped.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict


def _letters(p) -> int:
    return sum(len(r) for r in p.relators)


def _rips_counts(c: Counter, args, r) -> None:
    c["construct.rips.letters_out"] += _letters(r.gamma)
    c["construct.rips.de_bruijn_order"] = max(c["construct.rips.de_bruijn_order"], r.de_bruijn_order)


# (module, attribute, span name, counter hook(counters, args, result)).
# Several attributes may share one span name: SNF is entered through
# smith_normal_form, smith_diagonal and the inverse-returning _snf_full.
TARGETS = [
    ("cli", "dispatch", "cli.dispatch", None),
    ("cancellation", "check_metric", "cancellation.check_metric",
     lambda c, a, r: c.update({"cancellation.check_metric.letters": 2 * _letters(a[0])})),
    ("cancellation", "DehnSolver.__init__", "cancellation.DehnSolver", None),
    ("cancellation", "DehnSolver.is_trivial", "cancellation.DehnSolver.is_trivial",
     lambda c, a, r: c.update({"cancellation.dehn.steps": len(r[1].steps)})),
    ("construct", "rips", "construct.rips", _rips_counts),
    ("construct", "uce", "construct.uce", None),
    ("construct", "pipeline", "construct.pipeline", None),
    ("construct", "grothendieck_evidence", "construct.grothendieck_evidence", None),
    ("zlattice", "smith_normal_form", "zlattice.smith_normal_form", None),
    ("zlattice", "smith_diagonal", "zlattice.smith_normal_form", None),
    ("zlattice", "_snf_full", "zlattice.smith_normal_form", None),
    ("zlattice", "lattice_solve", "zlattice.lattice_solve", None),
    ("zlattice", "abelianization", "zlattice.abelianization", None),
    ("zlattice", "kernel_invariants", "zlattice.kernel_invariants", None),
    ("presentations", "parse_presentation", "presentations.parse_presentation",
     lambda c, a, r: c.update({"presentations.parse_presentation.letters": _letters(r)})),
    ("presentations", "direct_product", "presentations.direct_product", None),
    ("presentations", "Presentation.to_text", "presentations.Presentation.to_text", None),
    ("cosets", "low_index", "cosets.low_index",
     lambda c, a, r: c.update({"cosets.low_index.subgroups": sum(r.totals.values())})),
    ("cosets", "todd_coxeter", "cosets.todd_coxeter",
     lambda c, a, r: c.update({"cosets.todd_coxeter.cosets": r.n if r else r.cosets_used})),
    ("cosets", "reidemeister_schreier", "cosets.reidemeister_schreier", None),
    ("cosets", "SchreierRewriter.__init__", "cosets.SchreierRewriter", None),
    ("cosets", "SchreierRewriter.rewrite", "cosets.SchreierRewriter", None),
    ("permrep", "hom_search", "permrep.hom_search",
     lambda c, a, r: c.update({"permrep.hom_search.homs": len(r.homs)})),
    ("permrep", "fibre_product_finite", "permrep.fibre_product_finite", None),
    ("permrep", "check_generation", "permrep.check_generation", None),
    ("homology", "schur_multiplier", "homology.schur_multiplier", None),
    ("homology", "lemma_l0_check", "homology.lemma_l0_check", None),
]

# per-layer metric -> (span name, statistic); "s" is inclusive time without
# double counting nested spans of the same name, "self_s" excludes children
SPAN_METRICS = {
    "cancellation.check_metric.self_s": ("cancellation.check_metric", "self_s"),
    "cancellation.check_metric.calls": ("cancellation.check_metric", "calls"),
    "cancellation.DehnSolver.build_s": ("cancellation.DehnSolver", "s"),
    "cancellation.DehnSolver.is_trivial.self_s": ("cancellation.DehnSolver.is_trivial", "self_s"),
    "construct.rips.self_s": ("construct.rips", "self_s"),
    "construct.rips.calls": ("construct.rips", "calls"),
    "construct.uce.self_s": ("construct.uce", "self_s"),
    "construct.pipeline.self_s": ("construct.pipeline", "self_s"),
    "construct.grothendieck_evidence.self_s": ("construct.grothendieck_evidence", "self_s"),
    "zlattice.smith_normal_form.s": ("zlattice.smith_normal_form", "s"),
    "zlattice.smith_normal_form.calls": ("zlattice.smith_normal_form", "calls"),
    "zlattice.lattice_solve.s": ("zlattice.lattice_solve", "s"),
    "zlattice.abelianization.s": ("zlattice.abelianization", "s"),
    "zlattice.kernel_invariants.s": ("zlattice.kernel_invariants", "s"),
    "presentations.parse_presentation.s": ("presentations.parse_presentation", "s"),
    "presentations.direct_product.s": ("presentations.direct_product", "s"),
    "presentations.Presentation.to_text.s": ("presentations.Presentation.to_text", "s"),
    "cosets.low_index.s": ("cosets.low_index", "s"),
    "cosets.todd_coxeter.s": ("cosets.todd_coxeter", "s"),
    "cosets.todd_coxeter.calls": ("cosets.todd_coxeter", "calls"),
    "cosets.reidemeister_schreier.s": ("cosets.reidemeister_schreier", "s"),
    "cosets.SchreierRewriter.s": ("cosets.SchreierRewriter", "s"),
    "permrep.hom_search.s": ("permrep.hom_search", "s"),
    "permrep.hom_search.calls": ("permrep.hom_search", "calls"),
    "permrep.fibre_product_finite.s": ("permrep.fibre_product_finite", "s"),
    "permrep.check_generation.s": ("permrep.check_generation", "s"),
    "homology.schur_multiplier.self_s": ("homology.schur_multiplier", "self_s"),
    "homology.lemma_l0_check.self_s": ("homology.lemma_l0_check", "self_s"),
    "cli.dispatch.self_s": ("cli.dispatch", "self_s"),
}

COUNTERS = [
    "cancellation.check_metric.letters",
    "cancellation.dehn.steps",
    "construct.rips.letters_out",
    "construct.rips.de_bruijn_order",
    "presentations.parse_presentation.letters",
    "cosets.low_index.subgroups",
    "cosets.todd_coxeter.cosets",
    "permrep.hom_search.homs",
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counters: Counter = Counter()

    def wrap(self, name: str, fn, hook):
        spans, stack, counters = self.spans, self.stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(counters, args, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, hook in TARGETS:
            mod = sys.modules[f"fpgroups.{module}"]
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            original = getattr(owner, fn_name, None)
            if original is None:  # entry point renamed or removed: span stays empty
                continue
            traced = self.wrap(name, original, hook)
            if owner_name:
                setattr(owner, fn_name, traced)
                continue
            for modname, m in list(sys.modules.items()):
                if modname == "fpgroups" or modname.startswith("fpgroups."):
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, traced)

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer statistics over every span recorded so far."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_s[parent] += end - start
        stats: dict[str, Counter] = defaultdict(Counter)
        covered = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            st = stats[name]
            st["calls"] += 1
            st["self_s"] += end - start - child_s[i]
            if not self._inside(i, name):
                st["s"] += end - start
            if parent < 0:
                covered += end - start
        out = {metric: stats[span][stat] for metric, (span, stat) in SPAN_METRICS.items()}
        out.update({c: self.counters[c] for c in COUNTERS})
        rips = {i for i, s in enumerate(spans) if s[0] == "construct.rips"}
        out["construct.rips.check_calls"] = sum(
            1 for s in spans if s[0] == "cancellation.check_metric" and s[3] in rips
        )
        out["trace.coverage_frac"] = covered / wall_s
        return out

    def _inside(self, i: int, name: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False
