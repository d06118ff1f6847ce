"""Exit codes, report shape, and rerun determinism of the command line."""

import hashlib
import io
import json
import re
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from fpgroups import construct
from fpgroups.budget import BudgetExhausted
from fpgroups.cli import dispatch

FIXTURES = Path(__file__).parent / "fixtures"


def run(*argv):
    """dispatch with --json, returning (exit code, parsed report)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = dispatch([*argv, "--json"])
    lines = [l for l in out.getvalue().splitlines() if l.strip()]
    assert len(lines) == 1, "exactly one RunReport on stdout"
    return code, json.loads(lines[0])


def run_plain(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = dispatch(list(argv))
    return code, out.getvalue(), err.getvalue()


def fx(name):
    return str(FIXTURES / f"{name}.pres")


# -- plumbing -----------------------------------------------------------------


def test_every_fixture_parses():
    files = sorted(FIXTURES.glob("*.pres"))
    assert files, "fixture corpus present"
    for f in files:
        code, rep = run("parse", str(f))
        assert code == 0, f.name
        assert rep["outcome"] == "OK"
        assert list(rep["inputs"]) == [str(f)]
        assert len(next(iter(rep["inputs"].values()))) == 64  # sha256 hex


def test_unknown_verb_is_error_with_usage():
    code, out, err = run_plain("frobnicate")
    assert code == 3
    assert "usage:" in err and "frobnicate" in err


def test_no_argv_is_error():
    code, out, err = run_plain()
    assert code == 3 and "usage:" in err


def test_help_exits_zero():
    code, out, err = run_plain("--help")
    assert code == 0 and "verbs:" in out


def _readme_verb_listing() -> str:
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1]
    return section.split("```text\n", 1)[1].split("```", 1)[0]


def test_help_is_the_readme_verb_listing():
    code, out, err = run_plain("--help")
    assert code == 0 and out == _readme_verb_listing()


_README_VERBS = re.findall(r"^  (\S+)", _readme_verb_listing(), re.MULTILINE)


@pytest.mark.parametrize("verb", _README_VERBS)
def test_every_verb_has_help(verb):
    code, out, err = run_plain(verb, "--help")
    assert code == 0 and out.startswith(f"usage: fpgroups {verb} ")


def test_missing_file_is_error():
    code, rep = run("abelianize", str(FIXTURES / "no_such.pres"))
    assert code == 3 and rep["outcome"] == "ERROR"


def test_report_shape():
    code, rep = run("abelianize", fx("klein"))
    assert set(rep) == {"verb", "inputs", "parameters", "outcome", "payload", "wall_time_s"}
    assert rep["verb"] == "abelianize"
    assert rep["parameters"]["max_cosets"] == 100_000
    assert rep["payload"]["pretty"] == "Z/2 + Z/2"


def test_rerun_byte_identical_modulo_wall_time():
    def snap():
        code, rep = run("rips", "--m", "6", "--zero-exponent", fx("a5"))
        assert code == 0
        rep.pop("wall_time_s")
        return json.dumps(rep, sort_keys=True)

    assert snap() == snap()


# -- enumeration verbs ---------------------------------------------------------


def test_tc_closes_within_cap():
    code, rep = run("tc", "--max-cosets", "100", fx("a5"))
    assert code == 0 and rep["payload"]["index"] == 60


def test_tc_exhausts_tiny_cap():
    code, rep = run("tc", "--max-cosets", "10", fx("a5"))
    assert code == 2 and rep["outcome"] == "EXHAUSTED"
    assert rep["payload"]["max_cosets"] == 10


def test_coset_exhaustion_payloads(tmp_path):
    # the whole EXHAUSTED payload of each verb that enumerates cosets
    code, rep = run("tc", "--max-cosets", "50", fx("free2"))
    assert code == 2
    assert rep["payload"] == {"reason": "coset cap", "cosets_used": 50, "max_cosets": 50}
    code, rep = run("rs", "--max-cosets", "50", fx("free2"))
    assert code == 2
    assert rep["payload"] == {"reason": "coset cap", "cosets_used": 50}
    code, rep = run("tc", "--time-limit", "0", fx("free2"))
    assert code == 2
    assert rep["payload"] == {"reason": "time limit", "cosets_used": 1, "max_cosets": 100_000}
    code, rep = run("rs", "--time-limit", "0", fx("free2"))
    assert code == 2
    assert rep["payload"] == {"reason": "time limit", "cosets_used": 1}
    triangle = tmp_path / "237.pres"
    triangle.write_text("< a, b | a^2, b^3, (a b)^7 >\n")
    code, rep = run("schur", "--max-cosets", "50", str(triangle))
    assert code == 2
    assert rep["payload"] == {
        "error": "group not certified finite within budget (coset cap, 50 cosets)"
    }


def test_rs_subgroup_presentation():
    code, rep = run("rs", "--subgroup", "a", "--subgroup", "b a b^-1", fx("a5"))
    assert code == 0
    assert rep["payload"]["index"] == 6
    # Schreier rank bound: n(g-1)+1 = 6*1+1
    assert rep["payload"]["generators"] == 7


def test_low_index_bp2_vacant():
    code, rep = run("low-index", "--bound", "5", fx("bp2"))
    assert code == 0
    totals = rep["payload"]["totals"]
    assert totals["1"] == 1
    assert all(totals[str(k)] == 0 for k in range(2, 6))


def test_fingerprint_single_and_compare():
    code, rep = run("fingerprint", "--bound", "5", fx("a5"))
    assert code == 0 and rep["payload"]["totals"]["5"] == 5
    code, rep = run("fingerprint", "--bound", "6", fx("baumslag25_1"), fx("baumslag25_2"))
    assert code == 0 and rep["payload"]["equal"] is True
    assert len(rep["inputs"]) == 2


def test_low_index_stops_at_the_coset_cap():
    # a table of index k has k cosets, so index 51 is over a cap of 50
    started = time.perf_counter()
    code, rep = run("low-index", "--bound", "200", "--max-cosets", "50", fx("z5"))
    assert time.perf_counter() - started < 10.0
    assert code == 2 and rep["outcome"] == "EXHAUSTED"
    pl = rep["payload"]
    assert pl["exhausted_at"] == 51 and pl["complete"] is False
    assert pl["totals"] == {str(k): int(k in (1, 5)) for k in range(1, 51)}
    code, rep = run("fingerprint", "--bound", "3", "--max-cosets", "2", fx("a5"), fx("a5"))
    assert code == 2 and rep["payload"]["equal"] is None


def test_hom_search_degree_below_one_is_bad_input():
    code, rep = run("hom-search", "--transitive-degree", "-4", fx("a5"))
    assert code == 3 and rep["outcome"] == "ERROR"
    assert "transitive degree" in rep["payload"]["error"]
    code, rep = run("hom-search", "--transitive-degree", "1", fx("a5"))
    assert code == 0 and rep["payload"]["targets"] == {}


def test_hom_search_bp2_only_trivial():
    code, rep = run("hom-search", "--transitive-degree", "4", fx("bp2"))
    assert code == 0
    assert rep["payload"]["nontrivial_total"] == 0
    assert all(t["complete"] for t in rep["payload"]["targets"].values())


# -- checks -------------------------------------------------------------------


def test_sc_check_exit_codes(tmp_path):
    gamma = tmp_path / "gamma.pres"
    code, rep = run("rips", "--m", "7", "--out", str(gamma), fx("a5"))
    assert code == 0 and gamma.exists()
    assert run("sc-check", "--m", "7", str(gamma))[0] == 0
    assert run("sc-check", "--m", "40", str(gamma))[0] == 1
    assert run("sc-check", "--m", "1", str(gamma))[0] == 3


def test_out_files_spell_the_reported_presentation(tmp_path):
    for verb, key, flags in (("rips", "gamma", ("--m", "7", "--zero-exponent")), ("uce", "tilde", ())):
        out = tmp_path / f"{verb}.pres"
        code, rep = run(verb, *flags, "--out", str(out), fx("a5"))
        pres = rep["payload"][key]
        assert code == 0
        assert out.read_text() == f"< {', '.join(pres['generators'])} | {', '.join(pres['relators'])} >\n"


def test_dehn_exit_codes(tmp_path):
    gamma = tmp_path / "gamma.pres"
    run("rips", "--m", "6", "--out", str(gamma), fx("trivial"))
    # Greendlinger: any trivial word short of half a relator is freely trivial,
    # so that is the only kind one can type on a command line
    code, rep = run("dehn", "--word", "x a1 a1^-1 x^-1", str(gamma))
    assert code == 0 and rep["payload"]["trivial"] is True
    code, rep = run("dehn", "--word", "x a1 x^-1 a1^-1", str(gamma))
    assert code == 1 and rep["payload"]["trivial"] is False


def test_dehn_refuses_weak_presentation():
    # A5 itself is nowhere near C'(1/6)
    code, rep = run("dehn", "--word", "a", fx("a5"))
    assert code == 3


def free_group_file(tmp_path, n):
    path = tmp_path / f"free{n}.pres"
    path.write_text("< " + ", ".join(f"g{i}" for i in range(1, n + 1)) + " | >\n")
    return str(path)


def test_dehn_answers_at_the_largest_alphabet(tmp_path):
    # 0x10FFFF // 2 generators: letters -n..n fill every code point from 1 up
    n = 0x10FFFF // 2
    word = f"g{n}^-1 g1 g{n} g1"
    code, rep = run("dehn", "--word", word, free_group_file(tmp_path, n))
    assert code == 1 and rep["outcome"] == "NEGATIVE"
    assert rep["payload"] == {
        "residue_length": 4, "steps": 0, "trivial": False, "word_length": 4
    }


def test_dehn_refuses_a_larger_alphabet(tmp_path):
    n = 0x10FFFF // 2 + 1
    code, rep = run("dehn", "--word", f"g{n}^-1", free_group_file(tmp_path, n))
    assert code == 3 and rep["outcome"] == "ERROR"
    assert f"at most {n - 1} generators" in rep["payload"]["error"]


def test_baumslag_iso_exit_codes():
    code, rep = run("baumslag-iso", "--modulus", "25", "--unit", "6", "--k", "2")
    assert code == 1 and rep["payload"]["isomorphic"] is False
    code, rep = run("baumslag-iso", "--modulus", "25", "--unit", "6", "--k", "1")
    assert code == 0 and rep["payload"]["isomorphic"] is True
    code, rep = run("baumslag-iso", "--modulus", "25", "--unit", "10", "--k", "2")
    assert code == 3


def test_fibre_check_instances():
    code, rep = run("fibre-check", "z6-z3")
    assert code == 0
    assert rep["payload"]["order"] == 12 and rep["payload"]["generated"] is True
    code, rep = run("fibre-check", "sl25-a5")
    assert code == 0
    assert rep["payload"]["order"] == 240 and rep["payload"]["kernel_size"] == 2


def test_fibre_check_refuses_unknown_instance():
    code, out, _ = run_plain("fibre-check", "bogus", "--json")
    assert code == 3 and out == ""


def test_evidence_exit_codes():
    assert run("evidence", "--index-bound", "5", fx("bp2"))[0] == 0
    code, rep = run("evidence", "--index-bound", "3", fx("z5"))
    assert code == 1 and rep["payload"]["verdict"] == "criterion fails"


# -- homological verbs ---------------------------------------------------------


def test_schur_verbs():
    code, rep = run("schur", fx("a5"))
    assert code == 0 and rep["payload"]["h2"] == {"free_rank": 0, "torsion": [2]}
    code, rep = run("schur", fx("free2"), "--max-cosets", "500")
    assert code == 2 and rep["outcome"] == "EXHAUSTED"


def test_l0_check_through_files(tmp_path):
    tilde = tmp_path / "tilde.pres"
    code, rep = run("uce", "--out", str(tilde), fx("a5"))
    assert code == 0 and rep["payload"]["relator_count"] == 8
    code, rep = run(
        "l0-check", "--ambient", str(tilde), "--normal", "a^2", "--quotient", fx("a5")
    )
    assert code == 0
    assert rep["payload"]["equal"] is True
    assert rep["payload"]["coinvariants"] == {"free_rank": 0, "torsion": [2]}


def test_time_limit_bounds_l0_check(tmp_path):
    # N = SL(2,7) itself: the normal closure in the regular permutation image
    # took about 6.7 s and exited 2 under this limit
    psl27, sl27 = tmp_path / "psl27.pres", tmp_path / "sl27.pres"
    psl27.write_text("< a, b | a^2, b^3, (a b)^7, [a, b]^4 >")
    assert run("uce", "--out", str(sl27), str(psl27))[0] == 0
    started = time.perf_counter()
    code, rep = run(
        "l0-check", "--ambient", str(sl27), "--normal", "a", "--quotient", fx("trivial"),
        "--max-cosets", "400000", "--time-limit", "3",
    )
    assert time.perf_counter() - started < 3.0
    assert code == 0 and rep["payload"]["kernel_order"] == 336
    assert rep["payload"]["equal"] is True


def test_uce_rejects_non_perfect():
    code, rep = run("uce", fx("z5"))
    assert code == 3 and "perfect" in rep["payload"]["error"]


def test_h2_rank_needs_asphericity_claim():
    assert run("h2-rank", "--aspherical", fx("bp2"))[0] == 0
    assert run("h2-rank", fx("bp2"))[0] == 3


# -- constructions through files ------------------------------------------------


def test_catalog_roundtrip(tmp_path):
    out = tmp_path / "bp2.pres"
    code, rep = run("catalog", "Bp", "2", "--out", str(out))
    assert code == 0
    assert out.read_text().strip() == Path(fx("bp2")).read_text().strip()
    assert run("parse", str(out))[0] == 0
    assert run("catalog", "nonsense")[0] == 3


def test_fibre_pairs_verb():
    code, rep = run("fibre", "--kernel", "a^2", fx("a5"))
    assert code == 0
    assert rep["payload"]["pairs"] == [["a", "a"], ["b", "b"], ["a^2", "1"]]


def test_pipeline_verb(tmp_path):
    out = tmp_path / "ext.pres"
    code, rep = run("pipeline", "--m", "6", "--out", str(out), fx("trivial"))
    assert code == 0
    counts = rep["payload"]["counts"]
    assert counts["extension_generators"] == 6
    assert counts["extension_relators"] == 45
    assert run("parse", str(out))[0] == 0
    assert run("pipeline", "--m", "6", fx("z5"))[0] == 3


def test_pipeline_out_writes_the_extension(tmp_path):
    # the bytes the CLI wrote when pipeline built G~ x G~ on every run
    out = tmp_path / "ext.pres"
    assert run("pipeline", "--m", "6", "--out", str(out), fx("trivial"))[0] == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "bfae1c4e89dd4e6c4200f4bc54cfb196c730a81f5840a79c8363c245d9cdb7d8"
    )


# -- budgets and bad input ------------------------------------------------------


def test_element_cap_exits_exhausted():
    code, rep = run("fibre-check", "sl25-a5", "--max-elements", "100")
    assert code == 2 and rep["outcome"] == "EXHAUSTED"
    assert "element cap" in rep["payload"]["error"]
    code, rep = run("hom-search", "--transitive-degree", "5", "--max-elements", "10", fx("a5"))
    assert code == 2 and rep["outcome"] == "EXHAUSTED"


def test_time_limit_bounds_hom_search(tmp_path):
    # S5 leaves 120^4 rows to check at the last generator: 11 s on a 2-core Xeon
    f = tmp_path / "long.pres"
    f.write_text("< a, b, c, d | d^2 a b c, d^3 c b a >")
    started = time.perf_counter()
    code, rep = run("hom-search", "--transitive-degree", "5", "--time-limit", "1", str(f))
    assert code == 2 and rep["outcome"] == "EXHAUSTED"
    assert not rep["payload"]["targets"]["S5"]["complete"]
    assert time.perf_counter() - started < 2.0


def test_hom_search_table_counts_against_the_element_cap():
    # no target has more than 120 elements, under the cap of 1000, but A5's
    # table (3,600 entries) and S5's (14,400) are over it
    code, rep = run("hom-search", "--transitive-degree", "5", "--max-elements", "1000", fx("a5"))
    assert code == 2 and rep["outcome"] == "EXHAUSTED"
    assert "multiplication table" in rep["payload"]["error"]


def test_time_limit_bounds_the_whole_run():
    # each low-index call used to start its own clock: this ran for 4.4 s.
    # Either group alone takes over 2 s to index 16, so two clocks would
    # take over 4 s.
    started = time.perf_counter()
    code, rep = run(
        "fingerprint", "--bound", "16", "--time-limit", "2",
        fx("baumslag25_1"), fx("baumslag25_2"),
    )
    assert time.perf_counter() - started < 3.0
    assert code == 2 and rep["payload"]["equal"] is None


def test_time_limit_bounds_the_piece_check(tmp_path, monkeypatch):
    # the deadline must cut rips short inside its piece check: at m = 96 the
    # output has about 540k letters, which the check takes seconds over
    check_metric, cut_short = construct.check_metric, []

    def watched(*args):
        try:
            return check_metric(*args)
        except BudgetExhausted:
            cut_short.append(True)
            raise

    monkeypatch.setattr(construct, "check_metric", watched)
    started = time.perf_counter()
    code, rep = run("rips", "--m", "96", "--zero-exponent", "--time-limit", "0.5", fx("bp2"))
    assert time.perf_counter() - started < 3.0
    assert code == 2 and rep["outcome"] == "EXHAUSTED"
    assert cut_short == [True]
    f = tmp_path / "surface.pres"
    f.write_text("< a, b, c, d | [a, b] [c, d] >")
    for argv in (("sc-check", "--m", "6"), ("dehn", "--word", "a")):
        code, rep = run(*argv, "--time-limit", "0", str(f))
        assert code == 2 and rep["outcome"] == "EXHAUSTED"


@pytest.mark.parametrize("limit", ["nan", "inf", "-inf", "1e400"])
def test_time_limit_must_be_finite(limit):
    # a non-finite limit never reaches the deadline, and its report held
    # NaN or Infinity, which is not JSON: it is bad input
    code, out, err = run_plain("schur", f"--time-limit={limit}", fx("z5"), "--json")
    assert code == 3 and out == ""
    assert "finite" in err
    code, rep = run("schur", "--time-limit", "0", fx("z5"))
    assert code == 2 and rep["outcome"] == "EXHAUSTED"


@pytest.mark.parametrize("argv", [
    ["low-index", "--bound", "3", "--max-cosets", "0", fx("z5")],
    ["low-index", "--bound", "3", "--max-cosets", "-4", fx("z5")],
    ["tc", "--max-cosets", "0", fx("z5")],
    ["schur", "--max-cosets", "0", fx("z5")],
    ["hom-search", "--transitive-degree", "3", "--max-elements", "-1", fx("z5")],
    ["fibre-check", "sl25-a5", "--max-elements", "0"],
])
def test_cap_below_one_is_bad_input(argv):
    # no run fits in a cap below 1, so the flag itself is refused
    code, out, err = run_plain(*argv, "--json")
    assert code == 3 and out == ""
    assert "at least 1" in err


def test_time_limit_bounds_h1():
    # H_1 ran under a fresh 60 s budget of its own: both exited 0
    code, rep = run("abelianize", "--time-limit", "0", fx("a5"))
    assert code == 2 and rep["outcome"] == "EXHAUSTED"
    code, rep = run("h2-rank", "--aspherical", "--time-limit", "0", fx("bp2"))
    assert code == 2 and rep["outcome"] == "EXHAUSTED"


def test_time_limit_bounds_uce():
    # uce used to ignore the clock: this finished OK with exit 0
    code, rep = run("uce", "--time-limit", "0", fx("a5"))
    assert code == 2 and rep["outcome"] == "EXHAUSTED"


def test_time_limit_bounds_schur(tmp_path):
    # the coinvariant rows and the SNF used to ignore the clock; A5 x PSL(2,7)
    # runs for about 10 s at the default budget
    f = tmp_path / "a5xpsl27.pres"
    f.write_text(
        "< a, b, c, d | a^2, b^3, (a b)^5, c^2, d^3, (c d)^7, (c d c d^-1)^4, "
        "[a, c], [a, d], [b, c], [b, d] >"
    )
    started = time.perf_counter()
    code, rep = run("schur", "--time-limit", "2", str(f))
    assert time.perf_counter() - started < 3.0
    assert code == 2 and rep["outcome"] == "EXHAUSTED"


def test_time_limit_bounds_rips_assembly(monkeypatch):
    # 1,836,200 letters: building the fillers alone took about 0.3 s, all of
    # it before the piece check first read the clock
    entered = []
    check_metric = construct.check_metric
    monkeypatch.setattr(construct, "check_metric", lambda *a: entered.append(1) or check_metric(*a))
    started = time.perf_counter()
    code, rep = run("rips", "--m", "300", "--zero-exponent", "--time-limit", "0.1", fx("bp2"))
    assert time.perf_counter() - started < 0.3
    assert code == 2 and rep["outcome"] == "EXHAUSTED"
    assert entered == []


def test_entry_cap_exits_exhausted():
    # the coset cap admits V4's 4 cosets but not its coinvariant matrix
    code, rep = run("schur", "--max-cosets", "4", fx("klein"))
    assert code == 2 and rep["outcome"] == "EXHAUSTED"
    assert "entry cap" in rep["payload"]["error"]


def test_letter_cap_exits_exhausted(tmp_path):
    f = tmp_path / "huge.pres"
    f.write_text("< a | a^99999999999 >")
    code, rep = run("parse", str(f))
    assert code == 2 and "letter cap" in rep["payload"]["error"]


def test_letter_cap_counts_a_lone_generator(tmp_path):
    f = tmp_path / "lone.json"
    f.write_text(json.dumps({"generators": ["a"], "relators": ["(a^1000)^2000", "a"]}))
    code, rep = run("parse", str(f))
    assert code == 2 and rep["outcome"] == "EXHAUSTED"
    assert rep["payload"]["error"] == (
        "line 1, col 1: expansion to 2000001 letters exceeds the 2000000-letter cap"
    )


def test_exponent_past_the_digit_limit_is_bad_input(tmp_path):
    # int() refuses digit strings past 4,300 digits with a bare ValueError
    f = tmp_path / "digits.pres"
    f.write_text("< a |\n  a^" + "1" * 5000 + " >")
    code, rep = run("parse", str(f))
    assert code == 3 and rep["outcome"] == "ERROR"
    assert rep["payload"]["error"] == "line 2, col 5: exponent has more than 4300 digits"


def test_letter_cap_covers_the_whole_file(tmp_path):
    # each term is under the cap; a thousand of them are about 1e9 letters
    f = tmp_path / "long.pres"
    f.write_text("< a | " + " ".join(["(a^999)^999"] * 1000) + " >")
    code, rep = run("parse", str(f))
    assert code == 2 and "letter cap" in rep["payload"]["error"]


def test_time_limit_never_turns_into_a_pass():
    # A5 fails the criteria (index-5 subgroups, H2 = Z/2); out of time it must
    # not read as satisfied
    code, rep = run("evidence", "--index-bound", "5", "--time-limit", "0", fx("a5"))
    assert code == 2 and rep["outcome"] == "EXHAUSTED"
    assert rep["payload"]["verdict"].startswith("inconclusive")
    code, rep = run("pipeline", "--m", "6", "--time-limit", "0", fx("a5"))
    assert code == 2 and rep["outcome"] == "EXHAUSTED"


def test_deep_nesting_is_an_input_error(tmp_path):
    # the 101st bracket (column 7 + 100) is refused with its position, before
    # the recursive parser can run out of stack (about 400 levels)
    f = tmp_path / "deep.pres"
    for depth in (5000, 400):
        f.write_text("< a | " + "(" * depth + "a" + ")" * depth + " >")
        code, rep = run("parse", str(f))  # run() asserts exactly one report line
        assert code == 3 and rep["outcome"] == "ERROR"
        assert rep["payload"]["error"].startswith("line 1, col 107: ")
    f.write_text("< a | " + "(" * 100 + "a" + ")" * 100 + " >")
    assert run("parse", str(f))[0] == 0


def test_json_presentation_accepted(tmp_path):
    f = tmp_path / "a5.json"
    f.write_text(json.dumps({"generators": ["a", "b"], "relators": ["a^2", "b^3", "(a b)^5"]}))
    code, rep = run("parse", str(f))
    assert code == 0
    assert rep["payload"]["generators"] == ["a", "b"] and rep["payload"]["total_letters"] == 15
    f.write_text('{"generators": ["a"]}')
    assert run("parse", str(f))[0] == 3


_ONE_FILE_VERBS = [
    ("parse",), ("abelianize",), ("sc-check", "--m", "6"), ("dehn", "--word", "a"),
    ("rips", "--m", "6"), ("uce",), ("fibre",), ("pipeline", "--m", "6"),
    ("evidence", "--index-bound", "2"), ("tc",), ("rs",), ("low-index", "--bound", "2"),
    ("fingerprint", "--bound", "2"), ("hom-search", "--transitive-degree", "2"),
    ("schur",), ("h2-rank",),
]


def test_no_generators_is_an_input_error(tmp_path):
    # tc, rs, low-index, fingerprint, schur and evidence used to raise an
    # uncaught IndexError on this input, which exits 1 and reads as NEGATIVE
    f = tmp_path / "empty.json"
    f.write_text(json.dumps({"generators": [], "relators": []}))
    for argv in _ONE_FILE_VERBS:
        code, rep = run(*argv, str(f))  # run() asserts exactly one report line
        assert code == 3 and rep["outcome"] == "ERROR", argv


_GRAMMAR = "<>|,^()[]=*-# \nab0123456789"


# Grammar text and JSON-form input.  Every exponent has at most three digits,
# every relator body at most 12 characters and there are at most two JSON
# relators, which keeps the expansion under the 2M-letter cap ((a a^999)^999,
# 999,000 letters, is the most one body holds): every outcome is then OK or an
# input error, never EXHAUSTED or a traceback.
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.one_of(
        st.text(_GRAMMAR, max_size=16),
        st.text(_GRAMMAR, max_size=12).map(lambda body: f"<a,b|{body}>"),
        st.builds(
            lambda gens, rels: json.dumps({"generators": gens, "relators": rels}),
            st.lists(st.sampled_from(["a", "b", "1", ""]), max_size=3),
            st.lists(st.one_of(st.text(_GRAMMAR, max_size=12), st.integers(-999, 999)), max_size=2),
        ),
    )
)
def test_parse_fuzz_exits_ok_or_error(text):
    assume(not re.search(r"[0-9]{4}", text))
    with tempfile.TemporaryDirectory() as d:
        f = Path(d) / "fuzz.pres"
        f.write_text(text)
        code, rep = run("parse", str(f))  # run() asserts exactly one report line
    assert code in (0, 3), rep
    if text.startswith('{"generators": []'):
        assert code == 3, rep


@st.composite
def _small_presentations(draw):
    """1-3 generators and up to three relators, each a product of up to four
    powers (exponents -7..7) and commutators of generators."""
    gens = ["a", "b", "c"][: draw(st.integers(1, 3))]
    g = st.sampled_from(gens)
    term = st.one_of(
        st.builds("{}^{}".format, g, st.integers(-7, 7)),
        st.builds("[{}, {}]".format, g, g),
    )
    rels = draw(st.lists(st.lists(term, min_size=1, max_size=4).map(" ".join), max_size=3))
    return f"< {', '.join(gens)} | {', '.join(rels)} >"


def _ran_out(rep) -> bool:
    """Whether a cap ran out: the outcome says so, or the payload records a
    search that did not complete or an item not computed."""
    text = json.dumps(rep["payload"])
    return rep["outcome"] == "EXHAUSTED" or '"complete": false' in text or "not computed" in text


# Every one-file verb on small random presentations under tight caps: one
# report, an exit code of the contract, and reruns that ran out of no cap are
# identical apart from the wall time.
@pytest.mark.filterwarnings("ignore::fpgroups.presentations.PresentationWarning")
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.sampled_from(_ONE_FILE_VERBS),
    _small_presentations(),
    st.integers(1, 2000),
    st.integers(1, 20000),
)
def test_verb_fuzz_keeps_the_contract(verb, text, max_cosets, max_elements):
    caps = ("--time-limit", "1", "--max-cosets", str(max_cosets), "--max-elements", str(max_elements))
    with tempfile.TemporaryDirectory() as d:
        f = Path(d) / "fuzz.pres"
        f.write_text(text)
        first, second = (run(*verb, *caps, str(f)) for _ in range(2))  # one report line each
    for code, rep in (first, second):
        assert code in (0, 1, 2, 3), rep
    if not (_ran_out(first[1]) or _ran_out(second[1])):
        for _, rep in (first, second):
            del rep["wall_time_s"]
        assert first == second
