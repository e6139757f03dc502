"""Command line behaviour: exit codes, output shapes, determinism."""

import contextlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wildgoppa import evidence
from wildgoppa.cli import main
from wildgoppa.gf import build_tower
from wildgoppa.poly import Polynomial


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- exit codes


def test_verify_gap_example(capsys):
    code, out, _ = run_main(
        capsys, "verify", "--p", "2", "--a", "2", "--m", "3",
        "--g", "irreducible:1", "--support", "full-minus:0",
    )
    assert code == 0
    assert "gap 1 with 1 distinct roots" in out
    assert "(20, 21)" in out and "(27, 26)" in out


def test_verify_theorem_small(capsys):
    code, out, _ = run_main(
        capsys, "verify", "--p", "2", "--m", "2", "--g", "irreducible:2",
    )
    assert code == 0
    assert "equal: yes" in out


@pytest.mark.parametrize(
    "argv,dims",
    [
        # deg g^e = 2044 >= n = 1024: the zero code, with no elimination
        (("--p", "2", "--m", "10", "--g", "irreducible:2"), "dims (0, 0)"),
        # one elimination per kernel on 192x1024 and 198x1024 over F_32
        (("--p", "2", "--a", "5", "--m", "2", "--g", "irreducible:3"), "dims (841, 841)"),
    ],
)
def test_verify_large_towers_fast(capsys, argv, dims):
    t0 = time.monotonic()
    code, out, _ = run_main(capsys, "verify", *argv)
    elapsed = time.monotonic() - t0
    assert code == 0
    assert dims in out and "equal: yes" in out
    assert elapsed < 5.0


def test_input_error_exit_2(capsys):
    code, _, err = run_main(
        capsys, "verify", "--p", "6", "--m", "2", "--g", "irreducible:2",
    )
    assert code == 2
    assert "prime" in err


def test_rooted_theorem_request_exit_2(capsys):
    code, _, err = run_main(
        capsys, "verify", "--p", "2", "--a", "2", "--m", "3",
        "--g", "irreducible:1", "--support", "full-minus:0",
        "--check", "theorem1",
    )
    assert code == 2
    assert "rootless" in err


def test_distance_budget_exit_4(capsys):
    code, _, err = run_main(
        capsys, "distance", "--p", "7", "--m", "2",
        "--g", "irreducible:3^8", "--support", "full",
    )
    assert code == 4
    assert "budget" in err


def test_evidence_f729_tau_spans_fast(capsys):
    # the tau spans of F[x]_{<728} over F_729/F_3 are 729 minus alternant
    # codes of 728 and 726 rows, each one small elimination of non-base
    # digits; their trace codes (4368 x 729 over F_3) were over the budget
    t0 = time.monotonic()
    code, out, err = run_main(
        capsys, "evidence", "--p", "3", "--m", "6", "--g", "irreducible:2",
    )
    elapsed = time.monotonic() - t0
    assert code == 0 and err == ""
    assert "tau span gap 0 (728 vs 728)" in out
    assert elapsed < 2.0


def test_evidence_K_charged_before_built_fast(capsys):
    # g = x^10000 over F_4 is within the spec's degree budget, and K would
    # be a 20000 x 60000 matrix over F_2: refused before it is built
    t0 = time.monotonic()
    code, out, err = run_main(
        capsys, "evidence", "--p", "2", "--m", "2", "--g", "irreducible:1^10000",
    )
    elapsed = time.monotonic() - t0
    assert code == 4
    assert out == "" and "20000 x 60000" in err
    assert elapsed < 5.0


def test_irreducible_budget_exit_4_fast(capsys):
    # degree 300 over F_4: the sieve of the first chunk alone is over the
    # search budget, so find_irreducible refuses before any work
    t0 = time.monotonic()
    code, out, err = run_main(
        capsys, "verify", "--p", "2", "--m", "2", "--g", "irreducible:300",
    )
    elapsed = time.monotonic() - t0
    assert code == 4
    assert out == "" and "IRREDUCIBLE_CELL_BUDGET" in err
    assert elapsed < 5.0


def test_strict_distance_exit_4(capsys):
    code, _, err = run_main(
        capsys, "table", "--id", "1", "--strict-distance",
        "--budget", "10000",
    )
    assert code == 4


@pytest.mark.parametrize("argv", [
    ("table", "--id", "1", "--budget", "-3", "--strict-distance"),
    ("distance", "--p", "2", "--m", "3", "--g", "irreducible:2", "--budget", "-1"),
])
def test_negative_budget_exit_2(capsys, argv):
    # refused as bad input before any table row or code is built
    code, out, err = run_main(capsys, *argv)
    assert code == 2
    assert out == "" and "error: --budget must be >= 0" in err


def test_spec_power_budget_exit_4_fast(capsys):
    # degree 2 * 200000 is over SPEC_POWER_DEGREE_BUDGET: refused before
    # the power is taken
    t0 = time.monotonic()
    code, out, err = run_main(
        capsys, "distance", "--p", "2", "--a", "2", "--m", "2",
        "--g", "irreducible:2^200000",
    )
    elapsed = time.monotonic() - t0
    assert code == 4
    assert out == "" and "SPEC_POWER_DEGREE_BUDGET" in err
    assert elapsed < 5.0


def test_falsification_exit_3(capsys, monkeypatch):
    # force a wrong closed form value through the dims path
    import wildgoppa.cli as cli_mod
    monkeypatch.setattr(cli_mod, "closed_form", lambda *a, **k: -1)
    code, _, err = run_main(capsys, "dims", "--p", "2", "--a", "2",
                            "--m", "3", "--t", "1")
    assert code == 3
    assert "FALSIFIED" in err


def test_argparse_rejects_unknown_table():
    with pytest.raises(SystemExit) as exc:
        main(["table", "--id", "9"])
    assert exc.value.code == 2


def test_table_has_no_jobs_option():
    with pytest.raises(SystemExit) as exc:
        main(["table", "--id", "2", "--jobs", "3"])
    assert exc.value.code == 2


# ------------------------------------------------------------------- fuzzing

FUZZ_PRIMES = (0, 1, 2, 3, 4, 5, 7)
# every (p, a, m) from the fuzz ranges except valid towers of order over 729
FUZZ_TOWERS = [
    (p, a, m) for p in FUZZ_PRIMES for a in (0, 1, 2) for m in (0, 1, 2, 3)
    if p in (0, 1, 4) or a == 0 or m == 0 or p ** (a * m) <= 729
]
FUZZ_PROPER = [t for t in FUZZ_TOWERS if t[0] in (2, 3, 5, 7) and t[1] >= 1 and t[2] >= 2]
FUZZ_G = (
    "irreducible:1", "irreducible:2", "irreducible:3", "irreducible:0",
    "irreducible:-1", "irreducible:2^0", "irreducible:1^0", "irreducible:1^2",
    "irreducible:2^2", "0", "1", "0,1", "1,1", "1,0,1", "1,1,1", "5,1",
    "1,2,3", "999,1", "-1,1", "x", "",
)
FUZZ_SUPPORT = (
    "full", "full-minus:0", "full-minus:0,1", "full-minus:0,0",
    "full-minus:999", "0", "2,1", "0,1,2", "1,2,3,4,5", "1,1", "999", "-1", "", "a",
)
FUZZ_INTS = (-1, 0, 1, 2, 3, 5, 999)
# The heaviest valid draws are exact eliminations on F_729, such as a chain
# with s = 3 (about 15 s); a hang runs past any such limit.
FUZZ_WALL_LIMIT_S = 30.0


@st.composite
def cli_argv(draw):
    """argv for one subcommand, half the time on a proper tower, with each
    option drawn from a small alphabet of valid and invalid values."""
    cmd = draw(st.sampled_from(("verify", "evidence", "distance", "dims", "classes")))
    p, a, m = draw(st.sampled_from(FUZZ_PROPER) | st.sampled_from(FUZZ_TOWERS))
    argv = [cmd, "--p", str(p), "--a", str(a), "--m", str(m)]

    def option(flag, values, required=False):
        if required or draw(st.booleans()):
            argv.extend([flag, str(draw(st.sampled_from(values)))])

    if cmd in ("verify", "evidence", "distance"):
        option("--g", FUZZ_G, required=True)
    if cmd in ("verify", "distance"):
        option("--support", FUZZ_SUPPORT)
    if cmd == "verify":
        option("--s", FUZZ_INTS)
        option("--check", ("auto", "theorem1", "gap", "chain", "sugiyama", "rs"))
    if cmd == "evidence":
        option("--lam", FUZZ_INTS)
    if cmd == "distance":
        option("--budget", (-1, 0, 1, 100))
    if cmd in ("dims", "classes"):
        option("--t", FUZZ_INTS, required=cmd == "dims")
    if cmd == "dims":
        option("--n", FUZZ_INTS)
    option("--format", ("text", "json"))
    return argv


def run_cli_bounded(argv):
    """Exit code, stdout, stderr and wall time of main(argv), argparse exits
    included; any exception escaping main fails the calling test."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.monotonic()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback at the console
            pytest.fail(f"{' '.join(argv)!r} raised {exc!r}")
    return code, out.getvalue(), err.getvalue(), time.monotonic() - t0


# derandomized, so that Tier-1 runs the same examples, in the same time
@settings(max_examples=400, deadline=None, derandomize=True)
@given(argv=cli_argv())
def test_cli_fuzz_defined_exit(argv):
    code, out, err, elapsed = run_cli_bounded(argv)
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    assert elapsed < FUZZ_WALL_LIMIT_S, (argv, elapsed)
    if argv[0] == "dims" and code == 0:
        if out.startswith("{"):
            data = json.loads(out)
            n, k = data["n"], data["k"]
        else:
            _, n, _, k = out.split()[:4]
        assert 0 <= int(k) <= int(n), (argv, out)


@pytest.mark.parametrize("argv,want", [
    ("verify --p 4 --m 2 --g irreducible:2", 2),
    ("verify --p 1 --m 2 --g irreducible:2", 2),
    ("verify --p 2 --m 1 --g irreducible:2", 2),
    ("evidence --p 2 --m 1 --g irreducible:2", 2),
    ("verify --p 2 --m 2 --g 0", 2),
    ("verify --p 2 --m 2 --g 1", 2),
    ("verify --p 2 --m 2 --g irreducible:2^0", 2),
    ("verify --p 2 --m 2 --g irreducible:2 --support 1,1", 2),
    ("verify --p 2 --m 2 --g irreducible:2 --check chain --s 0", 2),
    ("evidence --p 2 --m 2 --g irreducible:2 --lam 4", 2),
    ("evidence --p 2 --m 2 --g irreducible:2 --lam 0", 2),
    ("evidence --p 2 --m 2 --g irreducible:2 --lam 2", 2),
    ("verify --p 2 --m 10 --g irreducible:2", 0),
    ("evidence --p 2 --m 10 --g irreducible:2", 0),
    ("verify --p 2 --a 5 --m 2 --g irreducible:3", 0),
    ("verify --p 2 --m 2 --g irreducible:300", 4),
    ("verify --p 2 --m 2 --g irreducible:2 --s 999", 0),
    ("verify --p 2 --m 2 --g irreducible:2 --s 16667", 4),
    ("dims --p 2 --m 3 --t 1 --n 6", 2),
    ("dims --p 4 --m 2 --t 2", 2),
    ("classes --p 4 --m 2", 2),
    ("verify --p 2305843009213693951 --m 2 --g irreducible:2", 2),
    ("dims --p 2305843009213693951 --m 2 --t 1", 4),
    ("verify --p 2 --a 1000000000 --m 2 --g irreducible:2", 2),
    ("dims --p 2 --a 1000000000 --m 2 --t 1", 4),
    ("classes --p 3 --m 100000000", 4),
])
def test_probe_defined_exit_fast(argv, want):
    # bad p, m = 1, g = 0 or 1, ^0, duplicate support, s = 0, a bad lambda,
    # the m = 10 cases, the F_1024 case, irreducible:300 over F_4, a chain
    # of 1,001 zero codes (g^j of degree up to 5,994 >= n = 4), one whose
    # top power g^50001 has degree 100,002, over SPEC_POWER_DEGREE_BUDGET,
    # a dims length below the parity rank (7 for q = 2, m = 3, t = 1),
    # dims and classes on a non-prime p, which build no field, and towers
    # sized from bit lengths before the prime 2^61 - 1 is factored or
    # 2^(2 * 10^9) or 3^(10^8) formed: over ORDER_CAP (exit 2) or over
    # CLASS_MODULUS_BUDGET (exit 4)
    code, _, err, elapsed = run_cli_bounded(argv.split())
    assert code == want, err
    assert "Traceback" not in err
    assert elapsed < 5.0


def test_probe_dense_g_fast():
    # a dense rootless g of degree 30,000 over F_4: deg g^j >= n = 4, so both
    # codes are zero, and no power of g is formed
    field = build_tower(2, 1, 2)
    coeffs = [1 + i % 3 for i in range(30_000)] + [1]
    coeffs[0] = next(c for c in (1, 2, 3)
                     if Polynomial(field, [c] + coeffs[1:]).evaluate_codes(np.arange(4)).all())
    argv = ["verify", "--p", "2", "--m", "2", "--g", ",".join(map(str, coeffs))]
    code, out, err, elapsed = run_cli_bounded(argv)
    assert code == 0, err
    assert out.splitlines() == ["exponents (2, 3) dims (0, 0)", "equal: yes"]
    assert elapsed < 5.0


@pytest.mark.parametrize("check", ["chain", "sugiyama"])
def test_probe_dense_g_over_power_budget_fast(check):
    # a random dense rootless g of degree 12,000 over F_4 with s = 5: the top
    # power g^15 (chain) or g^10 (sugiyama) is over SPEC_POWER_DEGREE_BUDGET,
    # which is charged before the squarefree test's gcd, quadratic in deg g
    field = build_tower(2, 1, 2)
    rng = np.random.default_rng(12)
    coeffs = [int(c) for c in rng.integers(0, 4, size=12_000)] + [1]
    coeffs[0] = next(c for c in (1, 2, 3)
                     if Polynomial(field, [c] + coeffs[1:]).evaluate_codes(np.arange(4)).all())
    argv = ["verify", "--p", "2", "--m", "2", "--g", ",".join(map(str, coeffs)),
            "--s", "5", "--check", check]
    code, out, err, elapsed = run_cli_bounded(argv)
    assert code == 4, err
    assert out == "" and "SPEC_POWER_DEGREE_BUDGET" in err
    assert elapsed < 1.0


@pytest.mark.parametrize("check", [["--s", "1"], ["--check", "sugiyama"]])
@pytest.mark.parametrize("degree,want", [(30_000, 4), (10_000, 0)])
def test_probe_dense_g_squarefree_gcd_charged(check, degree, want):
    # a random dense rootless g over F_4: the squarefree test's gcd(g, g') is
    # charged deg(g)^2 lookups against IRREDUCIBLE_CELL_BUDGET (1e8) before
    # it runs, so degree 30,000 is refused at once and 10,000 still answers
    field = build_tower(2, 1, 2)
    rng = np.random.default_rng(degree)
    coeffs = [int(c) for c in rng.integers(0, 4, size=degree)] + [1]
    coeffs[0] = next(c for c in (1, 2, 3)
                     if Polynomial(field, [c] + coeffs[1:]).evaluate_codes(np.arange(4)).all())
    argv = ["verify", "--p", "2", "--m", "2", "--g", ",".join(map(str, coeffs)), *check]
    code, out, err, elapsed = run_cli_bounded(argv)
    assert code == want, err
    if want == 4:
        assert out == "" and "IRREDUCIBLE_CELL_BUDGET" in err
        assert elapsed < 5.0
    else:
        assert "equal: yes" in out


def test_evidence_degree_120_power_answers_in_bounded_time():
    # g = h^3, h the degree-40 irreducible over F_4: irreducible_power raises
    # x^(Q^dh) mod g to the Q-th power once per factor degree dh, about
    # 0.18 s, once per run as every check shares the split.  Both witnesses
    # are x^13 + 2 x^11, index 75,497,472 = 4^13 + 2 * 4^11: the descent
    # certifies the ring, clears layers 3-12 by certificates and enters
    # layer 13 digit by digit, in about 0.6 s in a fresh process on 2 cores
    argv = ["evidence", "--p", "2", "--m", "2", "--g", "irreducible:40^3"]
    code, out, err, elapsed = run_cli_bounded(argv)
    assert code == 0, err
    coeffs = "[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1]"
    assert f"startkey residue coeffs {coeffs}\n" in out
    assert f"decomposition witness coeffs {coeffs}: 720 = 239 + 1 + 480\n" in out
    assert elapsed < 10.0


def test_evidence_witness_search_refused_in_bounded_time():
    # mod the degree-100 irreducible over F_8/F_2 the certificates of the
    # layers grow as (3 j + 1)^3 and clear every degree below 13 before
    # WITNESS_SCAN_BUDGET is spent: exit 4 in about 2 s, naming the index
    # below which no witness exists
    argv = ["evidence", "--p", "2", "--m", "3", "--g", "irreducible:100"]
    code, out, err, elapsed = run_cli_bounded(argv)
    assert code == 4 and out == ""
    assert "startkey search: no witness below index " in err
    assert "within WITNESS_SCAN_BUDGET = 262144" in err
    assert elapsed < 10.0


# -------------------------------------------------------------------- output


def test_dims_json(capsys):
    code, out, _ = run_main(
        capsys, "--format", "json", "dims", "--p", "3", "--a", "2",
        "--m", "2", "--t", "7",
    )
    assert code == 0
    data = json.loads(out)
    assert data["k"] == 4 and data["k_closed_form"] == 4
    assert data["n"] == 81 and data["q"] == 9


def test_format_after_subcommand(capsys):
    code, out, _ = run_main(
        capsys, "dims", "--p", "3", "--a", "2", "--m", "2", "--t", "7",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["k"] == 4


def test_classes_output(capsys):
    code, out, _ = run_main(
        capsys, "classes", "--p", "2", "--m", "3", "--t", "1",
    )
    assert code == 0
    assert "modulus 7, 3 classes" in out
    assert "members [1, 2, 4]" in out


def test_classes_json_window(capsys):
    code, out, _ = run_main(
        capsys, "--format", "json", "classes", "--p", "2", "--m", "3",
        "--t", "1",
    )
    data = json.loads(out)
    assert data["window"] == 7
    assert sum(c["size"] for c in data["classes"]) == data["modulus"]


@pytest.mark.parametrize("argv", [
    ("classes", "--p", "2", "--m", "40"),
    ("dims", "--p", "2", "--m", "40", "--t", "1"),
])
def test_class_modulus_budget_exit_4_fast(capsys, argv):
    # 2^40 - 1 residues would not fit in memory; refused before allocating
    t0 = time.monotonic()
    code, out, err = run_main(capsys, *argv)
    assert code == 4
    assert out == "" and "budget" in err
    assert time.monotonic() - t0 < 5.0


@pytest.mark.parametrize("t", ["0", "-3"])
def test_classes_rejects_t_below_one(capsys, t):
    code, out, err = run_main(
        capsys, "classes", "--p", "2", "--m", "2", "--t", t,
    )
    assert code == 2
    assert out == "" and "t >= 1" in err


def test_evidence_output(capsys):
    code, out, _ = run_main(
        capsys, "evidence", "--p", "2", "--m", "2", "--g", "irreducible:2",
    )
    assert code == 0
    assert "dim K = 3" in out
    assert "12 = 3 + 1 + 8" in out


def test_evidence_builds_one_stack(capsys, monkeypatch):
    # verify_K_properties and find_decomposition share one kernel per run:
    # the m t = 4 generators of K reduced mod g, over F_4
    evidence._K_plus_gF.cache_clear()
    shapes = []
    real = evidence.kernel
    monkeypatch.setattr(evidence, "kernel", lambda M: shapes.append(M.shape) or real(M))
    code, out, _ = run_main(
        capsys, "evidence", "--p", "2", "--a", "2", "--m", "2", "--g", "irreducible:2",
    )
    assert code == 0 and "decomposition witness" in out
    assert shapes == [(4, 4)]


def test_evidence_linear_base_skips_decomposition(capsys):
    code, out, _ = run_main(
        capsys, "evidence", "--p", "2", "--m", "2", "--g", "irreducible:1^2",
    )
    assert code == 0
    assert "skipped" in out


@pytest.mark.parametrize("g,lam,msg", [
    ("irreducible:1", "99", "out of range"),
    ("irreducible:1^2", "-5", "out of range"),
    ("irreducible:2", "0", "nonzero"),
    ("irreducible:2", "2", "trace zero"),
])
def test_evidence_rejects_bad_lam(capsys, g, lam, msg):
    # --lam is checked before any work, also when a linear base factor
    # skips the witness scans
    code, out, err = run_main(
        capsys, "evidence", "--p", "2", "--m", "2", "--g", g, "--lam", lam,
    )
    assert code == 2
    assert out == "" and msg in err


def test_evidence_scan_budget_exit_4(capsys, monkeypatch):
    # over F_16/F_4 the first witness of irreducible:2 is candidate 16, the
    # first of layer 1: the ring's certificate (25 tuples), residue 1 and a
    # certificate of 9 tuples that clear layer 0, and residue 16 are
    # charged 25 + 1 + 9 + 1, so a cap of 35 refuses at residue 16
    argv = ["evidence", "--p", "2", "--a", "2", "--m", "2", "--g", "irreducible:2"]
    monkeypatch.setattr(evidence, "WITNESS_SCAN_BUDGET", 35)
    code, out, err = run_main(capsys, *argv)
    assert code == 4
    assert out == "" and "no witness below index 16 of 256 candidates" in err
    assert "WITNESS_SCAN_BUDGET = 35" in err
    monkeypatch.setattr(evidence, "WITNESS_SCAN_BUDGET", 36)
    code, out, err = run_main(capsys, *argv)
    assert code == 0 and "startkey residue coeffs [0, 1]" in out


def test_evidence_far_witness_fast(capsys):
    # the first witness over F_256/F_16 is candidate 69,632 of 256^3
    t0 = time.monotonic()
    code, out, _ = run_main(
        capsys, "evidence", "--p", "2", "--a", "4", "--m", "2",
        "--g", "irreducible:3",
    )
    elapsed = time.monotonic() - t0
    assert code == 0
    assert "decomposition witness coeffs [0, 16, 1]" in out
    assert elapsed < 5.0


@pytest.mark.parametrize("g", ["0,1", "irreducible:2"])
def test_evidence_rejects_degenerate_tower(capsys, g):
    # m = 1 has no proper subfield: refused as bad input before any work
    code, out, err = run_main(
        capsys, "evidence", "--p", "2", "--a", "2", "--m", "1", "--g", g,
    )
    assert code == 2
    assert out == ""
    assert "need a proper tower m >= 2, got m=1" in err


def test_distance_small(capsys):
    code, out, _ = run_main(
        capsys, "distance", "--p", "5", "--m", "2",
        "--g", "irreducible:3^6", "--support", "full",
    )
    assert code == 0
    assert "n 25  k 4  d 19" in out


def test_distance_large_enumeration_fast(capsys):
    # k = 11 over F_4: 4^11 - 1 nonzero codewords under the default budget
    t0 = time.monotonic()
    code, out, _ = run_main(
        capsys, "distance", "--p", "2", "--a", "2", "--m", "2",
        "--g", "irreducible:2", "--support", "full-minus:0",
    )
    elapsed = time.monotonic() - t0
    assert code == 0
    assert out == "n 15  k 11  d 3\n"
    assert elapsed < 5.0


def test_sugiyama_check(capsys):
    code, out, _ = run_main(
        capsys, "verify", "--p", "2", "--m", "2", "--g", "0,1",
        "--support", "full-minus:0", "--check", "sugiyama", "--s", "1",
    )
    assert code == 0
    assert "equal: yes" in out


def test_rs_check(capsys):
    code, out, _ = run_main(
        capsys, "verify", "--p", "3", "--m", "2", "--g", "irreducible:2",
        "--check", "rs",
    )
    assert code == 0
    assert "matches: yes" in out


def test_chain_check_with_s(capsys):
    code, out, _ = run_main(
        capsys, "verify", "--p", "2", "--m", "2", "--g", "irreducible:2",
        "--s", "2", "--check", "chain",
    )
    assert code == 0
    assert "(3, 4, 5, 6)" in out


# -------------------------------------------------------------------- golden

GOLDEN_PATH = Path(__file__).parent / "data" / "cli_golden.json"


@pytest.mark.parametrize(
    "case", json.loads(GOLDEN_PATH.read_text()),
    ids=lambda case: " ".join(case["argv"][2:]),
)
def test_json_reports_golden(capsys, case):
    """The JSON reports of every `verify` check and of `evidence` are frozen:
    stdout and exit code must match the recorded bytes."""
    code, out, _ = run_main(capsys, *case["argv"])
    assert code == case["code"]
    assert out == case["stdout"]


# -------------------------------------------------------------- determinism


def _run_proc(args):
    return subprocess.run(
        [sys.executable, "-m", "wildgoppa.cli", *args],
        capture_output=True, text=True, check=True,
    ).stdout


def test_table2_byte_identical():
    args = ["--format", "json", "table", "--id", "2"]
    one = _run_proc(args)
    two = _run_proc(args)
    assert one == two
    rows = json.loads(one)["rows"]
    assert [(r["n"], r["k"]) for r in rows] == [
        (63, 26), (124, 63), (342, 215), (511, 342)]
    assert all(r["gap"] == 1 for r in rows)


def test_table1_byte_identical():
    args = ["--format", "json", "table", "--id", "1", "--budget", "10000"]
    one = _run_proc(args)
    two = _run_proc(args)
    assert one == two
    rows = json.loads(one)["rows"]
    assert len(rows) == 13
    assert all(r["formula_ok"] and r["identity_ok"] for r in rows)
