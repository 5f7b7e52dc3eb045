"""CLI surface: configs, artifacts, exit codes, determinism."""

import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadartin import experiments, fp2
from quadartin.arith import factorize, is_prime, jacobi, primes_up_to
from quadartin.cli import CONFIG_SCHEMA, BadConfig, main, validate_config


def run(tmp_path, command, cfg, outdir="out", extra=()):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / outdir
    code = main(
        [command, "--config", str(cfg_path), "--out", str(out), *extra]
    )
    return code, out


# ---------------------------------------------------------------------------
# construct

def test_construct_known_class(tmp_path):
    code, out = run(tmp_path, "construct", {"a": -4, "delta": 5})
    assert code == 0
    doc = json.loads((out / "construction.json").read_text())
    assert (doc["u"], doc["v"], doc["p0"]) == (547, 720, 7)
    assert math.gcd(doc["u"], doc["v"]) == 1
    assert doc["failures"] == []
    assert doc["verified_to"] == 10**5
    # residues recoverable from u itself
    assert doc["u"] % 16 == doc["residues"]["16"]
    assert doc["u"] % 9 == doc["residues"]["9"]
    assert doc["u"] % 5 == doc["residues"]["5"]


def test_construct_square_a_exits_2(tmp_path):
    from quadartin.construction import SquareHypothesisWarning

    with pytest.warns(SquareHypothesisWarning):
        code, _ = run(tmp_path, "construct", {"a": 1, "delta": 5})
    assert code == 2


def test_construct_histograms_cover_checked(tmp_path):
    code, out = run(
        tmp_path, "construct", {"a": -1, "delta": 2, "verify_bound": 10**4}
    )
    assert code == 0
    doc = json.loads((out / "construction.json").read_text())
    assert (doc["u"], doc["v"]) == (43, 144)
    checked = sum(doc["v2_minus"].values())
    assert checked == sum(doc["v2_plus"].values())
    assert set(doc["v2_minus"]) <= {"1", "2"}


# ---------------------------------------------------------------------------
# scan

SCAN_CFG = {
    "delta": 5,
    "members": [[2, 1], [1, 1], [3, 2]],
    "prime_min": 3,
    "prime_max": 2000,
}


def test_scan_artifacts(tmp_path):
    code, out = run(tmp_path, "scan", SCAN_CFG)
    assert code == 0
    lines = (out / "scan.csv").read_text().splitlines()
    assert lines[0] == "p,member,ord_alpha,ord_N,ord_M,attained"
    summary = json.loads((out / "scan_summary.json").read_text())
    assert len(lines) == 1 + 3 * summary["prime_count"]
    assert summary["attained_family"] > 0
    assert summary["attained_family"] >= max(
        summary["attained_per_member"].values()
    )
    assert 0 < summary["family_fraction"] <= 1
    # member norms are (-1, -4, -11); the unit forces a dependent verdict
    assert summary["norms_independent"] is False
    # norms -1, -4, -11: negative, and 5*N*delta in {-25, -100, -275}
    assert summary["square_guard"] == {
        "2+1r5": True,
        "1+1r5": True,
        "3+2r5": True,
    }
    assert summary["congruence"] is None


def test_scan_chain_validates_in_passing(tmp_path):
    # every CSV row satisfies the divisibility chain
    code, out = run(tmp_path, "scan", SCAN_CFG)
    assert code == 0
    rows = (out / "scan.csv").read_text().splitlines()[1:]
    for row in rows:
        p, _, oa, on, om, att = row.split(",")
        p, oa, on, om = int(p), int(oa), int(on), int(om)
        assert (p * p - 1) % oa == 0
        assert (p - 1) % on == 0
        assert (p + 1) % om == 0
        assert (2 * oa) % (on * om) == 0
        assert int(att) == (24 * oa >= p * p - 1)


def test_scan_empty_range(tmp_path):
    cfg = dict(SCAN_CFG, prime_min=4, prime_max=4)
    code, out = run(tmp_path, "scan", cfg)
    assert code == 0
    assert (out / "scan.csv").read_text().splitlines() == [
        "p,member,ord_alpha,ord_N,ord_M,attained"
    ]
    summary = json.loads((out / "scan_summary.json").read_text())
    assert summary["prime_count"] == 0
    assert summary["family_fraction"] == 0.0


def test_scan_deterministic_rerun(tmp_path):
    _, out1 = run(tmp_path, "scan", SCAN_CFG, outdir="a")
    _, out2 = run(tmp_path, "scan", SCAN_CFG, outdir="b")
    assert (out1 / "scan.csv").read_bytes() == (out2 / "scan.csv").read_bytes()
    assert (out1 / "scan_summary.json").read_bytes() == (
        out2 / "scan_summary.json"
    ).read_bytes()


def test_scan_with_congruence_class(tmp_path):
    cfg = dict(SCAN_CFG, use_congruence=True, a=-4, prime_max=20000)
    code, out = run(tmp_path, "scan", cfg)
    assert code == 0
    summary = json.loads((out / "scan_summary.json").read_text())
    assert summary["congruence"] == {"u": 547, "v": 720}
    # all scanned primes lie in the class
    rows = (out / "scan.csv").read_text().splitlines()[1:]
    for row in rows:
        assert int(row.split(",")[0]) % 720 == 547


@pytest.mark.parametrize("mode", ["dense", "congruence"])
def test_scan_window_past_1e12(tmp_path, mode):
    # only the window is sieved, by the primes up to its square root, and
    # its primes take the scalar route
    lo = 10**12
    if mode == "dense":
        hi = lo + 2000
        cfg = dict(SCAN_CFG, prime_min=lo, prime_max=hi)
        want = [p for p in range(lo + 1, hi + 1, 2) if is_prime(p) and jacobi(5, p) == -1]
    else:
        hi = lo + 10**5
        cfg = dict(SCAN_CFG, prime_min=lo, prime_max=hi, use_congruence=True, a=-4)
        want = [p for p in range(lo + (547 - lo) % 720, hi + 1, 720) if is_prime(p)]
    code, out = run(tmp_path, "scan", cfg)
    assert code == 0
    rows = (out / "scan.csv").read_text().splitlines()[1:]
    assert [int(r.split(",")[0]) for r in rows[::3]] == want and len(want) > 10
    assert json.loads((out / "scan_summary.json").read_text())["prime_count"] == len(want)


def test_scan_negative_norms(tmp_path):
    # norms -11 and -41: negative and no unit among them
    cfg = dict(SCAN_CFG, members=[[3, 2], [2, 3]])
    code, out = run(tmp_path, "scan", cfg)
    assert code == 0
    summary = json.loads((out / "scan_summary.json").read_text())
    assert summary["norms_independent"] is True


@pytest.mark.parametrize(
    "workers",
    [
        "1",
        pytest.param(
            "2",
            marks=pytest.mark.skipif(
                multiprocessing.get_start_method() != "fork",
                reason="the patched kernel reaches pool workers only through fork",
            ),
        ),
    ],
)
def test_scan_broken_chain_exits_3(tmp_path, monkeypatch, capsys, workers):
    # an understated ord_N leaves alpha^(2L) != 1, which the scan pass must
    # report as a chain violation, also from a pool worker (64-prime blocks
    # put the 155 primes past the pool's one-block threshold); scan.csv is
    # written only after the whole pass, so none is left behind
    monkeypatch.setattr(fp2, "_orders_mod_p", lambda a, p, rows: np.ones_like(a))
    monkeypatch.setattr(experiments, "PRIME_BLOCK", 64)
    code, out = run(tmp_path, "scan", SCAN_CFG, extra=("--workers", workers))
    assert code == 3
    assert "order chain broken" in capsys.readouterr().err
    assert not (out / "scan.csv").exists()


# Digests of scan.csv and scan_summary.json written by the scalar per-prime
# scan that the array kernel replaced: the kernel must reproduce it byte for
# byte, skips and the congruence class included.
PINNED_SCANS = {
    "delta5": (
        dict(SCAN_CFG, prime_max=20000),
        "aa610e225427e511ff773a0f55bf372c3889da49fd797703497a4757ece81e14",
        "59ff27e2fcc5d82d146a092474f6b80edb30f04e3766e9ef414c8f9de68c8c0d",
    ),
    "delta13-one-skipped": (
        {"delta": 13, "members": [[3, 1], [4, 0], [0, 1], [7, 7]], "prime_min": 2,
         "prime_max": 20000},
        "9ef6829a07666527849dbe1727ad207313037b240cacf1c891a6fb0ea6e35526",
        "36862585cc11a6e8fe5c641de5387bd2da93ec2fd4c5dfaaf8940a2f51d14511",
    ),
    "delta5-class-1e6": (
        dict(SCAN_CFG, use_congruence=True, a=-4, prime_max=10**6),
        "706faab915c4fa20aa018229ecc1f74b5558175c18e71c5cc38a2bde847bad20",
        "c41131baeee1842ef69059c3f2bc4e67a805cdaf8fa63dcb08348a6300477249",
    ),
}


@pytest.mark.parametrize(
    "cfg, csv_sha, summary_sha", PINNED_SCANS.values(), ids=list(PINNED_SCANS)
)
def test_scan_artifacts_pinned(tmp_path, cfg, csv_sha, summary_sha):
    code, out = run(tmp_path, "scan", cfg)
    assert code == 0
    assert hashlib.sha256((out / "scan.csv").read_bytes()).hexdigest() == csv_sha
    assert hashlib.sha256((out / "scan_summary.json").read_bytes()).hexdigest() == summary_sha


def test_kernel_scan_builds_no_order_record(tmp_path, monkeypatch):
    # below 2**31 scan.csv is written from the kernel's arrays: every
    # OrderRecord check is an array predicate there, so none is built
    def no_record(*args, **kwargs):
        raise AssertionError("OrderRecord built on the kernel route")

    monkeypatch.setattr(fp2, "OrderRecord", no_record)
    monkeypatch.setattr(experiments, "OrderRecord", no_record, raising=False)
    for name, (cfg, csv_sha, summary_sha) in PINNED_SCANS.items():
        code, out = run(tmp_path, "scan", cfg, outdir=name)
        assert code == 0, name
        assert hashlib.sha256((out / "scan.csv").read_bytes()).hexdigest() == csv_sha
        assert hashlib.sha256((out / "scan_summary.json").read_bytes()).hexdigest() == summary_sha


def test_scan_bad_configs(tmp_path):
    code, _ = run(tmp_path, "scan", {"delta": 5})
    assert code == 4
    code, _ = run(tmp_path, "scan", dict(SCAN_CFG, bogus=1))
    assert code == 4
    code, _ = run(tmp_path, "scan", dict(SCAN_CFG, prime_min=100, prime_max=3))
    assert code == 4


# ---------------------------------------------------------------------------
# sieve

SIEVE_CFG = {
    "a": -4,
    "delta": 5,
    "prime_max": 10**4,
    "d_max": 30,
    "z": 2,
}


def test_sieve_artifacts(tmp_path):
    code, out = run(tmp_path, "sieve", SIEVE_CFG)
    assert code == 0
    lines = (out / "sieve.csv").read_text().splitlines()
    assert lines[0] == "d,rho,Ad,main,Rd"
    report = json.loads((out / "sieve_report.json").read_text())
    assert report["rows"] == len(lines) - 1
    # d column: squarefree, coprime to 720 (hence odd), rho = 2^nu
    seen_d1 = None
    for line in lines[1:]:
        d, rho_d, ad, main, rd = line.split(",")
        d, rho_d, ad = int(d), int(rho_d), int(ad)
        f = factorize(d)
        assert f.is_squarefree and math.gcd(d, 720) == 1
        assert rho_d == 2**f.nu
        assert float(rd) == pytest.approx(ad - float(main), abs=1e-9)
        if d == 1:
            seen_d1 = ad
    # z = 2: nothing sieved, survivors equal the d = 1 row
    assert report["survivors"] == seen_d1
    assert report["t0"] == 4.42
    assert report["threshold_ok"] == (report["threshold"] > 4.42)
    assert isinstance(report["notes"], list) and report["notes"]


def test_sieve_deterministic_rerun(tmp_path):
    _, out1 = run(tmp_path, "sieve", SIEVE_CFG, outdir="a")
    _, out2 = run(tmp_path, "sieve", SIEVE_CFG, outdir="b")
    assert (out1 / "sieve.csv").read_bytes() == (out2 / "sieve.csv").read_bytes()
    assert (out1 / "sieve_report.json").read_bytes() == (
        out2 / "sieve_report.json"
    ).read_bytes()


def test_sieve_bad_z_is_config_error(tmp_path):
    code, _ = run(tmp_path, "sieve", dict(SIEVE_CFG, z=1))
    assert code == 4


def test_sieve_large_c2_gives_empty_window(tmp_path):
    # (log x)^c2 overflows a float here; the level D underflows to 0 instead
    code, out = run(tmp_path, "sieve", dict(SIEVE_CFG, c2=1000))
    assert code == 0
    report = json.loads((out / "sieve_report.json").read_text())
    assert report["remainder_d_bound"] == -1
    assert report["remainder_total"] == 0


# These a give the class 547 or 563 mod 720 with delta = 5, on which a is a
# square mod every prime; the eight a the benchmark draws keep (a|p) = -1.
BROKEN_CLASS_A = [-2, 6, -6, 10]
SIEVE_A_POOL = [-4, 2, -3, -1, -10, 3, -12, 8]


@pytest.mark.parametrize("a", BROKEN_CLASS_A)
def test_broken_class_exits_3(tmp_path, capsys, a):
    for command, cfg in (
        ("sieve", dict(SIEVE_CFG, a=a)),
        ("scan", dict(SCAN_CFG, a=a, use_congruence=True)),
    ):
        code, out = run(tmp_path, command, cfg)
        assert code == 3, command
        err = capsys.readouterr().err
        assert err.startswith("error: (a|p) = +1") and err.count("\n") == 1, err
        assert not (out / "sieve.csv").exists() and not (out / "scan.csv").exists()
    # construct still writes its verification and exits 3 on the same class
    code, out = run(tmp_path, "construct", {"a": a, "delta": 5, "verify_bound": 10**4})
    assert code == 3
    assert json.loads((out / "construction.json").read_text())["failures"]


@pytest.mark.parametrize("a", SIEVE_A_POOL)
def test_sieve_class_with_intact_symbols_runs(tmp_path, a):
    code, _ = run(tmp_path, "sieve", dict(SIEVE_CFG, a=a))
    assert code == 0


def test_sieve_requires_a_and_delta(tmp_path):
    code, _ = run(tmp_path, "sieve", {"prime_max": 1000})
    assert code == 4


# Fourteen odd primes in a put v = 144 * 5 * 7 * ... * 53 near 7.8e20, past
# int64; the class filter must stay exact there.
BIG_V_A = math.prod([5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53])
BIG_V_RUNS = {
    "construct": ({"verify_bound": 10**4}, "construction.json", ("v",)),
    "scan": (
        {"members": [[2, 1], [1, 1]], "prime_min": 3, "prime_max": 10**4,
         "use_congruence": True},
        "scan_summary.json",
        ("congruence", "v"),
    ),
    "sieve": ({"prime_max": 10**4}, "sieve_report.json", ("v",)),
}


@pytest.mark.parametrize("command", sorted(BIG_V_RUNS))
def test_modulus_past_int64(tmp_path, command):
    extra, artifact, path = BIG_V_RUNS[command]
    code, out = run(tmp_path, command, dict(extra, a=BIG_V_A, delta=5))
    assert code == 0
    doc = json.loads((out / artifact).read_text())
    for key in path:
        doc = doc[key]
    assert doc == 144 * BIG_V_A > 2**63


@pytest.mark.parametrize("a_exp", [1.5, 1.0])
def test_sieve_remainder_ceiling_undefined_when_x_below_one(tmp_path, a_exp):
    # X = li(1e5)/phi(v) is about 1e-16 here, so log X < 0 and the ceiling
    # c3*X/log(X)^A would be negative (A = 1) or complex (A = 1.5).
    cfg = {"a": BIG_V_A, "delta": 5, "prime_max": 10**5, "A": a_exp}
    code, out = run(tmp_path, "sieve", cfg)
    assert code == 0
    doc = json.loads((out / "sieve_report.json").read_text())
    assert doc["big_x"] <= 1
    assert doc["remainder_ceiling"] is None
    assert doc["remainder_within"] is False
    assert any("ceiling" in n and "undefined" in n for n in doc["notes"])


# ---------------------------------------------------------------------------
# lemma42

def test_lemma42_dependent_gens_exit_5(tmp_path):
    code, _ = run(tmp_path, "lemma42", {"gens": [2, 4], "prime_max": 1000})
    assert code == 5


def test_lemma42_growth_artifact(tmp_path):
    cfg = {"gens": [2, 3], "prime_max": 10**4}
    code, out = run(tmp_path, "lemma42", cfg)
    assert code == 0
    doc = json.loads((out / "growth.json").read_text())
    assert doc["gens"] == [2, 3]
    assert doc["prime_count"] == 1227
    assert doc["slope"] <= 1.8
    ys = [y for y, _ in doc["samples"]]
    assert ys == sorted(ys)


def test_lemma42_rejects_prime_max_past_int32(tmp_path, capsys):
    code, _ = run(tmp_path, "lemma42", {"gens": [2, 3], "prime_max": 2**31})
    assert code == 4
    assert "2**31" in capsys.readouterr().err


@pytest.mark.parametrize(
    "cfg",
    [
        {"gens": []},
        {"gens": [0, 3]},
        {"gens": ["x"]},
        {"gens": [2, 3], "y_grid": ["a"]},
        {"gens": [2.5, 3]},
    ],
    ids=["empty", "zero", "string", "grid-string", "float"],
)
def test_lemma42_malformed_config_exits_4(tmp_path, capsys, cfg):
    code, _ = run(tmp_path, "lemma42", dict(cfg, prime_max=1000))
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: lemma42 needs") and err.count("\n") == 1


def test_lemma42_unsorted_grid_sorted_in_output(tmp_path):
    cfg = {"gens": [2, 3], "prime_max": 2000, "y_grid": [100, 10, 1000]}
    code, out = run(tmp_path, "lemma42", cfg)
    assert code == 0
    doc = json.loads((out / "growth.json").read_text())
    assert [y for y, _ in doc["samples"]] == [10.0, 100.0, 1000.0]


# ---------------------------------------------------------------------------
# independence

def test_independence_rational_independent(tmp_path):
    code, out = run(tmp_path, "independence", {"values": [2, 3]})
    assert code == 0
    doc = json.loads((out / "independence.json").read_text())
    assert doc["rational"]["independent"] is True
    assert doc["rational"]["relation"] is None


def test_independence_rational_dependent(tmp_path):
    code, out = run(tmp_path, "independence", {"values": [2, 4]})
    assert code == 5
    doc = json.loads((out / "independence.json").read_text())
    assert doc["rational"]["relation"] == [2, -1]


def test_independence_norm_one_hidden_relation(tmp_path):
    cfg = {"delta": 5, "members": [[1, 1], [2, 1]], "B": 5}
    code, out = run(tmp_path, "independence", cfg)
    assert code == 5
    doc = json.loads((out / "independence.json").read_text())
    assert doc["norm_one"]["independent"] is False
    assert doc["norm_one"]["relation"] == [3, -1]


def test_independence_norm_one_singleton(tmp_path):
    cfg = {"delta": 5, "members": [[2, 1]], "B": 8}
    code, out = run(tmp_path, "independence", cfg)
    assert code == 0
    doc = json.loads((out / "independence.json").read_text())
    assert doc["norm_one"]["independent"] is True
    assert doc["norm_one"]["search_bound"] == 8


def test_independence_needs_input(tmp_path):
    code, _ = run(tmp_path, "independence", {})
    assert code == 4


# ---------------------------------------------------------------------------
# config schema

# Each of these used to exit 1 with a traceback, or to run with a meaning
# other than the one written: a truncated float, a negative bound read as
# "none", a string read as a list or as true, a negative c2 that put the
# remainder window above sqrt(X), a prime_max past the int64 prime arrays.
MALFORMED = {
    "scan-member-zero": ("scan", dict(SCAN_CFG, members=[[0, 0]])),
    "scan-member-float": ("scan", dict(SCAN_CFG, members=[[1.5, 1]])),
    "scan-members-string": ("scan", dict(SCAN_CFG, members="ab")),
    "scan-member-triple": ("scan", dict(SCAN_CFG, members=[[2, 1, 3]])),
    "scan-delta-square": ("scan", dict(SCAN_CFG, delta=4)),
    "scan-prime-min-string": ("scan", dict(SCAN_CFG, prime_min="x")),
    "scan-prime-max-fraction": ("scan", dict(SCAN_CFG, prime_max=100.9)),
    "scan-congruence-string": ("scan", dict(SCAN_CFG, use_congruence="no")),
    "scan-prime-max-past-int64": ("scan", dict(SCAN_CFG, prime_max=1e300)),
    "construct-a-zero": ("construct", {"a": 0, "delta": 5}),
    "construct-delta-zero": ("construct", {"a": -4, "delta": 0}),
    "construct-verify-negative": ("construct", {"a": -4, "delta": 5, "verify_bound": -3}),
    "sieve-prime-max-fraction": ("sieve", dict(SIEVE_CFG, prime_max=10000.7)),
    "sieve-d-max-negative": ("sieve", dict(SIEVE_CFG, d_max=-5)),
    "sieve-c2-negative": ("sieve", dict(SIEVE_CFG, c2=-1)),
    "sieve-prime-max-past-int64": ("sieve", dict(SIEVE_CFG, prime_max=1e300)),
    "independence-divide-by-zero": ("independence", {"values": ["1/0"]}),
    "independence-value-zero": ("independence", {"values": [0]}),
    "independence-values-string": ("independence", {"values": "12"}),
    "independence-member-rational": ("independence", {"delta": 5, "members": [[2, 0]]}),
    "independence-member-zero": ("independence", {"delta": 5, "members": [[0, 0]]}),
    "independence-bound-negative": ("independence", {"delta": 5, "members": [[2, 1]], "B": -1}),
}
CASES = [pytest.param(c, cfg, (), id=i) for i, (c, cfg) in MALFORMED.items()]
CASES.append(pytest.param("scan", SCAN_CFG, ("--workers", "0"), id="workers-zero"))


@pytest.mark.parametrize("command, cfg, extra", CASES)
def test_malformed_config_exits_4(tmp_path, capsys, command, cfg, extra):
    code, _ = run(tmp_path, command, cfg, extra=extra)
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("workers", [0, -1, (os.cpu_count() or 1) + 1])
def test_workers_outside_cpu_range_exits_4(tmp_path, capsys, monkeypatch, workers):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", no_pool)
    cfg = {"gens": [2, 3], "prime_max": 10**4}
    code, _ = run(tmp_path, "lemma42", cfg, extra=("--workers", str(workers)))
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: lemma42 needs '--workers'") and err.count("\n") == 1


def test_unreadable_config_exits_4(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(b'{"values": ["\xff"]}')
    code = main(["independence", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 4
    assert capsys.readouterr().err.count("\n") == 1


@pytest.mark.parametrize("command", ["scan", "lemma42"])
def test_float_prime_max_accepted(tmp_path, command):
    # JSON 1e4 is a float; an integral float is the integer it names
    cfg = dict(SCAN_CFG) if command == "scan" else {"gens": [2, 3]}
    _, as_int = run(tmp_path, command, dict(cfg, prime_max=10**4), outdir="int")
    code, as_float = run(tmp_path, command, dict(cfg, prime_max=1e4), outdir="float")
    assert code == 0
    for f in sorted(p.name for p in as_int.iterdir()):
        assert (as_float / f).read_bytes() == (as_int / f).read_bytes(), f


JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**64), 2**64)
    | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)
# One value each key accepts, so that whole configs often pass as well.
GOOD = {
    "a": -4, "delta": 5, "members": [[2, 1], [1, 1]], "prime_min": 3, "prime_max": 1e4,
    "use_congruence": True, "p0_bound": 10**4, "verify_bound": 1e3, "d_max": 30, "z": 2,
    "delta1": 0.01, "c2": 1, "c3": 1.5, "A": 1.0, "gens": [2, 3], "y_grid": [10, 100.5],
    "values": ["1/2", 3], "B": 5, "unknown_key": 0,
}


@pytest.mark.filterwarnings("ignore::quadartin.quadfield.SquarefreeReductionWarning")
@pytest.mark.parametrize("command", sorted(CONFIG_SCHEMA))
@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_validator_returns_typed_values_or_bad_config(command, data):
    # each key is left out, set to its good value or set to arbitrary JSON
    raw = {}
    for key in sorted(CONFIG_SCHEMA[command]) + ["unknown_key"]:
        pick = data.draw(st.integers(0, 5))
        if pick > (4 if key == "unknown_key" else 0):
            raw[key] = GOOD[key] if pick < 4 else data.draw(JSON)
    try:
        cfg = validate_config(command, raw)
    except BadConfig as e:
        assert "\n" not in str(e)
        return
    assert "unknown_key" not in raw and set(cfg) == set(CONFIG_SCHEMA[command])
    # an integral float such as 1e4 comes back as an int, except for real keys
    reals = {"delta1", "c2", "c3", "A"}
    assert all(type(v) is not float for k, v in cfg.items() if k not in reals)


# ---------------------------------------------------------------------------
# process-level entry

def test_module_entrypoint_subprocess(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"values": [2, 4]}))
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "quadartin.cli",
            "independence",
            "--config",
            str(cfg_path),
            "--out",
            str(tmp_path / "out"),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 5
    assert "relation" in proc.stdout


def test_seed_flag_accepted(tmp_path):
    code, out = run(
        tmp_path, "construct", {"a": -4, "delta": 5, "verify_bound": 10**4},
        extra=("--seed", "7"),
    )
    assert code == 0
