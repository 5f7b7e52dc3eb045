"""CLI surface: configs, artifacts, exit codes, determinism."""

import concurrent.futures
import hashlib
import importlib
import json
import math
import multiprocessing
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadartin
from quadartin import cli, experiments, fp2
from quadartin.arith import factorize, is_prime, jacobi, primes_up_to
from quadartin.cli import CONFIG_SCHEMA, BadConfig, main, validate_config
from quadartin.quadfield import FieldContext


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


# Digests of scan.csv and scan_summary.json of the dense window past 10**12,
# written by the descent-only order kernel that the fill-then-descend one
# replaced: they pin the orders computed on Python-int blocks byte for byte.
FAR_DENSE_SHA = (
    "73dca8c3cdf6d0ec58d1559f437d661cbd713cba1a1aa431180147c24eebd7d6",
    "1d175fe5eb2f60ed57bc4ca56cb4b7a96a579c16a2186dc4307312fdda1008d9",
)


@pytest.mark.parametrize("mode", ["dense", "congruence"])
def test_scan_window_past_1e12(tmp_path, mode):
    # only the window is sieved, by the base primes up to 2**16 with
    # is_prime deciding the survivors, and its primes run the order kernel
    # on Python ints
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
    if mode == "dense":
        assert tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                     for name in ("scan.csv", "scan_summary.json")) == FAR_DENSE_SHA


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
    # put the 155 primes past the pool's one-block threshold); the failed
    # scan removes its scan.csv
    orders = fp2._orders
    monkeypatch.setattr(fp2, "_orders", lambda g, p, n, rows, torus=False, cap=None: (
        orders(g, p, n, rows, torus, cap) if torus else np.ones_like(n)))
    monkeypatch.setattr(experiments, "PRIME_BLOCK", 64)
    code, out = run(tmp_path, "scan", SCAN_CFG, extra=("--workers", workers))
    assert code == 3
    assert "order chain broken" in capsys.readouterr().err
    assert not (out / "scan.csv").exists()


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
@pytest.mark.parametrize("lo", [3, 2**31], ids=["int64", "object"])
def test_scan_understated_ord_m_exits_3(tmp_path, monkeypatch, capsys, workers, lo):
    # the mirror case: an understated ord_M from the torus call leaves the
    # alpha^L test unmet, on int64 blocks and on Python-int blocks (past
    # 2**31) alike, also from a pool worker; either window holds more than
    # one 64-prime block
    orders = fp2._orders
    monkeypatch.setattr(fp2, "_orders", lambda g, p, n, rows, torus=False, cap=None: (
        np.ones_like(n) if torus else orders(g, p, n, rows, torus, cap)))
    monkeypatch.setattr(experiments, "PRIME_BLOCK", 64)
    cfg = dict(SCAN_CFG, prime_min=lo, prime_max=lo + 4000)
    code, out = run(tmp_path, "scan", cfg, extra=("--workers", workers))
    assert code == 3
    assert "order chain broken" in capsys.readouterr().err
    assert not (out / "scan.csv").exists()


@pytest.mark.parametrize("lo", [3, 2**31], ids=["int64", "object"])
def test_scan_odd_l_broken_chain_exits_3(tmp_path, monkeypatch, capsys, lo):
    # ord_N understated to 1 and ord_M to its odd part: every L is odd, and
    # where N^L != 1 the alpha^L test on the torus must fail, though every
    # divisibility of the chain holds, on int64 and Python-int blocks alike
    orders = fp2._orders

    def odd_orders(g, p, n, rows, torus=False, cap=None):
        if not torus:
            return np.ones_like(n)
        m = orders(g, p, n, rows, torus, cap)
        return m // (m & -m)

    monkeypatch.setattr(fp2, "_orders", odd_orders)
    cfg = dict(SCAN_CFG, prime_min=lo, prime_max=lo + 4000)
    code, out = run(tmp_path, "scan", cfg)
    assert code == 3
    assert "order chain broken" in capsys.readouterr().err
    assert not (out / "scan.csv").exists()


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
def test_scan_chain_broken_late_removes_partial_csv(tmp_path, monkeypatch, capsys, workers):
    # ord_N understated only from the 11th 64-prime block on: the ten
    # blocks before it are written to scan.csv before the violation comes,
    # and the failed scan removes the partial file.  Every usable prime is
    # an inert one (jacobi(5, p) = -1), as none divides a member's norm.
    monkeypatch.setattr(experiments, "PRIME_BLOCK", 64)
    cfg = dict(SCAN_CFG, prime_max=20000)
    first_bad = [p for p in primes_up_to(20000)[1:] if jacobi(5, p) == -1][10 * 64]
    orders = fp2._orders
    monkeypatch.setattr(fp2, "_orders", lambda g, p, n, rows, torus=False, cap=None: (
        orders(g, p, n, rows, torus, cap) if torus
        else np.where(p >= first_bad, 1, orders(g, p, n, rows, torus, cap))))
    written, scan_rows = [], cli._scan_rows
    monkeypatch.setattr(cli, "_scan_rows", lambda fh, labels, b: (
        written.append(int(b.p[0])), scan_rows(fh, labels, b)))
    code, out = run(tmp_path, "scan", cfg, extra=("--workers", workers))
    assert code == 3
    assert "order chain broken" in capsys.readouterr().err
    assert len(written) == 10 and max(written) < first_bad
    assert not (out / "scan.csv").exists()


def test_write_json_failed_encode_leaves_no_file(tmp_path):
    # an artifact is streamed to its file: an encode that fails part way
    # (NaN is not JSON) removes what it wrote and re-raises
    path = tmp_path / "doc.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli._write_json(path, {"a": list(range(10**4)), "b": math.nan})
    assert not path.exists()


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
    # far windows: the blocks run on Python ints, and ord_alpha passes 2**63
    "delta5-far-1e12": (
        {"delta": 5, "members": [[2, 1], [1, 1], [3, 2]], "prime_min": 10**12,
         "prime_max": 10**12 + 20000},
        "39db861680d6fbec4c81d69dc46bfc5ee25aab253c2f8c22b86d120e9bd8388d",
        "21cf5ffc01c158e852f688785e84732cb23758f35f9fe9b93559791f03a0ef21",
    ),
    "delta13-far-2^63": (
        {"delta": 13, "members": [[3, 1], [4, 0], [0, 1], [7, 7]], "prime_min": 2**63 - 30000,
         "prime_max": 2**63 - 1},
        "fa78408b351180f31157998abee82e270711f43a75acf85635cc85f7a27b44de",
        "59fbce192af7b7f08c9cc1ed39fcb27eda1729d006e4e7f706daded8de7892c6",
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


@pytest.mark.parametrize(
    "cfg, csv_sha, summary_sha", PINNED_SCANS.values(), ids=list(PINNED_SCANS)
)
def test_scan_artifacts_pinned_with_two_workers(tmp_path, monkeypatch, cfg, csv_sha,
                                                summary_sha):
    # 64-prime blocks, cut in the parent and run two processes wide with
    # more blocks than the pool takes ahead, give the same bytes
    monkeypatch.setattr(experiments, "PRIME_BLOCK", 64)
    written, scan_rows = [], cli._scan_rows
    monkeypatch.setattr(cli, "_scan_rows", lambda fh, labels, b: (
        written.append(b.p.size), scan_rows(fh, labels, b)))
    code, out = run(tmp_path, "scan", cfg, extra=("--workers", "2"))
    assert code == 0
    assert len(written) > 4
    assert hashlib.sha256((out / "scan.csv").read_bytes()).hexdigest() == csv_sha
    assert hashlib.sha256((out / "scan_summary.json").read_bytes()).hexdigest() == summary_sha


def test_kernel_scan_builds_no_order_record(tmp_path):
    # scan.csv is written from the kernel's arrays: every OrderRecord check
    # is an array predicate there, and the scalar record route is a test
    # oracle only, so no quadartin module defines it
    for info in pkgutil.iter_modules(quadartin.__path__):
        mod = importlib.import_module(f"quadartin.{info.name}")
        assert not {"OrderRecord", "order_record"} & set(vars(mod)), info.name
    assert not {"OrderRecord", "order_record"} & set(vars(quadartin))
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


@pytest.mark.parametrize("key, value", [("A", 1e308), ("A", -1e308), ("c3", 1e308),
                                        ("c3", -1e308)])
def test_sieve_remainder_ceiling_past_the_float_range(tmp_path, key, value):
    # X is about 50 here, so log X is about 3.9: A = 1e308 overflows the
    # power, A = -1e308 takes it to 0, a divisor of 0, and c3 = +-1e308
    # makes the ceiling infinite.  No ceiling is reported, and sieve exits 0.
    cfg = {"a": -4, "delta": 5, "prime_max": 10**5, key: value}
    code, out = run(tmp_path, "sieve", cfg)
    assert code == 0
    doc = json.loads((out / "sieve_report.json").read_text())
    assert doc["big_x"] > 1
    assert doc["remainder_ceiling"] is None
    assert doc["remainder_within"] is False
    assert any("ceiling" in n and "not a finite float" in n for n in doc["notes"])


def test_sieve_threshold_undefined_at_x_2(tmp_path, capsys):
    # X = li(2)/phi(v) = 0, so the threshold log(X)/(2 log z) is undefined:
    # the report says null, which strict parsers read, and so does the
    # printed line
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    code, out = run(tmp_path, "sieve", {"a": -4, "delta": 5, "prime_max": 2})
    assert code == 0
    doc = json.loads((out / "sieve_report.json").read_text(), parse_constant=reject)
    assert doc["big_x"] == 0 and doc["threshold"] is None and doc["threshold_ok"] is False
    assert any("threshold" in n and "undefined" in n for n in doc["notes"])
    assert "threshold undefined vs 4.42" in capsys.readouterr().out


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


def test_lemma42_growth_without_a_slope_is_strict_json(tmp_path):
    # no prime up to 3 is kept (2 and 3 divide a generator), so no count is
    # positive and there is no slope: growth.json says null, which strict
    # parsers read, where NaN is not JSON
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    code, out = run(tmp_path, "lemma42", {"gens": [2, 3], "prime_max": 3})
    assert code == 0
    doc = json.loads((out / "growth.json").read_text(), parse_constant=reject)
    assert doc["prime_count"] == 0 and doc["slope"] is None


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


# growth.json digests recorded with the exact, uncapped subgroup kernel: the
# default grid, a grid with max 50 on which almost every prime settles, and
# the edge grids whose cap would pass int64 (ceil(1e300)) or sit at 1.  The
# one-point grid has no slope, written as null (the same bytes as the
# recording, with its NaN, which is not JSON, as null)
PINNED_GROWTH = {
    "default": (None, "8b4911d31d31d88ff2af5b28df3730a7a08fa1b4c682d471b8b96c52b78d9e34"),
    "max50": ([2, 5, 10, 20, 50], "55fc7f1766fcee8f273b5a63eceb0a05ae2ac55e94c7a5dd5798942564680cdf"),
    "1e300": ([10, 1e300], "418b027bf042c23074501925250d6c6aa5cd51b7acee081c569a742f3f4cf9d0"),
    "half": ([0.5], "b539c4d0ab2738c73abf1c24ddcbdce5ad5d2eb2d34afabedaebe1729f5b6596"),
}


@pytest.mark.parametrize(
    "workers",
    ["1", pytest.param("2", marks=pytest.mark.skipif((os.cpu_count() or 1) < 2,
                                                     reason="--workers 2 needs two CPUs"))],
)
@pytest.mark.parametrize("y_grid, sha", PINNED_GROWTH.values(), ids=list(PINNED_GROWTH))
def test_lemma42_growth_pinned(tmp_path, y_grid, sha, workers):
    # 2e5 spans two segments, so --workers 2 takes the pool route
    cfg = {"gens": [2, 3], "prime_max": 2 * 10**5}
    if y_grid is not None:
        cfg["y_grid"] = y_grid
    code, out = run(tmp_path, "lemma42", cfg, extra=("--workers", workers))
    assert code == 0
    assert hashlib.sha256((out / "growth.json").read_bytes()).hexdigest() == sha


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
# malformed flags: argparse alone would exit 2, the "nothing found" code
CASES += [pytest.param("scan", SCAN_CFG, extra, id=i) for i, extra in (
    ("workers-not-int", ("--workers", "abc")),
    ("seed-not-int", ("--seed", "x")),
    ("unknown-flag", ("--verbose",)),
)]


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

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    cfg = {"gens": [2, 3], "prime_max": 10**4}
    code, _ = run(tmp_path, "lemma42", cfg, extra=("--workers", str(workers)))
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: lemma42 needs '--workers'") and err.count("\n") == 1


@pytest.mark.parametrize("under", [False, True], ids=["out-is-a-file", "out-under-a-file"])
def test_out_that_cannot_be_a_directory_exits_4(tmp_path, capsys, under):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"values": [2, 3]}))
    out = blocker / "out" if under else blocker
    code = main(["independence", "--config", str(cfg_path), "--out", str(out)])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: cannot make the output directory") and err.count("\n") == 1, err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0
    assert "usage: quadartin" in capsys.readouterr().out


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
