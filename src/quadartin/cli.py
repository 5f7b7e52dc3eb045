"""Command-line front end.

Subcommands:
  construct     build and verify a residue class from (a, delta)
  scan          order profiles and attainment counts for a member family
  sieve         divisor ledger, remainder sum, and survivor report
  lemma42       subgroup growth counts N(y) with a log-log slope fit
  independence  exact independence verdicts (rationals and norm-one members)

All outputs are deterministic: JSON with sorted keys, fixed CSV column
order, no timestamps.  Exit codes: 0 ok, 2 nothing found, 3 invariant
violation, 4 bad config, 5 dependent generators.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

from . import arith, sieve
from .construction import (
    Congruence,
    InvariantError,
    SeedNotFoundError,
    build_congruence,
    find_p0,
    verify_congruence,
)
from .experiments import (
    AlphaFamily,
    DependentGenerators,
    RemarkViolation,
    congruence_primes,
    inert_primes,
    lemma42_scan,
    mult_indep_norm_one,
    mult_indep_rational,
    order_scan,
)
from .quadfield import m_ratio, square_guard
from .sieve import SieveConfig, sieving_limit

EXIT_OK = 0
EXIT_NOT_FOUND = 2
EXIT_INVARIANT = 3
EXIT_BAD_CONFIG = 4
EXIT_DEPENDENT = 5

# Every key a config file may carry.  Presence requirements differ per
# subcommand; anything outside this set is rejected outright.
_CONFIG_KEYS = {
    "delta",
    "members",
    "prime_min",
    "prime_max",
    "use_congruence",
    "delta1",
    "B",
    "a",
    "z",
    "c2",
    "c3",
    "A",
    "d_max",
    "gens",
    "y_grid",
    "values",
    "p0_bound",
    "verify_bound",
}


class BadConfig(Exception):
    pass


def _load_config(path: str) -> Dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise BadConfig(f"cannot read config {path}: {e}")
    if not isinstance(cfg, dict):
        raise BadConfig("config must be a JSON object")
    unknown = set(cfg) - _CONFIG_KEYS
    if unknown:
        raise BadConfig(f"unknown config keys: {sorted(unknown)}")
    return cfg


def _need(cfg: Dict, key: str):
    if key not in cfg:
        raise BadConfig(f"config key '{key}' is required for this command")
    return cfg[key]


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _congruence_json(c: Congruence, report) -> Dict:
    return {
        "u": c.u,
        "v": c.v,
        "p0": c.seed.p0,
        "residues": {str(m): r for m, r in c.residues.items()},
        "verified_to": report.bound,
        "failures": [[p, why] for p, why in report.failures],
        "v2_minus": {str(k): n for k, n in sorted(report.v2_minus.items())},
        "v2_plus": {str(k): n for k, n in sorted(report.v2_plus.items())},
    }


def cmd_construct(cfg: Dict, out: Path, workers: int) -> int:
    a = int(_need(cfg, "a"))
    delta = int(_need(cfg, "delta"))
    p0_bound = int(cfg.get("p0_bound", 10**4))
    verify_bound = int(cfg.get("verify_bound", 10**5))
    seed = find_p0(a, delta, p0_bound)
    cong = build_congruence(seed)
    report = verify_congruence(cong, verify_bound)
    _write_json(out / "construction.json", _congruence_json(cong, report))
    print(
        f"construct: u = {cong.u}, v = {cong.v}, p0 = {seed.p0}, "
        f"{report.checked} primes verified to {verify_bound}, "
        f"{len(report.failures)} failures"
    )
    return EXIT_OK if report.ok else EXIT_INVARIANT


def _scan_primes(cfg: Dict, family: AlphaFamily) -> tuple:
    lo = int(_need(cfg, "prime_min"))
    hi = int(_need(cfg, "prime_max"))
    if lo > hi:
        raise BadConfig(f"prime_min {lo} exceeds prime_max {hi}")
    if cfg.get("use_congruence", False):
        a = int(cfg.get("a", family.norms[0]))
        seed = find_p0(a, family.ctx.delta, int(cfg.get("p0_bound", 10**4)))
        cong = build_congruence(seed)
        return congruence_primes(cong.u, cong.v, lo, hi), cong
    return inert_primes(family.ctx, lo, hi), None


def cmd_scan(cfg: Dict, out: Path, workers: int) -> int:
    delta = int(_need(cfg, "delta"))
    members = _need(cfg, "members")
    family = AlphaFamily.from_coords(delta, members)
    plist, cong = _scan_primes(cfg, family)

    # The order chain is checked inside the scan pass: a violation raises
    # RemarkViolation, which exits 3.
    records, summary = order_scan(family, plist, workers=workers)

    with open(out / "scan.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["p", "member", "ord_alpha", "ord_N", "ord_M", "attained"])
        for label, rec in records:
            w.writerow(
                [rec.p, label, rec.ord_alpha, rec.ord_n, rec.ord_m, int(rec.attained)]
            )

    indep = mult_indep_rational([Fraction(n) for n in family.norms])
    summary_json = {
        "delta": family.ctx.delta,
        "labels": list(family.labels),
        "prime_count": summary.prime_count,
        "skipped": summary.skipped,
        "attained_per_member": {
            lab: n for lab, n in zip(summary.labels, summary.attained_per_member)
        },
        "attained_family": summary.attained_family,
        "fractions": {
            lab: frac for lab, frac in zip(summary.labels, summary.fractions)
        },
        "family_fraction": summary.family_fraction,
        "index_histogram": {str(k): n for k, n in sorted(summary.index_histogram.items())},
        "norms_independent": indep.independent,
        "square_guard": {
            lab: square_guard(a) for lab, a in zip(family.labels, family.members)
        },
        "congruence": None if cong is None else {"u": cong.u, "v": cong.v},
    }
    _write_json(out / "scan_summary.json", summary_json)
    print(
        f"scan: {summary.prime_count} primes, family attainment "
        f"{summary.attained_family}/{summary.prime_count}, skipped {summary.skipped}"
    )
    return EXIT_OK


def cmd_sieve(cfg_raw: Dict, out: Path, workers: int) -> int:
    x = int(_need(cfg_raw, "prime_max"))
    delta1 = float(cfg_raw.get("delta1", 0.01))
    a = int(_need(cfg_raw, "a"))
    delta = int(_need(cfg_raw, "delta"))
    seed = find_p0(a, delta, int(cfg_raw.get("p0_bound", 10**4)))
    cong = build_congruence(seed)
    u, v = cong.u, cong.v
    z = int(cfg_raw.get("z", max(2, sieving_limit(x, delta1))))
    try:
        cfg = SieveConfig(
            x=x,
            u=u,
            v=v,
            z=z,
            delta1=delta1,
            c2=float(cfg_raw.get("c2", 1.0)),
            c3=float(cfg_raw.get("c3", 1.0)),
            a_exp=float(cfg_raw.get("A", 1.0)),
            congruence=cong,
        )
    except ValueError as e:
        raise BadConfig(str(e))

    d_max = int(cfg_raw.get("d_max", 100))
    rows = sieve.ledger(cfg, d_max)
    with open(out / "sieve.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["d", "rho", "Ad", "main", "Rd"])
        for r in rows:
            w.writerow([r.d, r.rho_d, r.count, repr(r.main), repr(r.remainder)])

    rem = sieve.remainder_sum(cfg)
    bound = sieve.sieve_bound_report(cfg)
    prod = sieve.product_lower(z, v)
    report = {
        "x": x,
        "u": u,
        "v": v,
        "z": z,
        "delta1": delta1,
        "big_x": cfg.big_x,
        "survivors": bound.survivors,
        "main_term": bound.main_term,
        "threshold": bound.threshold,
        "threshold_ok": bound.threshold_ok,
        "t0": sieve.T0_THRESHOLD,
        "mertens_2_to_z": sieve.mertens_check(2, z),
        "product": prod.product,
        "product_ratio": prod.ratio,
        "remainder_total": rem.total,
        "remainder_ceiling": rem.ceiling,
        "remainder_within": rem.within,
        "remainder_d_bound": rem.d_bound,
        "rows": len(rows),
        "notes": list(bound.notes) + list(rem.notes),
    }
    _write_json(out / "sieve_report.json", report)
    print(
        f"sieve: {len(rows)} divisor rows to d <= {d_max}, "
        f"{bound.survivors} survivors at z = {z}, threshold "
        f"{bound.threshold:.3f} vs {sieve.T0_THRESHOLD}"
    )
    return EXIT_OK


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_positive_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and 0 < v < math.inf


def cmd_lemma42(cfg: Dict, out: Path, workers: int) -> int:
    gens = _need(cfg, "gens")
    if not (isinstance(gens, list) and gens and all(_is_int(g) and g for g in gens)):
        raise BadConfig("lemma42 needs 'gens' to be a non-empty list of nonzero integers")
    x = _need(cfg, "prime_max")
    if not _is_int(x) or x < 2:
        raise BadConfig("lemma42 needs 'prime_max' to be an integer >= 2")
    if x >= arith.SPF_LIMIT:
        raise BadConfig(f"lemma42 needs prime_max < 2**31, got {x}")
    grid = cfg.get("y_grid")
    if grid is not None and not (
        isinstance(grid, list) and grid and all(map(_is_positive_number, grid))
    ):
        raise BadConfig("lemma42 needs 'y_grid' to be a non-empty list of positive finite numbers")
    fit = lemma42_scan(gens, x, grid, workers=workers)
    _write_json(
        out / "growth.json",
        {
            "x": fit.x,
            "gens": list(fit.gens),
            "prime_count": fit.prime_count,
            "samples": [[y, n] for y, n in fit.samples],
            "slope": fit.slope,
        },
    )
    print(f"lemma42: {fit.prime_count} primes, slope {fit.slope:.4f}")
    return EXIT_OK


def cmd_independence(cfg: Dict, out: Path, workers: int) -> int:
    result: Dict = {}
    dependent = False
    if "values" in cfg:
        vals = [Fraction(str(t)) for t in cfg["values"]]
        verdict = mult_indep_rational(vals)
        result["rational"] = {
            "values": [str(v) for v in vals],
            "independent": verdict.independent,
            "relation": None if verdict.relation is None else list(verdict.relation),
        }
        dependent = dependent or not verdict.independent
    if "members" in cfg:
        delta = int(_need(cfg, "delta"))
        family = AlphaFamily.from_coords(delta, cfg["members"])
        ratios = [m_ratio(a) for a in family.members]
        bound = int(cfg.get("B", 10))
        verdict = mult_indep_norm_one(ratios, bound)
        result["norm_one"] = {
            "labels": list(family.labels),
            "independent": verdict.independent,
            "relation": None if verdict.relation is None else list(verdict.relation),
            "search_bound": verdict.search_bound,
        }
        dependent = dependent or not verdict.independent
    if not result:
        raise BadConfig("independence needs 'values' or 'members'")
    _write_json(out / "independence.json", result)
    for kind, r in sorted(result.items()):
        status = "independent" if r["independent"] else f"relation {r['relation']}"
        print(f"independence[{kind}]: {status}")
    return EXIT_DEPENDENT if dependent else EXIT_OK


_COMMANDS = {
    "construct": cmd_construct,
    "scan": cmd_scan,
    "sieve": cmd_sieve,
    "lemma42": cmd_lemma42,
    "independence": cmd_independence,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="quadartin",
        description="order experiments for quadratic integers modulo inert primes",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0, help="rho restart seed")
    args = parser.parse_args(argv)

    arith.set_rho_seed(args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        cfg = _load_config(args.config)
        return _COMMANDS[args.command](cfg, out, args.workers)
    except BadConfig as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except SeedNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NOT_FOUND
    except DependentGenerators as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DEPENDENT
    except (InvariantError, RemarkViolation) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVARIANT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
