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
import json
import math
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, NamedTuple, Optional, TextIO

import numpy as np

# Only what the schema and main need is imported here; each cmd_* imports
# the modules it runs, so a run loads no module another command needs.
from . import arith
from .errors import DependentGenerators, InvariantError, RemarkViolation, SeedNotFoundError
from .quadfield import FieldContext, m_ratio, square_guard

if TYPE_CHECKING:
    from .construction import Congruence

EXIT_OK = 0
EXIT_NOT_FOUND = 2
EXIT_INVARIANT = 3
EXIT_BAD_CONFIG = 4
EXIT_DEPENDENT = 5


class BadConfig(Exception):
    pass


# The exit code of each failure main reports in one line
_EXIT_CODES = {BadConfig: EXIT_BAD_CONFIG, SeedNotFoundError: EXIT_NOT_FOUND,
               DependentGenerators: EXIT_DEPENDENT, InvariantError: EXIT_INVARIANT,
               RemarkViolation: EXIT_INVARIANT}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # not argparse's exit 2, which means "nothing found"
        raise BadConfig(message)


def _ok(value, cond):
    if not cond:
        raise ValueError(value)
    return value


def _int(v, lo=-math.inf, hi=math.inf) -> int:
    """A JSON integer in [lo, hi), or an integral float such as 1e6; no bool."""
    if type(v) is float and v.is_integer():
        v = int(v)
    return _ok(v, type(v) is int and lo <= v < hi)


def _nonzero(v) -> int:
    return _ok(_int(v), v != 0)


def _number(v, lo=-math.inf, hi=math.inf) -> float:
    """A JSON number strictly between lo and hi (so finite), as a float."""
    return _ok(float(_ok(v, type(v) in (int, float))), lo < v < hi)


def _each(item: Callable) -> Callable:
    """A converter for a non-empty JSON list, each entry converted by item."""
    return lambda v: [item(t) for t in _ok(v, type(v) is list and v)]


def _pair(v, both: bool = False):
    """An [x, y] integer pair, not both 0: x + y*sqrt(delta) has norm
    x^2 - delta*y^2, which for a non-square delta vanishes only at 0.  With
    both, neither is 0: else conj(alpha)/alpha = +-1 has finite order."""
    x, y = map(_int, _ok(v, type(v) is list and len(v) == 2))
    return _ok((x, y), (x and y) if both else (x or y))


def _rational(v) -> Fraction:
    q = Fraction(str(_ok(v, type(v) in (int, float, str))))
    return _ok(q, q != 0)


def _delta(v) -> int:
    """The squarefree kernel; FieldContext rejects squares and values < 2."""
    return FieldContext(_int(v)).delta


_REQUIRED = object()


class _Key(NamedTuple):
    what: str  # completes the error "<command> needs '<key>' to be <what>"
    convert: Callable  # JSON value -> typed value; ValueError outside the domain
    default: Any = _REQUIRED


_NONZERO = "a nonzero integer"
_DELTA = "an integer > 1 that is not a square"
_BOUND = "an integer >= 2"
_P0_BOUND = _Key(_BOUND, partial(_int, lo=2), 10**4)
_REAL = "a finite number"
# prime arrays are int64
_PRIME_MAX = _Key("an integer in [2, 2**63)", partial(_int, lo=2, hi=2**63))

# Every key each subcommand reads.  main converts a config through its
# command's table before dispatch, so each cmd_* gets typed values only.
CONFIG_SCHEMA: Dict[str, Dict[str, _Key]] = {
    "construct": {
        "a": _Key(_NONZERO, _nonzero),
        "delta": _Key(_DELTA, _delta),
        "p0_bound": _P0_BOUND,
        "verify_bound": _Key(_BOUND, partial(_int, lo=2), 10**5),
    },
    "scan": {
        "delta": _Key(_DELTA, _delta),
        "members": _Key("a non-empty list of [x, y] integer pairs, not both 0", _each(_pair)),
        "prime_min": _Key("an integer >= 0", partial(_int, lo=0)),
        "prime_max": _PRIME_MAX,
        "use_congruence": _Key("true or false", lambda v: _ok(v, type(v) is bool), False),
        "a": _Key(_NONZERO, _nonzero, None),
        "p0_bound": _P0_BOUND,
    },
    "sieve": {
        "a": _Key(_NONZERO, _nonzero),
        "delta": _Key(_DELTA, _delta),
        "prime_max": _PRIME_MAX,
        "p0_bound": _P0_BOUND,
        "d_max": _Key("an integer >= 1", partial(_int, lo=1), 100),
        "z": _Key(_BOUND, partial(_int, lo=2), None),
        "delta1": _Key("a number in (0, 0.125)", partial(_number, lo=0, hi=0.125), 0.01),
        # c2 < 0 would put the remainder window above sqrt(X)
        "c2": _Key("a finite number >= 0", lambda v: _ok(_number(v), v >= 0), 1.0),
        "c3": _Key(_REAL, _number, 1.0),
        "A": _Key(_REAL, _number, 1.0),
    },
    "lemma42": {
        "gens": _Key("a non-empty list of nonzero integers", _each(_nonzero)),
        # a run-time bound: lemma42 always starts at 2, a run to 2**31 takes
        # minutes, and past it every segment's kernel would run on Python ints
        "prime_max": _Key("an integer in [2, 2**31)", partial(_int, lo=2, hi=2**31)),
        "y_grid": _Key("a non-empty list of positive finite numbers",
                       _each(partial(_number, lo=0)), None),
    },
    "independence": {
        "values": _Key("a non-empty list of nonzero rationals", _each(_rational), None),
        "members": _Key("a non-empty list of [x, y] pairs of nonzero integers",
                        _each(partial(_pair, both=True)), None),
        "delta": _Key(_DELTA, _delta, None),
        "B": _Key("an integer >= 1", partial(_int, lo=1), 10),
    },
}


def validate_config(command: str, raw) -> Dict[str, Any]:
    """The typed value of every key in the command's schema, defaults filled
    in.  Raises BadConfig on an unknown key or, naming the first offending
    key, on a missing required key or a value outside its key's domain."""
    schema = CONFIG_SCHEMA[command]
    if type(raw) is not dict:
        raise BadConfig("config must be a JSON object")
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise BadConfig(f"{command} does not read config keys {unknown}")
    cfg = {}
    for key, (what, convert, default) in schema.items():
        try:
            if key in raw:
                cfg[key] = convert(raw[key])
            else:
                cfg[key] = _ok(default, default is not _REQUIRED)
        except (ValueError, ZeroDivisionError, OverflowError):
            raise BadConfig(f"{command} needs '{key}' to be {what}") from None
    return cfg


def _load_config(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:
        raise BadConfig(f"cannot read config {path}: {e}")


@contextmanager
def _artifact(path: Path) -> Iterator[TextIO]:
    """path open for writing, removed on any exception while it is written."""
    fh = open(path, "w", newline="", encoding="utf-8")
    try:
        with fh:
            yield fh
    except BaseException:
        path.unlink()
        raise


def _write_json(path: Path, obj) -> None:
    # streamed to the file, so the text is never held whole; allow_nan=False:
    # NaN and infinities are not JSON, and _artifact removes a failed encode
    with _artifact(path) as fh:
        json.dump(obj, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def _congruence_json(c: Congruence, report) -> Dict:
    return {
        "u": c.u,
        "v": c.v,
        "p0": c.seed.p0,
        "residues": {str(m): r for m, r in c.residues.items()},
        "verified_to": report.bound,
        "failures": [[p, why] for p, why in report.failures],
        "v2_minus": {str(k): n for k, n in report.v2_minus.items()},
        "v2_plus": {str(k): n for k, n in report.v2_plus.items()},
    }


def cmd_construct(cfg: Dict, out: Path, workers: int) -> int:
    from .construction import build_congruence, find_p0, verify_congruence

    seed = find_p0(cfg["a"], cfg["delta"], cfg["p0_bound"])
    cong = build_congruence(seed)
    report = verify_congruence(cong, cfg["verify_bound"])
    _write_json(out / "construction.json", _congruence_json(cong, report))
    print(
        f"construct: u = {cong.u}, v = {cong.v}, p0 = {seed.p0}, "
        f"{report.checked} primes verified to {cfg['verify_bound']}, "
        f"{len(report.failures)} failures"
    )
    return EXIT_OK if report.ok else EXIT_INVARIANT


def _checked_class(a: int, delta: int, p0_bound: int) -> Congruence:
    """The class for (a, delta); a class on which a or delta is a square
    raises InvariantError before it is scanned or sieved."""
    from .construction import build_congruence, check_class_symbols, find_p0

    cong = build_congruence(find_p0(a, delta, p0_bound))
    check_class_symbols(cong)
    return cong


def _scan_rows(fh: TextIO, labels: List[str], b) -> None:
    """The scan.csv rows of the block b, one per (p, member), written from
    its arrays in runs of 512 primes, each run one format of its cells
    filled column by column, so the cell list stays small; no label holds a
    comma or a quote, so no cell needs CSV quoting."""
    for lo in range(0, b.p.size, 512):
        run = slice(lo, lo + 512)
        rows = b.p[run].size * len(labels)
        cells = [None] * (6 * rows)
        cells[0::6] = np.repeat(b.p[run], len(labels)).tolist()
        cells[1::6] = labels * b.p[run].size
        for c, a in enumerate((b.ord_alpha, b.ord_n, b.ord_m, b.attained), 2):
            cells[c::6] = a[run].ravel().tolist()
        fh.write("%d,%s,%d,%d,%d,%d\n" * rows % tuple(cells))


def cmd_scan(cfg: Dict, out: Path, workers: int) -> int:
    from .experiments import AlphaFamily, ScanTally, mult_indep_rational, order_scan

    lo, hi = cfg["prime_min"], cfg["prime_max"]
    if lo > hi:
        raise BadConfig(f"scan needs 'prime_min' to be at most prime_max, got {lo} > {hi}")
    family = AlphaFamily.from_coords(cfg["delta"], cfg["members"])
    cong = None
    if cfg["use_congruence"]:
        a = family.norms[0] if cfg["a"] is None else cfg["a"]
        cong = _checked_class(a, family.ctx.delta, cfg["p0_bound"])
    u, v = (0, 1) if cong is None else (cong.u, cong.v)

    # the sieve's segments stream through the pass, and each block is
    # written and tallied as the pass yields it; a broken order chain raises
    # RemarkViolation there, which removes scan.csv and exits 3
    labels = list(family.labels)
    tally = ScanTally(family)
    with _artifact(out / "scan.csv") as fh:
        fh.write("p,member,ord_alpha,ord_N,ord_M,attained\n")
        skipped = order_scan(family, arith._segments(lo, hi, u=u, v=v),
                             (partial(_scan_rows, fh, labels), tally.update), workers=workers)

    n = tally.prime_count
    per_member = tally.attained_per_member.tolist()
    indep = mult_indep_rational([Fraction(m) for m in family.norms])
    summary_json = {
        "delta": family.ctx.delta,
        "labels": labels,
        "prime_count": n,
        "skipped": skipped,
        "attained_per_member": dict(zip(labels, per_member)),
        "attained_family": tally.attained_family,
        "fractions": {lab: c / n if n else 0.0 for lab, c in zip(labels, per_member)},
        "family_fraction": tally.attained_family / n if n else 0.0,
        "index_histogram": {str(k): c for k, c in tally.index_histogram.items()},
        "norms_independent": indep.independent,
        "square_guard": {lab: square_guard(a) for lab, a in zip(labels, family.members)},
        "congruence": None if cong is None else {"u": cong.u, "v": cong.v},
    }
    _write_json(out / "scan_summary.json", summary_json)
    print(f"scan: {n} primes, family attainment {tally.attained_family}/{n}, skipped {skipped}")
    return EXIT_OK


def cmd_sieve(cfg: Dict, out: Path, workers: int) -> int:
    from . import sieve

    x, delta1, d_max = cfg["prime_max"], cfg["delta1"], cfg["d_max"]
    z = max(2, sieve.sieving_limit(x, delta1)) if cfg["z"] is None else cfg["z"]
    if z > x:
        raise BadConfig(f"sieve needs 'z' to be at most prime_max, got {z} > {x}")
    cong = _checked_class(cfg["a"], cfg["delta"], cfg["p0_bound"])
    u, v = cong.u, cong.v
    sieve_cfg = sieve.SieveConfig(x=x, u=u, v=v, z=z, c2=cfg["c2"], c3=cfg["c3"],
                                  a_exp=cfg["A"])

    rows = sieve.ledger(sieve_cfg, d_max)
    with _artifact(out / "sieve.csv") as fh:
        fh.write("d,rho,Ad,main,Rd\n")
        for r in rows:
            fh.write("%d,%d,%d,%r,%r\n" % (r.d, r.rho_d, r.count, r.main, r.remainder))

    rem = sieve.remainder_sum(sieve_cfg)
    bound = sieve.sieve_bound_report(sieve_cfg)
    report = {
        "x": x,
        "u": u,
        "v": v,
        "z": z,
        "delta1": delta1,
        "big_x": sieve_cfg.big_x,
        "survivors": bound.survivors,
        "main_term": bound.main_term,
        "threshold": bound.threshold,
        "threshold_ok": bound.threshold_ok,
        "t0": sieve.T0_THRESHOLD,
        "mertens_2_to_z": sieve.mertens_check(2, z),
        "product": bound.product.product,
        "product_ratio": bound.product.ratio,
        "remainder_total": rem.total,
        "remainder_ceiling": rem.ceiling,
        "remainder_within": rem.within,
        "remainder_d_bound": rem.d_bound,
        "rows": len(rows),
        "notes": list(bound.notes) + list(rem.notes),
    }
    _write_json(out / "sieve_report.json", report)
    threshold = "undefined" if bound.threshold is None else f"{bound.threshold:.3f}"
    print(
        f"sieve: {len(rows)} divisor rows to d <= {d_max}, "
        f"{bound.survivors} survivors at z = {z}, threshold "
        f"{threshold} vs {sieve.T0_THRESHOLD}"
    )
    return EXIT_OK


def cmd_lemma42(cfg: Dict, out: Path, workers: int) -> int:
    from .experiments import lemma42_scan

    fit = lemma42_scan(cfg["gens"], cfg["prime_max"], cfg["y_grid"], workers=workers)
    _write_json(
        out / "growth.json",
        {
            "x": fit.x,
            "gens": list(fit.gens),
            "prime_count": fit.prime_count,
            "samples": [[y, n] for y, n in fit.samples],
            # fewer than two positive counts leave no slope
            "slope": fit.slope if math.isfinite(fit.slope) else None,
        },
    )
    print(f"lemma42: {fit.prime_count} primes, slope {fit.slope:.4f}")
    return EXIT_OK


def cmd_independence(cfg: Dict, out: Path, workers: int) -> int:
    from .experiments import AlphaFamily, mult_indep_norm_one, mult_indep_rational

    if cfg["values"] is None and cfg["members"] is None:
        raise BadConfig("independence needs 'values' or 'members'")
    if cfg["members"] is not None and cfg["delta"] is None:
        raise BadConfig("independence needs 'delta' when 'members' is given")
    result: Dict = {}
    dependent = False
    if cfg["values"] is not None:
        verdict = mult_indep_rational(cfg["values"])
        result["rational"] = {
            "values": [str(v) for v in cfg["values"]],
            "independent": verdict.independent,
            "relation": None if verdict.relation is None else list(verdict.relation),
        }
        dependent = dependent or not verdict.independent
    if cfg["members"] is not None:
        family = AlphaFamily.from_coords(cfg["delta"], cfg["members"])
        ratios = [m_ratio(a) for a in family.members]
        verdict = mult_indep_norm_one(ratios, cfg["B"])
        result["norm_one"] = {
            "labels": list(family.labels),
            "independent": verdict.independent,
            "relation": None if verdict.relation is None else list(verdict.relation),
            "search_bound": verdict.search_bound,
        }
        dependent = dependent or not verdict.independent
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
    parser = _Parser(
        prog="quadartin",
        description="order experiments for quadratic integers modulo inert primes",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0, help="rho restart seed")
    try:
        args = parser.parse_args(argv)
        arith.set_rho_seed(args.seed)
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise BadConfig(f"cannot make the output directory {out}: {e.strerror}") from None
        cpus = os.cpu_count() or 1
        if not 1 <= args.workers <= cpus:
            raise BadConfig(f"{args.command} needs '--workers' to be an integer in [1, {cpus}]")
        cfg = validate_config(args.command, _load_config(args.config))
        return _COMMANDS[args.command](cfg, out, args.workers)
    except tuple(_EXIT_CODES) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(_EXIT_CODES[c] for c in type(e).__mro__ if c in _EXIT_CODES)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
