"""quadartin benchmark: drives the real CLI, one fresh interpreter per run.

One measured run of a workload:
    python3 perfbench/run.py --workload scan_dense --seed 0 --seconds 28 --trace 0

Other modes:
    python3 perfbench/run.py --repeat 10 --workload all --seed 1   # stability report
    python3 perfbench/run.py --self-test                           # tracer self-test
    python3 perfbench/run.py --record-digests                      # rewrite digests.json

A measured run prints a few readable lines and, as its last line, one JSON
object {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer ones,
taken from runs under perfbench/tracer.py.  Inputs, outputs and logs go to
.bench_work/ at the root of the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from workloads import WORKLOADS, CheckFailed, POOL_SIZE, primes_to, read_csv, read_json, \
    variant_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = HERE / "digests.json"
TRACER = HERE / "tracer.py"
WRAP = HERE / "wrap.py"

SETUP_PROBES = 7  # measured set-up probes per run, after one warm-up
CLI_TIMEOUT_S = 150.0
PROBE = (
    "import json, sys, quadartin.cli\n"
    "json.load(open(sys.argv[1], encoding='utf-8'))\n"
    "print(quadartin.cli.__file__)\n"
)

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("cpu_s", "s"),
)

# <module>.<function>.<counter>; calls, self_s, items and bytes come from the
# tracer's per-name counters, the rest from derived_layers().
PER_LAYER = (
    ("fp2.order_record.calls", "count"),
    ("fp2.order_record.self_s", "s"),
    ("fp2.order_record.calls_per_record", "ratio"),
    ("fp2.Fp2Context.for_prime.calls", "count"),
    ("fp2.Fp2Context.for_prime.self_s", "s"),
    ("arith.factorize.calls", "count"),
    ("arith.factorize.self_s", "s"),
    ("quadfield.norm.calls", "count"),
    ("quadfield.norm.self_s", "s"),
    ("arith.jacobi.calls", "count"),
    ("arith.primes_up_to.calls", "count"),
    ("arith.primes_up_to.self_s", "s"),
    ("arith.primes_up_to.items", "count"),
    ("sieve.count_Ad.calls", "count"),
    ("sieve.count_Ad.self_s", "s"),
    ("sieve.count_Ad.hit_ratio", "ratio"),
    ("sieve.survivor_count.self_s", "s"),
    ("sieve.remainder_sum.self_s", "s"),
    ("sieve.sieve_bound_report.self_s", "s"),
    ("arith.smallest_factor_table.self_s", "s"),
    ("arith.smallest_factor_table.bytes", "B"),
    ("arith.factor_with_table.calls", "count"),
    ("arith.factor_with_table.self_s", "s"),
    ("experiments.lemma42_scan.self_s", "s"),
    ("experiments.inert_primes.self_s", "s"),
    ("experiments.congruence_primes.self_s", "s"),
    ("experiments.congruence_primes.kept_ratio", "ratio"),
    ("construction.find_p0.self_s", "s"),
    ("construction.build_congruence.self_s", "s"),
    ("experiments.remark12_verify.self_s", "s"),
    ("experiments.order_scan.self_s", "s"),
    ("experiments.order_scan.skipped", "count"),
    ("cli.cmd_scan.self_s", "s"),
    ("cli.cmd_sieve.self_s", "s"),
    ("cli.cmd_lemma42.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)
COUNTERS = ("calls", "items", "bytes")


# ---------------------------------------------------------------------------
# child processes


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # One core per run, matching --workers 1.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


@dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def run_child(argv: List[str], log: Path, timeout: float = CLI_TIMEOUT_S) -> Proc:
    """Run argv to completion under perfbench/wrap.py, which times it and
    takes its peak RSS and CPU time from outside."""
    report = log.with_suffix(".usage.json")
    with open(log, "wb") as fh:
        proc = subprocess.Popen([sys.executable, str(WRAP), str(report), str(timeout), "--"] + argv,
                                cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=fh, stderr=subprocess.STDOUT, start_new_session=True)
        try:
            proc.wait(timeout + 30)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    if proc.returncode != 0:
        raise SystemExit(f"error: the process wrapper failed, see {log}")
    usage = json.loads(report.read_text())
    return Proc(usage["code"], usage["wall_s"], usage["cpu_s"], usage["rss_mb"])


def cli_args(command: str, cfg: Path, out: Path, seed: int) -> List[str]:
    return [command, "--config", str(cfg), "--out", str(out), "--workers", "1",
            "--seed", str(seed)]


def digests(out: Path, names) -> Optional[Dict[str, str]]:
    try:
        return {n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in names}
    except FileNotFoundError:
        return None


def setup_probes(cfg: Path, wdir: Path, count: int) -> List[float]:
    """Wall times of fresh interpreters that import quadartin.cli and parse
    the config.  The first probe also writes the bytecode cache; it is the
    warm-up and is not returned."""
    times = []
    for i in range(count + 1):
        log = wdir / "probe.log"
        proc = run_child([sys.executable, "-c", PROBE, str(cfg)], log, timeout=60)
        if proc.code != 0:
            raise SystemExit(f"error: importing quadartin.cli failed:\n{log.read_text()}")
        if i == 0:
            where = Path(log.read_text().strip().splitlines()[-1]).resolve()
            if SRC.resolve() not in where.parents:
                raise SystemExit(f"error: quadartin was imported from {where}, not {SRC}")
        else:
            times.append(proc.wall_s)
    return times


# ---------------------------------------------------------------------------
# one measured run of a workload


@dataclass
class Run:
    proc: Proc
    traced: bool
    digests: Optional[Dict[str, str]]
    problems: List[str] = field(default_factory=list)
    trace: Optional[Dict] = None


def load_reference(workload: str, variant: int) -> Optional[Dict]:
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(variant))


def accounting_problems(trace: Dict) -> List[str]:
    """Self times must add up: the traced calls inside a span never take
    longer than the span, and all self time fits inside cli.main."""
    spans = trace["spans"]
    inner = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            inner[parent] += t1 - t0
    out = [f"children of {s[0]} outlast it" for s, c in zip(spans, inner)
           if c > s[2] - s[1] + 1e-6]
    stats = trace["stats"]
    total_self = sum(s["self_s"] for s in stats.values())
    if total_self > stats["cli.main"]["total_s"] + 1e-6:
        out.append("self times add up to more than cli.main")
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Tuple[List[Run], List[float], Dict, Path, int]:
    wl = WORKLOADS[workload]
    variant = variant_of(seed)
    wdir = WORK / workload
    shutil.rmtree(wdir, ignore_errors=True)
    wdir.mkdir(parents=True)
    cfg_path = wdir / "config.json"
    cfg = wl.make_config(variant)
    cfg_path.write_text(json.dumps(cfg, indent=1) + "\n")
    setup = setup_probes(cfg_path, wdir, 0 if trace else SETUP_PROBES)

    runs: List[Run] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(runs) % 2 == 1
        out = wdir / f"run{len(runs)}"
        args = cli_args(wl.command, cfg_path, out, seed)
        if traced:
            argv = [sys.executable, str(TRACER), str(wdir / f"trace{len(runs)}.json"), "--"] + args
        else:
            argv = [sys.executable, "-m", "quadartin.cli"] + args
        left = CLI_TIMEOUT_S - (time.perf_counter() - start)
        proc = run_child(argv, wdir / f"run{len(runs)}.log", timeout=max(left, 1.0))
        run = Run(proc, traced, digests(out, wl.artifacts))
        if proc.code != 0:
            run.problems.append(f"exit code {proc.code}")
        elif run.digests is None:
            run.problems.append("missing artifact")
        elif traced:
            run.trace = json.loads((wdir / f"trace{len(runs)}.json").read_text())
            run.problems += accounting_problems(run.trace)
        runs.append(run)
        elapsed = time.perf_counter() - start
        typical = statistics.median(r.proc.wall_s for r in runs)
        if elapsed + typical > seconds and (not trace or len(runs) >= 2):
            break
    units = verify(wl, cfg, wdir, runs, load_reference(workload, variant), seed)
    return runs, setup, cfg, wdir, units


def verify(wl, cfg: Dict, wdir: Path, runs: List[Run], reference: Optional[Dict], seed: int) -> int:
    """Compare every run's artifacts with the first good run's, with the
    stored digests, and with the workload's own checks.  Returns the work
    units of the run (0 when the artifacts are wrong)."""
    good = [i for i, r in enumerate(runs) if not r.problems]
    if not good:
        return 0
    first = runs[good[0]].digests
    problems: List[str] = []
    units = 0
    try:
        units, counts = wl.check(cfg, wdir / f"run{good[0]}", random.Random(seed))
    except CheckFailed as e:
        problems.append(f"check failed: {e}")
    else:
        if reference is not None and counts != reference["counts"]:
            problems.append(f"counts {counts}, stored {reference['counts']}")
    if reference is not None and reference["config"] != cfg:
        problems.append("digests.json was recorded for another config")
    elif reference is not None and first != reference["digests"]:
        problems.append("artifact digests differ from digests.json")
    for i in good:
        if runs[i].digests != first:
            runs[i].problems.append("artifacts differ from the first run's")
        runs[i].problems += problems
    return units if not problems else 0


def end_to_end(runs: List[Run], setup: List[float], units: int) -> Dict[str, float]:
    walls = [r.proc.wall_s for r in runs]
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup),
        "work_per_s": statistics.median([units / w for w in walls]),
        "peak_rss_mb": statistics.median([r.proc.rss_mb for r in runs]),
        "cpu_s": statistics.median([r.proc.cpu_s for r in runs]),
    }


def derived_layers(workload: str, cfg: Dict, out: Path, stats: Dict, units: int) -> Dict[str, float]:
    """Per-layer ratios that need the artifacts or the config."""
    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    derived = {}
    if WORKLOADS[workload].command == "scan":
        _, rows = read_csv(out / "scan.csv")
        derived["fp2.order_record.calls_per_record"] = calls("fp2.order_record") / len(rows)
        derived["experiments.order_scan.skipped"] = read_json(out / "scan_summary.json")["skipped"]
    if workload == "sieve" and units:
        _, rows = read_csv(out / "sieve.csv")
        derived["sieve.count_Ad.hit_ratio"] = sum(int(r[2]) for r in rows) / units
    if calls("experiments.congruence_primes"):
        ps = primes_to(cfg["prime_max"])
        in_range = int((ps >= cfg["prime_min"]).sum())
        kept = stats["experiments.congruence_primes"]["items"]
        derived["experiments.congruence_primes.kept_ratio"] = kept / in_range
    return derived


def per_layer(workload: str, cfg: Dict, wdir: Path, runs: List[Run], units: int) -> Dict[str, float]:
    traced = [(i, r) for i, r in enumerate(runs) if r.trace is not None]
    plain = [r.proc.wall_s for r in runs if not r.traced]
    if not traced:
        return {name: 0.0 for name, _ in PER_LAYER}
    first_i, first = traced[0]
    for _, r in traced[1:]:
        same = all(r.trace["stats"][n][k] == s[k] for n, s in first.trace["stats"].items()
                   for k in COUNTERS)
        if not same:
            r.problems.append("traced call counts differ between runs")
    derived = derived_layers(workload, cfg, wdir / f"run{first_i}", first.trace["stats"], units)
    traced_wall = statistics.median([r.proc.wall_s for _, r in traced])
    derived["trace.wall_s"] = traced_wall
    derived["trace.overhead_s"] = traced_wall - statistics.median(plain)
    metrics = {}
    for metric, _ in PER_LAYER:
        if metric in derived:
            metrics[metric] = derived[metric]
            continue
        name, _, counter = metric.rpartition(".")
        per_run = [r.trace["stats"].get(name, {}).get(counter, 0) for _, r in traced]
        metrics[metric] = per_run[0] if counter in COUNTERS else statistics.median(per_run)
    return metrics


def bench(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    runs, setup, cfg, wdir, units = measure(workload, seed, seconds, trace)
    if trace:
        values = per_layer(workload, cfg, wdir, runs, units)
        table = PER_LAYER
    else:
        values = end_to_end(runs, setup, units)
        table = END_TO_END
    failed = sum(1 for r in runs if r.problems)
    print(f"{workload} seed {seed} (variant {variant_of(seed)}): {len(runs)} runs, "
          f"{failed} failed, error_rate {failed / len(runs):g}")
    for r in runs:
        for p in r.problems:
            print(f"  failure: {p}")
    for name, unit in table:
        print(f"  {name:42s} {values[name]:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in table},
    }


# ---------------------------------------------------------------------------
# maintenance modes


def repeat(workloads: List[str], n: int, seed0: int, seconds: float, trace: bool) -> int:
    """Run each workload n times with seeds seed0 .. seed0+n-1, each in its
    own process, and print the median, quartiles and relative IQR of every
    metric, with the bound BENCHMARK.json gives it."""
    manifest = ROOT / "BENCHMARK.json"
    bounds = {}
    if manifest.exists():
        bounds = {m["name"]: m["bound"] for m in json.loads(manifest.read_text())["end_to_end"]}
    summary = {}
    for w in workloads:
        results = []
        for i in range(n):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
                    "--seed", str(seed0 + i), "--seconds", str(seconds), "--trace", str(int(trace))]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{w} seed {seed0 + i}: exit {done.returncode}\n{done.stderr}")
                return 1
            results.append(json.loads(lines[-1]))
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"{w}: {n} runs (seeds {seed0}..{seed0 + n - 1}), attempted {attempted}, "
              f"failed {failed}, error_rate {failed / attempted:g}")
        summary[w] = {"error_rate": failed / attempted}
        for name, m in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if n > 1 else (med, med, med)
            rel = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            note = f"  bound {bound}, spread/bound {rel / bound:.2f}" if bound and not trace else ""
            print(f"  {name:42s} median {med:.6g} {m['unit']}  q1 {q1:.6g}  q3 {q3:.6g}"
                  f"  rel_iqr {rel:.4f}{note}")
            summary[w][name] = {"median": med, "q1": q1, "q3": q3, "rel_iqr": rel, "n": n}
    print(json.dumps(summary, sort_keys=True))
    return 0


def record_digests() -> int:
    """Run every config the pools can generate once and store the digests
    and readable counts of its artifacts.  Run this on a commit whose
    outputs are known to be right; later runs are compared against it."""
    table = {}
    for name, wl in WORKLOADS.items():
        table[name] = {}
        wdir = WORK / name
        shutil.rmtree(wdir, ignore_errors=True)
        wdir.mkdir(parents=True)
        for variant in range(POOL_SIZE):
            cfg = wl.make_config(variant)
            cfg_path = wdir / "config.json"
            cfg_path.write_text(json.dumps(cfg) + "\n")
            out = wdir / f"run{variant}"
            argv = [sys.executable, "-m", "quadartin.cli"] + cli_args(wl.command, cfg_path, out, variant)
            proc = run_child(argv, wdir / f"run{variant}.log")
            if proc.code != 0:
                print(f"{name} variant {variant}: exit {proc.code}")
                return 1
            _, counts = wl.check(cfg, out, random.Random(variant))
            table[name][str(variant)] = {"config": cfg, "counts": counts,
                                         "digests": digests(out, wl.artifacts)}
            print(f"{name} variant {variant}: {proc.wall_s:.3f} s, {proc.rss_mb:.1f} MB, {counts}")
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


# Small versions of each workload's default config for the self-test.
TINY = {
    "scan_dense": {"prime_max": 3000},
    "scan_sparse": {"prime_max": 300_000},
    "sieve": {"prime_max": 100_000, "d_max": 60},
    "lemma42": {"prime_max": 100_000},
}


def self_test() -> int:
    """Trace a small run of every workload and check the tracer: the
    artifacts must match an untraced run, self times must add up, and the
    call count of every wrapped function must equal the count sys.setprofile
    takes of the original function."""
    problems = []
    for name, wl in WORKLOADS.items():
        wdir = WORK / "self_test" / name
        shutil.rmtree(wdir, ignore_errors=True)
        wdir.mkdir(parents=True)
        cfg = dict(wl.make_config(0), **TINY[name])
        cfg_path = wdir / "config.json"
        cfg_path.write_text(json.dumps(cfg) + "\n")
        plain = run_child([sys.executable, "-m", "quadartin.cli"]
                          + cli_args(wl.command, cfg_path, wdir / "plain", 0), wdir / "plain.log")
        traced = run_child([sys.executable, str(TRACER), str(wdir / "trace.json"), "--profile-check",
                            "--"] + cli_args(wl.command, cfg_path, wdir / "traced", 0),
                           wdir / "traced.log")
        if plain.code or traced.code:
            problems.append(f"{name}: exit codes {plain.code} (plain), {traced.code} (traced)")
            continue
        if digests(wdir / "plain", wl.artifacts) != digests(wdir / "traced", wl.artifacts):
            problems.append(f"{name}: tracing changed the artifacts")
        try:
            wl.check(cfg, wdir / "traced", random.Random(0))
        except CheckFailed as e:
            problems.append(f"{name}: check failed: {e}")
        trace = json.loads((wdir / "trace.json").read_text())
        problems += [f"{name}: {p}" for p in accounting_problems(trace)]
        stats, profiled = trace["stats"], trace["profile_calls"]
        for fn, n in sorted(profiled.items()):
            if stats[fn]["calls"] != n:
                problems.append(f"{name}: {fn} traced {stats[fn]['calls']} calls, profiler saw {n}")
        called = sum(1 for n in profiled.values() if n)
        print(f"self-test {name}: {called} of {len(profiled)} wrapped functions called, "
              f"counts cross-checked against sys.setprofile")
        if wl.command == "scan":
            _, rows = read_csv(wdir / "traced" / "scan.csv")
            calls = stats["fp2.order_record"]["calls"]
            print(f"  fp2.order_record.calls = {calls} = {calls / len(rows):g} x "
                  f"{len(rows)} scan.csv rows")
    for p in problems:
        print(f"  failure: {p}")
    print("self-test: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, metavar="N", help="stability report over N seeds")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args()
    # Turn SIGTERM into SystemExit, so run_child's handler kills the
    # measured process group before the benchmark exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "quadartin" / "cli.py").is_file():
        print(f"error: no quadartin sources under {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.record_digests:
        return record_digests()
    chosen = args.workload or []
    if "all" in chosen:
        chosen = list(WORKLOADS)
    if not chosen:
        ap.error("--workload is required")
    if args.repeat:
        return repeat(chosen, args.repeat, args.seed, args.seconds, bool(args.trace))
    if len(chosen) != 1:
        ap.error("a measured run takes exactly one --workload")
    result = bench(chosen[0], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
