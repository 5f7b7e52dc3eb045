"""Outside-in tracer for the quadartin CLI.

Runs one CLI command in this process after wrapping every public function
of every quadartin module, and every classmethod of its public classes, in a
timer.  The package itself is not edited: each module-level name (and each
module-level dict value) that refers to a wrapped function is rebound, which
covers the `from .arith import factorize` copies in the other modules.

Usage:
    python3 perfbench/tracer.py TRACE.json [--profile-check] -- <quadartin.cli arguments>

TRACE.json gets per-name counters {calls, total_s, self_s, items, bytes}
and the spans [name, start, end, parent] of every call that is not one of
the hot leaves below.  Self time is a call's duration minus the durations of
the traced calls made inside it.  --profile-check also counts calls to the
original functions with sys.setprofile, as an independent count the
wrappers' counts must equal.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from typing import Callable, Dict, List

import numpy as np

PACKAGE = "quadartin"

# Called thousands to hundreds of thousands of times per run: these keep
# per-name counters only, so the traced process's memory stays bounded.
HOT = frozenset({
    "arith.factor_with_table",
    "arith.factorize",
    "arith.is_prime",
    "arith.jacobi",
    "arith.primes_up_to",
    "fp2.Fp2Context.for_prime",
    "fp2.order_record",
    "quadfield.norm",
})


class Tracer:
    def __init__(self) -> None:
        self.stats: Dict[str, List] = {}  # name -> [calls, total_s, self_s, items, bytes]
        self.spans: List[List] = []  # [name, start, end, parent span index]
        self.originals: Dict[str, Callable] = {}
        # One [time spent in traced children, enclosing span index] per open
        # call; the bottom entry stands for the process itself.
        self._stack: List[List] = [[0.0, -1]]

    def wrap(self, name: str, fn: Callable) -> Callable:
        self.originals[name] = fn
        st = self.stats.setdefault(name, [0, 0.0, 0.0, 0, 0])
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        keep_span = name not in HOT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keep_span:
                idx = len(spans)
                spans.append([name, 0.0, 0.0, stack[-1][1]])
            else:
                idx = stack[-1][1]
            frame = [0.0, idx]
            stack.append(frame)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                stack[-1][0] += dt
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[0]
                if keep_span:
                    spans[idx][1] = t0
                    spans[idx][2] = t1
            if type(res) is list:
                st[3] += len(res)
            elif isinstance(res, np.ndarray):
                st[3] += res.size
                st[4] += res.nbytes
            return res

        return traced

    def install(self) -> None:
        """Wrap the package's public functions and rebind every reference."""
        mods = {n: m for n, m in sys.modules.items()
                if n == PACKAGE or n.startswith(PACKAGE + ".")}
        wrapped = {}  # id(original) -> (original, wrapper)
        for modname, mod in mods.items():
            short = modname.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
                    continue
                if isinstance(obj, type):
                    for key, member in list(vars(obj).items()):
                        if isinstance(member, classmethod):
                            w = self.wrap(f"{short}.{attr}.{key}", member.__func__)
                            setattr(obj, key, classmethod(w))
                elif callable(obj):
                    wrapped[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        hit = wrapped.get(id(val))
                        if hit is not None and hit[0] is val:
                            obj[key] = hit[1]

    def profile_counter(self) -> tuple:
        """A sys.setprofile hook counting calls to the original functions."""
        codes = {getattr(fn, "__code__", None): name for name, fn in self.originals.items()}
        codes.pop(None, None)
        counts: Counter = Counter({name: 0 for name in codes.values()})

        def hook(frame, event, arg):
            if event == "call":
                name = codes.get(frame.f_code)
                if name is not None:
                    counts[name] += 1

        return hook, counts

    def report(self) -> Dict:
        return {
            "stats": {
                name: {"calls": s[0], "total_s": s[1], "self_s": s[2],
                       "items": s[3], "bytes": s[4]}
                for name, s in sorted(self.stats.items())
            },
            "spans": self.spans,
        }


def main(argv: List[str]) -> int:
    if "--" not in argv or not argv or argv[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    sep = argv.index("--")
    out_path, flags, cli_args = argv[0], argv[1:sep], argv[sep + 1:]
    cli = importlib.import_module(PACKAGE + ".cli")
    tracer = Tracer()
    tracer.install()
    counts = None
    if "--profile-check" in flags:
        hook, counts = tracer.profile_counter()
        sys.setprofile(hook)
    try:
        code = cli.main(cli_args)
    finally:
        sys.setprofile(None)
    result = tracer.report()
    if counts is not None:
        result["profile_calls"] = dict(counts)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
