"""Benchmark of the coloured_neretin package, one workload per run.

    python3 bench/run.py --workload deep --seed 1 --seconds 20 --trace 0

Workloads: ``deep`` (element algebra and the shift bridge), ``neretin``
(CLI compose requests over Sym(7)) and ``certify`` (the paper's numeric
certificates); see README.md.  A run makes its inputs from ``--seed``,
times the program-side set-up ``SETUP_REPEATS`` times, runs
``WARMUP_OPS`` unmeasured ops and then a fixed number of measured ops:
``--seconds`` times the workload's nominal rate, so every run of a given
length does the same work however fast the program is.  Every op's output
is checked; an op whose check fails counts as failed.

Each op is preceded by a fixed pure-Python reference computation, and the
``_ref`` metrics divide the op's time by it, which takes out most of the
machine's drift.  With ``--trace 1`` the run reports per-layer metrics
from wrapped layer boundaries instead (see tracing.py) and writes its
spans to ``bench/out``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, SRC)

import tracing  # noqa: E402
from workloads import PACKAGE, WORKLOADS  # noqa: E402

SETUP_REPEATS = 11
WARMUP_OPS = 2
MIN_OPS = 40
TAIL_BEYOND = 10
OVERHEAD_PAIRS = 10
REFERENCE_ROUNDS = 20000
REF_WINDOW = 9


_KEYS = [(i % 7, (i * 3) % 7) for i in range(49)]


def reference():
    """Fixed pure-Python work of about 11 ms: integer arithmetic, tuple
    indexing, inserts into and lookups in a dict of 10 007 integer keys and
    a sort of its values.  It allocates no object that the cyclic garbage
    collector counts (but for one dict and one list), so it never starts a
    collection: each op bears the collections its own allocations cause."""
    table, keys, acc = {}, _KEYS, 0
    for i in range(REFERENCE_ROUNDS):
        key = keys[i % 49]
        k = i * 7919 % 10007
        table[k] = table.get(k, 0) + key[0] * i
        acc += len(key)
    values = list(table.values())
    values.sort()
    return acc + values[0]


def op_count(workload, seconds):
    return max(MIN_OPS, round(seconds * workload.rate))


def tail(values):
    """The value with exactly TAIL_BEYOND values above it."""
    return sorted(values)[len(values) - TAIL_BEYOND - 1]


def tail_percentile(ops):
    return 100.0 * (ops - TAIL_BEYOND) / ops


def fresh_setup(workload):
    """Forget the package's modules and time the set-up, so that each
    repeat pays the package import again.  Dependencies such as mpmath stay
    imported: importing them afresh would leave their old copies in memory
    and inflate ``peak_rss_mb``."""
    for name in list(sys.modules):
        if name == PACKAGE or name.startswith(PACKAGE + "."):
            del sys.modules[name]
    gc.collect()
    start = time.perf_counter()
    workload.setup()
    return time.perf_counter() - start


class Counter:
    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def check(self, i, output):
        self.attempted += 1
        problems = self.workload.check(i, output)
        if problems:
            self.failed += 1
            print("op %d failed: %s" % (i, "; ".join(problems[:3])), file=sys.stderr)


def timed(run, i):
    """(reference seconds, op seconds, output) of one op."""
    t0 = time.perf_counter()
    reference()
    t1 = time.perf_counter()
    output = run(i)
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1, output


def ref_ratios(times, refs):
    """Each op's time over the median reference time of the REF_WINDOW ops
    centred on it, every reference having been timed just before its op."""
    half = REF_WINDOW // 2
    return [
        op / statistics.median(refs[max(0, i - half) : i + half + 1])
        for i, op in enumerate(times)
    ]


def measure(workload, counter, ops):
    times, refs, outputs = [], [], []
    for i in range(ops):
        ref, op, output = timed(workload.op, i)
        times.append(op)
        refs.append(ref)
        outputs.append(output)
    # checked after the timed loop, so that the checks' allocations start
    # no collection inside an op
    for i, output in enumerate(outputs):
        counter.check(i, output)
    ratios = ref_ratios(times, refs)
    # Raw times swing by up to a third between runs of unchanged code on a
    # shared machine, and the tail ratio by up to a fifth, more than a bound
    # may allow or than a regression check can use, so they are only shown.
    print(
        "also: ops_per_s %.4f op_p50_ms %.3f op_tail_ms %.3f op_tail_ref %.4f"
        % (
            ops / sum(times),
            1000.0 * statistics.median(times),
            1000.0 * tail(times),
            tail(ratios),
        ),
        file=sys.stderr,
    )
    return {"op_p50_ref": (statistics.median(ratios), "ref")}


def measure_traced(workload, counter, ops, seed):
    package = sys.modules[PACKAGE]
    tracer = tracing.Tracer(package)

    def traced_op(i):
        tracer.install()
        tracer.begin_op()
        try:
            return workload.op(i)
        finally:
            tracer.end_op()
            tracer.uninstall()

    outputs = [traced_op(i) for i in range(ops)]
    snap = tracer.snapshot()
    for i, output in enumerate(outputs):
        counter.check(i, output)
    metrics = tracer.metrics(snap, ops, tracing.groups_alive(package))
    # the same ops once untraced and once traced, side by side
    slowdowns = []
    for i in range(min(OVERHEAD_PAIRS, ops)):
        ref, op, output = timed(workload.op, i)
        counter.check(i, output)
        ref_t, op_t, output = timed(traced_op, i)
        counter.check(i, output)
        slowdowns.append((op_t / ref_t) / (op / ref))
    metrics["trace.overhead_pct"] = (100.0 * (statistics.median(slowdowns) - 1.0), "%")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "trace-%s-%d.jsonl" % (workload.name, seed))
    tracer.write(path, snap)
    print("spans written to %s" % path, file=sys.stderr)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        print("error: no %s package under %s" % (PACKAGE, SRC), file=sys.stderr)
        return 2

    cls = WORKLOADS[args.workload]
    ops = op_count(cls, args.seconds)
    workdir = os.path.join(OUT, "work-%d" % os.getpid())
    try:
        workload = cls(args.seed, ops, workdir)
        setups = [fresh_setup(workload) for _ in range(SETUP_REPEATS)]
        origin = os.path.abspath(sys.modules[PACKAGE].__file__)
        if not origin.startswith(SRC + os.sep):
            print("error: %s imported from %s" % (PACKAGE, origin), file=sys.stderr)
            return 2
        counter = Counter(workload)
        warmup = [workload.op(i) for i in range(WARMUP_OPS)]
        if args.trace:
            metrics = measure_traced(workload, counter, ops, args.seed)
        else:
            metrics = measure(workload, counter, ops)
            metrics["setup_s"] = (statistics.median(setups), "s")
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
        for i, output in enumerate(warmup):
            counter.check(i, output)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(
        "%s: %d measured ops, tail = p%.1f (%d ops beyond)"
        % (cls.name, ops, tail_percentile(ops), TAIL_BEYOND),
        file=sys.stderr,
    )
    result = {
        "correct": counter.failed == 0,
        "attempted": counter.attempted,
        "failed": counter.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
