"""sumkit benchmark: one command, end-to-end or traced per-layer figures.

    python3 perfbench/run.py --workload {shipped,deep-sum,quad-taylor} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; sumkit is imported from ``src/`` of that
checkout and nowhere else, so the benchmark's own modules (which import
sumkit) are imported inside functions, after ``main`` has set the path.
Load is closed-loop from one process: the next operation starts when the
previous one returns.  Inputs are generated from ``--seed``.  Every
operation's output is checked against an independent reference (see
oracles.py).

``--trace 0`` runs the workload untraced for at least ``--seconds`` (whole
rounds, and at least 100 operations) and reports the end-to-end metrics.
``--trace 1`` runs the traced tour: one round of every workload with spans
around the calls into each sumkit module, the depth ladders, the defect
probe, and traced-versus-untraced rounds of the named workload for the
tracing overhead; it reports the per-layer metrics.

Human-readable lines go first; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.  Full results
(every failure, ladder rung and a sample of spans) are written to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

MIN_OPS = 100
#: Fresh imports of sumkit per run, spread evenly over a timed run.
SETUP_REPEATS = 10
#: The host's speed drifts by up to a third over minutes, in phases longer
#: than a run, for every kind of code.  Timed runs therefore also time the
#: reference computation (reference.py) every REF_EVERY_S seconds, and
#: each fresh import times it in the importing process, and timings are
#: reported at the nominal reference speed.
REF_EVERY_S = 0.25

#: (name, unit, better) of every end-to-end metric, in output order.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("certified_frac", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

_IMPORT_PROBE = ("import sys, time\n"
                 "t = time.perf_counter()\n"
                 "import sumkit\n"
                 "seconds = time.perf_counter() - t\n"
                 "sys.path.insert(0, sys.argv[1])\n"
                 "import reference\n"
                 "print(seconds, reference.Reference().median_seconds(5))\n"
                 "print(sumkit.__file__)\n")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def _inside_src(path: str) -> bool:
    return os.path.abspath(path).startswith(os.path.join(SRC, "sumkit") + os.sep)


def fresh_import() -> tuple:
    """(seconds to import sumkit, reference seconds), both timed in one fresh interpreter.

    The reference is timed right after the import, in the same process, so
    the ratio of the two cancels the host's speed at that moment.
    """
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, HERE], env=_child_env(),
                         capture_output=True, text=True, timeout=120, cwd=ROOT)
    fields = out.stdout.split()
    if out.returncode != 0 or len(fields) != 3 or not _inside_src(fields[2]):
        raise RuntimeError(f"fresh import of sumkit from {SRC} failed: {out.stderr[-400:]}")
    return float(fields[0]), float(fields[1])


def import_seconds(imports) -> float:
    """Median import time at the nominal reference speed."""
    return statistics.median(s * reference.NOMINAL_S / ref for s, ref in imports)


def scipy_special_share() -> float:
    """Share of sumkit's import time spent importing scipy.special (-X importtime)."""
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import sumkit"],
                         env=_child_env(), capture_output=True, text=True, timeout=120, cwd=ROOT)
    cumulative = {}
    for line in out.stderr.splitlines():
        m = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|(\s*)(\S+)", line)
        if m:
            cumulative.setdefault(m.group(3).strip(), int(m.group(1)))
    if out.returncode != 0 or "sumkit" not in cumulative:
        raise RuntimeError(f"-X importtime probe failed: {out.stderr[-400:]}")
    return cumulative.get("scipy.special", 0) / cumulative["sumkit"]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit):
    return {"value": float(value), "unit": unit}


class Tally:
    """Verdict counts and the first few failures of a set of operations."""

    def __init__(self):
        self.attempted = 0
        self.verdicts = {}
        self.failures = []

    def add(self, label, verdict, detail):
        self.attempted += 1
        self.verdicts[verdict] = self.verdicts.get(verdict, 0) + 1
        if verdict != "certified" and len(self.failures) < 50:
            self.failures.append({"op": label, "verdict": verdict, "detail": detail})

    def count(self, verdict) -> int:
        return self.verdicts.get(verdict, 0)


def run_round(ops, tally, latencies=None, tracer=None, kinds=None, probes=None):
    """Run and check a round of operations; returns seconds spent in the calls.

    ``probes``, if given, is called before each operation (see Probes).
    """
    import workloads

    spent = 0.0
    for op in ops:
        if probes is not None:
            probes()
        if tracer is not None:
            tracer.op_id = op.label
        result, dt = workloads.run_op(op)
        spent += dt
        if latencies is not None:
            latencies.append(dt)
        if kinds is not None:
            kinds.setdefault(op.kind, []).append((dt, op.source))
        tally.add(op.label, *workloads.check_op(op, result))
    return spent


# ---------------------------------------------------------------------------
# --trace 0


def timed_run(name, rng, seconds, workdir):
    import workloads

    build = workloads.WORKLOADS[name]
    counter = {}
    tally = Tally()
    latencies, builds, rates, kinds = [], [], [], {}
    probes = Probes(seconds)
    while True:
        t = time.perf_counter()
        ops = build(rng, workdir, counter)
        builds.append(time.perf_counter() - t)
        rates.append(len(ops) / run_round(ops, tally, latencies, kinds=kinds, probes=probes))
        if time.perf_counter() - probes.start >= seconds and len(latencies) >= MIN_OPS:
            break
    probes.finish()
    return tally, latencies, builds, rates, kinds, probes


class Probes:
    """Timings taken between the operations of a timed run.

    The reference computation runs whenever REF_EVERY_S seconds have passed
    since its last timing.  The SETUP_REPEATS fresh imports are due at
    evenly spaced times over the run, so that they meet the same host
    phases as the operations; ``finish`` takes any that a long last
    operation left out.
    """

    def __init__(self, seconds):
        self.reference = reference.Reference()
        self.refs = []
        self.imports = []
        self.import_every = seconds / SETUP_REPEATS
        self.start = time.perf_counter()
        self.last_ref = float("-inf")

    def __call__(self):
        now = time.perf_counter()
        if now - self.last_ref >= REF_EVERY_S:
            self.refs.append(self.reference.seconds())
            self.last_ref = time.perf_counter()
        if len(self.imports) < SETUP_REPEATS and \
                now - self.start >= len(self.imports) * self.import_every:
            self.imports.append(fresh_import())

    def finish(self):
        while len(self.imports) < SETUP_REPEATS:
            self.imports.append(fresh_import())


def end_to_end(name, seed, seconds, workdir):
    import numpy as np

    rng = np.random.default_rng(seed)
    tally, lat, builds, rates, kinds, probes = timed_run(name, rng, seconds, workdir)
    n = len(lat)
    wall = {"ops_per_s": statistics.median(rates), "op_p50_ms": 1e3 * statistics.median(lat),
            "op_p90_ms": 1e3 * statistics.quantiles(lat, n=10)[8],
            "setup_s": statistics.median(s for s, _ in probes.imports) + statistics.median(builds)}
    scale = reference.NOMINAL_S / statistics.median(probes.refs)
    metrics = {
        "setup_s": metric(import_seconds(probes.imports) + statistics.median(builds) * scale, "s"),
        "ops_per_s": metric(wall["ops_per_s"] / scale, "1/s"),
        "op_p50_ms": metric(wall["op_p50_ms"] * scale, "ms"),
        "op_p90_ms": metric(wall["op_p90_ms"] * scale, "ms"),
        "certified_frac": metric(tally.count("certified") / tally.attempted, "ratio"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    extra = {
        "samples": n,
        "rounds": len(builds),
        "failed_frac": tally.count("failed") / tally.attempted,
        "inconclusive_frac": tally.count("inconclusive") / tally.attempted,
        "reference_ms": 1e3 * statistics.median(probes.refs),
        "reference_samples": len(probes.refs),
        "wall": wall,
        "imports": probes.imports,
        "p50_ms_by_kind": {k: 1e3 * statistics.median(dt for dt, _ in v) for k, v in kinds.items()},
    }
    return tally, metrics, extra


# ---------------------------------------------------------------------------
# --trace 1


def traced_run(name, seed, seconds, workdir):
    import numpy as np

    import ladder
    import layers
    import workloads

    rng = np.random.default_rng(seed)
    tally = Tally()
    tracers, kinds, counters, walls = {}, {}, {}, {}
    for slice_name, build in workloads.WORKLOADS.items():
        counters[slice_name] = {}
        ops = build(rng, workdir, counters[slice_name])
        kinds[slice_name] = {}
        with layers.traced() as tracer:
            walls[slice_name] = run_round(ops, tally, tracer=tracer, kinds=kinds[slice_name])
        tracers[slice_name] = tracer

    # the same shipped configs untraced at one and two threads
    pool = {}
    for threads in (1, 2):
        spent = 0.0
        for cfg in workloads.SHIPPED_CONFIGS:
            t = time.perf_counter()
            result = workloads.run_shipped(cfg, workdir, threads=threads)
            spent += time.perf_counter() - t
            tally.add(f"{cfg}@threads={threads}", *workloads.check_shipped(result))
        pool[threads] = spent

    defect = layers.defect_probe()
    depth = ladder.climb(_child_env())

    # tracing overhead: the named workload's round, untraced then traced
    ops = workloads.WORKLOADS[name](rng, workdir, {})
    plain = traced = 0.0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds / 2 or plain == 0.0:
        plain += run_round(ops, tally)
        with layers.traced() as tracer:
            traced += run_round(ops, tally, tracer=tracer)

    imports = [fresh_import() for _ in range(SETUP_REPEATS)]
    metrics = layers.per_layer_metrics(
        tracers, kinds, counters, walls,
        pool_speedup=pool[1] / pool[2],
        defect=defect, depth=depth,
        import_s=import_seconds(imports), scipy_share=scipy_special_share(),
        overhead=traced / plain - 1.0)
    extra = {
        "ladder": depth,
        "defect_probe": defect,
        "self_shares": {k: layers.self_shares(t, walls[k]) for k, t in tracers.items()},
        "slice_seconds": walls,
        "spans": {k: t.spans for k, t in tracers.items()},
    }
    return tally, metrics, extra


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so every child process is killed and
    # waited for on the way out (subprocess.run and the ladder's finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not os.path.isdir(os.path.join(SRC, "sumkit")):
        print(f"benchmark: no sumkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import sumkit

    if not _inside_src(sumkit.__file__):
        print(f"benchmark: sumkit resolved outside {SRC}: {sumkit.__file__}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        runner = traced_run if args.trace else end_to_end
        tally, metrics, extra = runner(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = tally.count("failed")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"sumkit {sumkit.__version__} from {os.path.relpath(sumkit.__file__, ROOT)}")
    print(f"operations {tally.attempted}: " + ", ".join(
        f"{k} {v}" for k, v in sorted(tally.verdicts.items())))
    for k, v in extra.items():
        if k in ("samples", "rounds", "failed_frac", "inconclusive_frac",
                 "reference_ms", "reference_samples"):
            print(f"  {k:<28} {v:.6g}")
    for k, v in extra.get("wall", {}).items():
        print(f"  wall-clock {k:<29} {v:.6g}")
    for key, m in metrics.items():
        print(f"  {key:<40} {m['value']:.6g} {m['unit']}")
    for kind, ms in extra.get("p50_ms_by_kind", {}).items():
        print(f"  p50 of {kind:<34} {ms:.4g} ms")
    for slice_name, shares in extra.get("self_shares", {}).items():
        print(f"  self-time shares in {slice_name}: " + ", ".join(
            f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
    for engine, res in extra.get("ladder", {}).items():
        print(f"  ladder {engine}: depth {res['depth']}; " + "; ".join(
            f"{r['rung']:g} {r['status']} {r['wall_s']:.2f}s" for r in res["rungs"][-2:]))
    for f in tally.failures[:10]:
        print(f"  not certified: {f['op']}: {f['verdict']}: {f['detail'][:300]}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "attempted": tally.attempted, "verdicts": tally.verdicts,
              "failures": tally.failures, "metrics": metrics, "extra": extra}
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, default=str)
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
