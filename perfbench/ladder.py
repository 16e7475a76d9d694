"""Depth ladders: how deep each engine goes before it stops certifying.

Per engine the ladder climbs its rungs in order and stops at the first
rung that misses its reference or its time budget; the engine's depth is
the last rung reached.  Rungs run in a worker process so that a rung over
budget can be stopped: the worker, a plain child interpreter that talks
JSON lines over its stdin and stdout, is killed and waited for, and a
fresh one serves the next engine.

* ``abel``, ``cesaro``: summability_limit on 1, 0, 1, 0, ... at depth
  12..24; reached when converged within 1e-3 of 1/2.
* ``log_kernel``: check_kernel_st(logarithmic) at r_depth 20..32; reached
  when the verdict is RegularEvidence and every |a|-integral and total
  mass is within 1e-10 of 1.
* ``taylor_h2``, ``taylor_wiener``: power_taylor(1, alpha) for alpha in
  3, 2.5, 2, 1.5; reached when series_norm matches sqrt(zeta(2 alpha)) or
  zeta(alpha) and one log-mean distance at r = 1 - 2^-10 finishes.  The
  depth is the number of alpha rungs reached.
"""

from __future__ import annotations

import json
import math
import os
import select
import subprocess
import sys
import time

import oracles

ENGINES = {
    "abel": list(range(12, 25)),
    "cesaro": list(range(12, 25)),
    "log_kernel": list(range(20, 33)),
    "taylor_h2": [3.0, 2.5, 2.0, 1.5],
    "taylor_wiener": [3.0, 2.5, 2.0, 1.5],
}
RUNG_BUDGET_S = 5.0
LOG_MEAN_R = 1.0 - 2.0 ** -10


def run_rung(engine: str, rung) -> dict:
    """One rung, in the worker process.  Returns reached, status, detail, failed points."""
    import sumkit as sk

    if engine in ("abel", "cesaro"):
        spec = sk.abel_method() if engine == "abel" else sk.cesaro_method()
        src = sk.scalar_sequence(lambda n: (1.0 + (-1.0) ** n) / 2.0)
        est = sk.summability_limit(spec, src, depth=rung, tol=oracles.LIMIT_TOL)
        value = None if est.value is None else est.value.coords
        verdict = oracles.judge(est.status, value, oracles.ALTERNATING_LIMIT, oracles.LIMIT_TOL)
        return {"reached": verdict == oracles.CERTIFIED, "status": est.status,
                "detail": verdict if value is None else f"{verdict}: value {complex(value[0])!r}",
                "failed_points": [[str(p), reason] for p, reason in est.failed_points]}
    if engine == "log_kernel":
        report = sk.check_kernel_st(sk.logarithmic_method(), r_depth=rung)
        masses = [complex(v) for check in (report.k1, report.k4) for _, v, _ in check.cells]
        worst = max(abs(m - 1.0) for m in masses) if masses else math.inf
        reached = report.overall == sk.REGULAR_EVIDENCE and worst <= oracles.KERNEL_MASS_TOL
        return {"reached": reached, "status": report.overall,
                "detail": f"max |mass - 1| = {worst:.3g}", "failed_points": []}
    space = engine.split("_", 1)[1]
    f = sk.power_taylor(1.0, rung, sk.SeriesSpace(space))
    try:
        norm = sk.series_norm(f)
    except sk.NonSummableError as exc:
        return {"reached": False, "status": "NonSummableError", "detail": str(exc),
                "failed_points": []}
    ref = oracles.power_norm(space, 1.0, rung)
    if not oracles.relative_match(norm, ref, oracles.ZETA_RTOL):
        return {"reached": False, "status": "norm mismatch",
                "detail": f"{norm!r} vs zeta reference {ref!r}", "failed_points": []}
    dist = sk.series_norm(sk.taylor_sub(sk.log_taylor_mean(f, LOG_MEAN_R), f))
    return {"reached": math.isfinite(dist), "status": "finished",
            "detail": f"norm {norm!r}; log-mean distance {dist!r}", "failed_points": []}


def serve() -> None:
    """Worker loop: import sumkit, say ready, then run rungs until stdin closes.

    Requests and results are JSON lines on stdin and on the original
    stdout; anything sumkit prints goes to stderr instead.
    """
    import sumkit  # noqa: F401  (import before the first rung is timed)

    out = os.fdopen(os.dup(1), "w")
    sys.stdout = sys.stderr

    def send(obj):
        out.write(json.dumps(obj, default=str) + "\n")
        out.flush()

    send("ready")
    for line in sys.stdin:
        engine, rung = json.loads(line)
        start = time.perf_counter()
        try:
            rec = run_rung(engine, rung)
        except Exception as exc:   # a rung that raises is a rung not reached
            rec = {"reached": False, "status": type(exc).__name__, "detail": str(exc),
                   "failed_points": []}
        rec["seconds"] = time.perf_counter() - start
        send(rec)


class _Worker:
    """A child interpreter running ``serve``; killed and waited for when it overruns."""

    def __init__(self, env):
        self.proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), "--serve"],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=env, text=True)
        if self.receive(120.0) != "ready":
            self.kill()
            raise RuntimeError("ladder worker did not start")

    def send(self, engine, rung):
        self.proc.stdin.write(json.dumps([engine, rung]) + "\n")
        self.proc.stdin.flush()

    def receive(self, timeout):
        """The next result line, or None if none came within ``timeout`` seconds."""
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        return json.loads(line) if line else None

    def kill(self):
        self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()

    def stop(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(5.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def climb(env: dict, budget: float = RUNG_BUDGET_S) -> dict:
    """Climb every engine's ladder.  Returns {engine: {"depth", "rungs"}}.

    ``env`` is the worker's environment; its PYTHONPATH must find sumkit.
    """
    results = {}
    worker = None
    try:
        for engine, rungs in ENGINES.items():
            records = []
            depth = 0 if engine.startswith("taylor") else rungs[0] - 1
            for i, rung in enumerate(rungs):
                if worker is None:
                    worker = _Worker(env)
                start = time.perf_counter()
                worker.send(engine, rung)
                rec = worker.receive(budget)
                if rec is None:
                    worker.kill()
                    worker = None
                    rec = {"reached": False, "status": "over budget",
                           "detail": f"no result within {budget:g} s", "failed_points": []}
                rec["rung"] = rung
                rec["wall_s"] = time.perf_counter() - start
                records.append(rec)
                if not rec["reached"]:
                    break
                depth = i + 1 if engine.startswith("taylor") else rung
            results[engine] = {"depth": depth, "rungs": records}
    finally:
        if worker is not None:
            worker.stop()
    return results


if __name__ == "__main__" and sys.argv[1:] == ["--serve"]:
    serve()
