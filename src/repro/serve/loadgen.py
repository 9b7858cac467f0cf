"""Load generator and service benchmark (``repro loadgen``).

Drives a running ``repro serve`` daemon with three phases -- a serial
warm-up, a concurrent steady phase of deliberately duplicated requests
(so coalescing and the result cache have something to do), and an
overload burst against the bounded queue -- and assembles the
measurements into a ``BENCH_SERVE.json`` document: client-observed
latency percentiles, the coalescing hit rate, and the shed rate under
overload.  The document carries a schema id, is validated
structurally and written atomically, and ``--check`` compares it
against the committed baseline with a generous regression gate, so
service performance is a committed, diffable artifact.
"""

from __future__ import annotations

import json
import pathlib
import platform
import threading
import time
from typing import Any, Mapping, Optional

from repro.errors import ServeError, ServiceOverloadError
from repro.serve.client import ServeClient
from repro.serve.scheduler import percentile

#: Document format identifier (bump on incompatible layout changes).
SERVE_SCHEMA_ID = "repro.serve-bench/v1"

#: The committed baseline at the repository root.
SERVE_BENCH_FILENAME = "BENCH_SERVE.json"

#: Default regression gate: fail only when a latency percentile is
#: more than this many times the committed baseline.
DEFAULT_THRESHOLD = 5.0

#: Absolute slack under which latency regressions are noise, seconds.
NOISE_FLOOR_S = 0.25

#: The steady-phase request mix: deliberately few distinct requests so
#: concurrent workers collide and coalesce.  All tiny-scale trace ops:
#: cheap, deterministic, and exercising the full worker path.
STEADY_MIX = (
    ("trace", {"bench": "grep", "scale": "tiny"}),
    ("trace", {"bench": "compress", "scale": "tiny"}),
    ("annotate", {"bench": "grep", "scale": "tiny",
                  "config": "Simple"}),
)


def _run_phase(socket_path: str, plan: list[tuple[str, dict]],
               concurrency: int, timeout: float,
               deadline_s: Optional[float] = None) -> dict[str, Any]:
    """Fire *plan* over *concurrency* threads; gather per-request fates."""
    lock = threading.Lock()
    latencies: list[float] = []
    outcomes = {"ok": 0, "shed": 0, "failed": 0}
    cursor = {"next": 0}

    def worker() -> None:
        client = ServeClient(socket_path, timeout=timeout)
        try:
            while True:
                with lock:
                    index = cursor["next"]
                    if index >= len(plan):
                        return
                    cursor["next"] = index + 1
                op, params = plan[index]
                started = time.perf_counter()
                try:
                    client.request(op, params, deadline_s=deadline_s)
                    elapsed = time.perf_counter() - started
                    with lock:
                        outcomes["ok"] += 1
                        latencies.append(elapsed)
                except ServiceOverloadError:
                    with lock:
                        outcomes["shed"] += 1
                except (ServeError, OSError, ConnectionError):
                    with lock:
                        outcomes["failed"] += 1
        finally:
            client.close()

    threads = [threading.Thread(target=worker, daemon=True)
               for _ in range(max(1, concurrency))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {"latencies": latencies, **outcomes}


def run_loadgen(socket_path: str, *, requests: int = 60,
                concurrency: int = 6, overload: int = 32,
                timeout: float = 120.0, progress=None) -> dict:
    """Drive the server and assemble the ``BENCH_SERVE.json`` document.

    ``requests`` is the steady-phase volume (cycled over the coalescing
    mix), ``concurrency`` the client thread count, and ``overload`` the
    size of the final burst fired all at once to provoke load shedding.
    """
    def note(line: str) -> None:
        if progress is not None:
            progress(line)

    probe = ServeClient(socket_path, timeout=timeout)
    if not probe.wait_until_ready(timeout=min(30.0, timeout)):
        raise ServeError(
            f"no server answering at {socket_path} (start one with "
            f"'repro serve')")
    before = probe.status()

    note("loadgen: warm-up (serial, one request per mix entry)")
    warm = _run_phase(socket_path, list(STEADY_MIX), concurrency=1,
                      timeout=timeout)

    note(f"loadgen: steady phase ({requests} requests, "
         f"{concurrency} threads)")
    plan = [STEADY_MIX[i % len(STEADY_MIX)] for i in range(requests)]
    steady = _run_phase(socket_path, plan, concurrency=concurrency,
                        timeout=timeout)

    note(f"loadgen: overload burst ({overload} concurrent requests)")
    # Distinct params per request defeat coalescing on purpose: the
    # burst must hit the queue, not the coalescing map, so the shed
    # path is what gets measured.  36 distinct combos over the two
    # already-traced benchmarks keep the admitted fraction cheap.
    combos: list[tuple[str, dict]] = [
        ("annotate", {"bench": bench, "scale": "tiny",
                      "target": target, "config": config})
        for bench in ("grep", "compress")
        for target in ("ppc", "alpha")
        for config in ("Simple", "Constant", "Limit", "Perfect",
                       "Stride", "Gshare")
    ] + [
        ("model", {"bench": bench, "scale": "tiny",
                   "machine": machine, "config": config})
        for bench in ("grep", "compress")
        for machine in ("620", "620+", "21164")
        for config in (None, "Simple")
    ]
    burst_plan = [combos[i % len(combos)] for i in range(overload)]
    burst = _run_phase(socket_path, burst_plan, concurrency=overload,
                       timeout=timeout)

    after = probe.status()
    probe.close()

    latencies = steady["latencies"]
    received = after["received"] - before["received"]
    coalesced = after["coalesced"] - before["coalesced"]
    cache_hits = after["cache_hits"] - before["cache_hits"]
    document = {
        "schema": SERVE_SCHEMA_ID,
        "requests": requests,
        "concurrency": concurrency,
        "overload": overload,
        "latency": {
            "count": len(latencies),
            "p50_s": round(percentile(latencies, 50), 4),
            "p95_s": round(percentile(latencies, 95), 4),
            "p99_s": round(percentile(latencies, 99), 4),
            "mean_s": round(sum(latencies) / len(latencies), 4)
            if latencies else 0.0,
            "max_s": round(max(latencies), 4) if latencies else 0.0,
        },
        "coalescing": {
            "received": received,
            "coalesced": coalesced,
            "cache_hits": cache_hits,
            "hit_rate": round((coalesced + cache_hits) / received, 4)
            if received else 0.0,
        },
        "overload_burst": {
            "sent": overload,
            "ok": burst["ok"],
            "shed": burst["shed"],
            "failed": burst["failed"],
            "shed_rate": round(burst["shed"] / overload, 4)
            if overload else 0.0,
            "queue_limit": after.get("queue_limit"),
        },
        "phases": {
            "warm": {"ok": warm["ok"], "failed": warm["failed"]},
            "steady": {"ok": steady["ok"], "shed": steady["shed"],
                       "failed": steady["failed"]},
        },
        "server": {
            "workers": after.get("workers"),
            "scale": after.get("scale"),
            "shed_total": after.get("shed"),
        },
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
    }
    return document


# ---------------------------------------------------------------------------
# Schema validation and baseline comparison.
# ---------------------------------------------------------------------------
def validate_serve_bench(document) -> list[str]:
    """Structural validation; returns error strings (empty = valid)."""
    errors: list[str] = []
    if not isinstance(document, dict):
        return ["document is not an object"]
    if document.get("schema") != SERVE_SCHEMA_ID:
        errors.append(f"schema is {document.get('schema')!r}, "
                      f"expected {SERVE_SCHEMA_ID!r}")
    for field in ("requests", "concurrency", "overload"):
        if not isinstance(document.get(field), int) \
                or document.get(field, 0) < 0:
            errors.append(f"{field} must be a non-negative integer")
    latency = document.get("latency")
    if not isinstance(latency, dict):
        errors.append("latency must be an object")
    else:
        for field in ("p50_s", "p95_s", "p99_s", "mean_s", "max_s"):
            value = latency.get(field)
            if not isinstance(value, (int, float)) or value < 0:
                errors.append(
                    f"latency.{field} must be a non-negative number")
    coalescing = document.get("coalescing")
    if not isinstance(coalescing, dict) \
            or not isinstance(coalescing.get("hit_rate"),
                              (int, float)):
        errors.append("coalescing.hit_rate must be a number")
    burst = document.get("overload_burst")
    if not isinstance(burst, dict) \
            or not isinstance(burst.get("shed_rate"), (int, float)):
        errors.append("overload_burst.shed_rate must be a number")
    return errors


def compare_serve_bench(current: Mapping, baseline: Mapping,
                        threshold: float = DEFAULT_THRESHOLD,
                        noise_floor: float = NOISE_FLOOR_S,
                        ) -> list[str]:
    """Regressions of *current* against *baseline*; returns messages.

    The gate is deliberately generous: a latency percentile must be both
    ``threshold`` times the baseline *and* ``noise_floor`` seconds
    slower in absolute terms.  The functional robustness claims are
    gated hard, though: a steady phase that stopped coalescing, or an
    overload burst that stopped shedding, is a behavior regression at
    any latency.
    """
    regressions: list[str] = []
    base_latency = baseline.get("latency", {})
    now_latency = current.get("latency", {})
    for field in ("p50_s", "p95_s", "p99_s"):
        base = base_latency.get(field)
        now = now_latency.get(field)
        if (base and now is not None and now > base * threshold
                and now - base > noise_floor):
            regressions.append(
                f"latency.{field}: {now:.3f}s vs baseline "
                f"{base:.3f}s ({now / base:.1f}x, "
                f"threshold {threshold:g}x)")
    base_hit = baseline.get("coalescing", {}).get("hit_rate", 0.0)
    now_hit = current.get("coalescing", {}).get("hit_rate", 0.0)
    if base_hit > 0.0 and now_hit == 0.0:
        regressions.append(
            "coalescing.hit_rate dropped to 0 (baseline "
            f"{base_hit:.1%}): duplicate requests no longer coalesce")
    base_shed = baseline.get("overload_burst", {}).get("shed_rate", 0.0)
    now_shed = current.get("overload_burst", {}).get("shed_rate", 0.0)
    if base_shed > 0.0 and now_shed == 0.0:
        regressions.append(
            "overload_burst.shed_rate dropped to 0 (baseline "
            f"{base_shed:.1%}): the bounded queue no longer sheds")
    return regressions


def render_serve_bench(document: Mapping) -> str:
    """Human-readable summary of a serve bench document."""
    latency = document["latency"]
    coalescing = document["coalescing"]
    burst = document["overload_burst"]
    return "\n".join([
        f"repro loadgen ({document['requests']} requests, "
        f"{document['concurrency']} threads, burst "
        f"{document['overload']})",
        f"  latency    : p50 {latency['p50_s'] * 1000:7.1f}ms   "
        f"p95 {latency['p95_s'] * 1000:7.1f}ms   "
        f"p99 {latency['p99_s'] * 1000:7.1f}ms",
        f"  coalescing : {coalescing['coalesced']} coalesced + "
        f"{coalescing['cache_hits']} cache hits over "
        f"{coalescing['received']} requests "
        f"(hit rate {coalescing['hit_rate']:.1%})",
        f"  overload   : {burst['shed']}/{burst['sent']} shed "
        f"(rate {burst['shed_rate']:.1%}; queue limit "
        f"{burst['queue_limit']})",
    ])


def write_serve_bench(document: Mapping, path) -> pathlib.Path:
    """Atomically write a serve bench document as JSON."""
    path = pathlib.Path(path)
    temporary = path.with_suffix(path.suffix + ".tmp")
    temporary.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n")
    temporary.replace(path)
    return path


def load_serve_bench(path) -> dict:
    """Read a serve bench document (OSError if missing, ValueError on
    damage)."""
    return json.loads(pathlib.Path(path).read_text())
