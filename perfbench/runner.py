"""The measurement loop, metric assembly and result records."""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

import repro as gb

from . import calibrate, device, spans, stats, workloads
from .run import ROOT, THREAD_VARS

OUT_DIR = os.path.join(ROOT, "perfbench", "out")
SETUP_REPS = 5
#: A run stops at ``seconds`` of op time in reference seconds, or at this
#: multiple of it in op wall time.
WALL_CAP = 1.5
#: Probes timed before each setup.
SETUP_PROBES = 2

#: End-to-end metrics: name -> (unit, clock).  The host clock is the CPU
#: time of the benchmark process in reference seconds (see calibrate.py):
#: unlike wall time it does not count the time other tenants of a shared
#: machine hold the CPU, and the probe scale takes out how fast the CPU ran
#: meanwhile.  Unscaled CPU and wall-clock figures are kept in the record.
END_TO_END = {
    "setup_s": ("s", "host ref"),
    "host_ops_per_s": ("1/s", "host ref"),
    "host_p50_ms": ("ms", "host ref"),
    "host_tail_ms": ("ms", "host ref"),
    "sim_ops_per_s": ("1/s", "sim"),
    "sim_p50_us": ("us", "sim"),
    "sim_tail_us": ("us", "sim"),
    "host_sim_ratio": ("s/s", "host ref/sim"),
    "peak_rss_mb": ("MB", "host"),
}

#: Device- and workload-side per-layer metrics (simulated clock) and units.
SIM_LAYER_UNITS = {
    "gpu.launches": "count", "gpu.replays": "count", "gpu.kernel_us": "us",
    "gpu.launch_overhead_us": "us", "gpu.memory_bound_us": "us",
    "gpu.compute_bound_us": "us", "gpu.flops": "flop", "gpu.bytes": "B",
    "gpu.transfer_us": "us", "gpu.h2d_bytes": "B", "gpu.h2d_elided_ratio": "ratio",
    "gpu.pool_hit_ratio": "ratio", "distributed.comm_us": "us",
    "distributed.comm_bytes": "B", "distributed.collectives": "count",
    "serve.batches": "count", "serve.mean_batch": "queries",
    "serve.queue_wait_p50_us": "us", "serve.queue_wait_tail_us": "us",
    "streaming.compactions": "count", "streaming.fallbacks": "count",
    "streaming.incremental_ratio": "ratio", "streaming.cache_hit_ratio": "ratio",
}


def git_commit() -> str:
    """HEAD of the checkout ("unknown" outside git)."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def stamp(wl: workloads.Workload, seed: int, trace: bool) -> Dict[str, Any]:
    """Every knob a number was taken under."""
    import numpy as np
    import scipy

    from repro.gpu import loadbalance, reuse
    from repro.lazy import config as lazy_config

    return {
        "workload": wl.name,
        "seed": seed,
        "trace": trace,
        **wl.stamp(),
        "lazy": {
            "mode": lazy_config.lazy_mode(),
            "passes": {
                p: lazy_config.pass_enabled(p)
                for p in ("fuse", "dme", "sink", "direction", "capture")
            },
        },
        "reuse": {
            "aux_cache": reuse.aux_cache_enabled(),
            "elision": reuse.elision_enabled(),
            "graphs": reuse.graphs_enabled(),
        },
        "loadbalance": {"mode": loadbalance.current_mode()},
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_ops(
    wl: workloads.Workload,
    seconds: float,
    tracer: Optional[spans.Tracer],
    attribution: Optional[device.CostAttribution],
    probe: calibrate.Probe,
    probes: List[float],
) -> Dict[str, Any]:
    """The timed loop: whole rounds until ``seconds`` of op time and the sim window are done.

    Each op is timed on two host clocks: the CPU time of this process
    (``process_time``, the clock of the ``host_*`` metrics once scaled)
    and the wall clock (kept in the record).  The machine-speed probe runs
    before every round and its times are appended to ``probes``.  The run
    length is counted in op CPU time scaled by the probes so far, so a run
    does about the same work however busy the machine is; op wall time is
    capped at ``WALL_CAP`` × ``seconds``.

    With a tracer, a round is traced when its number has an odd count of
    1-bits (the Thue-Morse sequence), so traced and untraced rounds see
    the same program state, and an op mix that repeats every 2^k rounds
    (churn's delete batch every fourth round) falls half in each; the
    untraced rounds give the reference throughput.
    """
    host: List[float] = []  # per-op CPU time, untraced ops only
    wall: List[float] = []  # per-op wall time, untraced ops only
    rounds: Dict[bool, List[float]] = {False: [], True: []}  # round op CPU time by traced
    wall_rounds: List[float] = []  # untraced rounds, wall time
    round_t = round_w = 0.0
    scale = calibrate.REFERENCE_S / stats.median(probes)
    failed = attempted = errors = 0
    busy = busy_wall = 0.0
    res: Dict[str, Any] = {}
    installed = False
    wl.start()
    res["dev0"] = device.snapshot(wl.backend, attribution)
    res["layer0"] = wl.layer_counters()
    i = 0
    try:
        while True:
            if i % wl.round_len == 0:
                if i:
                    rounds[installed].append(round_t)
                    if not installed:
                        wall_rounds.append(round_w)
                    round_t = round_w = 0.0
                done = busy >= seconds or busy_wall >= WALL_CAP * seconds
                if done and i >= wl.sim_window and wl.window_closed():
                    break
                probes.append(probe())
                scale = calibrate.REFERENCE_S / stats.median(probes)
                want = tracer is not None and bin(i // wl.round_len).count("1") % 2 == 1
                if tracer is not None and want != installed:
                    (tracer.install if want else tracer.remove)()
                    installed = want
            fn = wl.op(i)
            root = tracer.begin_op(i) if tracer is not None and installed else -1
            t0 = time.perf_counter()
            c0 = time.process_time()
            try:
                out, ok = fn(), True
            except Exception:  # a failed op is a result, not a crash
                out, ok = None, False
                errors += 1
                if errors <= 3:
                    traceback.print_exc(file=sys.stderr)
            dc = time.process_time() - c0
            dt = time.perf_counter() - t0
            if tracer is not None and installed:
                tracer.close(root)
            busy += dc * scale
            busy_wall += dt
            round_t += dc
            round_w += dt
            attempted += 1
            if ok:
                if not installed:
                    host.append(dc)
                    wall.append(dt)
                failed += wl.check(i, out)
            else:
                failed += 1
            wl.after_op(i)
            i += 1
            if i == wl.sim_window:
                res["dev1"] = device.snapshot(wl.backend, attribution)
                res["layer1"] = wl.layer_counters()
    finally:
        if installed and tracer is not None:
            tracer.remove()
    failed += wl.finish()
    res.update(host=host, wall=wall, rounds=rounds, wall_rounds=wall_rounds, probes=probes,
               attempted=attempted, failed=failed, ops=i)
    return res


def measure(name: str, seed: int, seconds: float, trace: bool) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Set up ``SETUP_REPS`` times, run the timed loop, check; returns (JSON result, full record).

    Setup is repeated from a cold program each time and reported as the
    median of its CPU times; the last setup's state is the one measured.
    The machine-speed probe runs before every setup and every round, and
    the median of all its times scales the run's host figures.
    """
    setup_times: List[float] = []  # CPU seconds
    setup_wall: List[float] = []
    probe = calibrate.Probe()
    probes: List[float] = []
    wl: Optional[workloads.Workload] = None
    for _ in range(SETUP_REPS):
        wl = None
        gc.collect()
        workloads.reset_program()
        probes.extend(probe() for _ in range(SETUP_PROBES))
        t0 = time.perf_counter()
        c0 = time.process_time()
        wl = workloads.WORKLOADS[name](seed)
        with gb.use_backend(wl.backend):
            wl.build()
        setup_times.append(time.process_time() - c0)
        setup_wall.append(time.perf_counter() - t0)
    assert wl is not None
    wl.prepare_oracle()

    tracer = attribution = None
    if trace:
        tracer = spans.Tracer()
        tracer.prepare(spans.layer_targets(wl.backend))
        attribution = device.CostAttribution()
        attribution.install()
    try:
        with gb.use_backend(wl.backend):
            res = run_ops(wl, seconds, tracer, attribution, probe, probes)
    finally:
        if attribution is not None:
            attribution.remove()

    extra: Dict[str, Any] = {
        "setup_runs_cpu_s": setup_times, "setup_runs_wall_s": setup_wall,
        "ops": res["ops"],
        "probe_median_s": stats.median(res["probes"]), "probes": len(res["probes"]),
    }
    if trace:
        assert tracer is not None
        metrics, conservation = layer_metrics(wl, res, tracer)
        extra["conservation_rel_error"] = conservation
        span_file = f"spans-{name}.json"
        tracer.write(os.path.join(_out_dir(), span_file), {"workload": name, "seed": seed})
        extra.update(span_file=os.path.join("perfbench", "out", span_file),
                     spans=len(tracer.start), traced_ops=tracer.traced_ops)
        correct = res["failed"] == 0 and conservation <= device.CONSERVATION_RTOL
    else:
        metrics, tails = end_to_end(wl, res, setup_times, setup_wall)
        extra.update(tails, error_rate=res["failed"] / res["attempted"])
        correct = res["failed"] == 0
    result = {
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    record = {
        "stamp": stamp(wl, seed, trace),
        **result,
        "clock": {k: clock_of(k) for k in metrics},
        **extra,
    }
    return result, record


def round_rate(wl: workloads.Workload, round_times: List[float]) -> float:
    """Ops per second of the median round: robust to bursts of machine noise."""
    return wl.round_len / stats.median(round_times)


def end_to_end(
    wl: workloads.Workload,
    res: Dict[str, Any],
    setup_cpu: List[float],
    setup_wall: List[float],
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """End-to-end metrics; host figures are CPU time scaled by the run's median probe."""
    cpu = res["host"]
    scale = calibrate.REFERENCE_S / stats.median(res["probes"])
    host = [t * scale for t in cpu]
    sim = wl.sim_summary()
    tail_v, tail_p, tail_n = stats.tail(host)
    cpu_rate = round_rate(wl, res["rounds"][False])
    ops_per_s = cpu_rate / scale
    metrics = {
        "setup_s": stats.median(setup_cpu) * scale,
        "host_ops_per_s": ops_per_s,
        "host_p50_ms": stats.median(host) * 1e3,
        "host_tail_ms": tail_v * 1e3,
        "sim_ops_per_s": sim["ops_per_s"],
        "sim_p50_us": sim["p50_us"],
        "sim_tail_us": sim["tail_us"],
        "host_sim_ratio": sim["ops_per_s"] / ops_per_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    wall = res["wall"]
    tails = {
        "cpu": {
            "setup_s": stats.median(setup_cpu),
            "ops_per_s": cpu_rate,
            "p50_ms": stats.median(cpu) * 1e3,
            "tail_ms": stats.tail(cpu)[0] * 1e3,
        },
        "wall": {
            "setup_s": stats.median(setup_wall),
            "ops_per_s": round_rate(wl, res["wall_rounds"]),
            "p50_ms": stats.median(wall) * 1e3,
            "tail_ms": stats.tail(wall)[0] * 1e3,
        },
        "host_tail_percentile": tail_p,
        "host_samples": tail_n,
        "sim_tail_percentile": sim["tail_pct"],
        "sim_samples": sim["samples"],
    }
    return metrics, tails


def layer_metrics(
    wl: workloads.Workload, res: Dict[str, Any], tracer: spans.Tracer
) -> Tuple[Dict[str, float], float]:
    """Per-layer metrics of a traced run, plus the attribution conservation error."""
    ops = max(tracer.traced_ops, 1)
    totals = tracer.layer_totals()
    metrics: Dict[str, float] = {}
    for layer in spans.LAYERS:
        calls, self_s = totals.get(layer, (0, 0.0))
        metrics[f"{layer}.calls"] = calls / ops
        metrics[f"{layer}.self_s"] = self_s / ops
    metrics["unwrapped.self_s"] = totals.get(spans.ROOT_LAYER, (0, 0.0))[1] / ops
    rounds = res["rounds"]
    metrics["trace.overhead_ratio"] = round_rate(wl, rounds[True]) / round_rate(wl, rounds[False])
    d = device.diff(res["dev1"], res["dev0"])
    metrics.update(device.gpu_metrics(d))
    metrics.update({k: 0.0 for k in SIM_LAYER_UNITS if k.startswith(("serve.", "streaming."))})
    metrics.update(wl.layer_metrics(res["layer0"], res["layer1"]))
    return metrics, device.conservation_error(d)


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name][0]
    if name.endswith(".calls"):
        return "1/op"
    if name.endswith(".self_s"):
        return "s/op"
    if name == "trace.overhead_ratio":
        return "ratio"
    return SIM_LAYER_UNITS[name]


def clock_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name][1]
    host = name.endswith((".calls", ".self_s")) or name.startswith("trace.")
    return "host" if host else "sim"


def _out_dir() -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    return OUT_DIR


def save_record(record: Dict[str, Any], filename: str) -> None:
    with open(os.path.join(_out_dir(), filename), "w") as f:
        json.dump(record, f, indent=1)


def print_record(record: Dict[str, Any]) -> None:
    st = record["stamp"]
    print(
        f"== perfbench {st['workload']} seed={st['seed']} trace={int(st['trace'])} "
        f"backend={st['backend']} P={st['nparts']} splitter={st['splitter']} "
        f"lazy={st['lazy']['mode']} commit={st['git_commit'][:12]}"
    )
    for name, m in record["metrics"].items():
        print(f"  {name:<34} {m['value']:>16.6g} {m['unit']:<8} [{record['clock'][name]}]")
    for clock in ("cpu", "wall"):
        for name, value in record.get(clock, {}).items():
            print(f"  {clock + '.' + name:<34} {value:>16.6g} {'':<8} [host {clock}]")
    if "error_rate" in record:
        print(f"  {'error_rate':<34} {record['error_rate']:>16.6g} {'ratio':<8} [failed/attempted]")
    for key in ("probe_median_s", "host_tail_percentile", "host_samples", "sim_tail_percentile",
                "sim_samples", "conservation_rel_error", "span_file", "spans", "ops"):
        if key in record:
            print(f"  {key:<34} {record[key]}")
