"""Child-process side: run one workload and measure it.

``measure_plain`` produces the end-to-end metrics; ``measure_traced``
the per-layer ones.  The two never mix: end-to-end numbers come only
from a run with no profiler, probe or metrics attached.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import tempfile
import time
import zlib
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence

import repro
from repro.api import OpCountProbe, RunResult, ScenarioSpec, run_spec

import micro
from catalogue import COUNTERS, LAYERS, median, summarize
from layers import profile_layers
from workloads import SMOKE_SECONDS, WORKLOADS, Workload

#: Timed reps never fall below this, however short ``--seconds`` is.
MIN_REPS = 3
#: ``run_spec`` calls (per spec) behind one ``setup_s`` median.
SETUP_REPS = 20
#: ``metrics=True`` reps behind ``obs.overhead_ratio``.
OBS_REPS = 3
#: A micro-benchmark batch lasts ``seconds / MICRO_BATCH_DIVISOR`` CPU
#: seconds: 16 micro-benchmarks x 5 batches then take 40 % of
#: ``--seconds`` — what fits beside the passes under the driver's cap.
MICRO_BATCH_DIVISOR = 200.0


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _comparable(result: RunResult) -> Dict:
    """What must repeat exactly: the result minus its cache key and the
    optional observability export."""
    data = result.to_dict()
    del data["spec_key"]
    del data["metrics"]
    return data


class Operations:
    """Operation accounting: one ``run_spec`` call is one operation."""

    def __init__(self, name: str, shape: Callable[[RunResult], Optional[str]]) -> None:
        self.name = name
        #: Returns a one-line reason, or None when the result is fine.
        self.shape = shape
        self.attempted = 0
        self.failures: List[str] = []
        #: The warm-up pass's results, which every later pass must repeat.
        self.reference: List[Dict] = []

    def run_pass(self, specs: Sequence[ScenarioSpec], tag: str) -> Optional[List[RunResult]]:
        """One pass over the workload's specs.  Returns the results, or
        ``None`` if a run raised (every spec of the pass then counts as
        a failed operation — the pass has no usable timing)."""
        self.attempted += len(specs)
        try:
            return [run_spec(spec) for spec in specs]
        except Exception as exc:  # boundary: report, keep measuring
            for spec in specs:
                self._fail(tag, spec.scheme, f"raised {exc!r}")
            return None

    def check(self, results: Sequence[RunResult], tag: str) -> None:
        """Determinism against the warm-up pass, then paper shape."""
        for result, want in zip(results, self.reference):
            if _comparable(result) != want:
                self._fail(tag, result.scheme, "result differs from the warm-up rep's")
                continue
            reason = self.shape(result)
            if reason is not None:
                self._fail(tag, result.scheme, reason)

    def _fail(self, tag: str, scheme: str, reason: str) -> None:
        line = f"{self.name} {tag} [{scheme}]: {reason}"
        self.failures.append(line)
        _log(f"FAILED {line}")

    def report(self) -> Dict:
        return {
            "ops_attempted": self.attempted,
            "ops_failed": len(self.failures),
            "failures": self.failures,
        }


def _crc32(results: Sequence[RunResult]) -> int:
    canonical = json.dumps([_comparable(r) for r in results], sort_keys=True)
    return zlib.crc32(canonical.encode("utf-8"))


def _sim_stats(results: Sequence[RunResult]) -> Dict[str, Optional[float]]:
    """The simulated statistics of one pass.  Over several runs (the
    four baselines) counts add up and the two averages are means."""
    times = [r.avg_transfer_time for r in results if r.avg_transfer_time is not None]
    stats: Dict[str, Optional[float]] = {
        "sim.fraction_completed": sum(r.fraction_completed for r in results) / len(results),
        "sim.avg_transfer_time_s": sum(times) / len(times) if times else None,
        "sim.transfers_completed": sum(r.transfers_completed for r in results),
        "sim.result_crc32": _crc32(results),
    }
    if all(r.metrics is not None for r in results):
        finals = [r.metrics["finals"] for r in results]
        for name, key in (
            ("sim.bottleneck_tx_pkts", "link.bottleneck.tx_packets"),
            ("sim.bottleneck_drops", "link.bottleneck.qdisc.drops"),
        ):
            values = [f.get(key) for f in finals]
            stats[name] = None if None in values else sum(values)
    return stats


def _timed_pass(ops: Operations, specs, tag):
    """``(results, cpu_s, wall_s)`` of one pass; GC stays on (users run
    that way) but each pass starts from a collected heap."""
    gc.collect()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    results = ops.run_pass(specs, tag)
    return results, time.process_time() - cpu0, time.perf_counter() - wall0


def _begin(workload: Workload, seed: int, smoke: bool, fail_shape: bool):
    """``(specs, ops)`` after the untimed warm-up pass, which fills lazy
    state (imports, memo tables that outlive a run) and fixes the
    reference result.  The warm-up is not an operation; if it raises
    there is nothing to measure."""
    specs = workload.specs(seed, SMOKE_SECONDS if smoke else None)
    if fail_shape:
        shape = lambda result: "shape check forced to fail (--fail-shape)"  # noqa: E731
    elif smoke:
        # One simulated second is too short for the paper's shape.
        shape = lambda result: None  # noqa: E731
    else:
        shape = workload.shape
    ops = Operations(workload.name, shape)
    ops.reference = [_comparable(run_spec(spec)) for spec in specs]
    return specs, ops


def _measure_setup(setup_specs, reps: int) -> List[float]:
    """CPU seconds of building everything and firing nothing, ``reps``
    times: topology instantiate + scheme build + agent creation."""
    samples = []
    for _ in range(reps):
        gc.collect()
        start = time.process_time()
        for spec in setup_specs:
            run_spec(spec)
        samples.append(time.process_time() - start)
    return samples


def measure_plain(workload: Workload, seed: int, seconds: float, smoke: bool,
                  fail_shape: bool) -> Dict:
    specs, ops = _begin(workload, seed, smoke, fail_shape)

    setup = _measure_setup(workload.specs(seed, 0.0), 3 if smoke else SETUP_REPS)

    cpu: List[float] = []
    wall: List[float] = []
    last = None
    min_reps = 1 if smoke else MIN_REPS
    started = time.perf_counter()
    rep = 0
    while rep < min_reps or time.perf_counter() - started < seconds:
        rep += 1
        results, cpu_s, wall_s = _timed_pass(ops, specs, f"rep {rep}")
        if results is None:
            continue
        ops.check(results, f"rep {rep}")
        last = results
        cpu.append(cpu_s)
        wall.append(wall_s)
        _log(f"  {workload.name} rep {rep}: cpu {cpu_s:.3f} s  wall {wall_s:.3f} s")
    if not cpu:
        raise SystemExit(f"{workload.name}: every timed rep raised")

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = ops.report()
    report["end_to_end"] = {
        "run_cpu_s": summarize(cpu, "s"),
        "run_wall_s": summarize(wall, "s"),
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "setup_s": summarize(setup, "s"),
    }
    # The simulated statistics a plain run can see (no bottleneck
    # counters without metrics=True); compare.py flags any change.
    report["sim"] = _sim_stats(last)
    return report


def measure_traced(workload: Workload, seed: int, seconds: float, smoke: bool,
                   fail_shape: bool, tmp_dir: str) -> Dict:
    specs, ops = _begin(workload, seed, smoke, fail_shape)
    values: Dict[str, Optional[float]] = {}

    # The traced run's own plain rep: the base of the two overhead
    # ratios, so they compare like with like inside one process.
    results, plain_cpu, _ = _timed_pass(ops, specs, "plain")
    if results is None:
        raise SystemExit(f"{workload.name}: the plain rep raised")
    ops.check(results, "plain")

    # 1. Profile pass.
    gc.collect()
    cpu0 = time.process_time()
    results, self_s, calls, _total = profile_layers(
        lambda: ops.run_pass(specs, "profile"), os.path.dirname(repro.__file__)
    )
    profiled_cpu = time.process_time() - cpu0
    if results is not None:
        ops.check(results, "profile")
    for layer in LAYERS:
        values[f"{layer}.self_s"] = self_s[layer]
        values[f"{layer}.calls"] = calls[layer]
    values["trace.profile_overhead_ratio"] = profiled_cpu / plain_cpu
    _log(f"  {workload.name} profile pass: cpu {profiled_cpu:.3f} s")

    # 2. Count pass: exact, seed-stable counters and the simulated
    # statistics, then more metrics=True reps for the obs overhead.
    observed = [replace(spec, metrics=True) for spec in specs]
    obs_cpu: List[float] = []
    for rep in range(1 if smoke else OBS_REPS):
        with OpCountProbe() as probe:
            results, cpu_s, _ = _timed_pass(ops, observed, f"count {rep + 1}")
        if results is None:
            continue
        ops.check(results, f"count {rep + 1}")
        obs_cpu.append(cpu_s)
        if len(obs_cpu) == 1:
            for name, field in COUNTERS.items():
                # A counter a later PR removes reads None, not an error.
                values[name] = getattr(probe.counts, field, None)
            values.update(_sim_stats(results))
    values["obs.overhead_ratio"] = median(obs_cpu) / plain_cpu if obs_cpu else None
    _log(f"  {workload.name} count pass: {len(obs_cpu)} metrics=True rep(s)")

    # 3. Layer micro-benchmarks.
    batch_s = 0.005 if smoke else seconds / MICRO_BATCH_DIVISOR
    values.update(micro.run_all(batch_s, tmp_dir))

    report = ops.report()
    report["per_layer"] = values
    return report


def child_main(workload_name: str, seed: int, seconds: float, traced: bool,
               smoke: bool, fail_shape: bool) -> int:
    """Measure one workload; print the report as the last stdout line."""
    workload = WORKLOADS[workload_name]
    if traced:
        # The cache micro-benchmark needs a directory; keep it inside the
        # checkout (the working directory), never in the system's /tmp.
        with tempfile.TemporaryDirectory(prefix=".e2e_tmp_", dir=os.getcwd()) as tmp_dir:
            report = measure_traced(workload, seed, seconds, smoke, fail_shape, tmp_dir)
    else:
        report = measure_plain(workload, seed, seconds, smoke, fail_shape)
    print(json.dumps(report), flush=True)
    return 0
