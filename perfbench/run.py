#!/usr/bin/env python3
"""The repro benchmark: one named workload, measured in one process.

    python3 perfbench/run.py --workload table1-256 --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; it imports the program from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
also writes its spans to ``.perfbench_out/`` and prints per-layer self
times and its overhead against the untraced run of the same workload
and seed, when that run has been made.  See README.md.

The benchmark drives the program only through public entry points
(``repro.api``, ``repro.workloads``, ``repro.runner``, ``repro.serve``)
and checks every output against a computation made apart from the
simulator.
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
import tempfile
import time
import traceback
from pathlib import Path
from typing import (Any, Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

import harness
from harness import Tracer

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    raise SystemExit("perfbench: no program sources at %s" % (ROOT / "src"))
sys.path.insert(0, str(ROOT / "src"))

from repro import api, runner, serve, workloads  # noqa: E402
from repro.faults import CoreDeath, FaultPlan  # noqa: E402
from repro.sim import SimConfig  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"
TMP_ROOT = ROOT / ".perfbench_tmp"

#: set-ups per run; set-up time is their median.  Building ten programs
#: takes ~0.1 s, so those set-ups repeat more than the daemon's (~5 s).
SETUP_REPS_BUILD = 9
SETUP_REPS_SERVE = 3

#: chaos grid (the E9 shape): drop rates x core deaths per program
CHAOS_CORES = 16
CHAOS_FAULT_SEED = 1234
CHAOS_DROPS = (0.0, 0.05, 0.15)
CHAOS_DEATHS = (0, 1, 2)
#: the snapshot every cell resumes from, as a share of the base run
CHAOS_SNAP_FRAC = 0.9
#: the cheapest program, taken once through the grid's calls in set-up
CHAOS_WARMUP_PROGRAM = "matching"

#: serve-mix: one round interleaves each of the ten warm programs twice
#: with three cold ops ("w" warm, "c" cold).  The cold share, 3/23
#: (13%), is above the tail fraction and under one half.
SERVE_CORES = 8
SERVE_ROUND = "wwwwwwwcwwwwwwwcwwwwwwc"
#: rounds a run makes at least, however slow: 9 x 23 = 207 ops, enough
#: for the tail rule to report p95 in every run
SERVE_MIN_ROUNDS = 9
#: the program cold ops run, each at a data seed new to the run
SERVE_COLD_PROGRAM = "quicksort"
#: per-tenant quota far above what one closed-loop client offers; the
#: daemon default (16 jobs/s, burst 64) would answer 429 mid-run
SERVE_QUOTA = 1_000_000.0

END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s",
    "sim_kips": "kinstr/s", "sim_cycles": "cycles", "op_p50_ms": "ms",
    "op_tail_ms": "ms",
}


class Run:
    """State of one benchmark run: counts, samples, spans."""

    def __init__(self, seed: int, seconds: float, trace: bool) -> None:
        self.seed = seed
        self.seconds = seconds
        self.tracer = Tracer(trace)
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.setup_times: List[float] = []
        self.end_to_end: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.notes: List[str] = []

    def op(self, op_id: str, body: Callable[[], bool]) -> None:
        """Attempt one operation; *body* returns whether its outputs
        checked out.  An exception or a wrong output fails the op."""
        self.attempted += 1
        self.tracer.op = op_id
        try:
            with self.tracer.span("op"):
                ok = body()
        except Exception:       # noqa: BLE001 - count it, keep measuring
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return
        if not ok:
            print("perfbench: wrong output in op %s" % op_id,
                  file=sys.stderr)
            self.failed += 1
            self.correct = False

    def setup(self, reps: int, build: Callable[[], Any],
              release: Callable[[Any], None] = lambda built: None) -> Any:
        """Run *build* *reps* times, timing each; returns the last
        result, after handing each earlier one to *release* outside the
        timed region."""
        built = None
        for _ in range(reps):
            if built is not None:
                release(built)
            built = None
            gc.collect()
            t0 = time.perf_counter()
            built = build()
            self.setup_times.append(time.perf_counter() - t0)
        gc.collect()
        return built

    def timed_until_done(self, start: float) -> bool:
        return time.perf_counter() - start < self.seconds


# -- shared pieces --------------------------------------------------------

class Built(NamedTuple):
    """One Table 1 program, built and fork-transformed, with its oracle."""

    name: str
    program: Any
    expected: List[int]


def build_table1(run: Run) -> List[Built]:
    out = []
    for workload in workloads.WORKLOADS:
        inst = workload.instance(scale=0, seed=run.seed)
        with run.tracer.span("frontend.compile"):
            program = api.compile_c(inst.source)
        with run.tracer.span("frontend.fork_transform"):
            program = api.transform(program)
        out.append(Built(workload.short, program, inst.expected_output))
    return out


def sim_row(result: Any) -> Dict[str, float]:
    """The simulated counts of one result (a SimResult or a served
    payload dict) that the per-layer ``sim.*`` metrics sum."""
    get = (result.get if isinstance(result, dict)
           else lambda name: getattr(result, name))
    noc = get("noc") if isinstance(result, dict) else result.noc_stats
    occupancy = (get("occupancy_summary") if isinstance(result, dict)
                 else result.occupancy_summary())
    return {"cycles": get("cycles"), "instructions": get("instructions"),
            "requests": get("requests"), "request_hops": get("request_hops"),
            "sections": get("sections"),
            "fetch_computed": get("fetch_computed"),
            "noc_messages": (noc or {}).get("messages", 0),
            "parked": occupancy.get("parked", 0.0)}


def sim_layers(rows: Sequence[Dict[str, float]],
               host_s: float) -> Dict[str, float]:
    """``sim.*`` per-layer metrics over one pass of simulations taking
    *host_s* host seconds in all."""
    cycles = sum(r["cycles"] for r in rows)
    instructions = sum(r["instructions"] for r in rows)
    out = {
        "sim.us_per_cycle": host_s * 1e6 / cycles if cycles else 0.0,
        "sim.us_per_kinstr": (host_s * 1e9 / instructions
                              if instructions else 0.0),
        # weighted by cycles: every run of a pass has the same core count
        "sim.parked_share": (sum(r["parked"] * r["cycles"] for r in rows)
                             / cycles if cycles else 0.0),
        "sim.ipc": instructions / cycles if cycles else 0.0,
    }
    for name in ("requests", "request_hops", "noc_messages", "sections",
                 "fetch_computed"):
        out["sim." + name] = sum(r[name] for r in rows)
    return out


def span_median_ms(tracer: Tracer, name: str,
                   op_prefix: str = "") -> float:
    values = [end - start for span_name, start, end, _parent, op
              in tracer.spans
              if span_name == name and op.startswith(op_prefix)]
    return statistics.median(values) * 1e3 if values else 0.0


def latency_metrics(run: Run, samples: Sequence[float]) -> None:
    pct, value = harness.tail(samples)
    run.end_to_end["op_p50_ms"] = statistics.median(samples) * 1e3
    run.end_to_end["op_tail_ms"] = value * 1e3
    run.notes.append("op_tail_ms is p%g over %d op latencies"
                     % (pct, len(samples)))


def frontend_layers(run: Run) -> None:
    for name in ("compile", "fork_transform", "listing"):
        run.layers["frontend.%s_ms" % name] = span_median_ms(
            run.tracer, "frontend." + name)


# -- table1-256 -----------------------------------------------------------

def workload_table1(run: Run) -> None:
    """The ten Table 1 programs at scale 0 on 256 cores, in passes."""
    programs = run.setup(SETUP_REPS_BUILD, lambda: build_table1(run))
    config = SimConfig(n_cores=256)
    samples: List[Tuple[str, float]] = []
    pass_times: List[float] = []
    rows: Dict[str, Dict[str, float]] = {}
    start = time.perf_counter()
    passes = 0
    while passes == 0 or run.timed_until_done(start):
        t_pass = time.perf_counter()
        for built in programs:
            def body(built: Built = built) -> bool:
                with run.tracer.span("sim.simulate"):
                    t0 = time.perf_counter()
                    result = api.simulate(built.program, config).result
                    samples.append((built.name, time.perf_counter() - t0))
                row = sim_row(result)
                same = rows.setdefault(built.name, row) == row
                return same and harness.outputs_match(result.outputs,
                                                      built.expected)
            run.op("%s/%d" % (built.name, passes), body)
        pass_times.append(time.perf_counter() - t_pass)
        passes += 1
    medians = harness.per_op_medians(samples)
    host = sum(medians.values())
    pass_rows = list(rows.values())
    run.end_to_end.update({
        "ops_per_s": len(medians) / host,
        "sim_kips": sum(r["instructions"] for r in pass_rows) / host / 1e3,
        "sim_cycles": sum(r["cycles"] for r in pass_rows),
    })
    # the op whose latency a user waits for is the whole suite, timed
    # raw, checks included; under 40 passes the tail rule reports the
    # median as the tail
    latency_metrics(run, pass_times)
    run.notes.append("%d passes of %d programs" % (passes, len(programs)))
    frontend_layers(run)
    run.layers.update(sim_layers(pass_rows, host))
    for name, value in medians.items():
        run.layers["sim.host_s." + name] = value


# -- chaos-grid -----------------------------------------------------------

def tail_deaths(base_cycles: int, snap_cycle: int, count: int) -> tuple:
    """*count* fail-stop deaths of the highest-numbered cores, spread
    over the tail between the snapshot and the base run's end."""
    span = max(base_cycles - snap_cycle, count + 2)
    return tuple(
        CoreDeath(core=CHAOS_CORES - 1 - k,
                  cycle=snap_cycle + max(1, span * (k + 1) // (count + 2)))
        for k in range(count))


def chaos_program(run: Run, built: Built, config: Any, pass_no: int,
                  samples: List[Tuple[str, float]],
                  rows: Dict[str, Dict[str, Any]],
                  snapshot_bytes: Dict[str, int]) -> None:
    """One program's row of the grid: base run, snapshot, nine cells."""
    tracer = run.tracer
    state: Dict[str, Any] = {}
    tag = "%s/%d" % (built.name, pass_no)

    def base() -> bool:
        with tracer.span("sim.simulate"):
            t0 = time.perf_counter()
            result = api.simulate(built.program, config).result
            samples.append(("base/" + built.name, time.perf_counter() - t0))
        state["base"] = result
        state["digest"] = harness.memory_digest(result.final_memory)
        row = sim_row(result)
        same = rows.setdefault("base/" + built.name, row) == row
        return same and harness.outputs_match(result.outputs,
                                              built.expected)

    def capture() -> bool:
        cycles = state["base"].cycles
        with tracer.span("snapshot.capture"):
            t0 = time.perf_counter()
            snap = api.snapshot(built.program,
                                max(1, int(cycles * CHAOS_SNAP_FRAC)),
                                config)
            t1 = time.perf_counter()
        with tracer.span("snapshot.encode"):
            blob = snap.to_bytes()
            t2 = time.perf_counter()
        samples.append(("capture/" + built.name, t1 - t0))
        samples.append(("encode/" + built.name, t2 - t1))
        state["cycle"] = snap.cycle
        state["blob"] = blob
        snapshot_bytes[built.name] = len(blob)
        return True

    # a failed base run fails the capture and cells after it too, so
    # every pass attempts the same ops
    run.op("base/" + tag, base)
    run.op("capture/" + tag, capture)
    for drop in CHAOS_DROPS:
        for n_deaths in CHAOS_DEATHS:
            cell_id = "%s/%g/%d" % (built.name, drop, n_deaths)

            def cell(drop: float = drop, n_deaths: int = n_deaths,
                     cell_id: str = cell_id) -> bool:
                base_result = state["base"]
                plan = FaultPlan(
                    seed=CHAOS_FAULT_SEED, drop_rate=drop,
                    start_cycle=state["cycle"] + 1,
                    deaths=tail_deaths(base_result.cycles, state["cycle"],
                                       n_deaths))
                with tracer.span("snapshot.decode"):
                    t0 = time.perf_counter()
                    snap = api.Snapshot.from_bytes(state["blob"])
                    t1 = time.perf_counter()
                with tracer.span("snapshot.resume"):
                    result = api.resume(snap, program=built.program,
                                        faults=plan).result
                    t2 = time.perf_counter()
                samples.append(("decode/" + cell_id, t1 - t0))
                samples.append(("resume/" + cell_id, t2 - t1))
                row = {"cycles": result.cycles,
                       "faults": dict(result.fault_stats or {})}
                same = rows.setdefault("cell/" + cell_id, row) == row
                return same and harness.check_cell(
                    result.outputs, result.final_memory, built.expected,
                    state["digest"])
            run.op("cell/%s/%d" % (cell_id, pass_no), cell)


def chaos_warmup(run: Run, built: Built, config: Any) -> None:
    """Take one small program once through every call the grid makes,
    so lazy imports and first-use allocation land in set-up."""
    result = api.simulate(built.program, config).result
    snap = api.snapshot(built.program, max(1, result.cycles // 2), config)
    plan = FaultPlan(seed=CHAOS_FAULT_SEED, drop_rate=0.05,
                     start_cycle=snap.cycle + 1)
    api.resume(api.Snapshot.from_bytes(snap.to_bytes()),
               program=built.program, faults=plan)


def workload_chaos(run: Run) -> None:
    """The E9 chaos grid, every cell resumed from a snapshot."""
    config = SimConfig(n_cores=CHAOS_CORES, stack_shortcut=True)

    def build() -> List[Built]:
        programs = build_table1(run)
        chaos_warmup(run, next(b for b in programs
                               if b.name == CHAOS_WARMUP_PROGRAM), config)
        return programs

    programs = run.setup(SETUP_REPS_BUILD, build)
    samples: List[Tuple[str, float]] = []
    rows: Dict[str, Dict[str, Any]] = {}
    snapshot_bytes: Dict[str, int] = {}
    pass_times: List[float] = []
    start = time.perf_counter()
    passes = 0
    while passes == 0 or run.timed_until_done(start):
        t_pass = time.perf_counter()
        for built in programs:
            chaos_program(run, built, config, passes, samples, rows,
                          snapshot_bytes)
        pass_times.append(time.perf_counter() - t_pass)
        passes += 1
    medians = harness.per_op_medians(samples)

    def total(prefix: str) -> float:
        return sum(v for k, v in medians.items() if k.startswith(prefix))

    base_rows = [r for k, r in rows.items() if k.startswith("base/")]
    cell_rows = [r for k, r in rows.items() if k.startswith("cell/")]
    base_s = total("base/")
    # one grid pass, base runs, capture and encode charged to the cells
    grid_s = sum(medians.values())
    n_cells = len(programs) * len(CHAOS_DROPS) * len(CHAOS_DEATHS)
    run.end_to_end.update({
        "ops_per_s": n_cells / grid_s,
        "sim_kips": sum(r["instructions"] for r in base_rows) / base_s / 1e3,
        "sim_cycles": (sum(r["cycles"] for r in base_rows)
                       + sum(r["cycles"] for r in cell_rows)),
    })
    # the op a user waits for is the whole grid, timed raw (one pass
    # per run, so the tail is the median)
    latency_metrics(run, pass_times)
    run.notes.append("%d passes of %d cells" % (passes, n_cells))
    frontend_layers(run)
    run.layers.update(sim_layers(base_rows, base_s))
    for built in programs:
        run.layers["sim.host_s." + built.name] = medians.get(
            "base/" + built.name, 0.0)
    for name in ("retries", "redispatches", "replayed_instructions",
                 "backoff_cycles"):
        run.layers["faults." + name] = sum(r["faults"].get(name, 0)
                                           for r in cell_rows)

    def op_median_ms(prefix: str) -> float:
        values = [v for k, v in medians.items() if k.startswith(prefix)]
        return statistics.median(values) * 1e3 if values else 0.0

    run.layers.update({
        "snapshot.capture_s": total("capture/"),
        "snapshot.encode_ms": op_median_ms("encode/"),
        "snapshot.bytes": sum(snapshot_bytes.values()),
        "snapshot.decode_ms": op_median_ms("decode/"),
        "snapshot.resume_ms": op_median_ms("resume/"),
        "chaos.base_s": base_s,
    })


# -- serve-mix ------------------------------------------------------------

class ServeRig:
    """A live daemon on a fresh cache, warmed with the ten programs."""

    def __init__(self) -> None:
        TMP_ROOT.mkdir(exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="serve-", dir=str(TMP_ROOT))
        self.daemon = serve.DaemonThread(serve.ServeConfig(
            port=0, pool_size=1, cache_dir=str(Path(self.tmp) / "cache"),
            quota_rate=SERVE_QUOTA, quota_burst=SERVE_QUOTA))
        self.client = self.daemon.start()
        #: program -> (spec, client key, oracle, payload cycles row)
        self.warm: Dict[str, Tuple[dict, str, List[int], dict]] = {}

    def close(self) -> None:
        self.daemon.stop()
        shutil.rmtree(self.tmp, ignore_errors=True)


def serve_spec(name: str, seed: int) -> dict:
    return {"jobs": [{"id": name, "workload": name, "seed": seed,
                      "config": {"n_cores": SERVE_CORES}}]}


def serve_setup(run: Run, rigs: List[ServeRig]) -> ServeRig:
    """Start a daemon and serve each program once, so the timed warm
    ops find them in the tiers."""
    rig = ServeRig()
    rigs.append(rig)
    for workload in workloads.WORKLOADS:
        spec = serve_spec(workload.short, run.seed)
        key = runner.jobs_from_spec(spec)[0].key()
        expected = workload.instance(scale=0, seed=run.seed).expected_output
        payload = rig.client.run(spec)[0]
        if not harness.check_served(payload, key, expected, key):
            raise RuntimeError("set-up served a wrong result for %s"
                               % workload.short)
        rig.warm[workload.short] = (spec, key, expected, sim_row(payload))
    return rig


class ColdOp(NamedTuple):
    """What serve-mix keeps of a cold op (not its payload, so peak RSS
    does not grow with the number of ops a run makes)."""

    latency: float
    wall_s: float
    instructions: int
    cycles: int


def serve_op(run: Run, rig: ServeRig, kind: str, name: str, seed: int,
             latencies: List[float], cold: List[ColdOp],
             scratch: Any) -> bool:
    """Submit one spec, wait for it unless it came back cached, fetch
    the payload; then check it outside the timed region."""
    tracer = run.tracer
    client = rig.client
    spec = serve_spec(name, seed)
    wall_s: Optional[float] = None
    with tracer.span("serve.submit"):
        t0 = time.perf_counter()
        record = client.submit(spec)[0]
    if record["status"] != "cached":
        with tracer.span("serve.wait"):
            final = client.events(record["job"])[-1]
        if final["status"] != "done":
            raise RuntimeError("job ended %s" % final["status"])
        wall_s = final["wall_s"]
    with tracer.span("serve.fetch"):
        payload = client.result(record["key"])["payload"]
        latency = time.perf_counter() - t0
    latencies.append(latency)
    if kind == "warm":
        spec, key, expected, _row = rig.warm[name]
        if record["status"] != "cached":
            return False            # a warm op must not execute again
    else:
        workload = workloads.get_workload(name)
        expected = workload.instance(scale=0, seed=seed).expected_output
        key = ""
        cold.append(ColdOp(latency, wall_s or 0.0, payload["instructions"],
                           payload["cycles"]))
    if tracer.enabled or kind == "cold":
        key = replay_front_end(run, spec, name, seed, payload, scratch)
    return harness.check_served(payload, record["key"], expected, key)


def replay_front_end(run: Run, spec: dict, name: str, seed: int,
                     payload: dict, scratch: Any) -> str:
    """The client's own build of *spec*: the job key the result must be
    filed under, and (traced) the front end and runner timed apart."""
    tracer = run.tracer
    if tracer.enabled:
        source = workloads.get_workload(name).instance(
            scale=0, seed=seed).source
        with tracer.span("frontend.compile"):
            program = api.compile_c(source)
        with tracer.span("frontend.fork_transform"):
            program = api.transform(program)
        with tracer.span("frontend.listing"):
            program.listing()
    with tracer.span("runner.spec_parse"):
        job = runner.jobs_from_spec(spec)[0]
    with tracer.span("runner.key"):
        key: str = job.key()
    if tracer.enabled:
        with tracer.span("runner.cache_put"):
            scratch.put(key, payload)
        with tracer.span("runner.cache_get"):
            scratch.get(key)
    return key


def serve_counters(client: Any) -> Dict[str, float]:
    cache = client.healthz()["cache"]
    executions = 0.0
    for line in client.metrics().splitlines():
        if line.startswith("repro_serve_executions"):
            executions = float(line.split()[-1])
    return {"lru_hits": cache["lru_hits"], "disk_hits": cache["disk_hits"],
            "misses": cache["disk_misses"], "executions": executions}


def workload_serve(run: Run) -> None:
    """A closed-loop client against an in-process daemon: warm ops are
    served from the tiers, cold ops run an 8-core simulation."""
    rigs: List[ServeRig] = []
    try:
        rig = run.setup(SETUP_REPS_SERVE,
                        lambda: serve_setup(run, rigs),
                        release=lambda old: (old.close(), rigs.remove(old)))
        scratch_dir = tempfile.mkdtemp(prefix="scratch-", dir=str(TMP_ROOT))
        scratch = runner.ResultCache(scratch_dir)
        names = list(rig.warm)
        before = serve_counters(rig.client)
        latencies: List[float] = []
        cold: List[ColdOp] = []
        round_rates: List[float] = []
        cold_seed = run.seed
        start = time.perf_counter()
        rounds = 0
        while rounds < SERVE_MIN_ROUNDS or run.timed_until_done(start):
            warm_names = iter(names * 2)
            first = len(latencies)
            for slot in SERVE_ROUND:
                if slot == "w":
                    kind, name, seed = "warm", next(warm_names), run.seed
                else:
                    cold_seed += 1      # never the warm seed, never reused
                    kind, name, seed = "cold", SERVE_COLD_PROGRAM, cold_seed
                run.op("%s/%s/%d/%d" % (kind, name, seed, rounds),
                       lambda kind=kind, name=name, seed=seed: serve_op(
                           run, rig, kind, name, seed, latencies, cold,
                           scratch))
            done = latencies[first:]
            if done:
                round_rates.append(len(done) / sum(done))
            rounds += 1
        after = serve_counters(rig.client)
    finally:
        for open_rig in rigs:
            open_rig.close()
        shutil.rmtree(TMP_ROOT, ignore_errors=True)
    cold_instr = sum(op.instructions for op in cold)
    cold_wall = sum(op.wall_s for op in cold)
    warm_rows = [row for _s, _k, _e, row in rig.warm.values()]
    run.end_to_end.update({
        "ops_per_s": statistics.median(round_rates),
        "sim_kips": cold_instr / cold_wall / 1e3 if cold_wall else 0.0,
        "sim_cycles": sum(r["cycles"] for r in warm_rows),
    })
    latency_metrics(run, latencies)
    run.notes.append("%d rounds, %d ops, %d cold" % (rounds, len(latencies),
                                                      len(cold)))
    frontend_layers(run)
    tracer = run.tracer
    for name in ("spec_parse", "key", "cache_get", "cache_put"):
        run.layers["runner.%s_ms" % name] = span_median_ms(
            tracer, "runner." + name)
    for phase, kinds in (("submit", ("warm", "cold")), ("wait", ("cold",)),
                         ("fetch", ("warm", "cold"))):
        for kind in kinds:
            run.layers["serve.%s_ms.%s" % (phase, kind)] = span_median_ms(
                tracer, "serve." + phase, kind + "/")
    run.layers["serve.execute_ms"] = (
        statistics.median(op.wall_s for op in cold) * 1e3 if cold else 0.0)
    run.layers["serve.overhead_ms"] = (
        statistics.median(op.latency - op.wall_s for op in cold) * 1e3
        if cold else 0.0)
    delta = {k: after[k] - before[k] for k in after}
    for name, value in delta.items():
        run.layers["serve." + name] = value
    hits = delta["lru_hits"] + delta["disk_hits"]
    run.layers["serve.hit_ratio"] = (hits / (hits + delta["misses"])
                                     if hits + delta["misses"] else 0.0)
    run.layers.update(sim_layers(warm_rows, 0.0))
    cold_cycles = sum(op.cycles for op in cold)
    run.layers["sim.us_per_cycle"] = (cold_wall * 1e6 / cold_cycles
                                      if cold_cycles else 0.0)
    run.layers["sim.us_per_kinstr"] = (cold_wall * 1e9 / cold_instr
                                       if cold_instr else 0.0)


WORKLOADS: Dict[str, Callable[[Run], None]] = {
    "table1-256": workload_table1,
    "chaos-grid": workload_chaos,
    "serve-mix": workload_serve,
}


# -- output ---------------------------------------------------------------

def per_layer_names() -> List[Tuple[str, str]]:
    """Every per-layer metric, with its unit, in BENCHMARK.json order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


def trace_report(run: Run, workload: str) -> None:
    """Self times per layer, the span file, and the tracing overhead."""
    OUT_DIR.mkdir(exist_ok=True)
    span_path = OUT_DIR / ("spans-%s-seed%d.json" % (workload, run.seed))
    run.tracer.write(str(span_path))
    by_layer: Dict[str, float] = {}
    for name, seconds in run.tracer.self_times().items():
        layer = harness.layer_of(name)
        by_layer[layer] = by_layer.get(layer, 0.0) + seconds
    for layer in ("bench", "frontend", "runner", "serve", "sim", "snapshot"):
        run.layers["self_s." + layer] = by_layer.get(layer, 0.0)
    print("spans: %d written to %s" % (len(run.tracer.spans), span_path))
    for layer, seconds in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        print("self time  %-9s %9.3f s" % (layer, seconds))
    untraced = OUT_DIR / ("result-%s-seed%d.json" % (workload, run.seed))
    traced_rate = run.end_to_end["ops_per_s"]
    if untraced.is_file():
        base = json.loads(untraced.read_text())["ops_per_s"]
        print("tracing overhead: ops_per_s %.4g traced vs %.4g untraced "
              "(overhead %+.1f%%)"
              % (traced_rate, base, (base - traced_rate) / base * 100))
    else:
        print("tracing overhead: no untraced run of %s at seed %d to "
              "compare (ops_per_s traced %.4g)"
              % (workload, run.seed, traced_rate))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One CPU for the whole run, threads and the daemon's forked worker
    # included: no workload keeps two busy at once, and wakeups that
    # cross to a second virtual CPU made serve-mix latencies swing with
    # that CPU's availability on a shared host.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = Run(args.seed, args.seconds, bool(args.trace))
    WORKLOADS[args.workload](run)
    run.end_to_end["setup_s"] = statistics.median(run.setup_times)
    # the daemon's pool worker (serve-mix) is a child process, joined by
    # the time the workload returns, so its peak is in RUSAGE_CHILDREN
    run.end_to_end["peak_rss_mb"] = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0
    for note in run.notes:
        print(note)
    if args.trace:
        trace_report(run, args.workload)
        metrics = {name: {"value": run.layers.get(name, 0.0), "unit": unit}
                   for name, unit in per_layer_names()}
    else:
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / ("result-%s-seed%d.json" % (args.workload, args.seed))
         ).write_text(json.dumps(run.end_to_end))
        metrics = {name: {"value": run.end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(json.dumps({"correct": run.correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if run.correct and not run.failed else 1


if __name__ == "__main__":
    sys.exit(main())
