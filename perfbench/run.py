"""End-to-end benchmark of the repro toolkit.

Run from the root of a checkout::

    python3 perfbench/run.py --workload mc_offset --seed 1 --seconds 30 --trace 0

``--trace 0`` times the program from outside and prints every
end-to-end metric; ``--trace 1`` runs the workload in-process with spans
around each layer and prints the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.

Two maintenance modes print tables instead:

* ``--steadiness K`` runs the workload K times with seeds ``seed``,
  ``seed + 1``, ... and prints median, quartiles and (q3 - q1) / median
  of each end-to-end metric, then the tracing overhead of one traced
  run;
* ``--write-reference`` recomputes ``reference.json``, the stored
  outputs the runs are checked against.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List

import stats
import workloads as wl

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
              "ok_frac": "fraction", "latency_p50_s": "s",
              "latency_p90_s": "s", "hit_latency_p50_s": "s",
              "hit_latency_p90_s": "s"}

#: Per-layer metrics and their units; every traced run prints all of
#: them (zero where the layer does not run on that workload).
PER_LAYER = {
    "circuit.dc.calls": "count", "circuit.dc.self_s": "s",
    "circuit.refresh.self_s": "s", "circuit.factorizations": "count",
    "circuit.dc.failures": "count", "circuit.transient.self_s": "s",
    "circuit.batch.dc.self_s": "s", "circuit.batch.dc.lanes": "count",
    "circuit.batch.fallback_lanes": "count",
    "circuit.batch.transient.self_s": "s",
    "circuit.batch.transient.steps": "count",
    "variability.assign.calls": "count", "variability.assign.self_s": "s",
    "core.mc.self_s": "s", "core.mc.chunks": "count",
    "core.importance.self_s": "s", "core.importance.full_solves": "count",
    "core.importance.screened_frac": "fraction",
    "core.importance.audit_mismatches": "count",
    "core.surrogate.fit_s": "s",
    "parallel.map.self_s": "s", "parallel.wait_s": "s",
    "parallel.tasks": "count", "parallel.retries": "count",
    "parallel.quarantines": "count",
    "checkpoint.save.calls": "count", "checkpoint.save.self_s": "s",
    "checkpoint.bytes": "bytes",
    "report.render.self_s": "s", "import.repro_s": "s",
    "import.scipy_s": "s",
    "obs.record_run.self_s": "s", "obs.record_bytes": "bytes",
    "serve.jobspec.self_s": "s", "serve.cache.get.self_s": "s",
    "serve.cache.hits": "count", "serve.cache.misses": "count",
    "serve.cache.hit_ratio": "fraction",
    "serve.queue.wait_p50_s": "s", "serve.queue.wait_p90_s": "s",
    "serve.session.builds": "count", "serve.session.reuses": "count",
    "serve.session.lease_wait_s": "s", "serve.execute.self_s": "s",
    "serve.compute.dup_frac": "fraction",
    "trace.overhead_s": "s",
}

#: Per-layer counts that must repeat exactly for the same seed.
INVARIANT_COUNTS = (
    "circuit.dc.calls", "circuit.factorizations", "circuit.batch.dc.lanes",
    "circuit.batch.transient.steps", "core.importance.full_solves",
    "serve.session.builds", "serve.cache.hits", "core.mc.chunks",
    "variability.assign.calls", "checkpoint.save.calls",
)

#: Program counters (run record / daemon metrics) -> per-layer names.
COUNTERS = {
    "solver.dc.solves": "circuit.dc.calls",
    "solver.factorizations": "circuit.factorizations",
    "solver.dc.failures": "circuit.dc.failures",
    "solver.dc.batch.lanes": "circuit.batch.dc.lanes",
    "solver.dc.batch.fallback_lanes": "circuit.batch.fallback_lanes",
    "solver.transient.batch.fallback_lanes": "circuit.batch.fallback_lanes",
    "solver.transient.batch.steps": "circuit.batch.transient.steps",
    "engine.chunks": "core.mc.chunks",
    "highsigma.full_solves": "core.importance.full_solves",
    "highsigma.audit_mismatches": "core.importance.audit_mismatches",
    "engine.retries": "parallel.retries",
    "engine.quarantines": "parallel.quarantines",
    "serve.cache.hits": "serve.cache.hits",
    "serve.cache.misses": "serve.cache.misses",
    "serve.session.builds": "serve.session.builds",
    "serve.session.reuses": "serve.session.reuses",
}

MIN_INVOCATIONS = len(wl.SEED_POOL)
MIN_SETUPS = 5
#: A run stops starting new work after this long whatever it measured.
HARD_STOP_S = 140.0


def _metric_block(values: Dict[str, float], units: Dict[str, str]) -> dict:
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


def _warm_up(env: Dict[str, str]) -> None:
    """One untimed program launch: byte-compiles the sources and builds
    the C kernel cache, costs a user pays once per machine."""
    subprocess.run([sys.executable, "-m", "repro", "capabilities"],
                   env=env, cwd=wl.ROOT, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, check=True)


# ----------------------------------------------------------------------
# --trace 0: end-to-end, timed from outside
# ----------------------------------------------------------------------
def timed_cli(workload: str, seed: int, seconds: float, work: Path,
              reference: dict) -> dict:
    env = wl.program_env(work / "runs")
    _warm_up(env)
    seeds = wl.program_seeds(workload, seed)
    walls: List[float] = []
    setups: List[float] = []
    chunk_time = 0.0
    chunk_count = 0
    attempted = failed = 0
    t_start = time.perf_counter()
    while True:
        program_seed = seeds[attempted % len(seeds)]
        checkpoint = (work / f"ck{attempted}"
                      if wl.CLI_WORKLOADS[workload]["checkpoint"] else None)
        run = wl.run_cli_once(wl.cli_argv(workload, program_seed,
                                          checkpoint), env)
        attempted += 1
        why = f"exit code {run['code']}" if run["code"] != 0 else \
            wl.check_cli_output(workload, program_seed, run["stdout"],
                                reference)
        if why is None and len(run["beats"]) < 2:
            why = "fewer than two progress beats"
        if why is not None:
            failed += 1
            print(f"FAILED {workload} seed {program_seed}: {why}",
                  file=sys.stderr)
        else:
            walls.append(run["wall"])
            setups.append(wl.cli_setup_s(run["beats"]))
            span, count = wl.cli_chunk_span(run["beats"])
            chunk_time += span
            chunk_count += count
        elapsed = time.perf_counter() - t_start
        if attempted >= MIN_INVOCATIONS and (
                elapsed * (attempted + 1) / attempted > seconds
                or elapsed > HARD_STOP_S):
            break
    if not walls:
        raise RuntimeError(f"every {workload} invocation failed")
    chunk = chunk_time / chunk_count
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": wl.peak_child_rss_mb(),
        "ok_frac": (attempted - failed) / attempted,
        # A CLI run serves no requests; its latency names carry the
        # time per chunk between progress beats (see README.md).
        "latency_p50_s": chunk, "latency_p90_s": chunk,
        "hit_latency_p50_s": chunk, "hit_latency_p90_s": chunk,
    }
    print(f"{workload}: {attempted} invocations", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": _metric_block(values, END_TO_END)}


def timed_serve(seed: int, seconds: float, work: Path) -> dict:
    env = wl.program_env(work / "runs")
    _warm_up(env)
    wl.pin_to_one_cpu()
    steps = wl.serve_sequence(seed)
    setups: List[float] = []
    walls: List[float] = []
    cold: List[float] = []
    hit: List[float] = []
    attempted = failed = 0
    t_start = time.perf_counter()
    rounds = 0
    while True:
        proc, port, setup, lines, drainer = wl.start_daemon(env)
        setups.append(setup)
        try:
            result = wl.run_round(port, steps)
        finally:
            code = wl.stop_daemon(proc, drainer)
        rounds += 1
        attempted += result.attempted + 1
        failed += result.failed + (code != 0)
        for why in result.failures[:5]:
            print(f"FAILED serve_mixed: {why}", file=sys.stderr)
        if code != 0:
            print(f"FAILED serve_mixed: daemon exit {code}: "
                  + "".join(lines[-5:]), file=sys.stderr)
        walls.append(result.wall)
        cold += result.cold
        hit += result.hit
        elapsed = time.perf_counter() - t_start
        enough = (len(cold) >= stats.min_samples(0.9)
                  and len(hit) >= stats.min_samples(0.9))
        if elapsed > HARD_STOP_S or (
                enough and elapsed * (rounds + 1) / rounds > seconds):
            break
    while len(setups) < MIN_SETUPS:
        proc, _port, setup, lines, drainer = wl.start_daemon(env)
        setups.append(setup)
        code = wl.stop_daemon(proc, drainer)
        attempted += 1
        failed += code != 0
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": wl.peak_child_rss_mb(),
        "ok_frac": (attempted - failed) / attempted,
        "latency_p50_s": stats.percentile(cold, 0.5),
        "latency_p90_s": stats.percentile(cold, 0.9),
        "hit_latency_p50_s": stats.percentile(hit, 0.5),
        "hit_latency_p90_s": stats.percentile(hit, 0.9),
    }
    print(f"serve_mixed: {rounds} rounds, {len(cold)} cold and {len(hit)} "
          f"hit samples", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": _metric_block(values, END_TO_END)}


# ----------------------------------------------------------------------
# --trace 1: per-layer, in-process
# ----------------------------------------------------------------------
_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)")


def import_seconds(stderr: str) -> Dict[str, float]:
    """Module-body time per package from ``-X importtime`` output: the
    sum of the self times of its modules, lazy imports included."""
    totals = {"import.repro_s": 0.0, "import.scipy_s": 0.0}
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if not match:
            continue
        package = match.group(2).split(".", 1)[0]
        key = f"import.{package}_s"
        if key in totals:
            totals[key] += int(match.group(1)) * 1e-6
    return totals


def _enter_program(work: Path) -> None:
    """Make the checkout's program importable in this process, with its
    run registry and temp dir inside the work directory."""
    env = wl.program_env(work / "runs")
    for key in ("REPRO_RUNS_DIR", "TMPDIR"):
        os.environ[key] = env[key]
    tempfile.tempdir = None
    sys.path.insert(0, str(wl.SRC))
    import tracing

    for name in tracing.PRELOAD:
        __import__(name)
    from repro import resilience

    resilience.snapshot()  # capability probes: once per process


def _counts(layer: dict, counters: Dict[str, float]) -> None:
    for counter, metric in COUNTERS.items():
        layer[metric] = layer.get(metric, 0) + int(counters.get(counter, 0))


def _file_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _cli_layers(tracer, record, checkpoint) -> dict:
    layer = {name: 0 for name in PER_LAYER}
    layer.update(tracer.layer_times())
    counters = record["metrics"].get("counters", {}) if record else {}
    _counts(layer, counters)
    layer["parallel.tasks"] = tracer.counts.get("parallel.tasks", 0)
    samples = counters.get("highsigma.samples", 0)
    if samples:
        layer["core.importance.screened_frac"] = \
            counters.get("highsigma.screened", 0) / samples
    if record is not None:
        layer["obs.record_bytes"] = _file_bytes(
            Path(os.environ["REPRO_RUNS_DIR"]) / f"{record['run_id']}.json")
    if checkpoint is not None:
        layer["checkpoint.bytes"] = _file_bytes(checkpoint)
    return layer


def _average(layers: List[dict]) -> dict:
    """Times averaged over the traced repeats; counts from the first
    (they must agree, which the caller checks)."""
    out = dict(layers[0])
    for name, unit in PER_LAYER.items():
        if unit == "s":
            out[name] = sum(layer[name] for layer in layers) / len(layers)
    return out


def _mismatched_counts(layers: List[dict]) -> List[str]:
    return [name for name in INVARIANT_COUNTS
            if len({layer[name] for layer in layers}) > 1]


def traced_cli(workload: str, seed: int, seconds: float, work: Path,
               reference: dict) -> dict:
    import tracing

    program_seed = wl.program_seeds(workload, seed)[0]
    has_checkpoint = wl.CLI_WORKLOADS[workload]["checkpoint"]
    env = wl.program_env(work / "runs")
    _warm_up(env)
    t_start = time.perf_counter()
    attempted = failed = 0

    def verdict(code: int, stdout: str) -> None:
        nonlocal attempted, failed
        attempted += 1
        why = f"exit code {code}" if code != 0 else wl.check_cli_output(
            workload, program_seed, stdout, reference)
        if why is not None:
            failed += 1
            print(f"FAILED {workload} seed {program_seed}: {why}",
                  file=sys.stderr)

    checkpoint = work / "ck-imports" if has_checkpoint else None
    run = wl.run_cli_once(wl.cli_argv(workload, program_seed, checkpoint),
                          env, extra_python=("-X", "importtime"))
    verdict(run["code"], run["stdout"])
    imports = import_seconds(run["stderr"])

    _enter_program(work)
    from repro import cli

    def invoke(index: int, tracer=None):
        checkpoint = work / f"ck{index}" if has_checkpoint else None
        argv = wl.cli_argv(workload, program_seed, checkpoint)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.ExitStack() as stack:
            stack.enter_context(contextlib.redirect_stdout(out))
            stack.enter_context(contextlib.redirect_stderr(err))
            if tracer is not None:
                stack.enter_context(tracing.instrument(tracer))
                stack.enter_context(tracer.request(f"run{index}"))
            t0 = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - t0
        verdict(code, out.getvalue())
        return wall, checkpoint

    # One in-process run first: lazy imports and one-time set-up land
    # there, not in the untraced/traced comparison.
    invoke(-1)
    untraced: List[float] = []
    traced: List[float] = []
    layers: List[dict] = []
    index = 0
    while True:
        wall, _ = invoke(index)
        untraced.append(wall)
        tracer = tracing.Tracer()
        wall, checkpoint = invoke(index + 1, tracer)
        traced.append(wall)
        record = tracer.records[-1] if tracer.records else None
        layers.append(_cli_layers(tracer, record, checkpoint))
        if index == 0:
            _write_spans(tracer, workload)
        index += 2
        elapsed = time.perf_counter() - t_start
        pairs = index // 2
        if elapsed * (pairs + 1) / pairs > seconds \
                or elapsed > HARD_STOP_S:
            break
    return _traced_result(layers, imports, traced, untraced, attempted,
                          failed)


def _write_spans(tracer, workload: str) -> None:
    path = wl.WORK / f"spans-{workload}.jsonl.gz"
    count = tracer.write(path)
    print(f"{workload}: {count} spans -> {path}", file=sys.stderr)


def _traced_result(layers, imports, traced, untraced, attempted,
                   failed) -> dict:
    mismatched = _mismatched_counts(layers)
    if mismatched:
        failed += 1
        print(f"FAILED: counts differ between repeats: {mismatched}",
              file=sys.stderr)
    layer = _average(layers)
    layer.update(imports)
    traced_wall = statistics.median(traced)
    untraced_wall = statistics.median(untraced)
    layer["trace.overhead_s"] = traced_wall - untraced_wall
    print(f"tracing overhead: traced wall {traced_wall:.4f} s - untraced "
          f"wall {untraced_wall:.4f} s = {traced_wall - untraced_wall:.4f} s",
          file=sys.stderr)
    print("note: process-pool workers cannot be wrapped from outside; "
          "parallel.* and the layers run inside workers are measured on "
          "the parent side only")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": _metric_block(layer, PER_LAYER)}


def _inprocess_round(steps, tracer=None):
    """One round against an in-process ServeApp on a real socket."""
    import tracing
    from repro.serve import ServeApp, ServeConfig

    codes: List[int] = []
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracing.instrument(tracer))
        app = ServeApp(ServeConfig(port=0, workers=2))
        thread = threading.Thread(target=lambda: codes.append(app.run()))
        thread.start()
        if not app.wait_ready(30):
            raise RuntimeError("in-process daemon did not start")
        try:
            result = wl.run_round(app.port, steps)
        finally:
            app.request_stop()
            thread.join(60)
    return result, (codes[0] if codes else 1), app


def _serve_layers(tracer, app) -> dict:
    import tracing

    layer = {name: 0 for name in PER_LAYER}
    layer.update(tracer.layer_times())
    counters = app.metrics.snapshot().get("counters", {})
    _counts(layer, counters)
    hits, misses = layer["serve.cache.hits"], layer["serve.cache.misses"]
    layer["serve.cache.hit_ratio"] = hits / (hits + misses) \
        if hits + misses else 0.0
    waits = tracer.samples.get("serve.queue.wait", [])
    layer["serve.queue.wait_p50_s"] = stats.percentile(waits, 0.5)
    layer["serve.queue.wait_p90_s"] = stats.percentile(waits, 0.9)
    layer["serve.compute.dup_frac"] = tracing.dup_fraction(tracer.jobs)
    layer["obs.record_bytes"] = sum(
        _file_bytes(Path(os.environ["REPRO_RUNS_DIR"])
                    / f"{r['run_id']}.json") for r in tracer.records)
    return layer


def traced_serve(seed: int, work: Path) -> dict:
    import tracing

    env = wl.program_env(work / "runs")
    _warm_up(env)
    wl.pin_to_one_cpu()
    steps = wl.serve_sequence(seed)
    attempted = failed = 0

    def tally(result, code) -> None:
        nonlocal attempted, failed
        attempted += result.attempted + 1
        failed += result.failed + (code != 0)
        for why in result.failures[:5]:
            print(f"FAILED serve_mixed: {why}", file=sys.stderr)

    # Imports: a daemon under -X importtime serving the first steps,
    # which reach every lazily imported analysis path of the round.
    cold = next(s for s in steps if s[0] == "cold")
    first = [cold, next(s for s in steps if s[0] == "corners"),
             ("hit", cold[1], cold[2])]
    proc, port, _setup, lines, drainer = wl.start_daemon(
        env, extra_python=("-X", "importtime"))
    try:
        result = wl.run_round(port, first)
    finally:
        code = wl.stop_daemon(proc, drainer)
    tally(result, code)
    imports = import_seconds("".join(lines))

    _enter_program(work)
    result, code, _app = _inprocess_round(first)  # lazy imports, once
    tally(result, code)
    result, code, _app = _inprocess_round(steps)
    tally(result, code)
    untraced = [result.wall]
    tracer = tracing.Tracer()
    result, code, app = _inprocess_round(steps, tracer)
    tally(result, code)
    _write_spans(tracer, "serve_mixed")
    layer = _serve_layers(tracer, app)
    return _traced_result([layer], imports, [result.wall], untraced,
                          attempted, failed)


# ----------------------------------------------------------------------
# Maintenance modes
# ----------------------------------------------------------------------
def steadiness(workload: str, seed: int, seconds: int, k: int) -> int:
    """Run the workload ``k`` times and print each metric's spread."""
    values: Dict[str, List[float]] = {name: [] for name in END_TO_END}
    script = str(Path(__file__).resolve())
    for i in range(k):
        out = subprocess.run(
            [sys.executable, script, "--workload", workload, "--seed",
             str(seed + i), "--seconds", str(seconds), "--trace", "0"],
            cwd=wl.ROOT, stdout=subprocess.PIPE, check=True, text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"run {i} (seed {seed + i}) not correct: {result}")
        for name in END_TO_END:
            values[name].append(result["metrics"][name]["value"])
        print(f"run {i}: " + "  ".join(
            f"{name}={values[name][-1]:.5g}" for name in END_TO_END),
            flush=True)
    print(f"\n{workload}: {k} runs of {seconds} s, seeds {seed}.."
          f"{seed + k - 1}")
    print(f"{'metric':20} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'(q3-q1)/median':>15}")
    for name, series in values.items():
        median, q1, q3, spread = stats.quartile_spread(series)
        print(f"{name:20} {median:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:15.4f}")
    out = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=wl.ROOT, stdout=subprocess.PIPE, check=True, text=True)
    traced = json.loads(out.stdout.strip().splitlines()[-1])
    print(f"tracing overhead: "
          f"{traced['metrics']['trace.overhead_s']['value']:.4f} s")
    return 0


def write_reference(work: Path) -> int:
    """Recompute the stored outputs of every pool seed.  High-sigma
    references come from the serial backend: the benchmark's process
    runs must match them, which checks the determinism contract too."""
    env = wl.program_env(work / "runs")
    reference: Dict[str, Dict[str, dict]] = {}
    for workload, spec in wl.CLI_WORKLOADS.items():
        reference[workload] = {}
        for program_seed in wl.SEED_POOL:
            checkpoint = work / f"ref-{workload}-{program_seed}" \
                if spec["checkpoint"] else None
            argv = wl.cli_argv(workload, program_seed, checkpoint)
            if "--backend" in argv:
                argv[argv.index("--backend") + 1] = "serial"
            if "--jobs" in argv:
                argv[argv.index("--jobs") + 1] = "1"
            run = wl.run_cli_once(argv, env)
            if run["code"] != 0:
                print(run["stderr"], file=sys.stderr)
                return 1
            reference[workload][str(program_seed)] = wl.report_values(
                run["stdout"], spec["checks"])
            print(workload, program_seed,
                  reference[workload][str(program_seed)], flush=True)
    wl.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True)
                            + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=None, metavar="K")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    try:
        wl.require_program()
    except wl.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload is None and not args.write_reference:
        parser.error("--workload is required")
    if args.steadiness is not None:
        return steadiness(args.workload, args.seed, args.seconds,
                          args.steadiness)
    work = wl.WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.write_reference:
            return write_reference(work)
        if args.workload == "serve_mixed" and args.trace:
            result = traced_serve(args.seed, work)
        elif args.workload == "serve_mixed":
            result = timed_serve(args.seed, args.seconds, work)
        elif args.trace:
            result = traced_cli(args.workload, args.seed, args.seconds,
                                work, wl.load_reference())
        else:
            result = timed_cli(args.workload, args.seed, args.seconds, work,
                               wl.load_reference())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
