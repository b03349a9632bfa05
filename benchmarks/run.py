#!/usr/bin/env python3
"""End-to-end benchmark of the cavsqueeze command line.

Run from the repository root:

    python3 benchmarks/run.py --workload scan --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20
    python3 benchmarks/run.py --describe > benchmarks/workloads.json

One client in a closed loop, with no extra threads: each request calls
``cavsqueeze.cli.main(argv)`` in this process with stdout and stderr captured
in memory, and the next request starts only when the previous one has
returned.  Nothing queues, so no layer waits on another and no waiting time
is recorded.  The package is imported from ``src/`` of the checkout the
script sits in; without it the script exits non-zero and prints no result.

A run generates its requests from ``--seed`` (see ``workloads.py``), warms
up with one request of each kind at the workload's largest matrix size plus
the reference scan, measures the set-up time of a fresh interpreter, then
runs whole blocks of requests until ``--seconds`` have passed.  Every answer
is checked (``checks.py``).  The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``, the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.

End-to-end metrics, measured with tracing off:

* ``items_per_s``: grid rows (``scan``, ``verify``) or checked states
  (``states``) per second of request time;
* ``latency_p50_ms`` and ``latency_tail_ms``: per-request latency; the tail
  is the highest of p50, p75, p90, p95, p99 and p99.9 with at least ten
  samples beyond it, and the record names that percentile and the count;
* ``success_share``: one minus ``failed_share``, the failed share of the
  attempted requests, which the record and the summary print as such (a
  share that is zero on a correct program cannot carry a relative bound);
* ``setup_s``: median over fresh interpreters of the time from spawning one
  until ``cavsqueeze.cli`` is imported and its parser built;
* ``peak_rss_mb``: peak resident memory of the benchmark process.

``--trace 1`` measures the same untraced loop, then installs the span
recorder (``tracing.py``) and replays the workload's first blocks, a fixed
request list so that every count repeats exactly for a seed; the drop in
``items_per_s`` between the two passes is the tracing overhead.

Records and span files go to ``benchmarks/out/``.
"""

import argparse
import contextlib
import ctypes
import glob
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# BLAS runs single-threaded: the benchmark has one client, and BLAS worker
# threads would compete with it for the same cores.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import tracing
import workloads as wl
from checks import check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE_CSV = ROOT / "tests" / "data" / "scan_n1_gt3_301.csv"
REFERENCE_ARGV = ["scan-time", "--photons", "1", "--gt-max", "3", "--steps", "301"]

WORKLOADS = ("scan", "verify", "states")
SETUP_SPAWNS = 11
# Percentiles the tail may take: the highest one with at least ten samples
# beyond it is reported.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10
# Blocks replayed under the tracer: about as much work as one untraced run.
TRACE_BLOCKS = {"scan": 1, "verify": 1, "states": 20}

# What the traced run must show for each workload's rationale to hold.
RATIONALE = {
    "scan": ("scan has no evolve_exact or global xi^2 span",
             lambda v: v["dynamics.evolve_exact.calls"] == 0
             and v["criteria.xi_squared.global.calls"] == 0),
    "verify": ("evolve_exact and the spans under it take most of the self time",
               lambda v: v["dynamics.evolve_exact.subtree_self_share"] > 0.5),
    "states": ("global xi^2 takes most of the check-state --verify time",
               lambda v: v["criteria.xi_squared.global.verify_time_share"] > 0.5),
}

_SETUP_CHILD = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import cavsqueeze.cli\n"
    "cavsqueeze.cli.build_parser()\n"
    "print(time.clock_gettime(time.CLOCK_MONOTONIC))\n"
)


def _load_program():
    if not (SRC / "cavsqueeze" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no package source at {SRC / 'cavsqueeze'}")
    sys.path.insert(0, str(SRC))
    import cavsqueeze
    import cavsqueeze.cli

    if Path(cavsqueeze.__file__).resolve().parent != SRC / "cavsqueeze":
        raise SystemExit(f"benchmark: imported cavsqueeze from {cavsqueeze.__file__}, not {SRC}")
    return cavsqueeze


def _blas_threads():
    """Threads of numpy's bundled OpenBLAS, read from the library itself."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "seed": seed,
    }


def setup_seconds() -> float:
    """Median time from spawning an interpreter to a built ``cavsqueeze`` parser."""
    samples = []
    for _ in range(SETUP_SPAWNS):
        begin = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        samples.append(float(done.stdout.strip()) - begin)
    return statistics.median(samples)


class Client:
    """Sends requests to ``cli.main`` one at a time and keeps every outcome."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failures = []
        self.latencies = []
        self.items = 0
        self.requests = []
        self.blocks = []  # (items, request seconds) of each whole block

    def call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        begin = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # the benchmark keeps going and counts the request as failed
            code = "exception"
            err.write(traceback.format_exc())
        return code, time.perf_counter() - begin, out.getvalue(), err.getvalue()

    def send(self, req, timed: bool = True):
        code, seconds, stdout, stderr = self.call(req.argv)
        self.attempted += 1
        problems = check(req, code, stdout, stderr)
        if problems:
            self.failures.append({"argv": req.argv, "state": req.state, "problems": problems[:5]})
        if timed:
            self.latencies.append(seconds)
            self.items += req.items
            self.requests.append(req)

    def reference(self):
        """The fixed scan must print the committed reference CSV byte for byte."""
        code, _, stdout, _ = self.call(REFERENCE_ARGV)
        self.attempted += 1
        if code != 0 or stdout.encode("utf-8") != REFERENCE_CSV.read_bytes():
            self.failures.append({"argv": REFERENCE_ARGV, "state": None,
                                  "problems": [f"differs from {REFERENCE_CSV.name} (exit {code})"]})


def warmup_requests(workload: str, seed: int, workdir: Path):
    if workload == "scan":
        argv = ["scan-time", "--photons", "2", "--gt-max", "3", "--steps", "301", "--format", "json"]
        return [wl.Request("scan", argv, items=301, photons=2, steps=301, gt_max=3.0, fmt="json")]
    if workload == "verify":
        n = wl.verify_largest_photons(seed)
        argv = ["scan-time", "--photons", str(n), "--gt-max", "1", "--steps", "2", "--verify"]
        return [wl.Request("verify", argv, items=2, verify=True, photons=n, steps=2, gt_max=1.0)]
    return wl.states_warmup(workdir)


def run_blocks(client, workload, seed, workdir, blocks=None, seconds=None, on_request=None):
    """Whole blocks, either a fixed count or until ``seconds`` have passed."""
    make = wl.BLOCKS[workload]
    begin = time.perf_counter()
    block = 0
    while (blocks is not None and block < blocks) or (
        seconds is not None and time.perf_counter() - begin < seconds
    ):
        requests = make(seed, block, workdir)
        first = len(client.latencies)
        for req in requests:
            if on_request is not None:
                on_request(req)
            client.send(req)
        client.blocks.append((sum(r.items for r in requests), sum(client.latencies[first:])))
        for req in requests:
            for path in req.files:
                path.unlink(missing_ok=True)
        block += 1
    return block


def percentile(ordered, p: float) -> float:
    """Percentile of sorted samples, interpolating linearly between ranks."""
    position = p / 100.0 * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (position - low) * (ordered[high] - ordered[low])


def tail(ordered):
    """(percentile, value): the highest ladder percentile with ten samples beyond it."""
    chosen = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        value = percentile(ordered, p)
        if sum(1 for x in ordered if x > value) >= TAIL_BEYOND:
            chosen = p
    return chosen, percentile(ordered, chosen)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(program, workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    cli = program.cli
    record = {"workload": workload, "why": wl.WHY[workload], "trace": int(trace),
              "environment": environment(seed)}
    client = Client(cli)
    for req in warmup_requests(workload, seed, workdir):
        client.send(req, timed=False)
    client.reference()
    if not trace:
        record["setup_s_samples"] = SETUP_SPAWNS
        setup = setup_seconds()

    blocks = run_blocks(client, workload, seed, workdir, seconds=seconds)
    rate = client.items / sum(client.latencies)
    ordered = sorted(client.latencies)
    tail_p, tail_s = tail(ordered)
    record["blocks"] = blocks
    record["block_items_per_s"] = [items / secs for items, secs in client.blocks]
    record["inputs"] = wl.input_properties(workload, client.requests)
    record["latency_tail"] = {"percentile": tail_p, "samples": len(client.latencies)}
    failed_share = len(client.failures) / client.attempted
    record["failed_share"] = failed_share

    if not trace:
        metrics = {
            "items_per_s": _metric(rate, "1/s"),
            "latency_p50_ms": _metric(1e3 * percentile(ordered, 50.0), "ms"),
            "latency_tail_ms": _metric(1e3 * tail_s, "ms"),
            "success_share": _metric(1.0 - failed_share, "ratio"),
            "setup_s": _metric(setup, "s"),
            "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
        }
    else:
        metrics = traced_pass(program, client, workload, seed, workdir, rate, record)
    record["failures"] = client.failures[:20]
    record["attempted"] = client.attempted
    record["failed"] = len(client.failures)
    record["metrics"] = metrics
    return record


def traced_pass(program, client, workload, seed, workdir, untraced_rate, record) -> dict:
    rec = tracing.Recorder()
    traced = Client(client.cli)
    verify_ids = []

    def on_request(req):
        rec.request_id = len(traced.latencies)
        if req.kind == "check-state" and req.verify and req.expect_code == 0:
            verify_ids.append(rec.request_id)

    patches = tracing.install(rec, program)
    try:
        run_blocks(traced, workload, seed, workdir, blocks=TRACE_BLOCKS[workload],
                   on_request=on_request)
    finally:
        tracing.uninstall(patches)
    client.attempted += traced.attempted
    client.failures += traced.failures
    record["failed_share"] = len(client.failures) / client.attempted

    traced_rate = traced.items / sum(traced.latencies)
    values = tracing.summarize(rec, traced.items, verify_ids)
    values["tracing.items_per_s_untraced"] = untraced_rate
    values["tracing.items_per_s_traced"] = traced_rate
    values["tracing.overhead_share"] = 1.0 - traced_rate / untraced_rate
    claim, holds = RATIONALE[workload]
    record["rationale"] = {claim: bool(holds(values))}
    record["span_counts"] = tracing.span_counts(rec)
    record["traced_requests"] = len(traced.latencies)
    record["lapack_eigensolves"] = rec.lapack_eigensolves
    spans = OUT / f"spans-{workload}-seed{seed}.csv.gz"
    tracing.write_spans(rec, spans)
    record["spans_file"] = str(spans.relative_to(ROOT))
    units = {d["name"]: d["unit"] for d in tracing.per_layer_declaration()}
    return {name: _metric(values[name], unit) for name, unit in units.items()}


def run_one(args) -> int:
    program = _load_program()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        record = measure(program, args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    env = record["environment"]
    print("# environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# {args.workload}: {record['blocks']} blocks, {record['inputs']['requests']} timed "
          f"requests, latency tail = p{record['latency_tail']['percentile']:g} of "
          f"{record['latency_tail']['samples']} samples")
    print(f"# failed_share = {record['failed']}/{record['attempted']} = {record['failed_share']:.4g}")
    for failure in record["failures"][:5]:
        print(f"# FAILED {' '.join(failure['argv'])}: {failure['problems'][0]}")
    for claim, holds in record.get("rationale", {}).items():
        print(f"# rationale {'holds' if holds else 'does not hold'}: {claim}")
    for name, m in record["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(f"# record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; fails if any check failed."""
    ok = True
    summary = {}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{workload}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        record = json.loads((OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json").read_text())
        ok = ok and result["correct"]
        summary[workload] = result
        print(f"{workload}: correct={str(result['correct']).lower()} "
              f"failed_share={record['failed_share']:.4g} ({result['failed']}/{result['attempted']}) "
              f"tail=p{record['latency_tail']['percentile']:g} of {record['latency_tail']['samples']}")
        for name, m in result["metrics"].items():
            print(f"  {workload:7s} {name:48s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": ok, "workloads": summary}))
    return 0 if ok else 1


def describe() -> int:
    """The workload record: rationale, layer expectations and input properties."""
    doc = {
        "client": "one client, closed loop, no extra threads; nothing queues, so no "
                  "waiting time is recorded",
        "latency_tail": f"highest of {list(TAIL_LADDER)} with at least {TAIL_BEYOND} samples beyond it",
        "layer_expectations": wl.LAYER_EXPECTATIONS,
        "workloads": {},
    }
    scratch = OUT / f"describe-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        for workload in WORKLOADS:
            seeds = {}
            for seed in range(1, 11):
                # The blocks a 20-second run makes on the 2-core machine the
                # bounds were set on.
                blocks = 30 if workload == "states" else 2
                requests = [r for b in range(blocks) for r in wl.BLOCKS[workload](seed, b, scratch)]
                seeds[str(seed)] = dict(blocks=blocks, **wl.input_properties(workload, requests))
            doc["workloads"][workload] = {"why": wl.WHY[workload], "inputs_by_seed": seeds}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(doc, indent=1))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true",
                        help="print the workload record instead of running")
    args = parser.parse_args(argv)
    if args.describe:
        return describe()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
