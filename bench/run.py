#!/usr/bin/env python3
"""The cbe benchmark: compress, decompress and `cbe stats` on seeded
workloads, through the library entry points the CLI uses.

    python3 bench/run.py --workload byte-random --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload bit-records --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --smoke

Run it from anywhere inside a checkout; it imports `cbe` from the
checkout's `src/` and refuses to run without it. The load is a
single-process closed loop: one client, no threads. Each input is
compressed with `cbe.container.compress`, decompressed with
`cbe.container.decompress` and reported on with
`cbe.cli.main(["stats", FILE, "--mode", MODE])`, and every output is
checked: the roundtrip must match byte for byte, and the stats report's
`payload_bits` and `total_archive_bytes` must equal the `ArchiveSummary`
of the same input.

`--trace 0` loops over input groups until `--seconds` have passed and
reports the end-to-end metrics. `--trace 1` runs a fixed corpus of the
workload twice, untraced and traced input by input (see tracing.py), and reports
per-layer self time, calls and share of each op together with work and
size counts; a fixed corpus makes those counts repeat exactly. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import collections
import contextlib
import hashlib
import importlib.util
import io
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
SPANS_DIR = ROOT / ".bench_spans"

MIB = 1 << 20
OPS = ("compress", "decompress", "stats")
# Bit blocks of this many bits or fewer take the codec's Pascal-table path.
SHORT_BIT_BLOCK = 512
SETUP_REPEATS = 25
SETUP_INPUT_BYTES = 64  # 512 bits: a full Pascal-table block in bit mode
# How far the traced layers' self times may fall from the op's own timer:
# a share of the op's time, plus the cost of the root span per call.
TRACE_SUM_TOLERANCE = 0.01
ROOT_SPAN_COST_S = 20e-6

END_TO_END_UNITS = {
    "compress_mib_s": "MiB/s",
    "decompress_mib_s": "MiB/s",
    "stats_mib_s": "MiB/s",
    "compress_ms_p50": "ms",
    "compress_ms_p99": "ms",
    "decompress_ms_p50": "ms",
    "decompress_ms_p99": "ms",
    "archive_ratio": "ratio",
    "setup_s": "s",
}

# The layers each op passes through; cli only runs under `stats`.
TRACE_LAYERS = {
    "compress": ("container", "codec", "binomials", "multiset"),
    "decompress": ("container", "codec", "binomials", "multiset"),
    "stats": ("cli", "container", "codec", "binomials", "multiset"),
}

COUNT_UNITS = {
    "codec.compress.symbols": "count",
    "codec.compress.work_bits": "bits",
    "codec.payload_bits": "bits",
    "codec.nH_bits": "bits",
    "container.payload_bytes": "bytes",
    "container.overhead_bytes": "bytes",
    "container.blocks": "count",
    "container.d1_block_share": "ratio",
    "container.short_bit_block_share": "ratio",
}


def per_layer_units():
    units = {}
    for op, layers in TRACE_LAYERS.items():
        for layer in layers:
            units[f"{layer}.{op}.self_s"] = "s"
            units[f"{layer}.{op}.calls"] = "count"
            units[f"{layer}.{op}.share"] = "ratio"
    units.update(COUNT_UNITS)
    for op in OPS:
        units[f"trace.{op}.overhead_s"] = "s"
    return units


PER_LAYER_UNITS = per_layer_units()


def load_cbe():
    """Import `cbe` from this checkout's sources, never from elsewhere."""
    init = SRC / "cbe" / "__init__.py"
    if not init.is_file():
        sys.exit(f"bench: {init} not found; run inside a full checkout")
    sys.path.insert(0, str(SRC))
    import cbe
    if Path(cbe.__file__).resolve() != init.resolve():
        sys.exit(f"bench: imported cbe from {cbe.__file__}, not {init}")
    import cbe.cli
    import cbe.container
    return cbe


def provenance(cbe):
    digest = hashlib.sha256()
    for path in sorted((SRC / "cbe").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "gmpy2_importable": importlib.util.find_spec("gmpy2") is not None,
        "cbe_uses_gmpy2": cbe.binomials.mpz is not int,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


class Session:
    """Runs and checks compress, decompress and stats on each input."""

    def __init__(self, cbe, mode, path, tracer=None):
        self.container = cbe.container
        self.cli = cbe.cli
        self.mode = mode
        self.mode_flag = cbe.container.MODE_BIT if mode == "bit" else cbe.container.MODE_BYTE
        self.path = path
        self.tracer = tracer
        self.times = {op: [] for op in OPS}
        self.sizes = {op: [] for op in OPS}
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.input_bytes = 0
        self.archive_bytes = 0
        self.summaries = []

    def _start(self, op):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.start_op(op)

    def _fail(self, op, reason, count=1):
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(f"{op}: {reason}")

    def process(self, data):
        clock = time.perf_counter
        self._start("compress")
        try:
            dst = io.BytesIO()
            t0 = clock()
            summary = self.container.compress(io.BytesIO(data), dst, mode=self.mode_flag)
            elapsed = clock() - t0
            archive = dst.getvalue()
        except Exception as exc:  # counted as a failed operation
            self._fail("compress", repr(exc))
            self.attempted += 2
            self._fail("decompress and stats", "no archive", 2)
            return
        if len(archive) != summary.total_bytes:
            self._fail("compress", f"{len(archive)} archive bytes, summary says {summary.total_bytes}")
        else:
            self.times["compress"].append(elapsed)
            self.sizes["compress"].append(len(data))
            self.summaries.append(summary)
            self.input_bytes += len(data)
            self.archive_bytes += len(archive)

        self._start("decompress")
        try:
            dst = io.BytesIO()
            t0 = clock()
            self.container.decompress(io.BytesIO(archive), dst)
            elapsed = clock() - t0
        except Exception as exc:
            self._fail("decompress", repr(exc))
        else:
            if dst.getvalue() != data:
                self._fail("decompress", "roundtrip mismatch")
            else:
                self.times["decompress"].append(elapsed)
                self.sizes["decompress"].append(len(data))

        self.path.write_bytes(data)
        self._start("stats")
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                t0 = clock()
                code = self.cli.main(["stats", str(self.path), "--mode", self.mode])
                elapsed = clock() - t0
            report = dict(line.split("=", 1) for line in out.getvalue().splitlines())
            got = (code, int(report["payload_bits"]), int(report["total_archive_bytes"]))
        except Exception as exc:
            self._fail("stats", repr(exc))
            return
        want = (0, summary.payload_bits, summary.total_bytes)
        if got != want:
            self._fail("stats", f"(exit, payload_bits, total_archive_bytes) {got} != {want}")
        else:
            self.times["stats"].append(elapsed)
            self.sizes["stats"].append(len(data))


def percentiles(values):
    """The 1st to 99th percentiles of `values`, interpolated between the
    samples (inclusive method), so p99 never lies beyond the slowest call."""
    # quantiles() needs two samples; a lone sample is its own percentile.
    return statistics.quantiles(values * 2 if len(values) == 1 else values,
                                n=100, method="inclusive")


def op_distribution(session, op):
    """Totals and per-call distribution of one op, for the report."""
    times = session.times[op]
    sizes = session.sizes[op]
    if not times:
        return {"calls": 0}
    ms = [t * 1e3 for t in times]
    pct = percentiles(ms)
    return {
        "calls": len(times),
        "total_s": sum(times),
        "input_mib": sum(sizes) / MIB,
        "mib_s": sum(sizes) / MIB / sum(times),
        "ms_per_call": {"q1": pct[24], "median": pct[49], "q3": pct[74], "p99": pct[98],
                        "calls_above_p99": sum(v > pct[98] for v in ms)},
    }


def iter_blocks(data, mode, block_size):
    """(n, counts) of each block the container cuts from `data`."""
    if mode == "byte":
        for start in range(0, len(data), block_size):
            block = data[start:start + block_size]
            yield len(block), list(collections.Counter(block).values())
    else:
        bits = int.from_bytes(data, "little")  # arrival i is bit i
        total = 8 * len(data)
        for start in range(0, total, block_size):
            n = min(block_size, total - start)
            ones = ((bits >> start) & ((1 << n) - 1)).bit_count()
            yield n, [c for c in (n - ones, ones) if c]


def block_properties(inputs, mode, block_size):
    """Shares of the block properties an optimisation could key on."""
    blocks = d1 = short = 0
    for data in inputs:
        for n, counts in iter_blocks(data, mode, block_size):
            blocks += 1
            d1 += len(counts) == 1
            short += mode == "bit" and n <= SHORT_BIT_BLOCK
    return {
        "blocks": blocks,
        "d1_blocks": d1,
        "d1_block_share": d1 / blocks if blocks else 0.0,
        "short_bit_blocks": short,
        "short_bit_block_share": short / blocks if blocks else 0.0,
    }


def block_work(inputs, mode, block_size):
    """Sum over blocks of n*ceil(log2 P) and of n*H, computed here with
    math.comb so it does not lean on the code being measured."""
    work_bits = 0
    nh_bits = 0.0
    for data in inputs:
        for n, counts in iter_blocks(data, mode, block_size):
            arrangements = 1
            running = 0
            for c in counts:
                running += c
                arrangements *= math.comb(running, c)
            work_bits += n * (arrangements - 1).bit_length()
            nh_bits += n * math.log2(n) - sum(c * math.log2(c) for c in counts)
    return work_bits, nh_bits


SETUP_CHILD = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import io, cbe\n"
    "data = bytes(range(37, 37 + %d))\n"
    "mode = cbe.MODE_BIT if sys.argv[2] == 'bit' else cbe.MODE_BYTE\n"
    "archive = io.BytesIO()\n"
    "cbe.compress(io.BytesIO(data), archive, mode=mode)\n"
    "out = io.BytesIO()\n"
    "cbe.decompress(io.BytesIO(archive.getvalue()), out)\n"
    "elapsed = time.perf_counter() - t0\n"
    "if out.getvalue() != data:\n"
    "    sys.exit('roundtrip mismatch')\n"
    "print(elapsed)\n"
) % SETUP_INPUT_BYTES


def setup_sample(mode):
    """Seconds for a fresh interpreter to import cbe and finish a first
    tiny roundtrip in `mode`."""
    proc = subprocess.run(
        [sys.executable, "-E", "-s", "-c", SETUP_CHILD, str(SRC), mode],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode:
        raise RuntimeError(f"setup child failed: {proc.stderr.strip()}")
    return float(proc.stdout)


def warm_up(cbe, workload, seed, smoke, path):
    """Fill lazy state (Pascal rows, imports, caches) before any timing."""
    session = Session(cbe, workload.mode, path)
    for data in next(workload.groups(seed, smoke)):
        session.process(data)
    if session.failed:
        raise RuntimeError(f"warm-up failed: {session.errors}")


def end_to_end(cbe, workload, seed, seconds, smoke, path):
    warm_up(cbe, workload, seed, smoke, path)
    setup_sample(workload.mode)  # unrecorded: fills the file cache
    setup_repeats = 1 if smoke else SETUP_REPEATS
    setup_samples = []
    session = Session(cbe, workload.mode, path)
    inputs = []
    start = time.perf_counter()
    deadline = start + seconds
    for group in workload.groups(seed, smoke):
        for data in group:
            session.process(data)
        inputs.extend(group)
        now = time.perf_counter()
        if now >= deadline:
            break
        # Set-up samples are spread over the run, so that they see the same
        # changes in machine speed as the ops do.
        if len(setup_samples) < setup_repeats * (now - start) / seconds:
            setup_samples.append(setup_sample(workload.mode))
    while len(setup_samples) < setup_repeats:
        setup_samples.append(setup_sample(workload.mode))

    def ms(op, q):
        return percentiles(session.times[op])[q - 1] * 1e3 if session.times[op] else math.nan

    def rate(op):
        total = sum(session.times[op])
        return sum(session.sizes[op]) / MIB / total if total else math.nan

    values = {
        "compress_mib_s": rate("compress"),
        "decompress_mib_s": rate("decompress"),
        "stats_mib_s": rate("stats"),
        "compress_ms_p50": ms("compress", 50),
        "compress_ms_p99": ms("compress", 99),
        "decompress_ms_p50": ms("decompress", 50),
        "decompress_ms_p99": ms("decompress", 99),
        "archive_ratio": session.archive_bytes / session.input_bytes if session.input_bytes else math.nan,
        "setup_s": statistics.median(setup_samples),
    }
    details = {
        "ops": {op: op_distribution(session, op) for op in OPS},
        "inputs": len(inputs),
        "input_bytes": sum(map(len, inputs)),
        "archive_bytes": session.archive_bytes,
        "setup_samples_s": setup_samples,
        "block_properties": block_properties(inputs, workload.mode, cbe.container.DEFAULT_BLOCK_SIZE),
    }
    return session, values, END_TO_END_UNITS, details


def traced(cbe, workload, seed, smoke, path):
    groups = itertools.islice(workload.groups(seed, smoke), 1 if smoke else workload.trace_groups)
    inputs = [data for group in groups for data in group]
    warm_up(cbe, workload, seed, smoke, path)
    plain = Session(cbe, workload.mode, path)
    tracer = Tracer()
    session = Session(cbe, workload.mode, path, tracer)
    # Untraced and traced passes alternate input by input, so a change in
    # machine speed during the run hits both and cancels in the overhead.
    for data in inputs:
        plain.process(data)
        with tracer:
            session.process(data)
    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / f"{workload.name}-seed{seed}{'-smoke' if smoke else ''}.jsonl"
    tracer.write(spans_path)
    self_s, calls, wall = tracer.summarize()
    unlisted = sorted(f"{layer}.{op}" for op, layer in self_s if layer not in TRACE_LAYERS[op])
    if unlisted:
        raise RuntimeError(f"spans in layers the benchmark does not list: {unlisted}")
    # The listed layers' self times must account for each op's time as the
    # session's own timer saw it around the same calls, less the cost of
    # entering and leaving the root span.
    for op in OPS:
        layered = sum(self_s.get((op, layer), 0.0) for layer in TRACE_LAYERS[op])
        timed = sum(session.times[op])
        allowed = TRACE_SUM_TOLERANCE * timed + ROOT_SPAN_COST_S * len(session.times[op])
        if abs(timed - layered) > allowed:
            raise RuntimeError(f"{op}: layer self times sum to {layered} s, "
                               f"the op was timed at {timed} s")

    values = {}
    for op, layers in TRACE_LAYERS.items():
        for layer in layers:
            values[f"{layer}.{op}.self_s"] = self_s.get((op, layer), 0.0)
            values[f"{layer}.{op}.calls"] = calls.get((op, layer), 0)
            values[f"{layer}.{op}.share"] = self_s.get((op, layer), 0.0) / wall[op] if wall.get(op) else 0.0
    block_size = cbe.container.DEFAULT_BLOCK_SIZE
    work_bits, nh_bits = block_work(inputs, workload.mode, block_size)
    props = block_properties(inputs, workload.mode, block_size)
    summaries = session.summaries
    values.update({
        "codec.compress.symbols": sum(s.symbols for s in summaries),
        "codec.compress.work_bits": work_bits,
        "codec.payload_bits": sum(s.payload_bits for s in summaries),
        "codec.nH_bits": nh_bits,
        "container.payload_bytes": sum(s.payload_bytes for s in summaries),
        "container.overhead_bytes": sum(s.overhead_bytes for s in summaries),
        "container.blocks": sum(s.blocks for s in summaries),
        "container.d1_block_share": props["d1_block_share"],
        "container.short_bit_block_share": props["short_bit_block_share"],
    })
    for op in OPS:
        values[f"trace.{op}.overhead_s"] = sum(session.times[op]) - sum(plain.times[op])

    details = {
        "inputs": len(inputs),
        "input_bytes": sum(map(len, inputs)),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "traced_wall_s": wall,
        "traced_timed_s": {op: sum(session.times[op]) for op in OPS},
        "untraced_s": {op: sum(plain.times[op]) for op in OPS},
        "block_properties": props,
    }
    plain.attempted += session.attempted
    plain.failed += session.failed
    plain.errors += session.errors
    return plain, values, PER_LAYER_UNITS, details


def run_one(cbe, host, name, seed, seconds, trace, smoke):
    workload = WORKLOADS[name]
    run_dir = WORK_DIR / f"{os.getpid()}-{name}"
    run_dir.mkdir(parents=True, exist_ok=True)
    path = run_dir / "input.bin"
    try:
        if trace:
            session, values, units, details = traced(cbe, workload, seed, smoke, path)
        else:
            session, values, units, details = end_to_end(cbe, workload, seed, seconds, smoke, path)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()
    # An op that never succeeded leaves a NaN; JSON has no NaN, so it is
    # reported as null and the run as incorrect.
    finite = {key: math.isfinite(values[key]) for key in units}
    metrics = {key: {"value": values[key] if finite[key] else None, "unit": units[key]}
               for key in units}
    correct = session.failed == 0 and all(finite.values())
    return {
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
        "fail_ratio": session.failed / session.attempted if session.attempted else 1.0,
        "errors": session.errors,
        "workload": {"name": name, "mode": workload.mode, "why": workload.why,
                     "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
                     "params": workload.smoke_params if smoke else workload.params},
        "host": host,
        "details": details,
    }


def print_report(result):
    w = result["workload"]
    print(f"== {w['name']} (mode {w['mode']}, seed {w['seed']}, "
          f"{'traced' if w['trace'] else 'untraced'}{', smoke' if w['smoke'] else ''})")
    print(f"   params {json.dumps(w['params'], sort_keys=True)}")
    print(f"   host {json.dumps(result['host'], sort_keys=True)}")
    for name, m in result["metrics"].items():
        value = m["value"]
        shown = f"{value}" if isinstance(value, (int, type(None))) else f"{value:.6g}"
        print(f"   {name} = {shown} {m['unit']}")
    print(f"   fail_ratio = {result['fail_ratio']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations)")
    details = result["details"]
    for op, dist in details.get("ops", {}).items():
        if dist["calls"]:
            per = dist["ms_per_call"]
            print(f"   {op}: {dist['calls']} calls, {dist['input_mib']:.4f} MiB in "
                  f"{dist['total_s']:.3f} s; per-call ms q1 {per['q1']:.3f} "
                  f"median {per['median']:.3f} q3 {per['q3']:.3f} p99 {per['p99']:.3f} "
                  f"({per['calls_above_p99']} calls above p99)")
    props = details["block_properties"]
    print(f"   blocks {props['blocks']}: d=1 {props['d1_blocks']} "
          f"({props['d1_block_share']:.4f}), bit blocks <= {SHORT_BIT_BLOCK} bits "
          f"{props['short_bit_blocks']} ({props['short_bit_block_share']:.4f})")
    for error in result["errors"]:
        print(f"   failure: {error}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload, untraced and traced, at tiny size")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    cbe = load_cbe()
    host = provenance(cbe)
    if args.smoke:
        results = [run_one(cbe, host, name, args.seed, 0, trace, True)
                   for name in WORKLOADS for trace in (0, 1)]
    else:
        results = [run_one(cbe, host, args.workload, args.seed, args.seconds, args.trace, False)]
    for result in results:
        print_report(result)
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": results[0]["metrics"],
    }
    if args.smoke:
        summary["metrics"] = {
            f"{r['workload']['name']}/{'trace' if r['workload']['trace'] else 'e2e'}/{k}": m
            for r in results for k, m in r["metrics"].items()
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
