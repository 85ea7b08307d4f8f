#!/usr/bin/env python3
"""Runs one benchmark workload of the cache simulator and reports its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (and with it the simulator library from src/) as an
optimised Release build under .bench_build/, runs the driver for S seconds of
host time (four processes in turn), checks every cell's simulated-output
digest against perfbench/expected_digests.json, prints a readable report and,
as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json (host times scaled
to a reference host speed, see end_to_end), --trace 1 the per-layer ones
(from traced passes, alternated with untraced passes to measure the tracing
overhead). The full result, stamped with compiler, build
flags, nproc, source revision, workload and seed, goes to
.bench_build/results/.

Extra modes:
  --record-digests   store this seed's digests in expected_digests.json
  --selftest         show the digest check rejects any perturbed field
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RESULTS_DIR = ROOT / ".bench_build" / "results"
DRIVER = BUILD_DIR / "perfbench_driver"
DIGESTS = BENCH_DIR / "expected_digests.json"
DRIVER_TIMEOUT_S = 170
PROCESSES = 4  # driver processes per run, run one after another
# Host-speed probe time (driver.cc, HostProbe) that end-to-end times are
# scaled to: about its time on a quiet 2.1 GHz Xeon (4 vCPUs, 2 MB L2/core)
# with huge pages. Only ratios between runs matter; this keeps the scaled
# figures near real seconds.
REFERENCE_PROBE_S = 0.025

# Deterministic simulated headline values, printed beside the paper's figure
# as reference only. They are part of the digest and never a performance
# metric.
HEADLINES = {
    "kvs_zipf": [
        ("headline.zipf_slice_tps_gain", "slice-aware TPS gain, Zipf 0.99",
         "up to +12.2% (Fig. 8)"),
        ("headline.uniform_slice_tps_gain", "slice-aware TPS gain, uniform",
         "~0 (Fig. 8: uniform is a wash)"),
    ],
    "nfv_chain": [
        ("headline.p99_gain_with_cd", "p99 latency cut by CacheDirector",
         "up to 21.5% at the 90-99th percentiles (Fig. 14)"),
        ("headline.p99_mann_whitney_p", "per-run p99 Mann-Whitney p", "n/a"),
    ],
    "coherence_ring": [
        ("headline.cycles_per_packet", "simulated cycles per packet", "n/a (no paper figure)"),
    ],
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    return json.loads(path.read_text())


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("simulator sources (src/) not found next to perfbench/; nothing to build")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(BUILD_DIR), "--parallel", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")


def source_revision():
    """git revision when the tree is a checkout, else a hash of the sources."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain", "src",
                                    "perfbench"], capture_output=True, text=True).stdout
            return out.stdout.strip() + ("-dirty" if dirty.strip() else "")
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return "tree-sha256:" + h.hexdigest()[:16]


def run_driver(args, extra=(), processes=1, spans=None):
    """Runs the driver `processes` times, one after another, splitting the
    --seconds budget between them, and pools their passes; each process's
    first pass is marked, as it also pays for first-touch page faults.

    The simulator's heap gets transparent huge pages (glibc.malloc.hugetlb).
    Its host working set is accessed at random, and on 4 KiB pages the
    physical placement a process happens to get moved its whole run's speed
    by up to 1.6x; huge pages and several processes per run average that
    out."""
    env = dict(os.environ)
    env["GLIBC_TUNABLES"] = ":".join(filter(None, [env.get("GLIBC_TUNABLES"),
                                                   "glibc.malloc.hugetlb=1"]))
    seconds = max(1, args.seconds // processes)
    pooled = None
    for i in range(processes):
        cmd = [str(DRIVER), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", str(args.trace), *extra]
        if spans and i == 0:
            cmd += ["--spans", str(spans)]  # the first process's spans are enough
        try:
            out = subprocess.run(cmd, capture_output=True, text=True, env=env,
                                 timeout=DRIVER_TIMEOUT_S / processes)
        except subprocess.TimeoutExpired:
            fail("driver timed out")
        sys.stderr.write(out.stderr)
        if out.returncode != 0:
            fail(f"driver exited with code {out.returncode}")
        result = json.loads(out.stdout)
        for j, p in enumerate(result["passes"]):
            p["first"] = j == 0
        if pooled is None:
            pooled = result
        else:
            pooled["passes"] += result["passes"]
            pooled["peak_rss_mb"] = max(pooled["peak_rss_mb"], result["peak_rss_mb"])
    return pooled


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def check_cells(result, expected):
    """Counts digested cells and the ones that threw, mismatched the committed
    digest, changed between passes, or had a field that does not reach the
    hash."""
    attempted = failed = 0
    first = {c["name"]: c["digest"] for c in result["passes"][0]["cells"]}
    problems = []
    for i, p in enumerate(result["passes"]):
        for c in p["cells"]:
            attempted += 1
            why = None
            if c["error"]:
                why = f"threw: {c['error']}"
            elif expected is not None and expected.get(c["name"]) != c["digest"]:
                why = f"digest {c['digest']} != expected {expected.get(c['name'])}"
            elif c["digest"] != first.get(c["name"]):
                why = "digest differs between passes"
            elif c["insensitive_fields"]:
                why = f"{c['insensitive_fields']} digested fields do not reach the hash"
            if why:
                failed += 1
                problems.append(f"pass {i} cell {c['name']}: {why}")
    return attempted, failed, problems, first


def host_scale(passes):
    """Factor that takes the passes' host times to the reference host speed:
    the reference probe time over the mean probe time after those passes."""
    return REFERENCE_PROBE_S / statistics.fmean([p["probe_s"] for p in passes])


def timed_passes(passes):
    """Every pass but each process's first, which also pays for first-touch
    page faults (a single pass, as --record-digests makes, is kept)."""
    return [p for p in passes if not p["first"]] or passes


def end_to_end(passes, peak_rss_mb):
    """Host times at the reference host speed. The host's speed drifts
    between a fast and a slow state for seconds to minutes at a time, so
    the phase times and the line rate are totals over the run divided by
    the passes (each state weighs by the time spent in it, where the median
    of a few passes jumps between the two), scaled by host_scale(). Set-up
    is short and has outliers of its own, so setup_s is the median."""
    timed = timed_passes(passes)
    scale = host_scale(timed)
    def mean(key):
        return scale * statistics.fmean([p[key] for p in timed])
    lines = sum(p["warmup_lines"] + p["measured_lines"] for p in timed)
    busy = scale * sum(p["warmup_s"] + p["measured_s"] for p in timed)
    return {
        "wall_s": mean("wall_s"),
        "setup_s": scale * median([p["setup_s"] for p in timed]),
        "warmup_s": mean("warmup_s"),
        "measured_s": mean("measured_s"),
        "sim_mlines_per_s": lines / busy / 1e6,
        "peak_rss_mb": peak_rss_mb,
    }


def layer_values(p):
    """Per-layer metrics of one traced pass; a layer the workload never
    calls reads 0."""
    L = p["layer"]
    g = lambda k: L.get(k, 0.0)
    v = {k: g(k) for k in (
        "sim.hierarchy_build_s", "mem.alloc_s", "mem.bytes_allocated", "slice.lines_gathered",
        "kvs.setup_s", "cache.warmup_s", "cache.warmup_lines", "cache.core_s", "cache.core_lines",
        "cache.dma_s", "cache.dma_lines", "kvs.warmup_s", "kvs.run_s", "kvs.requests", "trace.generate_s", "trace.packets", "netio.setup_s",
        "nfv.chain_build_s", "nfv.warmup_s", "nfv.run_s", "nfv.packets", "stats.summarize_s",
        "cache.invalidations", "cache.remote_forwards", "bench.untraced_frac")}
    v["cache.core_ns_per_line"] = 1e9 * ratio(g("cache.core_s"), g("cache.core_lines"))
    v["cache.dma_ns_per_line"] = 1e9 * ratio(g("cache.dma_s"), g("cache.dma_lines"))
    v["kvs.ns_per_request"] = 1e9 * ratio(g("kvs.run_s"), g("kvs.requests"))
    v["nfv.ns_per_packet"] = 1e9 * ratio(g("nfv.warmup_s") + g("nfv.run_s"), g("nfv.packets"))
    v["nfv.lines_per_packet"] = ratio(g("count.nfv_lines"), g("nfv.packets"))
    v["nfv.drop_frac"] = ratio(g("count.nfv_drops"), g("nfv.packets"))
    v["cache.l1_hit_frac"] = ratio(g("count.l1_hits"), g("count.l1_lookups"))
    v["cache.llc_miss_frac"] = ratio(g("count.llc_misses"), g("count.llc_lookups"))
    v["uncore.local_slice_frac"] = ratio(g("count.local_lookups"), g("count.llc_core_lookups"))
    v["slice.yield"] = ratio(64 * g("slice.lines_gathered"), g("count.gather_backing_bytes"))
    v["cache.warmup_share"] = ratio(p["warmup_lines"], p["warmup_lines"] + p["measured_lines"])
    return v


def per_layer(result):
    traced = [p for p in result["passes"] if p["traced"]]
    untraced = [p for p in result["passes"] if not p["traced"]]
    per_pass = [layer_values(p) for p in traced]
    values = {k: median([pp[k] for pp in per_pass]) for k in per_pass[0]}
    values["bench.trace_overhead"] = ratio(median([p["wall_s"] for p in traced]),
                                           median([p["wall_s"] for p in untraced]))
    values["bench.host_scale"] = host_scale(timed_passes(result["passes"]))
    return values


def print_bases(p):
    """The numerator and denominator of each work-efficiency ratio, per pass."""
    L = p["layer"]
    g = lambda k: L.get(k, 0.0)
    lines = p["warmup_lines"] + p["measured_lines"]
    print("ratio bases (per pass):")
    print(f"  slice.yield        = {64 * g('slice.lines_gathered'):.0f} B gathered"
          f" / {g('count.gather_backing_bytes'):.0f} B backing allocated")
    print(f"  cache.warmup_share = {p['warmup_lines']} warm-up lines / {lines} simulated lines")
    print(f"  nfv.drop_frac      = {g('count.nfv_drops'):.0f} drops"
          f" / {g('nfv.packets'):.0f} offered packets")


def print_report(stamp, bench, section, values, fail_rate, attempted, headline_layer, workload):
    print(f"perfbench {workload} seed={stamp['seed']} rev={stamp['revision']} "
          f"nproc={stamp['nproc']} compiler={stamp['compiler']!r} flags={stamp['build_flags']!r}")
    print(f"{'metric':28s} {'value':>16s}  unit")
    for m in bench[section]:
        print(f"{m['name']:28s} {values[m['name']]:16.6g}  {m['unit']}")
    print(f"{'fail_rate':28s} {fail_rate:16.6g}  1   ({attempted} digested cells)")
    print("simulated headline (reference only; model unvalidated against hardware):")
    for key, label, paper in HEADLINES[workload]:
        print(f"  {label:40s} {headline_layer.get(key, 0.0):10.4f}   paper: {paper}")


def selftest(args, expected):
    """Shows that the digest check accepts the clean run, that flipping any
    single digested field changes its cell's digest, and that runs with a
    flipped field fail the check in every cell."""
    if expected is None:
        fail("--selftest needs a seed with committed digests")
    clean = run_driver(args, ["--max-passes", "1", "--check-fields"])
    attempted, failed, problems, _ = check_cells(clean, expected)
    for line in problems:
        print(f"  {line}")
    fields = sum(c["fields"] for c in clean["passes"][0]["cells"])
    print(f"clean run: {failed}/{attempted} cells fail; each of the {fields} digested fields, "
          f"flipped alone, changes its cell's digest: {failed == 0}")
    ok = failed == 0
    sizes = [c["fields"] for c in clean["passes"][0]["cells"]]
    for k in sorted({0, max(sizes) // 2, max(sizes) - 1}):
        bad = run_driver(args, ["--max-passes", "1", "--perturb-field", str(k)])
        attempted, failed, _, _ = check_cells(bad, expected)
        having = sum(n > k for n in sizes)
        print(f"field {k} flipped in the {having} cells that have it: "
              f"{failed}/{attempted} cells fail the check")
        ok &= failed == having
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")
    if args.record_digests and args.trace:
        fail("--record-digests runs one untraced pass; use --trace 0")

    bench = load_benchmark()
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload}")
    build()
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    expected = table.get(args.workload, {}).get(str(args.seed))
    if args.selftest:
        return selftest(args, expected)

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = RESULTS_DIR / f"{tag}.spans.jsonl" if args.trace else None
    if args.record_digests:
        result = run_driver(args, ["--max-passes", "1"])
    else:
        result = run_driver(args, processes=PROCESSES, spans=spans)
    stamp = dict(result["stamp"], revision=source_revision())
    if not (stamp["ndebug"] and stamp["optimized"]):
        fail("refusing to record results from an unoptimised or assert-enabled build")

    if args.record_digests:
        expected = {c["name"]: c["digest"] for c in result["passes"][0]["cells"]}
        table.setdefault(args.workload, {})[str(args.seed)] = expected
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    attempted, failed, problems, digests = check_cells(result, expected)
    for line in problems[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    if expected is None:
        print(f"perfbench: no committed digests for seed {args.seed}; reported, not checked",
              file=sys.stderr)

    section = "per_layer" if args.trace else "end_to_end"
    if args.trace:
        values = per_layer(result)
    else:
        values = end_to_end(result["passes"], result["peak_rss_mb"])
    fail_rate = failed / attempted
    headline_layer = result["passes"][0]["layer"]
    print_report(stamp, bench, section, values, fail_rate, attempted, headline_layer,
                 args.workload)
    scale = host_scale(timed_passes(result["passes"]))
    if args.trace:
        print_bases(result["passes"][0])
    else:
        print(f"host probe {1e3 * REFERENCE_PROBE_S / scale:.2f} ms against a reference of "
              f"{1e3 * REFERENCE_PROBE_S:.0f} ms: times above are host times x {scale:.4f}")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in bench[section]}
    (RESULTS_DIR / f"{tag}.json").write_text(json.dumps({
        "stamp": stamp, "digests_checked": expected is not None, "digests": digests,
        "fail_rate": fail_rate, "passes": len(result["passes"]), "host_scale": scale,
        "metrics": metrics,
        "headline": {k: headline_layer.get(k) for k, _, _ in HEADLINES[args.workload]},
    }, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
