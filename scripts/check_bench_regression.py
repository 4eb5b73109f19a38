#!/usr/bin/env python3
"""Gate benchmark results against a committed baseline and/or absolute floors.

Usage:
    check_bench_regression.py --baseline BENCH_transport.json \
        bench_agent.json bench_scalability.json
    check_bench_regression.py --baseline BENCH_transport.json \
        --write-baseline bench_agent.json bench_scalability.json
    check_bench_regression.py --prefix bench.fault.e4g. \
        --min bench.fault.e4g.ckpt_compression_ratio=3.0 BENCH_fault.json

The bench binaries (`bench_agent --quick --json out.json`, ...) dump every
metric gauge; --prefix selects which ones this invocation gates (default:
the transport-relevant `bench.transport.` family). Two gating modes, usable
together or alone:

  * baseline-relative (--baseline): a throughput gauge (qps/rps/jps) must
    not drop more than --max-throughput-drop (default 15%) below baseline,
    and a latency gauge (name contains `p99`/`_ms`) must not rise more than
    --max-p99-rise (default 25%) above it. Gauges present in the baseline
    but missing from the current run fail too (a silently skipped benchmark
    is not a pass). New gauges absent from the baseline are reported but do
    not fail — commit a refreshed baseline (--write-baseline) to start
    gating them.

  * absolute floors (--min NAME=VALUE, repeatable): the named gauge must be
    present and >= VALUE. Used for acceptance-shaped results that have a
    hard meaning rather than a drifting baseline — e.g. the E4g checkpoint
    replication wire-compression ratio must stay >= 3x raw.

Host shape: each bench --json file records the `host` it ran on (nproc,
affinity_cpus, gemm_isa; see bench/harness.hpp). A baseline's `host` note
names the shape its numbers hold for; the gate refuses to compare a result
that differs from it on any key the note names, and says which. A gauge
measured on a different shape is a different number, not a regression.
--write-baseline keeps every other top-level key of the existing baseline
(comment, source, host, reference figures) and replaces only `metrics`; it
refuses results whose shape differs from the existing note.
"""

import argparse
import json
import sys


# Host-shape keys: the CPU fields of perfbench/run.py's HOST_KEYS, plus the
# GEMM micro-kernel's ISA, so a kernel gauge is never compared across
# kernels. The bench harness does not record the build fields, and `pinned`
# adds nothing once affinity_cpus is known.
HOST_KEYS = ("nproc", "affinity_cpus", "gemm_isa")

DEFAULT_COMMENT = ("Transport benchmark baseline. Regenerate with "
                   "scripts/check_bench_regression.py --write-baseline after "
                   "an intentional perf change; CI gates against these values.")
DEFAULT_SOURCE = "bench_agent --quick --json / bench_scalability --quick --json"


def load_result(path, prefix):
    """(host shape or None, {gauge: value}) for one bench --json file."""
    with open(path) as f:
        doc = json.load(f)
    gauges = doc.get("metrics", {}).get("gauges", {})
    return doc.get("host"), {k: float(v) for k, v in gauges.items() if k.startswith(prefix)}


def shape_mismatch(want, host):
    """Why `host` is not the shape `want` names, or None if it is."""
    if host is None:
        return "it records no host shape"
    diffs = [f"{k}={host.get(k)!r} where the baseline has {want[k]!r}"
             for k in HOST_KEYS if k in want and host.get(k) != want[k]]
    return ", ".join(diffs) or None


def is_latency(name):
    return "p99" in name or "_ms" in name


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("results", nargs="+", help="bench --json output files")
    parser.add_argument("--baseline", help="committed baseline JSON")
    parser.add_argument("--prefix", default="bench.transport.",
                        help="gauge-name prefix this invocation gates")
    parser.add_argument("--min", action="append", default=[], metavar="NAME=VALUE",
                        help="absolute floor: gauge NAME must be >= VALUE")
    parser.add_argument("--max-throughput-drop", type=float, default=0.15,
                        help="fail if throughput < (1 - this) * baseline")
    parser.add_argument("--max-p99-rise", type=float, default=0.25,
                        help="fail if p99 > (1 + this) * baseline")
    parser.add_argument("--write-baseline", action="store_true",
                        help="rewrite the baseline from these results instead of gating")
    args = parser.parse_args()
    if not args.baseline and not args.min:
        parser.error("nothing to gate: pass --baseline and/or --min")
    if args.write_baseline and not args.baseline:
        parser.error("--write-baseline needs --baseline")

    current = {}
    hosts = {}
    for path in args.results:
        hosts[path], gauges = load_result(path, args.prefix)
        current.update(gauges)
    if not current:
        print(f"error: no {args.prefix}* gauges found in {args.results}", file=sys.stderr)
        return 1

    baseline_doc = {}
    if args.baseline:
        try:
            with open(args.baseline) as f:
                baseline_doc = json.load(f)
        except FileNotFoundError:
            if not args.write_baseline:
                raise
    want = baseline_doc.get("host")
    if args.write_baseline and not want:
        # A fresh note records the shape of the first result; the rest must match it.
        first = hosts[args.results[0]]
        want = {k: first[k] for k in HOST_KEYS if first and k in first}
    if want:
        for path, host in hosts.items():
            why = shape_mismatch(want, host)
            if why:
                print(f"refused: {path} was not taken on the baseline's host shape "
                      f"{want}: {why}", file=sys.stderr)
                return 1
    elif args.baseline:
        print(f"warning: {args.baseline} has no host note; host shape not checked",
              file=sys.stderr)

    if args.write_baseline:
        doc = dict(baseline_doc)
        doc.setdefault("comment", DEFAULT_COMMENT)
        doc.setdefault("source", DEFAULT_SOURCE)
        doc.setdefault("host", want)
        doc["metrics"] = {k: round(v, 3) for k, v in sorted(current.items())}
        with open(args.baseline, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        print(f"wrote {len(current)} gauges to {args.baseline}")
        return 0

    failures = []
    gated = 0

    for spec in args.min:
        name, _, floor_s = spec.partition("=")
        floor = float(floor_s)
        gated += 1
        if name not in current:
            failures.append(f"{name}: missing from current run (floor {floor:g})")
            print(f"  [FAIL] {name}: missing (floor {floor:g})")
            continue
        cur = current[name]
        verdict = "FAIL" if cur < floor else "ok"
        if cur < floor:
            failures.append(f"{name}: {cur:g} < floor {floor:g}")
        print(f"  [{verdict:>4}] {name}: {cur:g} vs floor {floor:g}")

    if args.baseline:
        baseline = baseline_doc["metrics"]
        gated += len(baseline)

        for name in sorted(baseline):
            base = float(baseline[name])
            if name not in current:
                failures.append(f"{name}: missing from current run (baseline {base:g})")
                continue
            cur = current[name]
            if is_latency(name):
                limit = base * (1.0 + args.max_p99_rise)
                verdict = "FAIL" if cur > limit else "ok"
                if cur > limit:
                    failures.append(
                        f"{name}: p99 {cur:g} > {limit:g} "
                        f"(baseline {base:g} +{args.max_p99_rise:.0%})")
            else:
                limit = base * (1.0 - args.max_throughput_drop)
                verdict = "FAIL" if cur < limit else "ok"
                if cur < limit:
                    failures.append(
                        f"{name}: throughput {cur:g} < {limit:g} "
                        f"(baseline {base:g} -{args.max_throughput_drop:.0%})")
            delta = (cur / base - 1.0) * 100.0 if base else 0.0
            print(f"  [{verdict:>4}] {name}: {cur:g} vs baseline {base:g} ({delta:+.1f}%)")

        for name in sorted(set(current) - set(baseline)):
            print(f"  [ new] {name}: {current[name]:g} (not in baseline, not gated)")

    if failures:
        print(f"\n{len(failures)} bench gate failure(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\nall {gated} gated gauges within thresholds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
