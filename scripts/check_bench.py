#!/usr/bin/env python3
"""Validate the benchmark JSON artifacts: fresh smoke runs and the
committed BENCH_*.json recordings.

Every assertion is one row of TABLE below: the artifacts it reads, the
check it runs and the bounds it uses. Smoke timings are too noisy to gate,
so timing invariants run only on the committed recordings; smoke runs are
checked for the kernels they must emit and for the counters that do not
depend on timing.

Run it from the checkout root after the smoke runs have written their
JSON there:

  cmake -B build -S . -DFRECHET_MOTIF_BUILD_TESTS=OFF
  cmake --build build -j --target bench_micro_kernels \\
      bench_stream_throughput bench_fleet_throughput bench_snapshot \\
      bench_serve bench_approx_sweep
  ./build/bench/bench_micro_kernels --smoke --json=BENCH_smoke.json
  ./build/bench/bench_stream_throughput --smoke --json=BENCH_stream_smoke.json
  ./build/bench/bench_fleet_throughput --smoke --json=BENCH_fleet_smoke.json
  ./build/bench/bench_snapshot --smoke --json=BENCH_snapshot_smoke.json
  ./build/bench/bench_serve --smoke --json=BENCH_serve_smoke.json
  ./build/bench/bench_approx_sweep --smoke --json=BENCH_approx_smoke.json
  python3 scripts/check_bench.py

Exit status 0 when every row holds, 1 at the first failing row.
"""

import argparse
import json
import sys

# Headroom for the decimal JSON round-trip of an approximation ratio; the
# sweep enforced the exact bound on the original doubles.
RATIO_SLACK = 1e-9


class CheckFailed(Exception):
    pass


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


def rows_named(doc, name):
    return [k for k in doc["kernels"] if k["name"] == name]


def by_name(doc):
    return {k["name"]: k for k in doc["kernels"]}


# ---------------------------------------------------------------------------
# Checks. Each takes the parsed document plus the row's parameters and
# returns a one-line "ok" summary, or raises CheckFailed.
# ---------------------------------------------------------------------------


def kernels_present(doc, names, positive_ns):
    """Every kernel in `names` is present; with positive_ns="all" every
    row, with "named" the named rows, reports ns_per_op > 0."""
    present = {k["name"] for k in doc["kernels"]}
    missing = set(names) - present
    expect(not missing, f"missing kernels: {sorted(missing)}")
    checked = (doc["kernels"] if positive_ns == "all" else
               [k for k in doc["kernels"] if k["name"] in names])
    for k in checked:
        expect(k["ns_per_op"] > 0, f"{k['name']}: ns_per_op {k['ns_per_op']}")
    return f"{len(doc['kernels'])} kernels, git={doc.get('git')}"


def threshold_not_slower(doc):
    """The early-exit kernel never loses to the unthresholded one at any
    measured size."""
    sizes = matrix_sizes(doc)
    for n in sizes:
        matrix = kernel(doc, "dfd_on_range_matrix", n, 1)
        thresh = kernel(doc, "dfd_on_range_matrix_threshold", n, 1)
        expect(thresh["ns_per_op"] <= matrix["ns_per_op"],
               f"threshold kernel slower at n={n}: "
               f"{thresh['ns_per_op']} > {matrix['ns_per_op']}")
    return f"threshold kernel never slower (sizes {sizes})"


def simd_speedup(doc, min_ratio, min_level):
    """The SIMD kernel beats the scalar-capped one by min_ratio at every
    size the recording machine dispatched a vector level for."""
    sizes = matrix_sizes(doc)
    for n in sizes:
        matrix = kernel(doc, "dfd_on_range_matrix", n, 1)
        if matrix.get("simd_level", 0) < min_level:
            continue
        scalar = kernel(doc, "dfd_on_range_matrix_scalar", n, 1)
        ratio = scalar["ns_per_op"] / matrix["ns_per_op"]
        expect(ratio >= min_ratio,
               f"SIMD speedup {ratio:.2f}x < {min_ratio}x at n={n}")
    return f"SIMD speedup >= {min_ratio}x (sizes {sizes})"


def drain_speedup(doc, min_hw_threads):
    """The 16-window threaded drain beats the serial one when the
    recording machine had the cores."""
    drain1 = kernel(doc, "fleet_drain_16w", 16, 1)
    drain4 = kernel(doc, "fleet_drain_16w", 16, 4)
    hw = drain4.get("hw_threads", 1)
    if hw < min_hw_threads:
        # Dormant, not passing: a silent "ok" would read as coverage the
        # recording never had.
        return (f"SKIPPED: fleet-drain speedup gate — recorded on a "
                f"{hw:.0f}-thread machine (needs hw_threads >= "
                f"{min_hw_threads}); re-record on a multi-core machine to "
                "arm it")
    expect(drain4["ns_per_op"] < drain1["ns_per_op"],
           "threaded 16-window drain slower than serial: "
           f"{drain4['ns_per_op']} >= {drain1['ns_per_op']}")
    return "threaded fleet drain beats serial"


def stream_below_scratch(doc):
    """Per-slide DP work of the streaming engine stays strictly below the
    from-scratch search's."""
    for stream, scratch in zip(rows_named(doc, "stream_search"),
                               rows_named(doc, "scratch_search")):
        s = stream["dfd_cells_per_slide"]
        f = scratch["dfd_cells_per_slide"]
        expect(s < f, f"stream {s} !< scratch {f} at n={stream['n']}")
    return "streaming dfd_cells per slide strictly below scratch"


def fleet_coalesces(doc, min_streams):
    """Parity mode runs the monitors' exact searches (DP-cell ratio 1);
    the budgeted scheduler coalesces below them at N >= min_streams."""
    k = by_name(doc)
    parity = k["fleet_ingest_parity"]
    budgeted = k["fleet_search_budgeted"]
    expect(parity["streams"] >= min_streams,
           f"fleet smoke must run N >= {min_streams}")
    expect(parity["dp_cells_ratio_vs_monitors"] == 1.0,
           "parity dp_cells_ratio_vs_monitors "
           f"{parity['dp_cells_ratio_vs_monitors']} != 1.0")
    ratio = budgeted["dp_cells_ratio_vs_monitors"]
    expect(0.0 < ratio < 1.0, f"budgeted fleet ratio {ratio} !< 1.0")
    expect(budgeted["coalesced_slides"] > 0, "budgeted fleet coalesced none")
    return (f"budgeted fleet dp-cells ratio {ratio:.3f} < 1.0 "
            f"at N={int(budgeted['streams'])}")


def recovery_beats_replay(doc):
    """Recovery (newest snapshot + journal tail) beats a full replay."""
    k = by_name(doc)
    expect(k["snapshot_checkpoint"]["snapshot_bytes"] > 0,
           "snapshot_bytes is 0")
    expect(k["durable_ingest"]["journal_overhead_ratio"] > 1.0,
           "journal_overhead_ratio <= 1.0")
    ratio = k["full_replay"]["recovery_vs_replay_ratio"]
    expect(0.0 < ratio < 1.0, f"recovery/replay ratio {ratio} !< 1.0")
    return f"recovery-vs-replay ratio {ratio:.3f} < 1.0"


def wire_lossless(doc, sizes):
    """Every point acked through the socket, no frame dropped, report
    frames pushed, at each fleet size."""
    wire = rows_named(doc, "serve_wire_ingest")
    direct = rows_named(doc, "fleet_direct_ingest")
    expect({k["n"] for k in wire} == set(sizes), "missing fleet sizes")
    expect(len(direct) == len(wire), "wire/direct row counts differ")
    for k in wire + direct:
        expect(k["ns_per_op"] > 0, f"{k['name']} n={k['n']}: ns_per_op")
    for k in wire:
        expect(k["frames_dropped"] == 0, "dropped frames")
        expect(k["frames_pushed"] > 0, "no frames pushed")
        expect(k["p99_push_latency_us"] > 0, "p99_push_latency_us <= 0")
        expect(k["wire_overhead_ratio"] > 0, "wire_overhead_ratio <= 0")
    return "wire path lossless at N=" + "/".join(str(n) for n in sizes)


def approx_contract(doc, min_stream_reduction, at_eps):
    """The (1+eps) sweep: ratios within [1, 1+eps], eps=0 rows
    bit-identical to exact, DP cells non-increasing in eps; optionally the
    streaming leg cuts DP cells by min_stream_reduction at at_eps."""
    expect(doc.get("bench") == "approx_sweep", "not an approx_sweep artifact")
    stream = []
    for name, ratio_key in (("batch_search", "distance_ratio"),
                            ("stream_search", "max_distance_ratio")):
        rows = sorted(rows_named(doc, name), key=lambda k: k["approx_eps"])
        expect(len(rows) >= 2,
               f"{name}: expected >= 2 eps rows, found {len(rows)}")
        expect(rows[0]["approx_eps"] == 0.0, f"{name}: no eps = 0 row")
        previous_cells = None
        for row in rows:
            eps = row["approx_eps"]
            ratio = row[ratio_key]
            expect(1.0 - RATIO_SLACK <= ratio <=
                   (1.0 + eps) * (1.0 + RATIO_SLACK),
                   f"{name} eps={eps}: {ratio_key} {ratio!r} outside "
                   "[1, 1+eps]")
            if eps == 0.0:
                expect(row["bit_identical_to_exact"] == 1.0,
                       f"{name}: eps = 0 row is not bit-identical to the "
                       "exact baseline")
                expect(ratio == 1.0, f"{name}: eps = 0 ratio {ratio!r} != 1")
            expect(previous_cells is None or row["dfd_cells"] <= previous_cells,
                   f"{name} eps={eps}: dfd_cells {row['dfd_cells']:.0f} "
                   "exceeds the previous eps level's")
            previous_cells = row["dfd_cells"]
        stream = rows
    if min_stream_reduction is None:
        return "approx-sweep invariants hold"
    row = next((r for r in stream if r["approx_eps"] == at_eps), None)
    expect(row is not None, f"stream_search: no eps = {at_eps} row")
    reduction = 1.0 - row["cells_vs_exact"]
    expect(reduction >= min_stream_reduction,
           f"stream_search eps={at_eps}: DP-cell reduction "
           f"{100 * reduction:.1f}% below the required "
           f"{100 * min_stream_reduction:.1f}%")
    return (f"approx-sweep invariants hold; streaming cuts DP cells by "
            f"{100 * reduction:.1f}% at eps={at_eps}")


def matrix_sizes(doc):
    sizes = sorted(k["n"] for k in doc["kernels"]
                   if k["name"] == "dfd_on_range_matrix")
    expect(sizes, "no dfd_on_range_matrix rows")
    return sizes


def kernel(doc, name, n, threads):
    for k in doc["kernels"]:
        if (k["name"], k["n"], k["threads"]) == (name, n, threads):
            return k
    raise CheckFailed(f"missing kernel {name} n={n} threads={threads}")


# ---------------------------------------------------------------------------
# The table: (artifacts, check, bounds).
# ---------------------------------------------------------------------------

TABLE = [
    (["BENCH_smoke.json"], kernels_present,
     dict(names=["dfd_on_range_matrix", "dfd_on_range_matrix_scalar",
                 "dfd_on_range_matrix_threshold",
                 "dfd_on_range_matrix_threshold_scalar", "fleet_drain_16w",
                 "btm_relaxed"],
          positive_ns="all")),
    (["BENCH_kernels.json"], threshold_not_slower, {}),
    (["BENCH_kernels.json"], simd_speedup, dict(min_ratio=1.5, min_level=1)),
    (["BENCH_kernels.json"], drain_speedup, dict(min_hw_threads=4)),
    (["BENCH_stream_smoke.json"], kernels_present,
     dict(names=["stream_ingest", "stream_search", "scratch_search"],
          positive_ns="none")),
    (["BENCH_stream_smoke.json"], stream_below_scratch, {}),
    (["BENCH_fleet_smoke.json"], kernels_present,
     dict(names=["monitors_ingest", "fleet_ingest_parity",
                 "fleet_search_budgeted"],
          positive_ns="named")),
    (["BENCH_fleet_smoke.json"], fleet_coalesces, dict(min_streams=8)),
    (["BENCH_snapshot_smoke.json", "BENCH_snapshot.json"], kernels_present,
     dict(names=["plain_ingest", "durable_ingest", "snapshot_checkpoint",
                 "recovery_open", "full_replay"],
          positive_ns="named")),
    (["BENCH_snapshot_smoke.json", "BENCH_snapshot.json"],
     recovery_beats_replay, {}),
    (["BENCH_serve_smoke.json", "BENCH_serve.json"], wire_lossless,
     dict(sizes=[1, 4, 8])),
    # Smoke workloads are too small to gate a reduction percentage on.
    (["BENCH_approx_smoke.json"], approx_contract,
     dict(min_stream_reduction=None, at_eps=0.05)),
    (["BENCH_approx.json"], approx_contract,
     dict(min_stream_reduction=0.30, at_eps=0.05)),
]


def main():
    argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    docs = {}
    for paths, check, params in TABLE:
        for path in paths:
            if path not in docs:
                try:
                    with open(path) as f:
                        docs[path] = json.load(f)
                except (OSError, ValueError) as e:
                    print(f"FAIL: {path}: {e}")
                    return 1
            try:
                summary = check(docs[path], **params)
            except (CheckFailed, KeyError) as e:
                print(f"FAIL: {path}: {check.__name__}: {e}")
                return 1
            status = "" if summary.startswith("SKIPPED") else "ok: "
            print(f"{status}{path}: {check.__name__}: {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
