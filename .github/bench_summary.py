#!/usr/bin/env python3
"""Render BENCH_*.json gate status + e2e throughput as a GitHub step
summary (markdown). Usage: bench_summary.py FILE [FILE ...]; missing
files are skipped so a failed bench still summarises the others."""
import json
import sys

# Gate display policy for files with a "gates" section: name ->
# (kind, threshold). "min" gates pass at or above the threshold, "max"
# gates pass at or below it, "flag" gates pass when == expected,
# anything unlisted is informational. Thresholds mirror each bench's
# own enforcement (see the bench source and BENCHMARKS.md).
GATE_POLICY = {
    # BENCH_runtime.json
    "blinding_spike_free": ("flag", 1.0),
    "background_refill_clean": ("flag", 1.0),
    "ope_bounded": ("flag", 1.0),
    # BENCH_e2e.json
    "scaling_4_vs_1": ("min", 2.0),
    "concurrent_matches_serial": ("flag", 1.0),
    "serving_errors": ("flag", 0.0),
    "wire_matches_serial": ("flag", 1.0),
    "wire_errors": ("flag", 0.0),
    "recovery_matches_pre_crash": ("flag", 1.0),
    "recovery_errors": ("flag", 0.0),
    "wire64_matches_serial": ("flag", 1.0),
    "wire64_errors": ("flag", 0.0),
    "overload_p99_ratio": ("max", 5.0),
    "overload_dirty_sheds": ("flag", 0.0),
    "overload_admitted_errors": ("flag", 0.0),
    "drain_lost_acks": ("flag", 0.0),
    "retention_disk_bounded": ("flag", 1.0),
    "recovery_suffix_bounded": ("flag", 1.0),
    "diskfull_lost_acks": ("flag", 0.0),
    "diskfull_reads_served": ("flag", 1.0),
    "diskfull_clean_sheds": ("flag", 1.0),
    "diskfull_self_restored": ("flag", 1.0),
    "prepared_matches_simple": ("flag", 1.0),
    "prepared_vs_simple": ("min", 1.3),
    "same_table_write_scaling": ("min", 2.0),
    "same_table_matches_serial": ("flag", 1.0),
    "same_table_errors": ("flag", 0.0),
}


def verdict(name, value):
    kind, threshold = GATE_POLICY.get(name, ("info", None))
    if kind == "min":
        return ("✅" if value >= threshold else "❌"), f">= {threshold}"
    if kind == "max":
        return ("✅" if value <= threshold else "❌"), f"<= {threshold}"
    if kind == "flag":
        return ("✅" if value == threshold else "❌"), f"== {threshold:g}"
    return "·", ""


def gate_rows(path, data):
    # BENCH_paillier.json style: thresholds live in "enforced_gates" and
    # measured values in "speedups".
    if "enforced_gates" in data:
        speedups = data.get("speedups", {})
        for name, threshold in data["enforced_gates"].items():
            value = speedups.get(name)
            if value is None:
                continue
            status = "✅" if value >= threshold else "❌"
            yield path, name, value, f">= {threshold}", status
    gates = data.get("gates", {})
    for name, value in gates.items():
        # The e2e bench arms the 2x scaling bar only on >= 4-thread
        # hosts (scaling_enforced flag); on a 1-thread build host the
        # ratio is informational, not a failure.
        if name == "scaling_4_vs_1" and gates.get("scaling_enforced") == 0:
            yield path, name, value, ">= 2.0 (not armed: <4 threads)", "·"
            continue
        # Same policy for the same-table write ladder: its 2x bar is
        # armed only on >= 4-hardware-thread hosts.
        if (
            name == "same_table_write_scaling"
            and gates.get("same_table_scaling_enforced") == 0
        ):
            yield path, name, value, ">= 2.0 (not armed: <4 threads)", "·"
            continue
        status, bar = verdict(name, value)
        yield path, name, value, bar, status


def main(paths):
    print("## Bench gates\n")
    print("| file | gate | value | bar | status |")
    print("|---|---|---:|---|---|")
    loaded = {}
    for path in paths:
        try:
            with open(path) as f:
                data = json.load(f)
        except OSError:
            print(f"| {path} | _missing_ | | | ⚠️ |")
            continue
        loaded[path] = data
        for file, name, value, bar, status in gate_rows(path, data):
            print(f"| {file} | {name} | {value:g} | {bar} | {status} |")
    e2e = loaded.get("BENCH_e2e.json")
    if e2e:
        print("\n## Serving throughput (reduced size)\n")
        print(
            f"{e2e.get('modulus_bits', '?')}-bit keys, "
            f"{e2e.get('steps_per_session', '?')} steps/session, "
            f"{e2e.get('host_parallelism', '?')} host threads, "
            f"{e2e.get('worker_threads', '?')} pool workers\n"
        )
        throughput_table("in-process sessions", e2e.get("results", {}))
        # Older artifacts predate the pgwire front-end and have no
        # wire_results key; skip the section rather than KeyError.
        wire = e2e.get("wire_results")
        if wire:
            print()
            throughput_table("wire connections (e2e_wire)", wire)
            overhead = e2e.get("wire_overhead_4_vs_inproc")
            if overhead is not None:
                print(
                    f"\nwire overhead at 4 sessions: {overhead:g}× "
                    "(in-process qps / socket-path qps)"
                )
        # Overload rows postdate the multiplexed edge; every key is
        # optional so older artifacts still render.
        fan = e2e.get("wire64")
        if fan:
            print(
                f"\nwide fan-out: {fan.get('connections', '?')} connections on "
                f"{fan.get('reader_threads', '?')} reader threads — "
                f"{fan.get('qps', 0.0):.1f} qps, "
                f"p50 {fan.get('p50_ns', 0) / 1e6:.3f} ms, "
                f"p99 {fan.get('p99_ns', 0) / 1e6:.3f} ms"
            )
        overload = e2e.get("overload")
        if overload:
            print(
                f"\noverload ({overload.get('flooders', '?')} flooders vs cap "
                f"{overload.get('cap', '?')}): admitted p99 "
                f"{overload.get('p99_unloaded_ns', 0) / 1e6:.3f} ms unloaded → "
                f"{overload.get('p99_flood_ns', 0) / 1e6:.3f} ms under flood "
                f"({overload.get('p99_ratio', 0):g}×), "
                f"{overload.get('clean_sheds', 0)} clean sheds, "
                f"{overload.get('dirty_sheds', 0)} dirty"
            )
        drain = e2e.get("drain")
        if drain:
            print(
                f"\ndrain under flood: {drain.get('acked', 0)} acked inserts, "
                f"{drain.get('lost', 0)} lost after recovery, drain took "
                f"{drain.get('drain_ms', 0):g} ms"
            )
        # Older artifacts predate the WAL; every key is optional here.
        wal = e2e.get("wal_results")
        if wal:
            print("\n## Durability (WAL fsync policy ladder, serial)\n")
            print("| policy | queries/sec |")
            print("|---:|---:|")
            for name, row in wal.items():
                print(f"| {name} | {row.get('qps', 0.0):.1f} |")
            overhead = e2e.get("wal_overhead_everyN_vs_off")
            if overhead is not None:
                print(
                    f"\nWAL overhead, EveryN(64) group commit vs no WAL: "
                    f"{overhead:g}× (informational)"
                )
        recovery = e2e.get("recovery")
        if recovery:
            print(
                f"\nrecovery: {recovery.get('ms', 0):g} ms to replay "
                f"{recovery.get('records', 0)} records "
                f"({recovery.get('log_bytes', 0)} log bytes)"
            )
        # Segmented-WAL rows postdate snapshot-anchored retention; both
        # keys are optional so older artifacts still render.
        bounded = e2e.get("bounded_recovery")
        if bounded:
            print(
                f"\nbounded recovery: {bounded.get('inserts', 0)} inserts left "
                f"{bounded.get('disk_bytes', 0)} bytes in "
                f"{bounded.get('segments', 0)} segments "
                f"({bounded.get('rotations', 0)} rotations, "
                f"{bounded.get('segments_deleted', 0)} deleted by retention); "
                f"reopen replayed {bounded.get('replayed_records', 0)} records "
                f"in {bounded.get('recovery_ms', 0):g} ms"
            )
        # Prepared-statement rows postdate the extended-protocol PR;
        # every key is optional so older artifacts still render.
        prepared = e2e.get("prepared")
        if prepared:
            print(
                f"\nprepared vs simple (in-process, "
                f"{prepared.get('iters', 0)} iters/side): "
                f"{prepared.get('simple_qps', 0.0):.1f} qps re-parsed → "
                f"{prepared.get('prepared_qps', 0.0):.1f} qps prepared "
                f"({prepared.get('ratio', 0):g}×); plan cache: "
                f"{prepared.get('plans_cached', 0)} cached, "
                f"{prepared.get('plan_hits', 0)} hits, "
                f"{prepared.get('plan_misses', 0)} misses, "
                f"{prepared.get('plans_invalidated', 0)} invalidated"
            )
        # Same-table contention rows postdate the sharded row store;
        # the whole section is optional so older artifacts still render.
        same_table = e2e.get("same_table")
        if same_table:
            qps1 = same_table.get("sessions_1", {}).get("qps", 0.0)
            qps4 = same_table.get("sessions_4", {}).get("qps", 0.0)
            print(
                f"\nsame-table write contention "
                f"({same_table.get('ops', 0)} pre-parsed ops on one table): "
                f"{qps1:.1f} qps at 1 thread → {qps4:.1f} qps at 4 threads "
                f"({same_table.get('scaling', 0):g}×)"
            )
        diskfull = e2e.get("disk_full")
        if diskfull:
            print(
                f"\ndisk-full chaos: {diskfull.get('acked', 0)} acked inserts, "
                f"{diskfull.get('sheds_53100', 0)} clean 53100 sheds "
                f"({diskfull.get('edge_sheds', 0)} at the serving edge), "
                f"{diskfull.get('other_errors', 0)} other errors, "
                f"{diskfull.get('lost', 0)} lost after recovery"
            )


def throughput_table(label, results):
    print(f"| {label} | queries/sec | p50 | p99 |")
    print("|---:|---:|---:|---:|")
    for key, row in sorted(
        results.items(),
        key=lambda kv: int(kv[0].rsplit("_", 1)[-1]),
    ):
        n = key.rsplit("_", 1)[-1]
        qps = row.get("qps", 0.0)
        p50 = row.get("p50_ns", 0)
        p99 = row.get("p99_ns", 0)
        print(f"| {n} | {qps:.1f} | {p50 / 1e6:.3f} ms | {p99 / 1e6:.3f} ms |")


if __name__ == "__main__":
    main(sys.argv[1:] or ["BENCH_paillier.json", "BENCH_runtime.json", "BENCH_e2e.json"])
