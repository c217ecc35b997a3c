#!/usr/bin/env python3
"""Render BENCH_*.json gate status as a GitHub step summary
(markdown). Usage: bench_summary.py FILE [FILE ...]; missing
files are skipped so a failed bench still summarises the others."""
import json
import sys

# Pass/fail flags in a "gates" section (BENCH_runtime.json): each must
# read 1.0, mirroring the bench's own enforcement. Every other "gates"
# entry is informational.
FLAG_GATES = {"blinding_spike_free", "background_refill_clean", "ope_bounded"}


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
    for name, value in data.get("gates", {}).items():
        if name in FLAG_GATES:
            yield path, name, value, "== 1", "✅" if value == 1.0 else "❌"
        else:
            yield path, name, value, "", "·"


def main(paths):
    print("## Bench gates\n")
    print("| file | gate | value | bar | status |")
    print("|---|---|---:|---|---|")
    for path in paths:
        try:
            with open(path) as f:
                data = json.load(f)
        except OSError:
            print(f"| {path} | _missing_ | | | ⚠️ |")
            continue
        for file, name, value, bar, status in gate_rows(path, data):
            print(f"| {file} | {name} | {value:g} | {bar} | {status} |")


if __name__ == "__main__":
    main(sys.argv[1:] or ["BENCH_paillier.json", "BENCH_runtime.json"])
