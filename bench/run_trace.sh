#!/usr/bin/env bash
# Trace smoke test: run a short traced + profiled training loop
# (examples/profiled_training) and verify the emitted trace.json is
# valid Chrome-trace JSON. Then run it again with step reports on and
# check that they hide nothing from the example's own profiler: the same
# number of (op, module) pairs, plus one step_report line per step.
# Registered as the `trace_smoke` ctest.
#
# Usage: bench/run_trace.sh [build-dir]   (default: build)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
example_bin="$build_dir/examples/profiled_training"

if [[ ! -x "$example_bin" ]]; then
    echo "error: $example_bin not built; run:" >&2
    echo "  cmake -B \"$build_dir\" -S \"$repo_root\" && cmake --build \"$build_dir\" -j" >&2
    exit 1
fi

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

(cd "$workdir" && "$example_bin") > "$workdir/plain.out"
cat "$workdir/plain.out"

trace="$workdir/trace.json"
if [[ ! -s "$trace" ]]; then
    echo "error: $trace missing or empty" >&2
    exit 1
fi

# Well-formed JSON per the standard library parser, and structurally a
# Chrome trace: a traceEvents array with at least one complete span.
python3 -m json.tool "$trace" > /dev/null
python3 - "$trace" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc["traceEvents"]
assert isinstance(events, list) and events, "no traceEvents"
phases = {e.get("ph") for e in events}
assert "X" in phases, f"no complete spans, phases seen: {phases}"
assert "M" in phases, f"no metadata rows, phases seen: {phases}"
names = {e.get("name") for e in events}
assert "trainer.step" in names, "trainer.step span missing"
print(f"trace OK: {len(events)} events, phases {sorted(p for p in phases if p)}")
PY

# Second run: step reports subscribe next to the example's profiler.
(cd "$workdir" && SLAPO_STEP_REPORT="$workdir/r.jsonl" "$example_bin") \
    > "$workdir/reports.out"
pairs() { grep -o 'across [0-9]* (op, module) pairs' "$1" || true; }
plain_pairs="$(pairs "$workdir/plain.out")"
report_pairs="$(pairs "$workdir/reports.out")"
if [[ -z "$plain_pairs" || "$plain_pairs" != "$report_pairs" ]]; then
    echo "error: profiler saw '$plain_pairs' alone but '$report_pairs'" \
         "with SLAPO_STEP_REPORT set" >&2
    exit 1
fi
reports="$(grep -c '"kind":"step_report"' "$workdir/r.jsonl" || true)"
if [[ "$reports" != 3 ]]; then
    echo "error: expected 3 step_report lines in r.jsonl, got $reports" >&2
    exit 1
fi
echo "step reports OK: profiler still $report_pairs, $reports reports"

echo "trace smoke test passed"
