#!/usr/bin/env bash
# Exact report diff. Compares every bench report in a current directory
# (default build/perf_reports, written by `ctest -L bench_smoke`) with its
# checked-in baseline (default bench/baselines) and prints each metric whose
# value differs at all, as `old → new` — no tolerance, unlike the perf gate.
# A refactor that claims byte-stable baselines should print nothing.
#
# compute_kernels.json is skipped: it measures host wall-clock, which
# differs on every run. Metrics present on one side only are listed too, and
# a report that differs from its baseline in anything but metric values
# (units, tolerances, tables, anchors) gets a one-line note.
#
# Usage: tools/diff_reports.sh [current_dir] [baseline_dir]  (relative paths
# are taken from the repository root)
# Exit status: 0 when every compared report matches its baseline, 1 when
# some report differs or has no baseline.
set -euo pipefail
cd "$(dirname "$0")/.."

current="${1:-build/perf_reports}"
baseline="${2:-bench/baselines}"
if [[ ! -d "$current" ]]; then
  echo "diff_reports: $current not found (run ctest -L bench_smoke)" >&2
  exit 2
fi

exec python3 - "$current" "$baseline" <<'EOF'
import json
import os
import sys

current, baseline = sys.argv[1], sys.argv[2]
skip = {"compute_kernels.json"}
differs = False

for name in sorted(os.listdir(current)):
    if not name.endswith(".json") or name in skip:
        continue
    base_path = os.path.join(baseline, name)
    if not os.path.exists(base_path):
        print(f"{name}: no baseline {base_path}")
        differs = True
        continue
    with open(os.path.join(current, name)) as f:
        new = json.load(f)
    with open(base_path) as f:
        old = json.load(f)
    old_values = {m["name"]: m["value"] for m in old.get("metrics", [])}
    new_values = {m["name"]: m["value"] for m in new.get("metrics", [])}
    lines = []
    for metric, value in new_values.items():
        if metric not in old_values:
            lines.append(f"  {metric}: (new) {value!r}")
        elif value != old_values[metric]:
            lines.append(f"  {metric}: {old_values[metric]!r} → {value!r}")
    for metric in old_values:
        if metric not in new_values:
            lines.append(f"  {metric}: {old_values[metric]!r} (gone)")
    for doc in (old, new):
        for m in doc.get("metrics", []):
            m.pop("value")
    rest_differs = old != new
    if lines or rest_differs:
        differs = True
        print(f"{name}:")
        for line in lines:
            print(line)
        if rest_differs:
            print("  (differs outside metric values: units, tolerances, "
                  "tables or anchors)")

sys.exit(1 if differs else 0)
EOF
