#!/usr/bin/env bash
# Record benchmark/run.sh results as one JSON document on stdout: the
# ledger file a perf PR commits as BENCH_<pr>.json (ROADMAP standing
# rule). The harness is only run, never edited.
#
#   scripts/benchrecord.sh before=/path/to/parent-checkout after=.
#       one full run per checkout (four workloads, then the traced pass):
#       host fingerprint + each workload's JSON result line + the traced
#       pass, under "runs".<label>
#
#   scripts/benchrecord.sh --pairs 10 --workload send-through before=... after=.
#       additionally N alternating runs of one workload per checkout (the
#       side that goes first alternates), under "pairs": what the
#       ten-pair rule for a claimed gain is checked against
#
# Progress goes to stderr. The exit code is non-zero if any run's own
# output checks failed; the document is still written.
set -uo pipefail

pairs=0
workload=""
sides=()
while [ $# -gt 0 ]; do
	case "$1" in
	--pairs) pairs=$2; shift 2 ;;
	--workload) workload=$2; shift 2 ;;
	*=*) sides+=("$1"); shift ;;
	*) echo "usage: $0 [--pairs N --workload W] label=checkout..." >&2; exit 2 ;;
	esac
done
[ ${#sides[@]} -gt 0 ] || sides=("after=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)")
if [ "$pairs" -gt 0 ] && { [ -z "$workload" ] || [ ${#sides[@]} -ne 2 ]; }; then
	echo "$0: --pairs needs --workload and exactly two label=checkout sides" >&2
	exit 2
fi

status=0

# results: turn a run's stdout into JSON members: "host", then one per
# result line, keyed by workload ("traced" for the traced pass).
results() {
	awk '
		/^# host: / && !host { host = substr($0, 9); gsub(/"/, "\\\"", host); printf "\"host\": \"%s\"", host }
		/^# workload=/ { split($2, kv, "="); name = ($0 ~ /trace=true/) ? "traced" : kv[2] }
		/^\{/ { printf ",\n      \"%s\": %s", name, $0 }
	'
}

echo "{"
echo "  \"command\": \"bash benchmark/run.sh\","
echo "  \"recorded\": \"$(date -u +%Y-%m-%dT%H:%M:%SZ)\","
echo "  \"runs\": {"
sep=""
for side in "${sides[@]}"; do
	label=${side%%=*} dir=${side#*=}
	echo "benchrecord: full run of $label ($dir)" >&2
	commit=$(git -C "$dir" rev-parse HEAD 2>/dev/null || echo unknown)
	git -C "$dir" diff --quiet HEAD 2>/dev/null || commit="$commit+uncommitted"
	printf '%s    "%s": {\n      "commit": "%s",\n      ' "$sep" "$label" "$commit"
	bash "$dir/benchmark/run.sh" | results || status=1
	printf '\n    }'
	sep=$',\n'
done
printf '\n  }'
if [ "$pairs" -gt 0 ]; then
	printf ',\n  "pairs": {\n    "workload": "%s",\n    "runs": [' "$workload"
	sep=""
	for i in $(seq 1 "$pairs"); do
		order=(0 1)
		[ $((i % 2)) -eq 0 ] && order=(1 0)
		for s in "${order[@]}"; do
			label=${sides[$s]%%=*} dir=${sides[$s]#*=}
			echo "benchrecord: pair $i/$pairs, $label" >&2
			out=$(bash "$dir/benchmark/run.sh" --workload "$workload" --seed "$i" --trace 0) || status=1
			line=$(grep '^{' <<<"$out" || true)
			printf '%s\n      {"pair": %d, "side": "%s", "seed": %d, "result": %s}' "$sep" "$i" "$label" "$i" "${line:-null}"
			sep=","
		done
	done
	printf '\n    ]\n  }'
fi
printf '\n}\n'
exit $status
