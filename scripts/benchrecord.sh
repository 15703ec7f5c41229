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
#       ten-pair rule for a claimed gain is checked against. When the
#       pairs are done, each end-to-end metric's median and quartiles per
#       side, the pairs the second side won and the median change against
#       the first side's interquartile range are printed on stderr, so
#       the rule is read off rather than recomputed by hand
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
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)

# pairstats: from "pair side metric value" rows on stdin, print per
# end-to-end metric each side's median [q1, q3] over its runs, how many
# pairs the second side won (ties count for neither; BENCHMARK.json says
# which direction is better), and the change of the median beside the
# first side's interquartile range.
pairstats() {
	awk -v first="$1" -v second="$2" '
		function quant(a, n, p,    pos, lo) { pos = (n - 1) * p; lo = int(pos); return a[lo + 1] + (pos - lo) * (a[(lo + 2 > n) ? n : lo + 2] - a[lo + 1]) }
		function sorted(side, m, out,    n, i, j, t) {
			n = 0
			for (i = 1; i <= pairs; i++) if ((i, side, m) in v) out[++n] = v[i, side, m]
			for (i = 2; i <= n; i++) { t = out[i]; for (j = i - 1; j >= 1 && out[j] > t; j--) out[j + 1] = out[j]; out[j + 1] = t }
			return n
		}
		FNR == NR {
			if ($0 ~ /"name":/) { name = $0; sub(/.*"name": *"/, "", name); sub(/".*/, "", name) }
			if ($0 ~ /"better":/) { dir = $0; sub(/.*"better": *"/, "", dir); sub(/".*/, "", dir); better[name] = dir }
			next
		}
		{ v[$1, $2, $3] = $4; if ($1 > pairs) pairs = $1; if (!($3 in seen)) { seen[$3] = 1; order[++nm] = $3 } }
		END {
			for (k = 1; k <= nm; k++) {
				m = order[k]
				na = sorted(first, m, xs); nb = sorted(second, m, ys)
				if (na == 0 || nb == 0) continue
				wins = 0; ties = 0; both = 0
				for (i = 1; i <= pairs; i++) {
					if (!((i, first, m) in v) || !((i, second, m) in v)) continue
					both++
					x = v[i, first, m]; y = v[i, second, m]
					if (x == y) ties++
					else if ((better[m] == "higher") == (y > x)) wins++
				}
				ma = quant(xs, na, 0.5); mb = quant(ys, nb, 0.5); iqr = quant(xs, na, 0.75) - quant(xs, na, 0.25)
				printf "benchrecord: %-16s %s %.5g [%.5g, %.5g]  %s %.5g [%.5g, %.5g]  %s wins %d of %d pairs (%d ties); median %+.1f%%, |change| %.4g vs %s IQR %.4g\n",
					m, first, ma, quant(xs, na, 0.25), quant(xs, na, 0.75), second, mb, quant(ys, nb, 0.25), quant(ys, nb, 0.75),
					second, wins, both, ties, (ma != 0) ? 100 * (mb - ma) / ma : 0, (mb > ma) ? mb - ma : ma - mb, first, iqr
			}
		}
	' "$root/BENCHMARK.json" -
}

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
	rows=""
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
			# "name":{"value":X,... -> one "pair side name X" row per metric
			rows+=$(grep -o '"[a-z_]*":{"value":[^,]*' <<<"$line" | sed "s/^\"\([a-z_]*\)\":{\"value\":/$i $label \1 /")$'\n'
		done
	done
	printf '\n    ]\n  }'
	pairstats "${sides[0]%%=*}" "${sides[1]%%=*}" <<<"$rows" >&2
fi
printf '\n}\n'
exit $status
