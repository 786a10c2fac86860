#!/usr/bin/env bash
# Paired A/B of the repo benchmark: this working tree against a parent revision.
#
#   scripts/pair.sh <parent-rev> [--workload w]... [--pairs n] [--seed s] [--seconds t] [--digests]
#
# The parent revision is exported with `git archive` into a temporary
# directory (no worktree is registered, so an interrupted run leaves nothing
# behind in the repository), and each tree runs its own
# `bash benchmark/run.sh --workload w --seed s --seconds t --trace 0`, building
# its own harness under its own .bench_build. Pair i runs the parent first
# when i is odd and the change first when it is even (ABBA), so a host that
# drifts during the run moves both sides alike. Defaults: the workloads of
# BENCHMARK.json, 5 pairs, seed 1, 15 s.
#
# For each workload and metric it prints the pair count, in how many pairs the
# change read lower, the parent's median (interquartile range) -> the change's
# median, and the median of the paired ratios change / parent:
#
#   serve_mix_n12_c1  peak_rss_mb  pairs 5  lower 5/5  190.3 (189.9-191.0) -> 60.1  ratio 0.316
#
# Before every pair and after the last, a fixed-work host sentinel runs:
# modarith's BenchmarkExpandUniform at n16-k4 (the fastest kernel table's row,
# built once from the working tree). Its median and spread in GB/s print
# beside the pairs, so a reader sees whether the host moved during them.
#
# With --digests, after the pairs each side runs every workload once more with
# --trace 1 and the script prints both ckks.result_digest values and MATCH or
# DIFFER, so a change that claims unchanged ciphertext bytes reads them.
#
# Comparing a clean HEAD against itself (scripts/pair.sh HEAD) is an A/A run:
# the spread it prints is the noise floor a claimed gain has to clear.
set -euo pipefail

usage() {
	sed -n '2,/^$/s/^# \{0,1\}//p' "$0" >&2
	exit 2
}
[ $# -ge 1 ] || usage
parent=$1
shift
workloads=()
pairs=5 seed=1 seconds=15 digests=0
while [ $# -gt 0 ]; do
	if [ "$1" = --digests ]; then
		digests=1
		shift
		continue
	fi
	[ $# -ge 2 ] || usage
	case $1 in
	--workload) workloads+=("$2") ;;
	--pairs) pairs=$2 ;;
	--seed) seed=$2 ;;
	--seconds) seconds=$2 ;;
	*) usage ;;
	esac
	shift 2
done
[ ${#workloads[@]} -gt 0 ] || workloads=(hks_n16 boot_n12 serve_mix_n12_c1)

change=$(git rev-parse --show-toplevel)
rev=$(git -C "$change" rev-parse --verify "$parent^{commit}")
tmp=$(mktemp -d "${TMPDIR:-/tmp}/pair.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
: >"$tmp/records"
git -C "$change" archive "$rev" | tar -x -C "$tmp/parent"
echo "parent $(git -C "$change" rev-parse --short "$rev") in $tmp/parent, change $change" >&2
(cd "$change" && go test -c -o "$tmp/sentinel.test" ./internal/modarith) >&2

# sentinel <pair>: one run of the host sentinel, appended to $tmp/sentinel.
sentinel() {
	local v
	v=$("$tmp/sentinel.test" -test.run xxx -test.bench 'ExpandUniform/.*/n16-k4$' -test.cpu 1 -test.benchtime 200x |
		awk '$NF == "GB/s" && $(NF-1) > best { best = $(NF-1) } END { print best + 0 }')
	echo "$v" >>"$tmp/sentinel"
	echo "sentinel before pair $1: $v GB/s" >&2
}

# run <side> <tree> <workload> <pair>: one benchmark run. Its driver line (the
# last line of the output) becomes one record per metric in $tmp/records:
# workload metric pair side value.
run() {
	local out line
	out=$(cd "$2" && bash benchmark/run.sh --workload "$3" --seed "$seed" --seconds "$seconds" --trace 0 2>&1) || {
		printf '%s\n' "$out" | tail -n 20 >&2
		echo "pair.sh: $1 run of $3 failed" >&2
		exit 1
	}
	line=$(printf '%s\n' "$out" | tail -n 1)
	printf '%s\n' "$line" |
		grep -o '"[a-z0-9_.]*":{"value":[-+0-9.eE]*' |
		sed 's/^"\([^"]*\)":{"value":/\1 /' |
		awk -v w="$3" -v p="$4" -v s="$1" '{ print w, $1, p, s, $2 }' >>"$tmp/records"
	local failed
	failed=$(printf '%s\n' "$line" | grep -o '"failed":[0-9]*' | cut -d: -f2)
	echo "$3 failed_ops $4 $1 ${failed:-0}" >>"$tmp/records"
	echo "pair $4 $3 $1: $(grep "^$3 [a-z0-9_.]* $4 $1 " "$tmp/records" | awk '{ printf "%s=%g ", $2, $5 }')" >&2
}

for ((i = 1; i <= pairs; i++)); do
	sentinel "$i"
	for w in "${workloads[@]}"; do
		if ((i % 2)); then
			run parent "$tmp/parent" "$w" "$i"
			run change "$change" "$w" "$i"
		else
			run change "$change" "$w" "$i"
			run parent "$tmp/parent" "$w" "$i"
		fi
	done
done
sentinel "$((pairs + 1))"

echo "# seed $seed, ${seconds}s runs, parent $(git -C "$change" rev-parse --short "$rev") -> working tree; median (IQR) -> median, ratio = median of change/parent per pair"
awk '
function sortn(a, n,    i, j, x) {
	for (i = 2; i <= n; i++) {
		x = a[i]
		for (j = i - 1; j >= 1 && a[j] > x; j--) a[j + 1] = a[j]
		a[j + 1] = x
	}
}
# q returns the q-quantile of the sorted a[1..n], linearly interpolated.
function q(a, n, f,    pos, lo) {
	pos = 1 + (n - 1) * f
	lo = int(pos)
	return lo >= n ? a[n] : a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
}
{
	k = $1 " " $2
	if (!(k in seen)) { seen[k] = 1; order[++nk] = k }
	val[k, $3, $4] = $5
	if ($3 > maxp) maxp = $3
}
END {
	for (i = 1; i <= nk; i++) {
		k = order[i]
		n = lower = 0
		delete pa; delete ca; delete ra
		for (p = 1; p <= maxp; p++) {
			if (!((k, p, "parent") in val) || !((k, p, "change") in val)) continue
			a = val[k, p, "parent"]; b = val[k, p, "change"]
			n++
			pa[n] = a; ca[n] = b
			ra[n] = a != 0 ? b / a : (b == 0 ? 1 : 0)
			if (b < a) lower++
		}
		if (n == 0) continue
		sortn(pa, n); sortn(ca, n); sortn(ra, n)
		split(k, kw, " ")
		printf "%-17s %-15s pairs %d  lower %d/%d  %.4g (%.4g-%.4g) -> %.4g  ratio %.3f\n",
			kw[1], kw[2], n, lower, n, q(pa, n, 0.5), q(pa, n, 0.25), q(pa, n, 0.75), q(ca, n, 0.5), q(ra, n, 0.5)
	}
}' "$tmp/records"
sort -g "$tmp/sentinel" | awk '
function q(f,    pos, lo) {
	pos = 1 + (NR - 1) * f
	lo = int(pos)
	return lo >= NR ? v[NR] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
}
{ v[NR] = $1 }
END { printf "%-17s %-15s runs %d  %.4g (%.4g-%.4g) GB/s, range %.4g-%.4g\n", "host sentinel", "ExpandUniform", NR, q(0.5), q(0.25), q(0.75), v[1], v[NR] }'

((digests)) || exit 0
for w in "${workloads[@]}"; do
	declare -A d=()
	for side in parent change; do
		tree=$change
		[ $side = parent ] && tree=$tmp/parent
		d[$side]=$(cd "$tree" && bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 2>&1 |
			tail -n 1 | grep -o '"ckks.result_digest":{"value":[-+0-9.eE]*' | sed 's/.*://') || true
	done
	verdict=DIFFER
	[ -n "${d[parent]}" ] && [ "${d[parent]}" = "${d[change]}" ] && verdict=MATCH
	printf '%-17s result_digest  parent %s  change %s  %s\n' "$w" "${d[parent]:-none}" "${d[change]:-none}" "$verdict"
done
