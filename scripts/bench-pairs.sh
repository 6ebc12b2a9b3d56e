#!/bin/sh
# Alternating pairs of two builds of the repo benchmark on one workload.
#
# usage: scripts/bench-pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD [PAIRS] [SEED] [SECONDS]
#   PARENT_BIN, CHANGE_BIN  two builds of benchmark/'s `rum-benchmark`
#   PAIRS    pairs to run (default 10); odd pairs run the parent first,
#            even pairs the change
#   SEED     input seed (default 2)
#   SECONDS  work size, as in BENCHMARK.json (default 10)
#
# Each run is the benchmark's single-workload form, `--workload W --seed S
# --seconds N --trace 0`.  Printed: every run's `failed` count, then for
# each end-to-end metric of BENCHMARK.json each side's quartiles (p25 /
# median / p75), the pairs the change won (ties count for neither side) and
# whether that is a gain: at least nine tenths of the pairs won and the
# medians further apart than the parent's inter-quartile range.  Last, every
# pair's values.
# Exits non-zero when a run fails its correctness check or prints no
# metrics line.
set -u
[ $# -ge 3 ] || { sed -n '4,9s/^# \{0,1\}//p' "$0" >&2; exit 2; }
parent=$1 change=$2 workload=$3 pairs=${4:-10} seed=${5:-2} seconds=${6:-10}
spec="$(dirname "$0")/../BENCHMARK.json"
for bin in "$parent" "$change"; do
    [ -x "$bin" ] || { echo "bench-pairs: $bin is not an executable" >&2; exit 2; }
done

rows=$(mktemp) || exit 2
log=$(mktemp) || exit 2
trap 'rm -f "$rows" "$log"' EXIT
status=0

# run SIDE BIN PAIR: one single-workload run; appends `pair side metric value`
# rows and prints the run's failed count.
run() {
    "$2" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 </dev/null >"$log" 2>&1
    code=$?
    json=$(tail -n 1 "$log")
    case $json in
    '{'*'"metrics"'*) ;;
    *) echo "  $1: no metrics line (exit $code)"; status=1; return ;;
    esac
    failed=$(printf '%s\n' "$json" | sed -n 's/.*"failed": *\([0-9]*\).*/\1/p')
    [ "$code" -eq 0 ] || status=1
    printf '  %s: failed %s%s\n' "$1" "${failed:-?}" "$([ "$code" -eq 0 ] || echo " (exit $code)")"
    printf '%s\n' "$json" | sed 's/.*"metrics": *{//' |
        grep -o '"[A-Za-z0-9_.]*": *{"value": *[-0-9.eE+]*' |
        sed 's/"\([^"]*\)": *{"value": *\(.*\)/\1 \2/' |
        while read -r metric value; do echo "$3 $1 $metric $value"; done >>"$rows"
}

echo "workload $workload seed $seed seconds $seconds, $pairs pairs"
i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        echo "pair $i (parent first)"
        run parent "$parent" "$i"
        run change "$change" "$i"
    else
        echo "pair $i (change first)"
        run change "$change" "$i"
        run parent "$parent" "$i"
    fi
    i=$((i + 1))
done

# The end-to-end metrics and their directions, in BENCHMARK.json's order.
sed -n '/"end_to_end"/,/\]/p' "$spec" |
    grep -o '"name": *"[^"]*", *"unit": *"[^"]*", *"better": *"[^"]*"' |
    sed 's/"name": *"\([^"]*\)".*"better": *"\([^"]*\)"/\1 \2/' |
    awk -v pairs="$pairs" '
    FNR == NR { value[$1, $2, $3] = $4; next }
    function sorted(side, m,    i, j, n, t) {
        n = 0
        for (i = 1; i <= pairs; i++)
            if ((i, side, m) in value) v[++n] = value[i, side, m] + 0
        for (i = 2; i <= n; i++)
            for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
        return n
    }
    function quantile(n, q,    h, lo) {
        h = (n - 1) * q + 1; lo = int(h)
        return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
    }
    {
        m = $1; better = $2
        n = sorted("parent", m)
        if (n == 0) next
        p25 = quantile(n, 0.25); p50 = quantile(n, 0.5); p75 = quantile(n, 0.75)
        n = sorted("change", m)
        if (n == 0) next
        c25 = quantile(n, 0.25); c50 = quantile(n, 0.5); c75 = quantile(n, 0.75)
        wins = 0; both = 0; list = ""
        for (i = 1; i <= pairs; i++) {
            if (!((i, "parent", m) in value) || !((i, "change", m) in value)) continue
            a = value[i, "parent", m] + 0; b = value[i, "change", m] + 0; both++
            if ((better == "lower" && b < a) || (better == "higher" && b > a)) wins++
            list = list sprintf("  %.4g -> %.4g", a, b)
        }
        gain = (better == "lower" ? p50 - c50 : c50 - p50)
        claim = (wins * 10 >= both * 9 && gain > p75 - p25) ? "gain" : "-"
        if (!header++)
            printf "\n%-24s %-6s %32s %32s %7s %s\n", "metric", "better", "parent p25 / p50 / p75", "change p25 / p50 / p75", "wins", "claim"
        printf "%-24s %-6s %10.4g %10.4g %10.4g %10.4g %10.4g %10.4g %3d/%-3d %s\n", m, better, p25, p50, p75, c25, c50, c75, wins, both, claim
        detail = detail sprintf("%-24s%s\n", m, list)
    }
    END { if (detail != "") printf "\nper pair, parent -> change:\n%s", detail; else { print "no metrics parsed"; exit 1 } }
    ' "$rows" - || status=1
exit "$status"
