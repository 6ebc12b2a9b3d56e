#!/bin/sh
# Non-test lines per file: everything before the first `#[cfg(test)]`.
# usage: scripts/nontest-lines.sh [files…]
#   default = every .rs under a src/ of the workspace (crates/, crates/shims/
#   and the root; benchmark/ is a package of its own and not counted)
cd "$(dirname "$0")/.." || exit 1
[ $# -gt 0 ] || set -- $(find crates src -path '*src/*' -name '*.rs' | sort)
awk 'FNR == 1 { counting = 1 }
     /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
     counting { n[FILENAME]++; total++ }
     END { for (f in n) printf "%7d %s\n", n[f], f | "sort -k2"; close("sort -k2"); printf "%7d total\n", total }' "$@"
