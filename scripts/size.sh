#!/usr/bin/env bash
# Code-size report: per crate, the non-test Rust lines under `src/` and the
# number of public items, plus workspace totals.
#
#   bash scripts/size.sh [ROOT]      # ROOT defaults to this checkout
#
# * "src lines" counts, per file under `<crate>/src/`, the lines before the
#   file's first `#[cfg(test)]` whose next non-blank line declares a `mod`
#   (all lines when it has none), so in-file unit-test modules do not count
#   as library code while a `#[cfg(test)]` on a single `use`, `fn` or field
#   inside library code does not end the count.
# * "pub items" counts lines matching
#   `^\s*pub (fn|struct|enum|trait|const|static|type|mod|use)\b` in every
#   `.rs` file of the crate (src/, tests/, examples/ alike); `pub(crate)`
#   and other restricted visibilities do not match.
#
# The facade crate at the root is reported as `(root)` over `src/` only.
# A report, not a gate: it always exits 0 when ROOT exists.
set -euo pipefail

root=${1:-"$(dirname "$0")/.."}
cd "$root"

pub_re='^\s*pub (fn|struct|enum|trait|const|static|type|mod|use)\b'

# Non-test lines of every .rs file under the given directory.
src_lines() {
    find "$1" -name '*.rs' -print0 |
        xargs -0 -r awk '
            # `held` counts a `#[cfg(test)]` line and the blank lines after
            # it until the next non-blank line shows whether a test module
            # starts there.
            FNR == 1 { n += held; held = 0; done = 0 }
            done { next }
            held && /^[[:space:]]*$/ { held++; next }
            held && /^[[:space:]]*(pub(\([a-z]+\))? )?mod[[:space:]]/ { held = 0; done = 1; next }
            held { n += held; held = 0 }
            /#\[cfg\(test\)\]/ { held = 1; next }
            { n++ }
            END { print n + held }'
}

# Public-item lines of every .rs file under the given paths.
pub_items() {
    find "$@" -name '*.rs' -print0 2>/dev/null |
        xargs -0 -r cat | grep -cE "$pub_re" || true
}

printf '%-12s %10s %10s\n' crate "src lines" "pub items"
total_lines=0
total_pub=0
report() {
    local name=$1 src=$2
    shift 2
    local lines pubs
    lines=$(src_lines "$src")
    pubs=$(pub_items "$@")
    printf '%-12s %10d %10d\n' "$name" "$lines" "$pubs"
    total_lines=$((total_lines + lines))
    total_pub=$((total_pub + pubs))
}

for dir in crates/*/; do
    dir=${dir%/}
    [ -d "$dir/src" ] || continue
    report "${dir#crates/}" "$dir/src" "$dir"
done
[ -d src ] && report "(root)" src src
printf '%-12s %10d %10d\n' total "$total_lines" "$total_pub"
