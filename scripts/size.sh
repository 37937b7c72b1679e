#!/usr/bin/env bash
# Code-size report: per crate, the non-test Rust lines under `src/`, the
# number of public items and how many of those nothing outside the crate
# names, plus workspace totals.
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
# * "unreached" counts those public-item lines, `pub use` re-exports
#   excepted, whose item name no file of another crate, of the root
#   package's `src/`, `tests/` or `examples/`, or of `benchmark/src/`
#   contains as a whole word. It is a word grep, not name resolution: it
#   over-counts types that only appear in the public signatures of
#   reached items (they must stay public), and under-counts methods whose
#   name is a common word used elsewhere (`new`, `len`). The crate's own
#   tests and doc-tests do not count as reaching an item.
#
# The facade crate at the root is reported as `(root)` over `src/` only.
# A report, not a gate: it always exits 0 when ROOT exists.
set -euo pipefail

root=${1:-"$(dirname "$0")/.."}
cd "$root"

pub_re='^\s*pub (fn|struct|enum|trait|const|static|type|mod|use)\b'
item_re='^\s*pub (fn|struct|enum|trait|const|static|type|mod)\s+([A-Za-z_][A-Za-z0-9_]*).*'

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

# Every distinct identifier-like word of the .rs files under the given
# paths, one per line, sorted.
words() {
    find "$@" -name '*.rs' -print0 2>/dev/null |
        xargs -0 -r cat | grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort -u || true
}

# One word list per crate, one for the root package and one for the
# benchmark; a crate's outside is every list but its own.
words_dir=$(mktemp -d)
trap 'rm -rf "$words_dir"' EXIT
for dir in crates/*/; do
    dir=${dir%/}
    words "$dir" >"$words_dir/${dir#crates/}"
done
words src tests examples >"$words_dir/(root)"
words benchmark/src >"$words_dir/(benchmark)"

# Public items (re-exports excepted) under the given paths whose name no
# word list but `own`'s contains.
unreached() {
    local own=$1
    shift
    local outside=()
    for f in "$words_dir"/*; do
        [ "$f" = "$words_dir/$own" ] || outside+=("$f")
    done
    # One name per defining line, as "pub items" counts lines.
    find "$@" -name '*.rs' -print0 2>/dev/null |
        xargs -0 -r cat |
        sed -nE "s/$item_re/\\2/p" |
        grep -vxFf <(sort -u "${outside[@]}") -c || true
}

printf '%-12s %10s %10s %10s\n' crate "src lines" "pub items" unreached
total_lines=0
total_pub=0
total_unreached=0
report() {
    local name=$1 src=$2
    shift 2
    local lines pubs lonely
    lines=$(src_lines "$src")
    pubs=$(pub_items "$@")
    lonely=$(unreached "$name" "$@")
    printf '%-12s %10d %10d %10d\n' "$name" "$lines" "$pubs" "$lonely"
    total_lines=$((total_lines + lines))
    total_pub=$((total_pub + pubs))
    total_unreached=$((total_unreached + lonely))
}

for dir in crates/*/; do
    dir=${dir%/}
    [ -d "$dir/src" ] || continue
    report "${dir#crates/}" "$dir/src" "$dir"
done
[ -d src ] && report "(root)" src src
printf '%-12s %10d %10d %10d\n' total "$total_lines" "$total_pub" "$total_unreached"
