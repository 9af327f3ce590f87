#!/usr/bin/env bash
# Check and run the tests CI pins by name.
#
# `cargo test <filter>` exits 0 with "0 passed" when the filter matches
# nothing, so a pinned name alone protects nothing against a rename. This
# script reads a manifest of `package test-target test-name` lines
# (default ci/pinned-tests.txt), fails if any name is absent from
# `cargo test -p <package> --test <target> -- --list` (`--lib` for the
# target `lib`), and only then runs each pinned test with `--exact`.
#
# Usage: scripts/check_pinned_tests.sh [manifest]
set -euo pipefail

cd "$(dirname "$0")/.."
manifest="${1:-ci/pinned-tests.txt}"

entries=$(grep -Ev '^[[:space:]]*(#|$)' "$manifest")
if bad=$(awk 'NF != 3' <<<"$entries") && [ -n "$bad" ]; then
    echo "malformed line(s) in $manifest (want: package test-target test-name):" >&2
    echo "$bad" >&2
    exit 1
fi

selector() { # test-target -> cargo's target selection flags
    if [ "$1" = lib ]; then echo "--lib"; else echo "--test $1"; fi
}

missing=0
groups=$(awk '{print $1, $2}' <<<"$entries" | sort -u)
while read -r pkg target; do
    # shellcheck disable=SC2046  # the selector is one or two words
    listed=$(cargo test -q -p "$pkg" $(selector "$target") -- --list | sed -n 's/: test$//p')
    for name in $(awk -v p="$pkg" -v t="$target" '$1 == p && $2 == t {print $3}' <<<"$entries"); do
        if ! grep -qxF -- "$name" <<<"$listed"; then
            echo "pinned test does not exist: $pkg $target $name" >&2
            missing=1
        fi
    done
done <<<"$groups"
if [ "$missing" -ne 0 ]; then
    echo "$manifest names tests that do not exist; renamed or removed?" >&2
    exit 1
fi

while read -r pkg target; do
    names=$(awk -v p="$pkg" -v t="$target" '$1 == p && $2 == t {print $3}' <<<"$entries")
    # shellcheck disable=SC2046,SC2086  # word splitting is the point
    cargo test -q -p "$pkg" $(selector "$target") -- --exact $names
done <<<"$groups"
echo "all $(wc -l <<<"$entries") pinned tests exist and passed"
