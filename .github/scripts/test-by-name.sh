#!/usr/bin/env bash
# Runs `cargo test -q` with the given arguments and fails when they ran
# no test. A test-name filter that matches nothing makes plain
# `cargo test` exit 0 ("0 passed; N filtered out"), so a renamed or
# misspelled test would silently drop out of a by-name CI step.
#
# Usage: .github/scripts/test-by-name.sh -p <package> --lib <path::to::test> -- --exact
#        .github/scripts/test-by-name.sh -p <package> --lib <module filter>
set -uo pipefail

out=$(cargo test -q "$@" 2>&1)
status=$?
printf '%s\n' "$out"
if [ "$status" -ne 0 ]; then
    exit "$status"
fi
if ! grep -Eq '(^|[^0-9])[1-9][0-9]* passed' <<<"$out"; then
    echo "error: no test ran: cargo test -q $*" >&2
    exit 1
fi
