#!/usr/bin/env bash
# Runs clippy over the fixture crate and compares its findings, as
# `file:line:lint` lines, with expected.txt. A missing line means a rule
# stopped firing; an extra line means a clean case stopped being silent.
# Either fails. Run from anywhere: lint-fixtures/check.sh
set -euo pipefail
cd "$(dirname "$0")"

# By file, then line, then lint; locale-independent.
in_order() { LC_ALL=C sort -u -t: -k1,1 -k2,2n -k3,3; }

# Clippy exits non-zero on the fixtures' deny-level findings by design.
json=$(cargo clippy --offline --quiet --all-targets --message-format=json \
    --target-dir ../target/lint-fixtures 2>/dev/null || true)
found=$(jq -r 'select(.reason == "compiler-message") | .message
    | select(.code != null) | .code.code as $lint
    | .spans[] | select(.is_primary)
    | "\(.file_name):\(.line_start):\($lint)"' <<<"$json" | in_order)

if ! diff -u <(in_order < expected.txt) <(printf '%s\n' "$found"); then
    echo "lint fixtures: findings differ from expected.txt (- missing, + unexpected)" >&2
    exit 1
fi
echo "lint fixtures: all $(wc -l < expected.txt) expected findings, nothing else"
