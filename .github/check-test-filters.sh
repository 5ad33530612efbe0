#!/usr/bin/env bash
# Fails when a test filter in a workflow file matches no test.
#
# libtest runs a filter that matches nothing as an empty, passing run, so
# a renamed or retired test silently drops out of a CI step. This script
# finds every command line of the workflow that starts with `cargo test`
# (after `run:` or indentation) and names filters
# (positional words before or after `--`), lists what each filter
# selects with `-- --list`, one filter at a time, and exits 1 if any
# filter lists no test.
#
# usage: .github/check-test-filters.sh [workflow]   (default .github/workflows/ci.yml)
set -euo pipefail

workflow=${1:-.github/workflows/ci.yml}
failed=0

# cargo options that take a value: the value is not a filter.
takes_value=" -p --package --test --bin --example --bench --features -F --target --profile -j --jobs --manifest-path "

while read -r command; do
    read -ra words <<<"$command"
    selectors=() filters=() libtest=() after=0
    expect_value=0
    for word in "${words[@]:2}"; do
        if ((after)); then
            if [[ $word == -* ]]; then libtest+=("$word"); else filters+=("$word"); fi
        elif ((expect_value)); then
            selectors+=("$word") expect_value=0
        elif [[ $word == -- ]]; then
            after=1
        elif [[ $word == -* ]]; then
            selectors+=("$word")
            if [[ $takes_value == *" $word "* ]]; then expect_value=1; fi
        else
            filters+=("$word")
        fi
    done
    for filter in "${filters[@]}"; do
        if ! output=$(cargo test "${selectors[@]}" -- --list "${libtest[@]}" "$filter" 2>&1); then
            echo "$output"
            echo "FAIL  could not list the tests of: $command"
            failed=1
            continue
        fi
        listed=$(grep -c ': test$' <<<"$output" || true)
        if ((listed == 0)); then
            echo "FAIL  no test matches '$filter' in: $command"
            failed=1
        else
            echo "ok    $listed test(s) match '$filter' in: cargo test ${selectors[*]}"
        fi
    done
done < <(grep -oE '^[[:space:]]*(-[[:space:]]+)?(run:[[:space:]]*)?cargo test[^|;&]*' "$workflow" | sed -E 's/^.*(cargo test)/\1/')

exit "$failed"
