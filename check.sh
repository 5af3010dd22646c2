#!/bin/sh
# check.sh — the repository's `make check` equivalent, runnable
# standalone and from CI (.github/workflows/ci.yml and the nightly
# suite): gofmt, vet, docs and tests first, then the cupidbench gates, so
# BENCH_cupid.json is only recorded from a tree that passes them. Fails
# on formatting drift before anything else so reviews never see
# unformatted sources.
#
# CI conveniences:
#   CHECK_SKIP_BENCH=1   skip the final bench gate (CI runs it as its own
#                        job and uploads BENCH_cupid.json as an artifact)
#   GITHUB_ACTIONS=true  emit ::error workflow annotations on failures so
#                        the failing gate is named in the PR UI, not just
#                        buried in the log
#
# Each gate exits with its own distinct message ("check FAILED at gate:
# <name>"), so a red CI run is diagnosable from the last log line alone.
set -u

# fail <gate> <message...> — annotate (on GitHub Actions), name the gate,
# and exit non-zero.
fail() {
    gate="$1"
    shift
    if [ "${GITHUB_ACTIONS:-}" = "true" ]; then
        # One-line annotation: GitHub renders it on the PR.
        printf '::error title=check.sh %s gate::%s\n' "$gate" "$(printf '%s' "$*" | tr '\n' ' ')"
    fi
    printf '%s\n' "$*" >&2
    printf 'check FAILED at gate: %s\n' "$gate" >&2
    exit 1
}

cd "$(dirname "$0")" || fail cd "cannot cd to the repository root"

echo "check: gofmt -l ."
dirty=$(gofmt -l .) || fail gofmt "gofmt itself failed"
if [ -n "$dirty" ]; then
    fail gofmt "gofmt needed on:
$dirty"
fi

echo "check: go vet ./..."
go vet ./... || fail vet "go vet found problems (see above)"

echo "check: staticcheck ./..."
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./... || fail staticcheck "staticcheck found problems (see above)"
else
    echo "check: staticcheck not installed, skipping (CI installs it; 'go install honnef.co/go/tools/cmd/staticcheck@latest' to run locally)"
fi

echo "check: docs present"
for f in README.md docs/ARCHITECTURE.md docs/API.md docs/PERSISTENCE.md docs/REPLICATION.md; do
    if [ ! -f "$f" ]; then
        fail docs "missing $f (entry-point documentation is part of the contract)"
    fi
done

echo "check: package comments"
# Every internal package must carry a package-level doc comment
# ("// Package <name> ..."): the doc-presence half of godoc hygiene.
for d in $(find internal -type d); do
    ls "$d"/*.go >/dev/null 2>&1 || continue # directory without sources
    pkg=$(basename "$d")
    if ! grep -ql "^// Package $pkg " "$d"/*.go; then
        fail package-comments "internal package $d has no package comment"
    fi
done

echo "check: go build ./..."
go build ./... || fail build "go build failed (see above)"

echo "check: go test ./..."
go test ./... || fail test "go test failed (see above)"

# bench/ is a nested module (its own go.mod), so the root ./... never
# builds it; it compiles against the root packages, so vet and test it
# here, offline like bench/run.sh builds it.
echo "check: bench module (go vet + go test -short)"
(cd bench && export GOPROXY=off GOWORK=off && go vet ./... && go test -short ./...) ||
    fail bench-module "the nested bench/ module failed to vet or test (see above)"

# The bench gates mirror CI's bench job: every gated cupidbench
# experiment, in the same order. Short overload windows keep the local
# run interactive; CI's nightly deep suite runs the full-length ones.
if [ "${CHECK_SKIP_BENCH:-}" = "1" ]; then
    echo "check: bench gates skipped (CHECK_SKIP_BENCH=1)"
else
    echo "check: cupidbench -exp bench (CHECK_SKIP_BENCH=1 to skip)"
    go run ./cmd/cupidbench -exp bench || fail bench "bench gates failed (recall or speedup regression; see above)"
    echo "check: cupidbench -exp overload (CHECK_SKIP_BENCH=1 to skip)"
    go run ./cmd/cupidbench -exp overload -overload-window 250ms || fail overload-bench "overload gates failed (goodput, p99 knee, cache or ranking-identity regression; see above)"
    echo "check: cupidbench -exp planner (CHECK_SKIP_BENCH=1 to skip)"
    go run ./cmd/cupidbench -exp planner || fail planner-bench "planner gates failed (recall, time-vs-static or allocation regression; see above)"
    echo "check: cupidbench -exp cluster (CHECK_SKIP_BENCH=1 to skip)"
    go run ./cmd/cupidbench -exp cluster || fail cluster-bench "cluster gates failed (scaling, merge-recall or replica-convergence regression; see above)"
    echo "check: cupidbench -exp corpus (CHECK_SKIP_BENCH=1 to skip)"
    go run ./cmd/cupidbench -exp corpus || fail corpus-bench "corpus gates failed (planned or indexed recall regression; see above)"
    echo "check: cupidbench -exp crossformat (CHECK_SKIP_BENCH=1 to skip)"
    go run ./cmd/cupidbench -exp crossformat || fail crossformat-bench "crossformat gates failed (cross-format fan-in recall or instance tie-break regression; see above)"
fi

echo "check: ok"
