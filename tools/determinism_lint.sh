#!/usr/bin/env sh
# Determinism source lint: the simulation engine must stay bit-for-bit
# reproducible, so wall-clock reads (`Instant::now`, `SystemTime::now`)
# and iteration-order-unstable `HashMap`s are denied everywhere except an
# explicit allowlist of timing harnesses and serving-layer bookkeeping
# whose iteration order is proven not to reach any result.
#
# Run from the repository root:  sh tools/determinism_lint.sh
# Exits non-zero, listing every offending file, when a denied pattern
# appears outside the allowlist. To allow a new site, justify it in the
# PR and add it to the matching list below.

set -eu
cd "$(dirname "$0")/.."

# Wall-clock reads: perf harnesses (they measure wall time on purpose)
# and the two serving layers (queue timing, autoscale ticks, quota
# buckets — all kept off the evaluation path). The observability layer
# confines its clock to crates/obs/src/wall.rs: every span timestamp
# flows through the dqc_obs::Clock trait and that module is the one
# place the trait meets a real clock, so allowlisting it keeps the
# rest of the tracing layer lint-clean by construction.
CLOCK_ALLOW="
crates/serve/src/server.rs
crates/served/src/daemon.rs
crates/obs/src/wall.rs
crates/bench/src/bin/perf.rs
crates/bench/src/bin/serve_bench.rs
"

# HashMap: serving/daemon bookkeeping keyed for lookup only, and tests
# that collate replies by tag before order-insensitive asserts. The
# simulation engine itself uses none.
HASHMAP_ALLOW="
crates/serve/src/server.rs
crates/served/src/daemon.rs
crates/served/src/quota.rs
tests/serve_determinism.rs
tests/served_wire.rs
"

fail=0

scan() {
    pattern="$1"
    allow="$2"
    label="$3"
    for file in $(grep -rl --include='*.rs' "$pattern" crates src tests examples 2>/dev/null); do
        case "$allow" in
            *"$file"*) ;;
            *)
                echo "determinism lint: $file uses $label outside the allowlist" >&2
                fail=1
                ;;
        esac
    done
}

scan 'Instant::now\|SystemTime::now' "$CLOCK_ALLOW" "a wall clock"
scan 'HashMap' "$HASHMAP_ALLOW" "HashMap"

if [ "$fail" -ne 0 ]; then
    echo "determinism lint: denied patterns found (see tools/determinism_lint.sh)" >&2
    exit 1
fi
echo "determinism lint: clean"
