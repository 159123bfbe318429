#!/usr/bin/env bash
# Repository verification gate: formatting, lints, build, tests, and the
# figure binaries' --check claims. Fully offline (vendored deps only).
#
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

run cargo fmt --all --check
run cargo clippy --workspace --all-targets --release -- -D warnings
run cargo build --release --workspace
run cargo run -q -p maps-lint --release
run cargo test -q --workspace
# The debug-profile workspace run above skips #[cfg(not(debug_assertions))]
# regression tests (release-mode partition clamping); run those here.
run cargo test -q -p maps-cache --release release_

# Claim checks on the two headline figures. fig1 is stable from 30k
# accesses; fig2's qualitative claims (E-D^2 crossovers) need at least
# ~100k accesses to emerge from warm-up noise.
run env MAPS_ACCESSES=30000 ./target/release/fig1 --check
run env MAPS_ACCESSES=100000 ./target/release/fig2 --check

# Farm campaign smoke: a deduplicated two-figure campaign through the
# shared queue must emit a fig2 TSV byte-identical to the standalone
# binary's (the full equivalence matrix runs in crates/farm/tests).
farm_dir=$(mktemp -d)
run env MAPS_ACCESSES=20000 MAPS_DETERMINISTIC=1 \
    ./target/release/maps-farm run --figures fig2,fig7 --workers 4 --dir "$farm_dir"
run env MAPS_ACCESSES=20000 MAPS_DETERMINISTIC=1 \
    ./target/release/fig2 "--tsv=$farm_dir/fig2.standalone.tsv"
run cmp "$farm_dir/fig2.tsv" "$farm_dir/fig2.standalone.tsv"
rm -rf "$farm_dir"

# Supervised daemon smoke: the same fig2 campaign submitted to
# maps-farmd over its Unix socket, with every worker slot SIGKILLing
# itself once at a seeded job position. The daemon must respawn the
# workers, finish the campaign, and publish a fig2 TSV byte-identical
# to the standalone binary's (the full fault matrix — stalls, torn
# frames, quarantine, daemon crash/resume, client reattach — runs in
# crates/farm/tests/farmd_e2e.rs).
farmd_dir=$(mktemp -d)
farmd_sock="$farmd_dir/farmd.sock"
echo "==> maps-farmd --socket $farmd_sock (workers SIGKILL at job 7)"
env MAPS_ACCESSES=20000 MAPS_DETERMINISTIC=1 MAPS_FARMD_FAULT_KILL_AT=7 \
    ./target/release/maps-farmd --socket "$farmd_sock" &
farmd_pid=$!
for _ in $(seq 100); do [[ -S "$farmd_sock" ]] && break; sleep 0.1; done
run env MAPS_ACCESSES=20000 MAPS_DETERMINISTIC=1 \
    ./target/release/maps-farm submit --socket "$farmd_sock" \
    --dir "$farmd_dir" --campaign verify-smoke --figures fig2 --workers 4
run env MAPS_ACCESSES=20000 MAPS_DETERMINISTIC=1 \
    ./target/release/fig2 "--tsv=$farmd_dir/fig2.standalone.tsv"
run cmp "$farmd_dir/fig2.tsv" "$farmd_dir/fig2.standalone.tsv"
run ./target/release/maps-farm status --socket "$farmd_sock" \
    --campaign verify-smoke
kill "$farmd_pid" 2>/dev/null || true
wait "$farmd_pid" 2>/dev/null || true
rm -rf "$farmd_dir"

# Occupancy-channel smoke: a fig_occupancy campaign killed after three
# checkpointed points (exit-42 crash hook) and re-invoked must produce
# artifacts byte-identical to an uninterrupted run. JobKind::Occupancy
# synthesizes its tenant mix outside the capture memo, so its farm path
# gets its own gate (the full kill/resume matrix runs in
# crates/farm/tests/farm_resume.rs).
occ_ref=$(mktemp -d)
occ_victim=$(mktemp -d)
run env MAPS_ACCESSES=900 MAPS_DETERMINISTIC=1 \
    ./target/release/maps-farm run --figures fig_occupancy --workers 2 --dir "$occ_ref"
echo "==> crash fig_occupancy after 3 points (expect exit 42)"
rc=0
env MAPS_ACCESSES=900 MAPS_DETERMINISTIC=1 MAPS_CRASH_AFTER_POINTS=3 \
    ./target/release/maps-farm run --figures fig_occupancy --workers 2 --dir "$occ_victim" || rc=$?
[[ $rc -eq 42 ]] || { echo "expected crash-hook exit 42, got $rc"; exit 1; }
run env MAPS_ACCESSES=900 MAPS_DETERMINISTIC=1 \
    ./target/release/maps-farm run --figures fig_occupancy --workers 2 --dir "$occ_victim"
run cmp "$occ_ref/fig_occupancy.tsv" "$occ_victim/fig_occupancy.tsv"
run cmp "$occ_ref/fig_occupancy.manifest.json" "$occ_victim/fig_occupancy.manifest.json"
rm -rf "$occ_ref" "$occ_victim"

# Fault-injection smoke campaign: every seeded model fault (bit flips,
# replays, overflow storms) detected and localized, every seeded
# infrastructure fault (torn/corrupted artifacts, failed writes) turned
# into a typed error. Seed 5 matches the CI job for cross-checking the
# printed fingerprint.
run ./target/release/maps-inject --campaign smoke --seed 5

echo "verify: all checks passed"
