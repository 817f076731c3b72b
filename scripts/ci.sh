#!/usr/bin/env bash
# CI gate: tier-1 build+test, formatting, and lints.
#
#   scripts/ci.sh          # run everything
#
# Tier-1 (the hard gate) is the root package's release build and test
# suite; the workspace tests, rustfmt, and clippy guard the rest.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: release build =="
cargo build --release

echo "== tier-1: root package tests =="
cargo test -q

echo "== workspace tests =="
cargo test --workspace -q

echo "== simd dispatch: full suite under forced-scalar =="
# The workspace run above used the best native target (AVX2+FMA here);
# this rerun pins every kernel to the portable scalar backend. Both runs
# must pass the same bit-identity suites — together with the in-process
# cross-target tests in crates/core/tests/simd_identity.rs this checks
# the dispatch override end to end.
LOF_FORCE_SCALAR=1 cargo test --workspace -q

echo "== parallel tree joins: identity under every dispatch target =="
# The kd join evaluates each candidate leaf as a lane-parallel tile of
# exact distances: 4 lanes on AVX2, 2 on SSE2/NEON, 1 on the scalar
# path. The lane width follows the target; the bits must not. kd and
# ball build_table_parallel must equal the serial scan table under each.
#
# The top-n geometry identity suite rides along: partition radii and
# rank profiles against brute force, the recorded digest of a capped
# cover, and the kd range pass and k-distance descents against the scan.
# So does the misleading-isolation fixture, whose seed scores only
# inliers: the batched k-distances score gathered candidates as one
# lane-parallel tile, so its ranking must not move under any target.
for target in "" "LOF_FORCE_SCALAR=1" "LOF_SIMD=sse2"; do
  echo "-- dispatch: ${target:-native}"
  env $target cargo test -q -p lof-index --test batch_consistency parallel_tree_tables
  env $target cargo test -q --test parallel_materialize
  env $target cargo test -q --test topn_geometry_identity
  env $target cargo test -q --test topn_misleading_isolation
done

echo "== streaming subsystem: build + tests + serve integration =="
cargo build -p lof-stream
cargo test -p lof-stream -q
cargo test -p lof-serve --test server -q

echo "== streaming: window == batch oracle under forced-scalar =="
# Every emitted window score (and, every few events, every held score)
# == the batch LOF of the live window, bit for bit — slide and landmark
# windows, duplicates and tie shells, eviction storms, snapshot ->
# restore (the retired sharded/eager layout included). The window's SIMD surrogate
# prefilter runs on every insert, so rerun it pinned to scalar (tier-1
# runs it natively).
LOF_FORCE_SCALAR=1 cargo test -q --test stream_identity

echo "== observability: instrumented crates with obs compiled OFF =="
# The whole stack must stay green when instrumentation compiles to
# no-ops (`--no-default-features`): counters read zero, spans vanish,
# and the differential suites' gated assertions sit out.
cargo test -q -p lof-obs -p lof-core -p lof-index -p lof-stream --no-default-features

echo "== observability: serve metrics smoke =="
# End to end through the real release binary: start `lof serve`, pump a
# few events, and check the in-band GET /metrics answer carries the
# serve counters in Prometheus text form.
cargo build --release -q -p lof-cli
./target/release/lof serve --listen 127.0.0.1:0 --minpts 2 --capacity 16 --metrics \
  2>/tmp/lof_ci_serve.err &
SERVE_PID=$!
trap 'kill $SERVE_PID 2>/dev/null || true' EXIT
for _ in $(seq 1 50); do
  ADDR=$(sed -n 's/^listening on \([0-9.:]*\) .*/\1/p' /tmp/lof_ci_serve.err)
  [ -n "$ADDR" ] && break
  sleep 0.1
done
[ -n "$ADDR" ] || { echo "serve did not come up"; exit 1; }
timeout 15 bash -c '
  exec 3<>"/dev/tcp/${1%:*}/${1##*:}"
  printf "1,2\n2,3\n3,4\nGET /metrics\n" >&3
  while IFS= read -r line <&3; do
    echo "$line"
    [ "$line" = "# EOF" ] && break
  done
' _ "$ADDR" > /tmp/lof_ci_serve.out
kill $SERVE_PID 2>/dev/null || true
trap - EXIT
grep -q 'lof_serve_events_in 3' /tmp/lof_ci_serve.out
grep -q '# EOF' /tmp/lof_ci_serve.out
echo "serve metrics smoke OK"

echo "== release smoke: lof stream == lof stream under forced-scalar =="
# End to end through the real release binary: the same event file must
# produce identical records natively and with every kernel pinned to
# scalar — only the wall-clock latency field may differ, so it is cut.
awk 'BEGIN{srand(7);for(i=0;i<400;i++)printf "%.3f,%.3f\n",(i%19)*0.5+rand(),(i%23)*0.4+rand()}' \
  > /tmp/lof_ci_stream_events.csv
./target/release/lof stream --minpts 5 --capacity 64 --threshold 1.5 --topk 3 \
  /tmp/lof_ci_stream_events.csv | sed 's/,"latency_us":.*//' > /tmp/lof_ci_stream_native.txt
LOF_FORCE_SCALAR=1 ./target/release/lof stream --minpts 5 --capacity 64 --threshold 1.5 --topk 3 \
  /tmp/lof_ci_stream_events.csv | sed 's/,"latency_us":.*//' > /tmp/lof_ci_stream_scalar.txt
[ "$(grep -c '"type":"score"' /tmp/lof_ci_stream_native.txt)" -eq 400 ]
cmp /tmp/lof_ci_stream_native.txt /tmp/lof_ci_stream_scalar.txt
echo "stream dispatch differential OK"

echo "== release smoke: serve saturation (event loop, 64 clients) =="
# bench_serve aborts on any dropped or rejected event, on an unclean
# drain, and if the kill -> restore-from-snapshot path diverges from an
# uninterrupted in-process window. 64 pipelined clients here; the full
# matrix (256/1024 conns) runs in the benchmark proper.
BENCH_SERVE_CONNS=64 \
  BENCH_SERVE_OUT=/tmp/lof_ci_bench_serve.json \
  cargo run --release -q -p lof-bench --bin bench_serve

echo "== topn: fixed-seed differential + forced-scalar rerun =="
# The bound-driven engine must stay bit-identical to the sorted full
# sweep on every index, cover, metric, and thread count — and again with
# the SIMD kernels pinned to scalar, since refinement runs per-id k-NN
# queries through the same kernels. topn_exactly_once pins the shared
# store (no id's k-distance is answered twice, and no id gets a second
# range pass, at 1/2/4 threads); k_distance_identity pins the provider
# identities the store relies on (the per-id k-distance == the
# neighborhood's last distance, within at it == the neighborhood, and
# on kd and ball every gathered batch == the per-id answers) for every
# index and every metric `lof topn` offers; the envelope unit tests pin
# the threaded passes to the serial ones, the one-traversal k-distance
# bounds to the two-pass oracle, bit for bit, and the θ-aware passes to
# sound bounds that prune what full tightness prunes. topn_contamination pins sprawl splitting on a fixture where about
# half the kd leaves hold an outlier (the engine must still prune), and
# lof-index's common::tests pin the bisected cover itself (exact,
# disjoint, ascending, every piece within the sprawl threshold, cluster
# neighbors never torn apart). The CLI suite covers the `lof topn`
# surface on top.
cargo test -q --test topn_differential
cargo test -q --test topn_exactly_once
cargo test -q --test topn_contamination
cargo test -q -p lof-index --lib common::tests
cargo test -q --test theorem2_leaf_straddle
cargo test -q -p lof-index --test k_distance_identity
cargo test -q -p lof-core --lib topn::envelope
cargo test -q -p lof-cli topn
LOF_FORCE_SCALAR=1 cargo test -q --test topn_differential
LOF_FORCE_SCALAR=1 cargo test -q --test topn_exactly_once
LOF_FORCE_SCALAR=1 cargo test -q --test topn_contamination
LOF_FORCE_SCALAR=1 cargo test -q -p lof-index --lib common::tests
LOF_FORCE_SCALAR=1 cargo test -q -p lof-index --test k_distance_identity
LOF_FORCE_SCALAR=1 cargo test -q -p lof-core --lib topn::envelope

echo "== release smoke: topn pruning vs full sweep at n=20000 =="
# bench_topn aborts unless the pruned top-100 ranking is bit-identical
# to the full sweep's on every timed 1-thread and nproc run — a
# release-optimized end-to-end gate over partition envelopes, θ-pruning,
# and refinement. It also aborts if the engine prunes no partition, and,
# with nproc >= 2, unless the nproc engine cell is at least 1.3x the
# 1-thread cell.
LOF_TOPN_POINTS=20000 \
  BENCH_TOPN_OUT=/tmp/lof_ci_bench_topn.json \
  cargo run --release -q -p lof-bench --bin bench_topn

echo "== release smoke: batch join + sweep bit-identity at n=2000 =="
# bench_materialize aborts on any bit divergence between the brute scan,
# the per-query tree searches, the leaf-blocked batch joins, and the
# single-pass MinPts sweep — a cheap end-to-end gate over the real
# release-optimized binaries.
LOF_MATERIALIZE_N=2000 \
  BENCH_MATERIALIZE_OUT=/tmp/lof_ci_bench_materialize.json \
  LOF_RESULTS=/tmp \
  LOF_OOC_N=20000 \
  cargo run --release -q -p lof-bench --bin bench_materialize
# LOF_OOC_N adds a small out-of-core tier on top: .lofd write -> mmap ->
# kd self-join -> disk-spilled table under a tiny budget; the binary
# aborts unless the budget forces real spilling, the spilled scores
# are bit-identical to the in-RAM pipeline, AND each segment is read at
# most 3 x ceil(|range| / columns_per_wave) times.

echo "== out-of-core: spilled sweep identity + reload schedule =="
# The spilled table scores through the in-RAM sweep's stage functions;
# it must equal the per-MinPts reference bit for bit in every budget
# regime (one column per wave, several, whole table resident) and read
# each segment exactly 3 x ceil(|range| / columns_per_wave) times per
# call (once, ever, when resident) — natively and on the scalar kernels.
cargo test -q --test ooc_sweep_identity
LOF_FORCE_SCALAR=1 cargo test -q --test ooc_sweep_identity

echo "== out-of-core: ingest round-trip smoke =="
# CSV -> `lof ingest` -> .lofd -> batch scores must equal the CSV path's
# scores byte for byte (the f64 Display round-trip makes the score CSVs
# a bit-exact comparison).
awk 'BEGIN{srand(3);print "x,y,noise";for(i=0;i<300;i++)printf "%.4f,%.4f,%d\n",(i%17)*0.7+rand(),(i%13)*0.9+rand(),i%5}' \
  > /tmp/lof_ci_ooc_input.csv
rm -f /tmp/lof_ci_ooc.lofd
./target/release/lof ingest --columns x,y /tmp/lof_ci_ooc_input.csv /tmp/lof_ci_ooc.lofd
./target/release/lof --minpts 5..10 --columns 0,1 --output /tmp/lof_ci_ooc_csv_scores.csv \
  /tmp/lof_ci_ooc_input.csv > /dev/null
./target/release/lof --minpts 5..10 --output /tmp/lof_ci_ooc_lofd_scores.csv \
  /tmp/lof_ci_ooc.lofd > /dev/null
cmp /tmp/lof_ci_ooc_csv_scores.csv /tmp/lof_ci_ooc_lofd_scores.csv
echo "ingest round-trip OK"

echo "== out-of-core: spill-forced batch run =="
# A 16 KiB resident budget over the same input forces the neighborhood
# table onto disk; the run must still score bit-identically and the
# core.ooc.* counters must show real segment spills.
./target/release/lof --minpts 5..10 --memory-budget 16k --metrics \
  --output /tmp/lof_ci_ooc_spill_scores.csv /tmp/lof_ci_ooc.lofd \
  > /dev/null 2> /tmp/lof_ci_ooc_spill.err
cmp /tmp/lof_ci_ooc_csv_scores.csv /tmp/lof_ci_ooc_spill_scores.csv
SPILLS=$(sed -n 's/^lof_core_ooc_segment_spills \([0-9][0-9]*\)$/\1/p' /tmp/lof_ci_ooc_spill.err)
[ -n "$SPILLS" ] && [ "$SPILLS" -gt 1 ] \
  || { echo "expected >1 segment spills, got '${SPILLS:-none}'"; exit 1; }
echo "spill-forced run OK ($SPILLS segment spills)"

echo "== rustfmt =="
cargo fmt --check

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "CI OK"
