#!/bin/sh
# CI entry point: build, run the test suites (sequential and parallel
# legs), then the telemetry smoke test (one query per experiment family
# with telemetry enabled; fails if any counter is absent or never
# incremented — see bench/main.ml).
set -eu

dune build
dune runtest
# Second leg: every engine default switches to 4 domains, so the whole
# suite re-runs on the parallel ingest/build/execute paths. test/dune
# declares (deps (env_var LH_DOMAINS)) so this is never a cache hit.
LH_DOMAINS=4 dune runtest
dune exec bench/main.exe -- --smoke
# lhserve pipe smoke: drive the line-protocol server end to end and diff
# the exact transcript — a pinned session keeps answering 4 from the
# retired epoch while the post-ingest epoch answers 10 (snapshot
# isolation), prepared exec binds $1, and a bad command yields a typed
# protocol error instead of killing the server.
lhserve_out=$(printf 'open\ningest t k:int:key,v:float\n0,1.5\n1,2.5\n.\nquery 0 select sum(v) as s from t\npin 0\ningest t k:int:key,v:float\n0,10\n.\nquery 0 select sum(v) as s from t\nepochs\nunpin 0\nquery 0 select sum(v) as s from t\nprepare 0 select sum(v) as s from t where k >= $1\nexec 1 0\nbogus\nclose 0\nstats\nquit\n' \
  | dune exec bin/lhserve.exe 2>/dev/null)
lhserve_want='ok session 0
ok epoch 1
ok epoch 1 rows 1
4
ok epoch 1
ok epoch 2
ok epoch 1 rows 1
4
ok epochs 2
2 0 live
1 1 retired
ok
ok epoch 2 rows 1
10
ok stmt 1
ok epoch 2 rows 1
10
error protocol: unknown command "bogus"
ok
ok sessions=0 inflight=0 epochs=1 current=2
ok bye'
if [ "$lhserve_out" != "$lhserve_want" ]; then
  echo "ci FAIL: lhserve transcript mismatch" >&2
  printf 'got:\n%s\n\nwant:\n%s\n' "$lhserve_out" "$lhserve_want" >&2
  exit 1
fi
echo "lhserve pipe smoke ok"
# Failed-ingest leg: the second publish probe fires, so "ingest u" fails.
# The writer's catalog changes only after every fallible step, so the
# next publish (of t) must not carry u along: u stays unknown, and the
# epoch ids stay contiguous.
fault_out=$(printf 'open\ningest t k:int:key,v:float\n0,1.5\n1,2.5\n.\ningest u k:int:key,v:float\n0,5\n1,10\n.\ningest t k:int:key,v:float\n0,10\n.\nquery 0 select sum(v) as s from u\nquit\n' \
  | LH_FAULT=epoch.publish:nth=2 dune exec bin/lhserve.exe 2>/dev/null)
fault_want='ok session 0
ok epoch 1
error engine: fault injected at site "epoch.publish"
ok epoch 2
error engine: unknown table "u"
ok bye'
if [ "$fault_out" != "$fault_want" ]; then
  echo "ci FAIL: lhserve failed-ingest transcript mismatch" >&2
  printf 'got:\n%s\n\nwant:\n%s\n' "$fault_out" "$fault_want" >&2
  exit 1
fi
echo "lhserve failed-ingest smoke ok"
# Durable lhserve smoke: two server runs over one --data-dir. Run 1
# ingests three epochs (checkpoint after the second, so recovery takes
# the checkpoint + a one-batch WAL suffix) and exits via the graceful
# "shutdown" verb; run 2 recovers the directory and must answer the
# last acknowledged state before any new ingest. stdout is diffed
# exactly; recovery chatter goes to stderr. The directory must then hold
# just the checkpoint and the WAL: recovery finds checkpoints by scan, so
# there is no index file, and nothing else may be left behind.
lh_data=$(mktemp -d)
durable_out1=$(printf 'open\ningest t k:int:key,v:float\n0,1.5\n1,2.5\n.\ningest t k:int:key,v:float\n0,4\n1,6\n.\ningest t k:int:key,v:float\n0,7\n1,3\n.\nquery 0 select sum(v) as s from t\nshutdown\n' \
  | dune exec bin/lhserve.exe -- --data-dir "$lh_data" --wal-sync always --checkpoint-every 2 2>/dev/null)
durable_want1='ok session 0
ok epoch 1
ok epoch 2
ok epoch 3
ok epoch 3 rows 1
10
ok bye'
durable_out2=$(printf 'open\nquery 0 select sum(v) as s from t\nquit\n' \
  | dune exec bin/lhserve.exe -- --data-dir "$lh_data" 2>/dev/null)
durable_want2='ok session 0
ok epoch 2 rows 1
10
ok bye'
durable_files=$(ls -A "$lh_data")
durable_files_want='ckpt-000000000002.lhc
wal.log'
rm -rf "$lh_data"
if [ "$durable_out1" != "$durable_want1" ] || [ "$durable_out2" != "$durable_want2" ]; then
  echo "ci FAIL: durable lhserve transcript mismatch" >&2
  printf 'run1 got:\n%s\n\nrun1 want:\n%s\n\nrun2 got:\n%s\n\nrun2 want:\n%s\n' \
    "$durable_out1" "$durable_want1" "$durable_out2" "$durable_want2" >&2
  exit 1
fi
if [ "$durable_files" != "$durable_files_want" ]; then
  echo "ci FAIL: durable data dir holds unexpected files" >&2
  printf 'got:\n%s\n\nwant:\n%s\n' "$durable_files" "$durable_files_want" >&2
  exit 1
fi
echo "lhserve durable restart smoke ok"
# Differential fuzzing leg: a pinned seed so CI is deterministic; raise
# LH_FUZZ_COUNT locally for a longer hunt. Exits non-zero on any
# discrepancy between the engine configurations, the pairwise baselines
# and the brute-force oracle (see bin/lhfuzz.ml and DESIGN.md).
dune exec bin/lhfuzz.exe -- --seed 42 --count "${LH_FUZZ_COUNT:-1000}" --quiet
# Semiring leg: the generator also draws MIN_PLUS / REACHES / agg('name')
# aggregates (argument shapes matched to each semiring's decomposition
# class), so the generalized fold kernels, the count-only-soundness
# gating and the streaming ⊕-repetition path are all differentially
# checked against the oracle's hardcoded (min,+)/(∨,∧) semantics.
dune exec bin/lhfuzz.exe -- --semiring --seed 42 --count "${LH_FUZZ_COUNT:-1000}" --quiet
# Seed 7 reaches a dense self-join whose one side keeps a single vertex
# after attribute elimination; it must not be dispatched as a gemv over a
# vector (the seed-42 leg never draws that shape).
dune exec bin/lhfuzz.exe -- --semiring --seed 7 --count 300 --quiet
# Layout-stress leg: the dataset gains three relations engineered to pin
# the set-kernel layout regimes (dense bitset roots, all-uint over a wide
# domain, dense-over-sparse) with leaf-unit tries, so generated joins
# exercise the count-only and streaming WCOJ leaves against the
# brute-force oracle, the reference every evaluator is checked against
# (see lib/qgen/dataset.ml).
dune exec bin/lhfuzz.exe -- --layout-stress --seed 42 --count "${LH_FUZZ_COUNT:-1000}" --quiet
# Same seed with the plan cache disabled: every query takes the same
# normalize -> plan -> bind path, but its plan is built per query and
# never cached, so a cache-keying or invalidation bug that the cached
# leg masks (stale plan reused across configs) shows up as a discrepancy.
LH_PLAN_CACHE=0 dune exec bin/lhfuzz.exe -- --seed 42 --count "${LH_FUZZ_COUNT:-1000}" --quiet
# Concurrent-sessions leg: reader domains issue generated ad-hoc and
# prepared queries through the epoch-pinned query service while a writer
# publishes new epochs mid-run; every query must be bit-identical to a
# sequential replay against the epoch it pinned (snapshot-consistency
# oracle; see lib/serve and lib/qgen/concurrent.ml). Run under both
# domain settings so view queries race parallel ingest-side builds too.
dune exec bin/lhfuzz.exe -- --concurrent --seed 42 --count 30 --domains 4 --ingests 4 --quiet
LH_DOMAINS=4 dune exec bin/lhfuzz.exe -- --concurrent --seed 42 --count 30 --domains 4 --ingests 4 --quiet
# Fault-injection legs: for every registered fault site, arm it (generic,
# timeout and OOM kinds), drive a workload into it, and require a typed
# error plus a bit-identical re-query on the same engine (crash-only
# recovery; see lib/fault and lib/qgen/crashtest.ml). LH_FAULT_COUNT
# bounds the per-site search for a reaching query. The LH_DOMAINS=4 leg
# additionally covers the pool worker capture/re-park path (pool.chunk is
# unreachable at domains=1 and excused there).
dune exec bin/lhfuzz.exe -- --inject-fault --seed 42 --attempts "${LH_FAULT_COUNT:-40}" --quiet
LH_DOMAINS=4 dune exec bin/lhfuzz.exe -- --inject-fault --seed 42 --attempts "${LH_FAULT_COUNT:-40}" --quiet
# The same sweep with the plan cache off: capacity 0 shares the cached
# path's prepare and bind sites, so they must recover here too. Only
# plan_cache.fill is unreachable (nothing is ever installed) and excused.
LH_PLAN_CACHE=0 dune exec bin/lhfuzz.exe -- --inject-fault --seed 42 --attempts "${LH_FAULT_COUNT:-40}" --quiet
# Kill-and-restart recovery leg: spawn real lhserve children, SIGKILL
# them mid-ingest at WAL/checkpoint fault sites (including torn-write
# variants, a kill between a checkpoint's install and its WAL reset, and
# kills during recovery itself), restart on the
# same --data-dir and require every acknowledged batch to be
# query-visible and bit-identical to a sequential oracle — unacked
# batches may be absent or complete, never partial. LH_KILL_COUNT
# scales the batches per scenario (default 6, minimum 4); pinned seed
# for CI. The second leg runs the minimum schedule, so every kill point
# stays reachable at the floor.
dune exec bin/lhfuzz.exe -- --kill-restart --seed 42 --quiet
LH_KILL_COUNT=4 dune exec bin/lhfuzz.exe -- --kill-restart --seed 42 --quiet
# Bench-baseline regression gate (see BENCH_27.json / EXPERIMENTS.md).
# Deterministic legs first: the baseline must compare clean against
# itself, and the gate must actually fire on a synthetic 3x slowdown.
dune exec bench/main.exe -- --compare BENCH_27.json --compare-with BENCH_27.json
if dune exec bench/main.exe -- --compare BENCH_27.json --compare-with BENCH_27.json --compare-slowdown 3 > /dev/null; then
  echo "ci FAIL: --compare accepted a 3x slowdown" >&2
  exit 1
fi
# EXPERIMENTS.md's Table II BI and LA subsections are generated from the
# baseline's cells; fail if the committed text drifted from them.
for block in table2-bi table2-la; do
  bench_report=$(dune exec bench/main.exe -- "$block" --report BENCH_27.json)
  bench_doc=$(sed -n "/^<!-- generated: bench $block --report BENCH_27.json -->\$/,/^<!-- end generated -->\$/p" EXPERIMENTS.md | sed '1d;$d')
  if [ "$bench_report" != "$bench_doc" ]; then
    echo "ci FAIL: EXPERIMENTS.md $block subsection differs from bench $block --report BENCH_27.json" >&2
    exit 1
  fi
done
# Live leg: re-run the baseline's experiment subset (now including the
# Table II BI and LA blocks, service-concurrency, set-layout kernel,
# semiring graph-iteration, durable ingest/recovery and epoch cells) on this
# machine and compare. Warn-only — shared CI runners are too noisy for a
# hard wall-clock gate; the comparison text still lands in the CI log.
if dune exec bench/main.exe -- table2-bi table2-la fig5a fig5c fig6 table4 repeated concurrency layouts graph durability epochs --sf 0.01 --runs 3 \
     --json /tmp/lh_bench_ci.json --compare BENCH_27.json > /tmp/lh_bench_ci.log 2>&1; then
  tail -n 1 /tmp/lh_bench_ci.log
else
  echo "ci warn: bench regressed vs BENCH_27.json (soft gate):" >&2
  grep -E '^(REGRESSION|baseline compare)' /tmp/lh_bench_ci.log >&2 || tail -n 20 /tmp/lh_bench_ci.log >&2
fi
