#!/bin/sh
# Repo health gate: build, tests, formatting (when the formatter is
# installed), and the scenario artifacts against their committed copies.
#
# Usage: tools/check.sh  (from anywhere inside the repo)
set -eu

cd "$(dirname "$0")/.."

echo "==> dune build"
dune build

echo "==> dune runtest"
dune runtest

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

# Native repetition: the native suite is where real preemption and the
# hardware memory model meet the schemes, so one clean pass proves
# little. Run it 10 times, each under a 60 s watchdog (a clean run takes
# a few seconds); any failure or hang fails the stage, naming the run
# and its last Alcotest line.
echo "==> native suite x10"
run=1
while [ "$run" -le 10 ]; do
  log="$tmpdir/native.$run.log"
  if timeout 60 _build/default/test/test_main.exe test native >"$log" 2>&1
  then :; else
    rc=$?
    last=$(grep -E '\[(OK|FAIL|ERROR)\]|[.][.][.]' "$log" | tail -n 1)
    if [ "$rc" -eq 124 ]; then why="timed out after 60 s"; else why="exit $rc"; fi
    echo "native suite: run $run of 10 $why; last test line: ${last:-none}"
    tail -n 30 "$log"
    exit 1
  fi
  run=$((run + 1))
done

if command -v ocamlformat >/dev/null 2>&1; then
  echo "==> dune build @fmt"
  dune build @fmt
else
  echo "==> skipping @fmt (ocamlformat not installed)"
fi

# Parallel-sweep determinism smoke: the micro grid, the open-loop
# service scenario (timers, sleepers, churn, the background reclaimer)
# and the churn scenario (session threads that join through [spawn_at],
# which [Scheduler.run] starts from its own frame), fanned out across 2
# worker domains, must write a byte-identical artifact AND byte-identical
# cache files — ~domains is an implementation detail, not an input. A
# simulated cell is charged on the domain that built it, so this is also
# where a structure built on one domain and run on another would show.
for kind in micro service churn; do
  echo "==> 2-domain $kind determinism smoke run"
  dune exec bin/figures.exe -- "$kind" \
    -o "$tmpdir/$kind.seq" --cache-dir "$tmpdir/$kind.seqcache" >/dev/null
  dune exec bin/figures.exe -- "$kind" --domains 2 \
    -o "$tmpdir/$kind.par" --cache-dir "$tmpdir/$kind.parcache" >/dev/null
  cmp "$tmpdir/$kind.seq/BENCH_$kind.json" "$tmpdir/$kind.par/BENCH_$kind.json" || {
    echo "domain smoke: parallel $kind artifact differs from sequential"; exit 1; }
  diff -r "$tmpdir/$kind.seqcache" "$tmpdir/$kind.parcache" >/dev/null || {
    echo "domain smoke: parallel $kind cache files differ from sequential"; exit 1; }
done

# Verdict scenarios: micro (every bench scheme has a run, each with a
# scheme-specific series), footprint (stalled Epoch's resident bytes at least
# double Hyaline-S's), churn (Hyaline's register/deregister costs nothing,
# every registration scheme pays, no orphan leaks), service (Hyaline-S
# keeps serving within the SLO while Epoch diverges or OOMs) and waitfree
# (Crystalline-W bounded in memory and per-op steps). Each driver writes
# its verdict envelope, re-reads it and exits non-zero unless the verdict
# holds. The first run over an empty cache must execute cells; a second
# run over the same cache must execute zero cells and reproduce the
# artifact byte for byte, certifying the hash -> store -> lookup ->
# deserialize loop. The fresh artifact must equal the committed
# BENCH_<kind>.json, so a change that moves a schedule cannot leave a
# stale artifact behind.
for kind in micro footprint churn service waitfree; do
  echo "==> $kind scenario"
  for pass in cold warm; do
    mkdir "$tmpdir/$kind.$pass"
    dune exec bin/figures.exe -- "$kind" --cache-dir "$tmpdir/$kind.cache" \
      -o "$tmpdir/$kind.$pass" >"$tmpdir/$kind.$pass.log" || {
      echo "$kind: $pass run failed its verdict or crashed"
      cat "$tmpdir/$kind.$pass.log"; exit 1; }
  done
  grep -q "executed=[1-9]" "$tmpdir/$kind.cold.log" || {
    echo "$kind: cold run executed nothing"
    cat "$tmpdir/$kind.cold.log"; exit 1; }
  grep -q "executed=0 .*(100% cached)" "$tmpdir/$kind.warm.log" || {
    echo "$kind: warm run was not fully cached"
    cat "$tmpdir/$kind.warm.log"; exit 1; }
  cmp "$tmpdir/$kind.cold/BENCH_$kind.json" "$tmpdir/$kind.warm/BENCH_$kind.json" || {
    echo "$kind: warm-cache artifact differs from cold"; exit 1; }
  cmp "$tmpdir/$kind.cold/BENCH_$kind.json" "BENCH_$kind.json" || {
    echo "$kind: committed BENCH_$kind.json is stale; regenerate it with:" \
      "dune exec bin/figures.exe -- $kind --no-cache -o ."
    exit 1; }
done

# Budgeted adversarial verification: the full scheme x structure matrix
# under sleep-set DFS, random walks and PCT, plus the stall-injection
# robustness probes — fixed seeds, smoke budgets (the whole sweep is a
# fraction of a second; the one-minute CI budget has two orders of
# magnitude of slack). Exits non-zero on any violation, which dumps a
# replayable trace file into $tmpdir for inspection before cleanup. The
# run is deterministic, so its report must equal the committed
# VERIFY_seed0.txt: a change that moves a schedule, a peak or a step
# bound cannot pass silently.
echo "==> verify smoke run"
dune exec bin/figures.exe -- verify --seed 0 --trace-dir "$tmpdir" \
  >"$tmpdir/verify.txt" || {
  echo "verify: a probe found a violation or the driver crashed"
  cat "$tmpdir/verify.txt"; exit 1; }
cat "$tmpdir/verify.txt"
cmp "$tmpdir/verify.txt" VERIFY_seed0.txt || {
  diff VERIFY_seed0.txt "$tmpdir/verify.txt" || true
  echo "verify: committed VERIFY_seed0.txt is stale; regenerate it with:" \
    "dune exec bin/figures.exe -- verify --seed 0 > VERIFY_seed0.txt"
  exit 1; }

# The wall-clock stage runs last: a timing miss on a shared or small
# machine then cannot hide the deterministic gates above.
#
# Native parity smoke: the full scheme x structure matrix on real OCaml 5
# domains (watchdog-guarded), then the pinned sim-vs-native ordering
# ladder. The driver exits non-zero unless its verdict holds: the native
# runtime reproduces the simulator's relative scheme ordering
# (separated-pair concordance + Leaky topping the peak-unreclaimed rank
# on both runtimes) and the artifact covers every scheme. Its body is
# wall-clock, so it is not compared with the committed BENCH_native.json.
echo "==> parity smoke run"
dune exec bin/figures.exe -- parity --domains 2 \
  --cache-dir "$tmpdir/cache" -o "$tmpdir" >"$tmpdir/parity.log" || {
  echo "parity smoke: verdict failed or driver crashed"
  cat "$tmpdir/parity.log"; exit 1; }

echo "==> all checks passed"
