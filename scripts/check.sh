#!/usr/bin/env bash
# check.sh — the repo's CI gate plus fast-path and recovery tracking.
#
#   vet + build + tests (-race on the fast-path and checkpoint-storage
#   packages), the allocation benchmarks (folded into BENCH_fastpath.json),
#   the recovery benchmarks (folded into BENCH_recovery.json, which
#   enforces the >=5x replicated-memory-vs-disk fetch bar at 8 MiB, a
#   whole restore's copy budget, a disk restore allocating <=1.1x its
#   image, and re-replication pushes <= copies lost), the
#   collective benchmarks (folded into BENCH_collectives.json, which
#   enforces >=3x on the 8 MiB / 8-rank Allreduce versus the seed
#   algorithm, with allocs/op no worse, and the 1 MiB / 4-rank Allreduce's
#   copy budget of exactly 1.5x its size per rank), and the checkpoint-pipeline
#   benchmarks (folded into BENCH_checkpoint.json, which enforces the >=5x
#   replicated-bytes reduction at 10% heap mutation, the >=5x
#   chain-restore-vs-disk bar, a delta epoch that beats the full-image
#   epoch in wall time while allocating <=1.25x the image size, and the
#   in-place epoch's bars: encode-dirty <=0.2x EncodeImage, a whole epoch
#   <=0.5x the full-image epoch and <=0.25x the image allocated, delta
#   replication <=0.105x the full-image path's bytes, and the SVM's decoded
#   interpreter >=1.8x the per-instruction reference on a 64-bit machine), and the
#   event-plane benchmarks (folded into
#   BENCH_events.json, which enforces >=100k records/s ingest, >=2x
#   indexed-query-vs-scan, and <=2% emitter overhead on the 64 KiB
#   fast-path round trip), and the control-plane benchmarks (folded into
#   BENCH_controlplane.json, which enforces the >=4x sharded-vs-single
#   sequencer bar on 8-app scoped-cast throughput, the O(1) gossip-load bar
#   — steady and while a death is being confirmed — and the
#   corroborated-detection-latency bars out to 1024 simulated nodes). The starfish-vet step also folds its run profile (packages,
#   functions summarized, findings by check, wall time) into BENCH_vet.json.
#
# Usage: scripts/check.sh [--quick]
#   --quick   skip -race and the benchmarks (vet/build/test only)
#
# Every stage runs to the end whatever the stages before it did: a failing bar
# must not hide the gates behind it, nor leave their BENCH_*.json stale. The names of the stages that failed are the last
# lines printed, and the exit status is non-zero if there are any.
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
[[ "${1:-}" == "--quick" ]] && QUICK=1

# Benchmark output handed from a benchmark stage to the stage that folds it.
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
# The fold stages' python imports scripts/benchfold.py.
export PYTHONPATH="$PWD/scripts${PYTHONPATH:+:$PYTHONPATH}" PYTHONDONTWRITEBYTECODE=1
VET_STATS=$TMP/vet_stats.json
BENCH_OUT=$TMP/fastpath.txt
RBENCH_OUT=$TMP/recovery.txt
CBENCH_OUT=$TMP/collectives.txt
KBENCH_OUT=$TMP/checkpoint.txt
EBENCH_OUT=$TMP/events.txt
PBENCH_OUT=$TMP/controlplane.txt

FAILED=()

# stage <name> runs the body defined just above it, under set -e in a subshell,
# and records the name if it failed. (Not `( … ) || …`: bash ignores set -e in
# a list whose status is tested.)
stage() {
    echo "== $1 =="
    set +e
    ( set -euo pipefail; body )
    local rc=$?
    set -e
    if [[ $rc -ne 0 ]]; then
        echo "== $1: FAILED =="
        FAILED+=("$1")
    fi
}

# verdict prints the failed stages, if any, as the last lines and exits.
verdict() {
    if [[ ${#FAILED[@]} -eq 0 ]]; then
        echo "check: all green"
        exit 0
    fi
    echo "check: ${#FAILED[@]} stage(s) failed:"
    printf '  %s\n' "${FAILED[@]}"
    exit 1
}

body() {
    FMT_OUT=$(gofmt -l .)
    if [[ -n "$FMT_OUT" ]]; then
        echo "gofmt -l reports unformatted files:"
        echo "$FMT_OUT"
        exit 1
    fi
}
stage "gofmt"

body() {
    go vet ./...
}
stage "go vet"

body() {
    go build ./...
}
stage "go build"

body() {
    # bench/ is a Go module of its own (the end-to-end benchmark the driver
    # builds from source), so the root ./... neither compiles nor tests it: an
    # API change that breaks it must fail here, not at the next benchmark run.
    if [[ $QUICK -eq 1 ]]; then
        (cd bench && GOWORK=off go build -o /dev/null ./...)
    else
        (cd bench && GOWORK=off go vet ./... && GOWORK=off go test ./...)
    fi
}
stage "bench-module"

body() {
    # The repo's own analyzers over one interprocedural program: pooled-buffer
    # ownership (poolcheck), lock discipline (lockcheck), goroutine lifecycle
    # (goleak), discarded errors (errdrop), the //starfish:deterministic
    # contract (detcheck), global lock-acquisition order (lockorder), and the
    # event-kind registry (evcheck). See DESIGN.md "Static invariants".
    # -stats folds the run profile into BENCH_vet.json below.
    go run ./cmd/starfish-vet -stats "$VET_STATS" ./...
}
stage "starfish-vet"

body() {
    # Fold the analyzer run profile (packages analyzed, functions summarized,
    # findings by check, wall time) into the "current" section of
    # BENCH_vet.json, keeping the checked-in reference run intact.
    python3 - "$VET_STATS" <<'EOF'
import json, sys

with open(sys.argv[1]) as f:
    current = json.load(f)

path = "BENCH_vet.json"
with open(path) as f:
    doc = json.load(f)
doc["current"] = current
with open(path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"updated {path}: {current['packages_analyzed']} packages, "
      f"{current['functions_summarized']} functions summarized, "
      f"{current['findings_total']} findings, {current['wall_ms']} ms")
EOF
}
stage "BENCH_vet.json"

body() {
    set +e
    SMOKE_OUT=$(go run ./cmd/starfish-vet -dir cmd/starfish-vet/testdata/smoke 2>&1)
    SMOKE_RC=$?
    set -e
    echo "$SMOKE_OUT"
    if [[ $SMOKE_RC -eq 0 ]]; then
        echo "smoke FAIL: starfish-vet exited 0 on seeded violations"
        exit 1
    fi
    for check in poolcheck lockcheck goleak errdrop detcheck lockorder evcheck; do
        if ! grep -q "\[$check\]" <<<"$SMOKE_OUT"; then
            echo "smoke FAIL: $check did not fire on its seeded violation"
            exit 1
        fi
    done
}
stage "starfish-vet smoke (seeded violations must still fire)"

body() {
    go test ./...
}
stage "go test"

if [[ $QUICK -eq 1 ]]; then
    echo "quick mode: skipping -race and benchmarks"
    verdict
fi

body() {
    go test -race ./internal/wire/ ./internal/vni/ ./internal/mpi/
    # A fastnet send delivers into the receiver's intake itself: ordering and
    # hand-over bugs there are timing-dependent, so run those tests 20 times.
    go test -race -count 20 -run 'TestPush|TestFastnetCrashUnblocksFullSink|TestFastnetConnsCostNoGoroutines|TestDeliverSwitch' ./internal/vni/
}
stage "go test -race (fast-path packages)"

body() {
    go test -race ./internal/svm/ ./internal/ckpt/ ./internal/rstore/ ./internal/proc/ ./internal/apps/ ./internal/daemon/ ./internal/cluster/
}
stage "go test -race (checkpoint-storage packages)"

body() {
    go test -race ./internal/gcs/ ./internal/gossip/ ./internal/lwg/
}
stage "go test -race (control-plane packages)"

body() {
    # Two seeds of the fault matrix under -race with reduced round counts
    # (-short): a rank-hosting node killed mid-run, then the same kill under 5%
    # control-plane loss. The full matrix (partitions, delay spikes) runs via
    # `make chaos`. The soak tests carry the shared goroutine-leak check.
    go test -race -short -count 1 -run 'TestChaosSoak/(kill|loss5pct)' ./internal/cluster/
}
stage "chaos soak (short, fixed seeds: kill + 5% loss)"

body() {
    go test -run XXX -bench 'BenchmarkWireCodec|BenchmarkFastPathRoundTrip' \
        -benchmem -benchtime 2s . | tee "$BENCH_OUT"
}
stage "allocation benchmarks"

body() {
    # Fold the benchmark lines into the "current" section of the JSON record,
    # keeping the checked-in pre-optimization baseline intact.
    python3 - "$BENCH_OUT" <<'EOF'
import json, sys
from benchfold import fold

current = fold(sys.argv[1], "BENCH_fastpath.json")

# Enforce the copy-budget acceptance bar against the recorded baseline.
with open("BENCH_fastpath.json") as f:
    base = json.load(f)["baseline"]["BenchmarkFastPathRoundTrip/size=64KB"]
cur = None
for k, v in current.items():
    if k.startswith("BenchmarkFastPathRoundTrip/size=64KB") and "naive" not in k:
        cur = v
if cur is None:
    sys.exit("missing BenchmarkFastPathRoundTrip/size=64KB result")
allocs_ok = cur["allocs_per_op"] <= 0.70 * base["allocs_per_op"]
copies_ok = cur["copied_B_per_op"] * 2 <= base["copied_B_per_op"]
print(f"allocs/op {cur['allocs_per_op']:.0f} vs baseline {base['allocs_per_op']:.0f} "
      f"({'ok' if allocs_ok else 'FAIL: need >=30% reduction'})")
print(f"copied-B/op {cur['copied_B_per_op']:.0f} vs baseline {base['copied_B_per_op']:.0f} "
      f"({'ok' if copies_ok else 'FAIL: need >=2x reduction'})")
# A halo-sized round trip is gated on the count that repeats exactly.
small = current.get("BenchmarkFastPathRoundTrip/size=8B")
if small is None:
    sys.exit("missing BenchmarkFastPathRoundTrip/size=8B result")
small_ok = small["allocs_per_op"] == 0
print(f"8 B round trip: {small['allocs_per_op']:.0f} allocs/op, {small['copied_B_per_op']:.0f} copied-B/op, "
      f"{small['ns_per_op']:.0f} ns ({'ok' if small_ok else 'FAIL: need 0 allocs/op'})")
if not (allocs_ok and copies_ok and small_ok):
    sys.exit(1)
EOF
}
stage "BENCH_fastpath.json"

body() {
    go test -run XXX -bench 'BenchmarkRecovery/' -benchmem -benchtime 1s . | tee "$RBENCH_OUT"
}
stage "recovery benchmarks"

body() {
    # Fold the recovery benchmark lines into BENCH_recovery.json and enforce
    # the replicated-memory acceptance bars: fetching an 8 MiB checkpoint from
    # a surviving RAM replica must be >=5x faster than the disk fetch; a whole
    # restore (Get, Decode, state split, App.Restore) may allocate <=1.25x its
    # 8 MiB state from local RAM and <=2.25x from a peer's (the application's
    # copy, plus the transport's); a disk restore may allocate <=1.1x the image
    # (the file read: a record carrying its whole image resolves to its own
    # blocks, never a copy); and a death may make the survivors push no more
    # images than it took copies.
    python3 - "$RBENCH_OUT" <<'EOF'
import sys
from benchfold import fold

current = fold(sys.argv[1], "BENCH_recovery.json")

disk = current.get("BenchmarkRecovery/backend=disk/size=8MB")
ram = current.get("BenchmarkRecovery/backend=rstore/size=8MB")
if disk is None or ram is None:
    sys.exit("missing BenchmarkRecovery disk/rstore results")
speedup = disk["ns_per_op"] / ram["ns_per_op"]
ok = speedup >= 5.0
print(f"rstore restore {ram['ns_per_op']:.0f} ns vs disk {disk['ns_per_op']:.0f} ns "
      f"= {speedup:.0f}x ({'ok' if ok else 'FAIL: need >=5x'})")
state = 8 << 20
disk_ratio = disk["B_per_op"] / state
fits = disk_ratio <= 1.1
ok = ok and fits
print(f"disk restore allocates {disk['B_per_op']:.0f} B/op = {disk_ratio:.3f}x the image "
      f"({'ok' if fits else 'FAIL: need <=1.1x'})")
for source, budget in (("local", 1.25), ("peer", 2.25)):
    e2e = current.get(f"BenchmarkRecovery/restore-e2e/source={source}")
    if e2e is None:
        sys.exit(f"missing BenchmarkRecovery restore-e2e/source={source} result")
    ratio = e2e["B_per_op"] / state
    fits = ratio <= budget
    ok = ok and fits
    print(f"restore-e2e from {source} RAM: {e2e['B_per_op']:.0f} B/op = {ratio:.2f}x state "
          f"({'ok' if fits else f'FAIL: need <={budget}x'})")
rr = current.get("BenchmarkRecovery/rereplicate-after-death")
if rr is None:
    sys.exit("missing BenchmarkRecovery rereplicate-after-death result")
fits = rr["pushed_images_per_op"] <= rr["lost_copies_per_op"]
ok = ok and fits
print(f"re-replication after a death: {rr['pushed_images_per_op']:.2f} images "
      f"({rr['pushed_B_per_op']:.0f} B) pushed for {rr['lost_copies_per_op']:.2f} copies lost "
      f"({'ok' if fits else 'FAIL: pushed more than was lost'})")
if not ok:
    sys.exit(1)
EOF
}
stage "BENCH_recovery.json"

body() {
    go test -run XXX -bench 'BenchmarkCollectives/' -benchmem -benchtime 1s ./internal/mpi/ | tee "$CBENCH_OUT"
}
stage "collective benchmarks"

body() {
    # Fold the collective benchmark lines into BENCH_collectives.json and
    # enforce the size-adaptive engine's acceptance bar: the 8 MiB Allreduce
    # at 8 ranks must run >=3x faster than the seed reduce-to-0-plus-bcast
    # algorithm without allocating more per operation. And the reduction
    # copy budget, a count that noise cannot move: the 1 MiB Allreduce at 4
    # ranks copies exactly 1.5x its size per rank.
    python3 - "$CBENCH_OUT" <<'EOF'
import sys
from benchfold import fold

current = fold(sys.argv[1], "BENCH_collectives.json")

seed = current.get("BenchmarkCollectives/op=allreduce/algo=seed/ranks=8/size=8MB")
opt = current.get("BenchmarkCollectives/op=allreduce/algo=opt/ranks=8/size=8MB")
if seed is None or opt is None:
    sys.exit("missing BenchmarkCollectives allreduce seed/opt results")
speedup = seed["ns_per_op"] / opt["ns_per_op"]
speed_ok = speedup >= 3.0
allocs_ok = opt["allocs_per_op"] <= seed["allocs_per_op"]
print(f"allreduce 8MB/8r: opt {opt['ns_per_op'] / 1e6:.1f} ms vs seed "
      f"{seed['ns_per_op'] / 1e6:.1f} ms = {speedup:.2f}x "
      f"({'ok' if speed_ok else 'FAIL: need >=3x'})")
print(f"allocs/op: opt {opt['allocs_per_op']:.0f} vs seed "
      f"{seed['allocs_per_op']:.0f} "
      f"({'ok' if allocs_ok else 'FAIL: must not regress'})")
budget = current.get("BenchmarkCollectives/op=allreduce/algo=opt/ranks=4/size=1MB")
if budget is None or "copy_B_per_op" not in budget:
    sys.exit("missing BenchmarkCollectives 1MB/4-rank allreduce copy_B/op")
want = 1.5 * (1 << 20) * 4
copy_ok = budget["copy_B_per_op"] == want
print(f"allreduce 1MB/4r copies: {budget['copy_B_per_op']:.0f} B/op, want "
      f"{want:.0f} = 1.5 x size x ranks ({'ok' if copy_ok else 'FAIL'})")
if not (speed_ok and allocs_ok and copy_ok):
    sys.exit(1)
EOF
}
stage "BENCH_collectives.json"

body() {
    # Re-run the analyzers scoped to the checkpoint-pipeline packages before
    # trusting their benchmark gate: the delta/dedup code paths hand pooled
    # frames across goroutines (poolcheck) and must not drop storage errors on
    # the replication path (errdrop).
    go run ./cmd/starfish-vet ./internal/ckpt/ ./internal/rstore/
}
stage "starfish-vet (checkpoint pipeline focus)"

body() {
    # -count=3 with min folding, as for the event plane: the wall-time gate
    # below compares two benchmarks run minutes apart on a shared host.
    # The root package has the pipeline and encoder benchmarks; internal/proc has
    # BenchmarkCheckpoint/mode=epoch, which drives the C/R module itself;
    # internal/svm has BenchmarkRunSteps, the interpreter a VM rank steps.
    go test -run XXX -bench 'BenchmarkCheckpoint/|BenchmarkEncodeImage/|BenchmarkEncodeDirty/|BenchmarkRunSteps/' -benchmem -benchtime 1s -count=3 . ./internal/proc/ ./internal/svm/ | tee "$KBENCH_OUT"
}
stage "checkpoint benchmarks"

body() {
    # Fold the checkpoint benchmark lines into BENCH_checkpoint.json and
    # enforce the incremental pipeline's acceptance bars: at 10% per-epoch heap
    # mutation the delta pipeline must push >=5x fewer bytes to the replica
    # than the opaque-image path, and restoring the newest epoch of a
    # full+delta chain from a surviving replica must be >=5x faster than the
    # disk full-image restore. A delta epoch at 10% mutation must also be cheaper
    # than the full-image epoch in wall time and allocate <=1.25x the image size
    # per epoch. The in-place epoch (ROADMAP item 1): re-encoding a tenth-dirty
    # heap into the image it already has must cost <=0.2x a full EncodeImage, and
    # a whole epoch of the C/R module over a write-tracking VM (mode=epoch:
    # snapshot in place, hinted put, replication, GC) must allocate <=0.25x the
    # image and run in <=0.5x the opaque full-image epoch's time. And the delta
    # pipeline's replicated bytes at 10% must stay <=0.105x the full-image
    # path's — a tenth of the blocks and their envelopes — so a format that
    # re-sends unchanged blocks on its full epochs fails here. And the SVM's
    # decoded interpreter must run the vmheap program >=1.8x as many
    # instructions per second as the per-instruction reference interpreter on a
    # 64-bit machine, both measured in this run.
    python3 - "$KBENCH_OUT" <<'EOF'
import sys
from benchfold import fold

current = fold(sys.argv[1], "BENCH_checkpoint.json", best_of_count=True)

full = current.get("BenchmarkCheckpoint/mode=full/mut=10")
delta = current.get("BenchmarkCheckpoint/mode=delta/mut=10")
if full is None or delta is None:
    sys.exit("missing BenchmarkCheckpoint full/delta mut=10 results")
reduction = full["replicated_B_per_op"] / delta["replicated_B_per_op"]
red_ok = reduction >= 5.0
print(f"replicated bytes/epoch at 10% mutation: delta "
      f"{delta['replicated_B_per_op']:.0f} B vs full "
      f"{full['replicated_B_per_op']:.0f} B = {reduction:.1f}x reduction "
      f"({'ok' if red_ok else 'FAIL: need >=5x'})")
resend_ok = delta["replicated_B_per_op"] <= 0.105 * full["replicated_B_per_op"]
print(f"delta replicates {1 / reduction:.3f}x the full-image path's bytes "
      f"({'ok' if resend_ok else 'FAIL: need <=0.105x'})")

chain = current.get("BenchmarkCheckpoint/restore=chain/size=8MB")
disk = current.get("BenchmarkCheckpoint/restore=disk/size=8MB")
if chain is None or disk is None:
    sys.exit("missing BenchmarkCheckpoint restore chain/disk results")
speedup = disk["ns_per_op"] / chain["ns_per_op"]
restore_ok = speedup >= 5.0
print(f"chain restore {chain['ns_per_op']:.0f} ns vs disk "
      f"{disk['ns_per_op']:.0f} ns = {speedup:.0f}x "
      f"({'ok' if restore_ok else 'FAIL: need >=5x'})")

ratio = delta["ns_per_op"] / full["ns_per_op"]
time_ok = ratio < 1.0
print(f"epoch wall time at 10% mutation: delta {delta['ns_per_op'] / 1e6:.2f} ms vs "
      f"full {full['ns_per_op'] / 1e6:.2f} ms = {ratio:.2f}x "
      f"({'ok' if time_ok else 'FAIL: need <1x'}; target <=0.5x "
      f"{'met' if ratio <= 0.5 else 'not met'})")
image = 8 << 20
alloc_ok = delta["B_per_op"] <= 1.25 * image
print(f"delta epoch allocates {delta['B_per_op'] / 1e6:.2f} MB/op for an "
      f"{image / 1e6:.2f} MB image ({'ok' if alloc_ok else 'FAIL: need <=1.25x'})")
for name in ("BenchmarkEncodeImage/arch=le64/size=8MB", "BenchmarkEncodeImage/arch=be32/size=8MB"):
    if name not in current:
        sys.exit(f"missing {name} results")
    print(f"{name}: {current[name]['ns_per_op'] / 1e6:.2f} ms")

def need(name):
    if name not in current:
        sys.exit(f"missing {name} results")
    return current[name]

encode = current["BenchmarkEncodeImage/arch=le64/size=8MB"]
for pct in (1, 10, 50, 100):
    d = need(f"BenchmarkEncodeDirty/arch=le64/mut={pct}")
    print(f"encode-dirty at {pct}% of the heap's chunks: {d['ns_per_op'] / 1e6:.3f} ms = "
          f"{d['ns_per_op'] / encode['ns_per_op']:.3f}x EncodeImage")
dirty = need("BenchmarkEncodeDirty/arch=le64/mut=10")
dirty_ok = dirty["ns_per_op"] <= 0.2 * encode["ns_per_op"]
print(f"encode-dirty/mut=10 vs EncodeImage: {'ok' if dirty_ok else 'FAIL: need <=0.2x'}")
for pct in (1, 50):
    e = need(f"BenchmarkCheckpoint/mode=epoch/mut={pct}")
    print(f"in-place epoch at {pct}%: {e['ns_per_op'] / 1e6:.2f} ms, {e['B_per_op'] / 1e6:.2f} MB/op")
epoch = need("BenchmarkCheckpoint/mode=epoch/mut=10")
eratio = epoch["ns_per_op"] / full["ns_per_op"]
etime_ok = eratio <= 0.5
print(f"in-place epoch at 10%: {epoch['ns_per_op'] / 1e6:.2f} ms = {eratio:.2f}x the full-image epoch "
      f"({'ok' if etime_ok else 'FAIL: need <=0.5x'})")
aratio = epoch["B_per_op"] / image
ealloc_ok = aratio <= 0.25
print(f"in-place epoch at 10% allocates {epoch['B_per_op'] / 1e6:.2f} MB/op = {aratio:.3f}x the image "
      f"({'ok' if ealloc_ok else 'FAIL: need <=0.25x'})")
for arch in ("le64", "le32"):
    ref = need(f"BenchmarkRunSteps/interp=ref/arch={arch}")["Minstr_s"]
    fast = need(f"BenchmarkRunSteps/interp=fast/arch={arch}")["Minstr_s"]
    print(f"svm interpreter on {arch}: {fast:.0f} vs reference {ref:.0f} Minstr/s = {fast / ref:.2f}x")
    if arch == "le64":
        interp_ok = fast >= 1.8 * ref
        print(f"decoded interpreter vs reference on le64: {'ok' if interp_ok else 'FAIL: need >=1.8x'}")
if not (red_ok and resend_ok and restore_ok and time_ok and alloc_ok and dirty_ok and etime_ok and ealloc_ok and interp_ok):
    sys.exit(1)
EOF
}
stage "BENCH_checkpoint.json"

body() {
    # Re-run the analyzers scoped to the event-plane packages before trusting
    # their benchmark gate: the store runs a standby drain goroutine and the
    # mgmt server spawns one tail streamer per client (goleak), and the Emit
    # fast path manipulates the store mutex by hand via TryLock (lockcheck).
    go run ./cmd/starfish-vet ./internal/evstore/ ./internal/mgmt/
}
stage "starfish-vet (event plane focus)"

body() {
    # -count=3: the gates below fold the min per sub-benchmark, because
    # run-to-run scheduler noise on a single-core box exceeds the margins
    # being enforced.
    go test -run XXX -bench 'BenchmarkEvents/' -benchmem -benchtime 1s -count=3 . | tee "$EBENCH_OUT"
}
stage "event-plane benchmarks"

body() {
    # Fold the event-plane benchmark lines (min over the 3 runs of each
    # sub-benchmark) into BENCH_events.json and enforce the event-plane
    # acceptance bars: ingest sustains >=100k records/s, sealed-chunk index
    # pruning beats a forced full scan >=2x on a sparse query, and the emitter
    # costs the 64 KiB fast path <=2% at one record per 64 round trips —
    # gated as emit/64 against the plain round trip (a direct measurement;
    # differencing two ~4us round-trip timings is noisier than the 2% budget),
    # with the measured A/B pair as a coarse <=10% tripwire that would catch
    # an emit path that blocks or fires per message.
    python3 - "$EBENCH_OUT" <<'EOF'
import sys
from benchfold import fold

current = fold(sys.argv[1], "BENCH_events.json", best_of_count=True)

def need(name):
    entry = current.get(name)
    if entry is None:
        sys.exit(f"missing {name} results")
    return entry

ingest = need("BenchmarkEvents/ingest")
ingest_ok = ingest["ns_per_op"] <= 10_000
print(f"ingest {ingest['ns_per_op']:.0f} ns/record = "
      f"{1e9 / ingest['ns_per_op'] / 1e3:.0f}k records/s "
      f"({'ok' if ingest_ok else 'FAIL: need >=100k records/s'})")

indexed = need("BenchmarkEvents/query=indexed")
scan = need("BenchmarkEvents/query=scan")
speedup = scan["ns_per_op"] / indexed["ns_per_op"]
query_ok = speedup >= 2.0
print(f"sparse query over 120k records: indexed {indexed['ns_per_op']:.0f} ns "
      f"vs scan {scan['ns_per_op']:.0f} ns = {speedup:.1f}x "
      f"({'ok' if query_ok else 'FAIL: need >=2x'})")

emit = need("BenchmarkEvents/emit")
plain = need("BenchmarkEvents/fastpath=plain/size=64KB")
events = need("BenchmarkEvents/fastpath=events/size=64KB")
per_rt = emit["ns_per_op"] / 64
overhead = per_rt / plain["ns_per_op"]
emit_ok = overhead <= 0.02
print(f"emitter on 64KiB fastpath: {emit['ns_per_op']:.0f} ns/emit / 64 = "
      f"{per_rt:.1f} ns/round-trip = {overhead * 100:.2f}% of plain "
      f"{plain['ns_per_op']:.0f} ns ({'ok' if emit_ok else 'FAIL: need <=2%'})")
ab = events["ns_per_op"] / plain["ns_per_op"]
ab_ok = ab <= 1.10
print(f"fastpath A/B tripwire: events {events['ns_per_op']:.0f} ns vs plain "
      f"{plain['ns_per_op']:.0f} ns = {(ab - 1) * 100:+.1f}% "
      f"({'ok' if ab_ok else 'FAIL: emit path is blocking the data path'})")
if not (ingest_ok and query_ok and emit_ok and ab_ok):
    sys.exit(1)
EOF
}
stage "BENCH_events.json"

body() {
    # Re-run the analyzers scoped to the sharded control plane before trusting
    # its benchmark gate: the per-group engines multiplex gossip payloads over
    # pooled wire buffers (poolcheck), the router spawns one lifecycle
    # goroutine per group stream (goleak), and the engine tick paths take the
    # endpoint mutex by hand (lockcheck).
    go run ./cmd/starfish-vet ./internal/gossip/ ./internal/gcs/ ./internal/lwg/
}
stage "starfish-vet (control plane focus)"

body() {
    # Fixed iteration counts: the cast pair re-forms a 32-endpoint group per
    # invocation (adaptive b.N ramping would re-pay that setup several times),
    # and the gossip sims are deterministic so one virtual-time run per count
    # is exact. -count=3 with min folding, as for the event plane.
    go test -run XXX -bench 'BenchmarkControlPlane/casts=' -benchtime 100x -count=3 . | tee "$PBENCH_OUT"
    go test -run XXX -bench 'BenchmarkControlPlane/gossip/' -benchtime 1x -count=3 . | tee -a "$PBENCH_OUT"
}
stage "control-plane benchmarks"

body() {
    # Fold the control-plane benchmark lines (min over the 3 runs of each
    # sub-benchmark) into BENCH_controlplane.json and enforce the sharding
    # acceptance bars: per-group sequencers beat the single shared sequencer
    # >=4x on 8-app scoped-cast throughput; gossip failure-detection load is
    # O(1) per node per round out to 1024 simulated nodes, steady and during a
    # kill; and confirmed-dead latency stays <=0.6x the old fixed-timer figures,
    # with 1024 nodes within the rumor-spread log factor of 64.
    python3 - "$PBENCH_OUT" <<'EOF'
import sys
from benchfold import fold

current = fold(sys.argv[1], "BENCH_controlplane.json", best_of_count=True)

def need(name):
    entry = current.get(name)
    if entry is None:
        sys.exit(f"missing {name} results")
    return entry

single = need("BenchmarkControlPlane/casts=single/apps=8")
sharded = need("BenchmarkControlPlane/casts=sharded/apps=8")
speedup = single["ns_per_op"] / sharded["ns_per_op"]
speed_ok = speedup >= 4.0
print(f"8-app scoped casts: sharded {sharded['ns_per_op'] / 1e3:.0f} us vs "
      f"single-sequencer {single['ns_per_op'] / 1e3:.0f} us = {speedup:.2f}x "
      f"({'ok' if speed_ok else 'FAIL: need >=4x'})")

g64 = need("BenchmarkControlPlane/gossip/nodes=64")
g256 = need("BenchmarkControlPlane/gossip/nodes=256")
g1024 = need("BenchmarkControlPlane/gossip/nodes=1024")
# Steady state: exactly one ping and one ack per node per round at any
# size. Between a kill and the last verdict the accusations, pushed verdicts
# and their acks come on top, and must stay a bounded extra.
load_ok = all(g["msgs_node_round"] <= 2.0 and g["kill_msgs_node_round"] <= 8.0
              for g in (g64, g256, g1024))
print(f"gossip load: {g64['msgs_node_round']:.1f} msgs/node/round at 64 nodes, "
      f"{g1024['msgs_node_round']:.1f} at 1024; while a death is confirmed "
      f"{g64['kill_msgs_node_round']:.2f} / {g256['kill_msgs_node_round']:.2f} / "
      f"{g1024['kill_msgs_node_round']:.2f} at 64 / 256 / 1024 "
      f"({'ok' if load_ok else 'FAIL: need 2.0 in steady state and <=8 averaged over the rounds of a kill'})")

# Corroborated suspicion: confirmed-dead latency must stay at or under 0.6x
# what the fixed SuspectAfter timer took (350 / 375 / 375 virtual ms).
fixed_timer_ms = {64: 350.0, 256: 375.0, 1024: 375.0}
detect_ok = g1024["detect_ms"] <= 4.0 * g64["detect_ms"]
for nodes, g in ((64, g64), (256, g256), (1024, g1024)):
    detect_ok = detect_ok and g["detect_ms"] <= 0.6 * fixed_timer_ms[nodes]
print(f"confirmed-dead latency: {g64['detect_ms']:.0f} / {g256['detect_ms']:.0f} / "
      f"{g1024['detect_ms']:.0f} ms at 64 / 256 / 1024 nodes "
      f"({'ok' if detect_ok else 'FAIL: need <=0.6x the fixed-timer 350 / 375 / 375 ms, and 1024 nodes <=4x the 64-node figure'})")
if not (speed_ok and load_ok and detect_ok):
    sys.exit(1)
EOF
}
stage "BENCH_controlplane.json"

verdict
