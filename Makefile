GO ?= go

.PHONY: check quick lint build test race bench chaos

# Full CI gate: vet, build, tests, -race on the fast-path and
# checkpoint-storage packages, and the allocation + recovery benchmarks
# (results folded into BENCH_fastpath.json / BENCH_recovery.json).
check:
	scripts/check.sh

# Fast inner-loop gate: vet/build/test only.
quick:
	scripts/check.sh --quick

# Static gates: gofmt, go vet, and the repo's own starfish-vet analyzers
# (pooled-buffer ownership, lock discipline, goroutine lifecycle, error
# drops on write paths, the //starfish:deterministic contract, global
# lock-acquisition order, and the event-kind registry), run as one
# interprocedural program. See DESIGN.md "Static invariants".
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/starfish-vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/wire/ ./internal/vni/ ./internal/mpi/
	$(GO) test -race ./internal/svm/ ./internal/ckpt/ ./internal/rstore/ ./internal/proc/ ./internal/apps/ ./internal/daemon/ ./internal/cluster/
	$(GO) test -race ./internal/gossip/ ./internal/lwg/ ./internal/gcs/ ./internal/evstore/

bench:
	$(GO) test -run XXX -bench 'BenchmarkWireCodec|BenchmarkFastPathRoundTrip' -benchmem -benchtime 2s .
	$(GO) test -run XXX -bench 'BenchmarkRecovery/' -benchmem -benchtime 1s .

# Chaos soak: the full fixed-seed fault matrix (kill, partition+heal, 5%
# control-plane loss, 100ms delay spikes) under -race, plus the chaosnet
# unit tests. `starfish-bench -fig 7f` produces BENCH_chaos.json.
chaos:
	$(GO) test -race -count 1 ./internal/chaosnet/
	$(GO) test -race -count 1 -v -run 'TestChaosSoak|TestChaosTransparentLayer' ./internal/cluster/
