# Developer entry points. `make verify` is what CI runs.

GO ?= go

.PHONY: build test race vet fmt lint verify bench-smoke failover-smoke placer-smoke cluster-smoke chaos-smoke gray-smoke objsim-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# staticcheck when available (CI installs it); plain vet otherwise so the
# target works on machines without network access.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; falling back to go vet"; \
		$(GO) vet ./...; \
	fi

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

verify: fmt vet build race

# One iteration of every benchmark in the tree (keeps benchmarks from
# bit-rotting), then the repository benchmark (perfbench/, declared by
# BENCHMARK.json; a nested module the root `go test ./...` skips): its
# self-test, and a one-second run of each workload that must end with every
# unit correct and none failed. Catches internal API changes that would break
# the benchmark build (CI runs this).
bench-smoke:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...
	cd perfbench && $(GO) test ./...
	@for w in tiny-flood objstore-k64 cluster-400 iser-fio; do \
		last=$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0 | tail -n 1); \
		echo "$$w: $$last"; \
		case "$$last" in *'"correct":true'*'"failed":0,'*) ;; \
		*) echo "bench-smoke: $$w did not finish correct with zero failed units"; exit 1 ;; esac; \
	done

# Two seeded rail-failover runs through the CLI: a permanent rail kill
# plus silent corruption, with checksums on. Exercises migration,
# rebalance and the integrity plane end to end (CI runs this).
failover-smoke:
	$(GO) run ./cmd/xfersched -jobs 8 -seed 3 -gridftp 0 -kill-rail roce1@2 -corrupt 2 -checksum
	$(GO) run ./cmd/xfersched -jobs 10 -seed 11 -gridftp 0 -kill-rail roce2@1.5 -corrupt 3 -corruptseed 5 -checksum

# Adaptive-placement gate: the placer and scheduler test suites under the
# race detector, then the full S4 experiment, whose acceptance checks
# (auto ≥ 95% of bind, beats every static policy post-kill, bit-identical
# replay, bounded migrations) panic on violation (CI runs this).
placer-smoke:
	$(GO) test -race ./internal/placer ./internal/xfersched
	$(GO) run ./cmd/e2ebench -run S4

# Cluster determinism gate: 100 hosts, 500 tenants, 5% control-plane drop,
# fixed seed, run twice inside the CLI — exits non-zero unless both traces
# hash bit-identically (CI runs this).
cluster-smoke:
	$(GO) test -race ./internal/cluster ./internal/fabric
	$(GO) run ./cmd/xfersched -cluster -hosts 100 -ctenants 500 -drop 5 -seed 7 -replay-check

# Cluster failure-domain gate: the chaos determinism suites under the race
# detector, then a 100-host run through the CLI with a host crash-stop, a
# leader-controller kill and a control-plane partition — the process exits
# non-zero unless delivery is exactly-once, no shard stays degraded, and a
# second same-seed run hashes bit-identically (CI runs this).
chaos-smoke:
	$(GO) test -race -run 'Chaos|Lease|Crash|Partition|GivesUp|LeaderKill' ./internal/cluster ./internal/faults
	$(GO) run ./cmd/xfersched -cluster -hosts 100 -shards 8 -ctenants 400 -cjobs 1200 -drop 2 -seed 7 \
		-kill-host 7@8+8 -kill-ctrl 0@15 -partition 5,6,7@20+6 -replay-check

# Gray-failure gate: the gray/hedge/shed suites under the race detector,
# then the full S7 experiment — its acceptance checks (detection fires on a
# sagging rail, hedged goodput ≥90% of healthy while the no-mitigation
# ablation collapses ≤60%, bounded detection latency, bit-identical replay)
# panic on violation — and finally two CLI drives: a single-pair sag with
# hedging (exits non-zero unless every job delivers) and a cluster host
# limp under the shed valve with the replay-hash check (CI runs this).
gray-smoke:
	$(GO) test -race -run 'Gray|Hedge|Suspect|Shed|Limp|Window|Validate' \
		./internal/faults ./internal/railmgr ./internal/rftp \
		./internal/metrics ./internal/xfersched ./internal/cluster
	$(GO) run ./cmd/e2ebench -run S7
	$(GO) run ./cmd/xfersched -jobs 10 -seed 3 -gridftp 0 -gray roce1@2:0.7 -hedge
	$(GO) run ./cmd/xfersched -cluster -hosts 16 -shards 2 -ctenants 32 -cjobs 120 \
		-gray 3@8+6:0.95 -shed -replay-check

# Object-gateway gate: the objstore suites (key/multipart parsing, zero-
# length objects, coalescing windows, 20-seed determinism) plus the batch
# and tiny-job suites under the race detector, then objsim drives both
# modes with the replay-hash check — per-object worst case, coalesced, and
# the sharded cluster under lossy control (CI runs this).
objsim-smoke:
	$(GO) test -race ./internal/objstore
	$(GO) test -race -run 'Batch|TinyJobs|ZeroLength|Grace' ./internal/rftp ./internal/xfersched
	$(GO) run ./cmd/objsim -coalesce 1 -objects 256 -replay-check
	$(GO) run ./cmd/objsim -coalesce 64 -replay-check
	$(GO) run ./cmd/objsim -cluster -objects 512 -coalesce 64 -replay-check
