# Developer entry points. `make verify` is what CI runs.

GO ?= go

.PHONY: build test race vet fmt lint loc reach verify bench-smoke failover-smoke placer-smoke cluster-smoke solver-smoke chaos-smoke gray-smoke objsim-smoke

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

# Non-test Go lines under internal/ and cmd/ — the size measure ROADMAP
# item 5 and CHANGES.md cite.
loc:
	@find internal cmd -name '*.go' ! -name '*_test.go' | xargs cat | wc -l

# Functions under internal/ that no production driver reaches: the
# experiments' and CLIs' tests run with coverage over internal/, and every
# function at 0.0% is listed. The profile goes to the temp directory. The
# list is a report for finding unreached code; it gates nothing.
reach:
	@prof=$$(mktemp); \
	$(GO) test -coverpkg=./internal/... -coverprofile=$$prof ./internal/experiments ./cmd/... && \
	$(GO) tool cover -func=$$prof | awk '$$NF == "0.0%"'; \
	rm -f $$prof

# One iteration of every benchmark in the tree (keeps benchmarks from
# bit-rotting; the root BenchmarkPaper runs each paper experiment once,
# F7's sweep included, and no S* scenario), then the repository benchmark (perfbench/, declared by
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

# Three seeded rail-failover runs through the CLI: two with a permanent
# rail kill plus silent corruption, with checksums on, then a chaos plan
# of flaps and error bursts under rail management, the drive that reaches
# RFTP's link-event loss path (rail watcher → loss → migration/failback).
# Exercises migration, rebalance and the integrity plane end to end (CI
# runs this).
failover-smoke:
	$(GO) run ./cmd/xfersched -jobs 8 -seed 3 -gridftp 0 -kill-rail roce1@2 -corrupt 2 -checksum
	$(GO) run ./cmd/xfersched -jobs 10 -seed 11 -gridftp 0 -kill-rail roce2@1.5 -corrupt 3 -corruptseed 5 -checksum
	$(GO) run ./cmd/xfersched -jobs 8 -seed 5 -gridftp 0 -chaos 1 -rails

# Adaptive-placement gate: the placer and scheduler test suites under the
# race detector, then the full S4 experiment, whose claims (auto ≥ 95% of
# bind, beats every static policy post-kill, bit-identical replay, bounded
# migrations) make e2ebench exit non-zero when any fails (CI runs this).
placer-smoke:
	$(GO) test -race ./internal/placer ./internal/xfersched
	$(GO) run ./cmd/e2ebench -run S4

# Cluster determinism gate: 100 hosts, 500 tenants, 5% control-plane drop,
# fixed seed, run twice inside the CLI — exits non-zero unless both traces
# hash bit-identically — then the same check on a 300-host fat-tree, the
# only drive that reaches the fat-tree builder (CI runs this).
cluster-smoke:
	$(GO) test -race ./internal/cluster ./internal/fabric
	$(GO) run ./cmd/xfersched -cluster -hosts 100 -ctenants 500 -drop 5 -seed 7 -replay-check
	$(GO) run ./cmd/xfersched -cluster -hosts 300 -topology fat-tree -ctenants 3000 -replay-check

# Incremental-solver gate: the oracle, differential, churn, allocation and
# account tests of the fluid solver under the race detector, then ten
# seconds of the twin-network fuzzer, which requires Resolve to match a
# from-scratch Solve bit for bit after every random mutation (CI runs this).
solver-smoke:
	$(GO) test -race -run 'Oracle|Incremental|Partial|Churn|Structural|AllocFree|Account' ./internal/fluid
	$(GO) test -run '^$$' -fuzz '^FuzzIncrementalSolve$$' -fuzztime 10s ./internal/fluid

# Cluster failure-domain gate: the chaos determinism suites under the race
# detector, then a 100-host run through the CLI with a host crash-stop, a
# leader-controller kill and a control-plane partition, and a 100-host
# fat-tree run with a core switch dark for 5 s (the only drive that reaches
# the cluster's spine sink) — each process exits non-zero unless delivery
# is exactly-once, no shard stays degraded, and a second same-seed run
# hashes bit-identically (CI runs this).
chaos-smoke:
	$(GO) test -race -run 'Chaos|Lease|Crash|Partition|GivesUp|LeaderKill' ./internal/cluster ./internal/faults
	$(GO) run ./cmd/xfersched -cluster -hosts 100 -shards 8 -ctenants 400 -cjobs 1200 -drop 2 -seed 7 \
		-kill-host 7@8+8 -kill-ctrl 0@15 -partition 5,6,7@20+6 -replay-check
	$(GO) run ./cmd/xfersched -cluster -hosts 100 -shards 4 -topology fat-tree -ctenants 400 -cjobs 1200 -drop 2 -seed 7 \
		-kill-spine 2@5+5 -replay-check

# Gray-failure gate: the gray/hedge/shed suites and the peer scorer's unit
# test under the race detector,
# then the full S7 experiment — its claims (detection fires on a sagging
# rail, hedged goodput ≥90% of healthy while the no-mitigation ablation
# collapses ≤60%, bounded detection latency, bit-identical replay) make
# e2ebench exit non-zero when any fails — and finally two CLI drives: a single-pair sag with
# hedging (exits non-zero unless every job delivers) and a cluster host
# limp under the shed valve with the replay-hash check (CI runs this).
gray-smoke:
	$(GO) test -race -run 'Gray|Hedge|Suspect|Shed|Limp|Window|Validate|Peer' \
		./internal/faults ./internal/railmgr ./internal/rftp \
		./internal/metrics ./internal/xfersched ./internal/cluster
	$(GO) run ./cmd/e2ebench -run S7
	$(GO) run ./cmd/xfersched -jobs 10 -seed 3 -gridftp 0 -gray roce1@2:0.7 -hedge
	$(GO) run ./cmd/xfersched -cluster -hosts 16 -shards 2 -ctenants 32 -cjobs 120 \
		-gray 3@8+6:0.95 -shed -replay-check

# Object-gateway gate: the objstore suites (key parsing, zero-
# length objects, coalescing windows, leak check, 20-seed determinism) plus
# the batch, file-set, framing, leak and tiny-job suites under the race
# detector — file sets and object windows are segments of the one rftp
# session engine, so both framings' suites run, and the object-window
# rail-kill test runs through the scheduler — and the test that pins the
# replay digests of the three objsim drives below, also under the race
# detector; then objsim drives both modes with the replay-hash check —
# per-object worst case, coalesced, and the sharded cluster under lossy
# control (CI runs this).
objsim-smoke:
	$(GO) test -race ./internal/objstore
	$(GO) test -race -run 'Batch|Set|Files|Framing|NothingBehind|TotalBytes|TinyJobs|ZeroLength|Grace' ./internal/rftp ./internal/xfersched
	$(GO) test -race -run 'ObjstorePointDigests' ./internal/experiments
	$(GO) run ./cmd/objsim -coalesce 1 -objects 256 -replay-check
	$(GO) run ./cmd/objsim -coalesce 64 -replay-check
	$(GO) run ./cmd/objsim -cluster -objects 512 -coalesce 64 -replay-check
