# Developer entry points. `make check` is the tier-1 gate plus formatting,
# vet, and the race detector; CI runs exactly that (.github/workflows/ci.yml).

GO ?= go

.PHONY: check fmt build vet test race fuzzcheck bench benchgate campaign faultsmoke fuzzsmoke cachesmoke soaksmoke

check: fmt vet build race fuzzcheck faultsmoke fuzzsmoke cachesmoke soaksmoke

# gofmt gate: fail listing any file that needs formatting.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The campaign engine is the repo's first real use of host parallelism;
# always exercise it (and the attack substrates under it) with -race.
race:
	$(GO) test -race -timeout 30m ./...

# Bounded native fuzzing (~50s): each testing.F target runs for 10s on its
# own package, starting from its committed seed corpus under testdata/fuzz.
# A crasher is written to that testdata directory and fails the target.
fuzzcheck:
	$(GO) test -run '^$$' -fuzz '^FuzzRecordLog$$' -fuzztime 10s ./internal/recordlog
	$(GO) test -run '^$$' -fuzz '^FuzzMemoryOps$$' -fuzztime 10s ./internal/mem
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 10s ./internal/cminor
	$(GO) test -run '^$$' -fuzz '^FuzzReadJSONL$$' -fuzztime 10s ./internal/trace

# One pass over every benchmark, teed through cmd/benchjson into a
# benchstat-comparable JSON artifact. -benchtime=3x keeps it minutes, not
# hours, while averaging enough iterations that benchgate compares means
# instead of single noisy draws (single-iteration artifacts on a loaded
# one-core host swing ±40% on identical code). BENCH_N numbers the
# committed snapshots: bump it and commit BENCH_N.json when the numbers
# move for a reason worth recording. internal/kexec contributes the gadget
# layer's own row (BenchmarkExtractBuildOffsets) beneath BenchmarkBootOnce.
BENCH_N ?= 12
bench:
	$(GO) test -bench=. -benchmem -benchtime=3x -run=^$$ . ./internal/kexec | $(GO) run ./cmd/benchjson -out BENCH_$(BENCH_N).json

# Regression gate over the two newest committed BENCH_*.json: >20% ns/op
# regression on the fabric-throughput or cache-hit benchmarks fails. Advisory
# in CI (single-iteration runs are noisy) — a failure means re-run `make
# bench` and look, not an automatic veto.
benchgate:
	$(GO) run ./cmd/benchgate

# A quick §6-shaped mixed campaign; see EXPERIMENTS.md for the full runs.
campaign:
	$(GO) run ./cmd/campaign -preset mixed -n 24 -quiet

# Fault-injection smoke: a short mixed campaign with DMA corruption, allocator
# pressure, and scenario panics armed — proves the hardened execution layer
# (injection hooks, retries, panic isolation) end to end on every `make check`.
faultsmoke:
	$(GO) run ./cmd/campaign -preset mixed -n 8 -quiet \
		-fault "dma-corrupt:0.01,alloc-fail:0.002,scenario-panic:0.1" >/dev/null

# Coverage-guided fuzz smoke (~30s): a short seeded fuzz run over the full
# kind space (page-spray included) with minimization, proving the
# signature → corpus → energy-schedule loop end to end on every `make check`.
fuzzsmoke:
	$(GO) run ./cmd/campaign -fuzz -fuzz-attempts 24 -fuzz-batch 8 \
		-fuzz-minimize 2 -quiet >/dev/null

# Incremental-cache smoke: run a preset cold into a fresh result cache, then
# re-run it with -require-cached, which exits nonzero unless every scenario
# replayed from the store — proving digesting, persistence, and replay
# determinism end to end on every `make check`.
cachesmoke:
	@tmp=$$(mktemp -d); \
	$(GO) run ./cmd/campaign -preset ladder -n 8 -quiet -cache $$tmp/results.bin >/dev/null && \
	$(GO) run ./cmd/campaign -preset ladder -n 8 -quiet -cache $$tmp/results.bin -require-cached >/dev/null; \
	rc=$$?; rm -rf $$tmp; exit $$rc

# The one end-to-end soak (cmd/soaksmoke): builds dmafaultd, campaign and
# fabrictop once, then runs four phases; a failing phase names itself.
#  - daemon: boot dmafaultd, run fault-injected campaigns through the bounded
#    scheduler, cancel some mid-flight, kill -9 the daemon mid-campaign and
#    restart it on the same journal dir; the victim job must come back
#    Recovered and done with all 10 scenarios, a new job must get a later ID
#    and finish, and SIGTERM must drain cleanly.
#  - fleet: coordinator + 3 workers with -fleetobs under a mild netchaos
#    plan; mid-run, /v1/fleet must attribute nonzero queue-wait, execute and
#    publish time to all three workers and fabrictop -once must list them.
#  - chaos: the same workers under a byzantine netchaos plan (bit-flipped and
#    truncated bodies, 503 storms, connection drops, short partitions), with
#    fabric_integrity_rejected_total > 0 and fabric_steals_total > 0 proving
#    the rejection and work-stealing defenses fired.
#  - kill: join a third worker over HTTP, kill -9 a worker while it holds
#    shard leases, kill -9 the coordinator once the re-lease is journaled,
#    resume it, require fabric_releases_total > 0 and the survivors to drain.
# Every fabric phase's merged summary must be byte-identical to one clean
# single-node run of the same 28-scenario set; the three share one pool of
# three workers, and kill runs last because it kills one of them.
soaksmoke:
	$(GO) run ./cmd/soaksmoke
