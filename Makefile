GO ?= go

.PHONY: build test race identity

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race list CI runs: the memory-pressure packages, the device layer,
# the parallel engines (machines share no mutable state — neither across
# experiment cells nor across fleet nodes), the fleet, the policies, the
# generators whose memo is shared across workers, and the TLB and cache
# models, whose per-core structures sharded segments mutate concurrently
# (a TLB structure allocates its arrays inside Insert, on its first fill).
RACE_PKGS = ./internal/physmem/... ./internal/kernel/... ./internal/sim/... \
	./internal/telemetry/... ./internal/experiments/... ./internal/memsys/... \
	./internal/par/... ./internal/fleet/... ./internal/xlatpolicy/... \
	./internal/loadgen/... ./internal/ycsb/... ./internal/kvstore/... \
	./internal/workloads/... ./internal/tlb/... ./internal/cache/...

race:
	$(GO) test -race $(RACE_PKGS)

# The golden byte-identity checks CI runs: the quick suite against
# testdata/arch_identity_golden.json at the default -jobs and at -jobs 1
# and 4, its -core-shards 1 and 4 runs against
# testdata/sharded_suite_golden.json, the quick text suite at -jobs 1
# against -jobs 4, the quick sweeps against
# testdata/sweeps_quick_golden.txt, the full suite (~20 s on 2 CPUs)
# against testdata/full_suite_golden.json, bffleet's flash-crowd run
# (the loadgen-determinism job's command) against
# testdata/fleet_flash_golden.txt, and the two fault-injection runs:
# bffleet with every -kill-* and -part-* flag set against
# testdata/fleet_chaos_golden.txt, and bfsim with the allocator injector
# and every -inject-mem-* policy flag set against
# testdata/bfsim_inject_golden.txt; and the quick four-architecture
# head-to-head (the arch-compare job's command) against
# testdata/archcompare_quick_golden.txt and the quick open-loop load ramp
# against testdata/loadramp_quick_golden.txt.
identity:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o $$tmp/bfbench ./cmd/bfbench && \
	$(GO) build -o $$tmp/bffleet ./cmd/bffleet && \
	$(GO) build -o $$tmp/bfsim ./cmd/bfsim && \
	$$tmp/bfbench -quick -format json > $$tmp/quick.json && \
	cmp testdata/arch_identity_golden.json $$tmp/quick.json && \
	for j in 1 4; do \
		$$tmp/bfbench -quick -format json -jobs $$j > $$tmp/quick_j$$j.json && \
		cmp testdata/arch_identity_golden.json $$tmp/quick_j$$j.json || exit 1; \
	done && \
	for w in 1 4; do \
		$$tmp/bfbench -quick -format json -core-shards $$w > $$tmp/sharded$$w.json && \
		cmp testdata/sharded_suite_golden.json $$tmp/sharded$$w.json || exit 1; \
	done && \
	$$tmp/bfbench -quick -jobs 1 > $$tmp/text_j1.txt && \
	$$tmp/bfbench -quick -jobs 4 > $$tmp/text_j4.txt && \
	cmp $$tmp/text_j1.txt $$tmp/text_j4.txt && \
	$$tmp/bfbench -quick -exp sweeps > $$tmp/sweeps.txt && \
	cmp testdata/sweeps_quick_golden.txt $$tmp/sweeps.txt && \
	$$tmp/bfbench -format json > $$tmp/full.json && \
	cmp testdata/full_suite_golden.json $$tmp/full.json && \
	$$tmp/bffleet -arch babelfish -nodes 4 -containers 8 -epochs 24 \
		-load-shape flash -load-rps 8 -load-peak 256 -queue-cap 8 -audit > $$tmp/fleet.txt && \
	cmp testdata/fleet_flash_golden.txt $$tmp/fleet.txt && \
	$$tmp/bffleet -arch both -nodes 8 -containers 16 -epochs 24 \
		-kill-nth 9 -kill-prob 0.02 -kill-seed 7 -kill-after 3 -kill-max 2 \
		-part-nth 13 -part-prob 0.03 -part-seed 5 -part-after 2 -part-max 2 \
		-part-len 3 -audit > $$tmp/chaos.txt && \
	cmp testdata/fleet_chaos_golden.txt $$tmp/chaos.txt && \
	$$tmp/bfsim -app mongodb -arch both -scale 0.25 -warm 200000 -measure 400000 \
		-failnth 4000 -failseed 3 -inject-mem all -inject-mem-nth 997 \
		-inject-mem-prob 0.0005 -inject-mem-seed 11 -inject-mem-after 2000 \
		-inject-mem-max 300 -audit > $$tmp/inject.txt && \
	cmp testdata/bfsim_inject_golden.txt $$tmp/inject.txt && \
	$$tmp/bfbench -quick -exp archcompare -arch baseline,babelfish,victima,coalesced > $$tmp/archcompare.txt && \
	cmp testdata/archcompare_quick_golden.txt $$tmp/archcompare.txt && \
	$$tmp/bfbench -quick -exp loadramp > $$tmp/loadramp.txt && \
	cmp testdata/loadramp_quick_golden.txt $$tmp/loadramp.txt && \
	echo "identity: quick (default, -jobs 1 and 4), sharded (1, 4), text (-jobs 1 = 4), sweeps, full suite, fleet flash, fleet chaos, bfsim injection, archcompare and loadramp match"
