GO ?= go

.PHONY: build test race identity

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race list CI runs: the memory-pressure packages, the device layer,
# the parallel engines (machines share no mutable state — neither across
# experiment cells nor across fleet nodes), the fleet, the policies and
# the generators whose memo is shared across workers.
RACE_PKGS = ./internal/physmem/... ./internal/kernel/... ./internal/sim/... \
	./internal/telemetry/... ./internal/experiments/... ./internal/memsys/... \
	./internal/par/... ./internal/fleet/... ./internal/xlatpolicy/... \
	./internal/loadgen/... ./internal/ycsb/... ./internal/kvstore/... \
	./internal/workloads/...

race:
	$(GO) test -race $(RACE_PKGS)

# The golden byte-identity checks CI runs: the quick suite against
# testdata/arch_identity_golden.json, its -core-shards 1 and 4 runs against
# testdata/sharded_suite_golden.json, the quick sweeps against
# testdata/sweeps_quick_golden.txt and the full suite (~20 s on 2 CPUs)
# against testdata/full_suite_golden.json.
identity:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o $$tmp/bfbench ./cmd/bfbench && \
	$$tmp/bfbench -quick -format json > $$tmp/quick.json && \
	cmp testdata/arch_identity_golden.json $$tmp/quick.json && \
	for w in 1 4; do \
		$$tmp/bfbench -quick -format json -core-shards $$w > $$tmp/sharded$$w.json && \
		cmp testdata/sharded_suite_golden.json $$tmp/sharded$$w.json || exit 1; \
	done && \
	$$tmp/bfbench -quick -exp sweeps > $$tmp/sweeps.txt && \
	cmp testdata/sweeps_quick_golden.txt $$tmp/sweeps.txt && \
	$$tmp/bfbench -format json > $$tmp/full.json && \
	cmp testdata/full_suite_golden.json $$tmp/full.json && \
	echo "identity: quick, sharded (1, 4), sweeps and full suite match their goldens"
