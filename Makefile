GO ?= go

.PHONY: build test race

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
