GO ?= go

.PHONY: build test race

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The parallel engine's safety proof: machines share no mutable state —
# neither across experiment cells nor across fleet nodes.
race:
	$(GO) test -race ./internal/experiments/... ./internal/sim/... ./internal/fleet/... ./internal/par/... ./internal/xlatpolicy/...
