GO ?= go

.PHONY: check fmt build test race vet bench bench-smoke benchdiff chaos obs-smoke cluster partition syndicate economics

# The full pre-merge gate: gofmt, vet, build, the test suite under the
# race detector (the replicate runner, signal engine, httpgate and detect
# monitors are concurrent), the chaos suite, the cluster suite, a
# one-iteration benchmark compile+run, and the telemetry smoke test.
check: fmt vet build race chaos cluster partition syndicate economics bench-smoke obs-smoke

# fmt fails if any Go file is not gofmt-clean.
fmt:
	test -z "$$(gofmt -l .)"

# cluster runs the multi-node gate-fleet suite — routing, anti-entropy
# replication and the worker/node golden determinism tests — under the
# race detector (gossip interleaves with request handling).
cluster:
	$(GO) test -race -count=1 ./internal/cluster

# partition runs the socket-gossip and fault-injection fleet suites
# under the race detector: the HTTP transport, the fault transport, the
# wire codec, and the E16 partition-scenario goldens (determinism, drop
# curve, heal convergence).
partition:
	$(GO) test -race -count=1 -timeout 300s -run 'Partition|HTTPTransport|FaultTransport|SnapshotWire|FetchRetry|FetchTimeout|RoundBudget|Degraded' ./cmd/fraudsim ./internal/cluster

# syndicate runs the E17 entity-linkage suites under the race detector:
# the entitygraph package, the gate's entity layer, the detect arm
# registry, the write hooks feeding the graph and the blocklist with the
# query scanner they read, and the coordinated-ring scenario goldens
# (worker-count determinism, leak contrast, honest admit).
syndicate:
	$(GO) test -race -count=1 ./internal/entitygraph
	$(GO) test -race -count=1 -run 'Syndicate|Entity|Arm|GraphFeeder|RuleDeployer|QueryValue' ./cmd/fraudsim ./internal/loadgen ./internal/httpgate ./internal/detect

# economics runs the E18 attacker-economics suites under the race
# detector: the account store, the gate's account layer, the decoy set,
# and the three-arm ROI scenario goldens (worker-count determinism,
# strict ROI ordering, honest admit).
economics:
	$(GO) test -race -count=1 ./internal/account
	$(GO) test -race -count=1 -run 'Economics|Account|Decoy|ROI|Econ' ./cmd/fraudsim ./internal/loadgen ./internal/httpgate ./internal/detect ./internal/mitigate

# obs-smoke boots the telemetry mux, scrapes /metrics and /healthz, and
# fails if the exposition contains a single unparseable line.
obs-smoke:
	$(GO) test -count=1 -run 'ObsSmoke|ServeTelemetry' ./cmd/fraudsim

# chaos runs the fault-injection suites under the race detector: the
# gate-level flap tests and the -exp chaos outage experiment.
chaos:
	$(GO) test -race -run 'Chaos' ./internal/httpgate ./internal/core ./internal/faultinject ./internal/resilience

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench writes the full benchmark sweep (3 samples per benchmark, with
# allocation stats) as machine-readable go-test JSON for regression
# tracking across PRs. Override BENCH_OUT to keep older snapshots.
BENCH_OUT ?= BENCH_PR10.json
bench:
	$(GO) test -bench=. -benchmem -count=3 -run=^$$ -json ./... > $(BENCH_OUT)

# benchdiff gates the decision hot path: it compares BENCH_OUT against
# the committed BENCH_BASELINE.json and fails on >10% ns/op regression
# or any allocs/op growth in benchmarks matching GateDecide. Run `make
# bench` first to produce BENCH_OUT.
BENCH_BASELINE ?= BENCH_BASELINE.json
benchdiff:
	$(GO) run ./cmd/benchdiff $(BENCH_BASELINE) $(BENCH_OUT)

# bench-smoke proves every benchmark still compiles and completes without
# measuring anything (one iteration each).
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -benchmem -run=^$$ ./...
