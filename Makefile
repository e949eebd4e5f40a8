GO ?= go

.PHONY: build test race fuzz bench bench-ab bench-kernels run-server examples smoke smoke-restart smoke-chaos bench-fault vet

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: vet
	$(GO) test ./...

race:
	$(GO) test -race ./...

fuzz:
	$(GO) test ./internal/graph -run='^$$' -fuzz=FuzzQueryHash -fuzztime=10s
	$(GO) test ./internal/graph -run='^$$' -fuzz=FuzzLGFRoundTrip -fuzztime=10s
	$(GO) test ./internal/ged -run='^$$' -fuzz=FuzzExactVsBruteForce -fuzztime=10s
	$(GO) test ./internal/mcs -run='^$$' -fuzz=FuzzExactVsBruteForce -fuzztime=10s
	$(GO) test ./internal/measure -run='^$$' -fuzz=FuzzFlatHistogram -fuzztime=10s
	$(GO) test ./internal/measure -run='^$$' -fuzz=FuzzBranchBound -fuzztime=10s
	$(GO) test ./internal/wal -run='^$$' -fuzz=FuzzRecordDecode -fuzztime=10s
	$(GO) test ./internal/server -run='^$$' -fuzz=FuzzQueryBody -fuzztime=10s
	$(GO) test ./internal/server -run='^$$' -fuzz=FuzzInsertBody -fuzztime=10s

# bench runs the repo's benchmark contract (BENCHMARK.json): all four
# workloads of the end-to-end harness, see benchmark/README.md. The
# library-level experiments in bench_test.go run with plain
# `go test -bench=<name> -run=^$ .`.
bench:
	bash benchmark/run.sh --workload all

# bench-ab is how a performance claim is checked before it is made: ten
# paired runs (seeds 21-30, alternating order, 15 s, untraced) of a
# checkout of the parent commit against this tree, then the harness's
# --compare verdicts. make bench-ab PARENT=/path/to/parent [WORKLOAD=cold-skyline]
bench-ab:
	bash ./scripts/bench_ab.sh $(PARENT) . $(WORKLOAD)

# bench-kernels reads the pair kernels' ns/op and allocs/op on the
# harness's graph shapes, one layer at a time: the pair form built from
# two warm flat forms (0 allocs/op expected), GED on order-5 clustered
# molecules (near and far pairs, the ranked scan's decision run, the
# bipartite bound; every BenchmarkExact* reports the search's nodes/op),
# MCS on order-6 skyline pairs (near, far, and a Need
# decision run), and the branch GED lower bound on both shapes: the
# */warm cases read filled table rows (0 allocs/op expected), the
# */first cases build a query's table and its rows, so they allocate.
bench-kernels:
	$(GO) test ./internal/pairform -run='^$$' -bench='BenchmarkLoad' -benchmem
	$(GO) test ./internal/ged -run='^$$' -bench='BenchmarkExact|BenchmarkBipartite' -benchmem
	$(GO) test ./internal/mcs -run='^$$' -bench='BenchmarkExact' -benchmem
	$(GO) test ./internal/measure -run='^$$' -bench='BenchmarkBranchLB' -benchmem

run-server:
	$(GO) run ./cmd/skygraphd -addr :8091 -cache 128

# examples runs the library's callers, not just compiles them: the four
# examples, experiment E10, then gss paper -> skyline -> diverse -> topk
# in a temp dir, failing unless the skyline is exactly g1, g4, g5 and g7.
examples:
	bash ./scripts/examples.sh

# smoke boots skygraphd, fires a short mixed-traffic loadgen burst
# (failing on any request error) and asserts /metrics recorded it.
# SMOKE_DURATION/SMOKE_ADDR override the defaults (5s, 127.0.0.1:8191).
smoke:
	bash ./scripts/smoke.sh

# smoke-restart is the durability smoke test: insert-heavy loadgen
# burst against a -data-dir daemon, SIGTERM, restart on the same
# directory, and assert the graph count and a fixed skyline answer
# survived (plus live WAL/recovery metrics).
smoke-restart:
	bash ./scripts/smoke_restart.sh

# smoke-chaos is the resilience soak: the in-process chaos test under
# -race (failpoint storms + restarts, acked-mutation survival, answers
# byte-identical to a fault-free run), then the end-to-end script —
# live daemon, loadgen through the retrying client, HTTP-armed faults,
# SIGTERM mid-traffic, and an ack-log audit after the final restart.
smoke-chaos:
	$(GO) test -race -run TestChaosSoak ./pkg/client/ -v
	bash ./scripts/smoke_chaos.sh

# bench-fault measures the disarmed-failpoint fast path: Hit() on a
# disarmed point must stay a single atomic load (sub-ns/op, zero
# allocs), so leaving failpoints compiled into production paths is
# free. Compare BenchmarkHitDisarmed against any regression.
bench-fault:
	$(GO) test -bench='BenchmarkHit' -benchmem -run=^$$ ./internal/fault/
