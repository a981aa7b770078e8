# Developer entry points; CI (.github/workflows/ci.yml) runs the same gates.

.PHONY: build test race lint fuzz-smoke chaos golden perfbench-smoke bench bench-diff ci

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

lint:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	go vet ./...
	go run ./cmd/p2plint ./...

# Short fuzz runs over the wire decoders and the two transfer-response
# parsers (seeded with faultsim.Mangle damage shapes), plus the
# hand-written kernels that must match a reference byte for byte (the
# scanner automaton against bytes.Contains, the JSON encoders against
# encoding/json); CI uses the same budget so a regression that crashes on
# near-valid input is caught before merge.
fuzz-smoke:
	go test -run='^$$' -fuzz=FuzzParsePong -fuzztime=10s ./internal/gnutella
	go test -run='^$$' -fuzz=FuzzReadPacket -fuzztime=10s ./internal/openft
	go test -run='^$$' -fuzz=FuzzAppendJSONString -fuzztime=10s ./internal/obs
	go test -run='^$$' -fuzz=FuzzPEParse -fuzztime=10s ./internal/pe
	go test -run='^$$' -fuzz=FuzzDownloadResponse -fuzztime=10s ./internal/gnutella
	go test -run='^$$' -fuzz=FuzzDownloadResponse -fuzztime=10s ./internal/openft
	go test -run='^$$' -fuzz=FuzzCheckLine -fuzztime=10s ./internal/filtersvc
	go test -run='^$$' -fuzz=FuzzACMatch -fuzztime=10s ./internal/scanner
	go test -run='^$$' -fuzz=FuzzAppendRecord -fuzztime=10s ./internal/dataset

# Chaos gate: the fault-profile × -workers survival matrix plus every
# identity test (*EmitIdentical*: same-seed and -workers byte equality of
# records and spans, churned runs included, faulted or clean) and the
# fetch-stage tests (TestFetchStageHoldsWaitingTransfers*: the default
# width's waiting transfers all in flight at once, one query's transfers
# all in flight at once, clean and faulted, and a later flood failing
# while an earlier query's transfers are in flight), under the race
# detector, twice. The race detector's scheduling is the perturbation
# that would expose a leaked flood count, a flood that ends early, or a
# query whose result depends on which of its fetches finishes first. The
# pooled-body tests (TestPooledBodies*: concurrent serves and downloads
# of lazy and static files over recycled slabs) run ten times under it,
# and the universes' one churn path (netsim's Churn and build-determinism
# tests) five times. The gate takes about 45 s on two cores; each
# command's -timeout turns a deadlock (say, between a query's fetch
# goroutine and the transfer pool) into a failure within minutes instead
# of go test's default ten.
chaos:
	go test ./internal/core/ -race -count=2 -timeout 3m -run 'TestStudySurvivesFaultMatrix|EmitIdentical|TestFetchStageHoldsWaitingTransfers'
	go test ./internal/gnutella/ ./internal/openft/ -race -count=10 -timeout 3m -run 'TestPooledBodies'
	go test ./internal/netsim/ -race -count=5 -timeout 3m -run 'Churn|Deterministic'

# Golden gate: each TestGoldenTrace* test runs one study, and every
# case's span and record streams must match testdata/golden/ byte for
# byte; TestReferenceReport runs the reference study, and its report and
# filter output must match cmd/p2panalyze/testdata/ byte for byte, as
# must what TestAblationsAndExtensions measures in each ablation and
# extension. Refresh after an intentional change with:
#   go test ./internal/core/ -run TestGoldenTrace -update
#   go test ./cmd/p2panalyze/ -run 'TestReferenceReport|TestAblationsAndExtensions' -update
golden:
	go test ./internal/core/ -count=1 -run TestGoldenTrace
	go test ./cmd/p2panalyze/ -count=1 -run 'TestReferenceReport|TestAblationsAndExtensions'

# The benchmark (perfbench/) is a nested module that imports the internal
# packages, so ./... above never builds it; vet and test it here so an
# internal API change breaks now, not at benchmark time.
perfbench-smoke:
	cd perfbench && go vet ./... && go test ./...

# Benchmarks: the obs/archive/scanner/filtersvc/stats/dataset hot paths
# (among them the per-layer kernels: automaton, MD5, body fill, record
# encoding) run 6 times each so the output feeds benchstat; the two
# study-engine benchmarks are heavyweight (each iteration runs a
# scaled-down study) and run once. benchjson folds everything into
# BENCH_7.json (mean across runs), which CI uploads as an artifact.
# Non-gating in CI.
bench:
	go test -run='^$$' -bench=. -benchmem -count=6 ./internal/obs ./internal/archive ./internal/scanner ./internal/filtersvc ./internal/stats ./internal/dataset | tee bench.out
	go test -run='^$$' -bench=. -benchmem -count=1 . | tee -a bench.out
	go run ./cmd/benchjson -o BENCH_7.json < bench.out >/dev/null
	rm -f bench.out

# Bench-regression gate: diff the two newest committed BENCH_<n>.json
# artifacts and fail on a >15% ns/op or allocs/op regression in the
# headline (hotpath) benchmarks; headline benchmarks at zero allocs/op
# must stay at zero. CI runs this as its own job.
bench-diff:
	go run ./cmd/benchdiff

ci: build lint race golden chaos perfbench-smoke fuzz-smoke bench-diff
