#!/usr/bin/env bash
# The repository's checks, one stage per CI step (.github/workflows/ci.yml
# runs each stage as its own step). Run from anywhere:
#
#   bash scripts/verify.sh <stage>...   run the named stages in order
#   bash scripts/verify.sh all          run every stage in CI's order
#   bash scripts/verify.sh list         print the stage names
#
# Each stage stops at its first failing command, as a CI step does.
set -eo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

stages=(vet build cross-arch test no-fma golden benchmark race chaos soak
	corruption crash-recovery mutation-chaos staticcheck telemetry bench-smoke
	out-of-core fuzz)

stage() {
	case "$1" in
	vet)
		go vet ./...
		# The exported-surface guard (surface_test.go): every exported name
		# in internal/ has a non-test caller or an allowlist entry with its
		# reason. -count=1, so a cached pass cannot hide a new name.
		go test -count=1 -run '^TestExportedSurface' .
		;;
	build)
		go build ./...
		;;
	cross-arch)
		# The Go-only bodies of internal/vec (vec_other.go's stubs, the SSE
		# and AVX2 ones included, and every Go twin), built where its assembly
		# is not. go vet on amd64 (stage vet) already runs asmdecl over
		# vec_amd64.s's frame layouts; these keep the non-amd64 build vetted
		# and compiling.
		GOARCH=arm64 go vet ./...
		GOARCH=386 go build ./...
		;;
	test)
		go test ./...
		;;
	no-fma)
		# No fused multiply-add at GOAMD64=v3: every internal/vec Go twin (the
		# row walks' per-group loops included, run with the AVX2 body on and
		# off) assumes float32 x*y+z rounds twice.
		GOAMD64=v3 go test -count=1 ./internal/vec ./internal/core
		;;
	golden)
		# Golden tables (simulated-GPU cycle counts of FeatGraph's bodies and of
		# the Gunrock/Minigun and cuSPARSE baselines; MLP, dot and sum output
		# bits; at GOMAXPROCS 1 and 2, so a count or bit that depends on the
		# host's workers fails).
		go test -count=1 -cpu 1,2 -run '^Test(SimCycles|MLPBits|DotBits|SumBits)Golden$' ./internal/core
		;;
	benchmark)
		# Benchmark module: fgbench's own vet + tests, then all five
		# workloads at smoke size; tier-1 does not build benchmark/.
		# kernels_inmem checks fused attention against the three-pass pipeline;
		# train_fullgraph checks loss, accuracy and no plan miss after warm-up;
		# serve_static checks batched rows bitwise against solo ones. Together
		# they are the end-to-end gates for the dense kernel in internal/tensor.
		# serve_mutating checks the engine tip against a from-scratch rebuild.
		# ooc_spmm checks sharded == in-memory output and Materialize == the
		# saved graph: the end-to-end gate for graphio's shard decoder.
		go -C benchmark vet ./... && go -C benchmark test ./...
		bash benchmark/run.sh --workload kernels_inmem --smoke
		bash benchmark/run.sh --workload train_fullgraph --smoke
		bash benchmark/run.sh --workload serve_static --smoke
		bash benchmark/run.sh --workload serve_mutating --smoke
		bash benchmark/run.sh --workload ooc_spmm --smoke
		;;
	race)
		# Every package with tests, so a new package or test file is raced by
		# default. The race build tag also swaps internal/vec's SSE bodies for
		# its Go loops (the detector cannot see memory assembly touches), so
		# this is the stage that runs the Go bodies on amd64.
		# Skip list — a package leaves the race run only with a reason here:
		#   cmd/traingnn: its tests SIGKILL and re-exec the built binary to
		#     check crash recovery; the child is a separate un-instrumented
		#     process, so -race adds minutes and observes nothing. It runs
		#     un-raced in stage test and in stage crash-recovery.
		go test -race $(go list ./... | grep -v '/cmd/traingnn$')
		;;
	chaos)
		# The serving layer under every fault site, race-checked.
		go test -race -count=2 -run 'TestChaosServingUnderFaults|TestOverloadSoak|TestAdmissionShedsConcurrentRuns' ./internal/core .
		;;
	soak)
		# Hundreds of concurrent users, quota shed + coalescing + bitwise
		# oracle, race-checked.
		go test -race -count=2 -run 'TestServeSoak|TestServeBitwiseMatchesUnbatched|TestServeTenantQuotaShed' ./internal/serve
		;;
	corruption)
		# Every durable format, every section truncated and bit-flipped.
		go test -run 'TestCorruptionMatrix' -v ./internal/durable ./internal/graphio ./internal/planstore ./internal/nn
		;;
	crash-recovery)
		# SIGKILL traingnn mid-training, resume bitwise-identical.
		go test -run TestKillAndResumeMatchesUninterrupted -v ./cmd/traingnn
		;;
	mutation-chaos)
		# SIGKILL a real process at every delta commit-path fault site,
		# recovery bitwise; writers+serving+faults under race.
		go test -run TestKillRecoverAtEveryCommitSite -v ./internal/delta
		go test -race -run TestChaosMutateServeCrash ./internal/delta
		;;
	staticcheck)
		go install honnef.co/go/tools/cmd/staticcheck@latest
		staticcheck ./...
		;;
	telemetry)
		# featbench -metrics emits the core counters.
		go run ./cmd/featbench -metrics > /tmp/metrics.prom
		for name in featgraph_kernel_runs_total featgraph_kernel_run_seconds_bucket \
		            featgraph_plancache_hits_total featgraph_plancache_misses_total \
		            featgraph_kernel_fallbacks_total \
		            featgraph_workpool_utilization_ratio; do
		  grep -q "^$name" /tmp/metrics.prom || { echo "missing $name"; exit 1; }
		done
		go run ./cmd/traingnn -model gcn -epochs 2 -n 400 -trace /tmp/trace.json > /dev/null
		python3 -c "import json; json.load(open('/tmp/trace.json'))"
		;;
	bench-smoke)
		# Compile + one iteration of every benchmark.
		go test -run=NONE -bench=. -benchtime=1x ./...
		;;
	out-of-core)
		# File round-trips, shard decoder over both byte sources: one file
		# cut into small shards, one at the default shard size (featgen's
		# default), whose GPU run prints the simulated cycle total (sparse
		# kernels plus dense work).
		go test -tags featgraph_nommap ./internal/graphio/...
		go run ./cmd/featgen -gen skewed -n 4000 -deg 16 -shard-edges 8000 -o /tmp/g.fgs
		go run ./cmd/featgen -info /tmp/g.fgs
		go run ./cmd/traingnn -graph /tmp/g.fgs -epochs 2 > /dev/null
		go run ./cmd/featgen -gen uniform -o /tmp/g.fgg
		go run ./cmd/featgen -info /tmp/g.fgg
		go run ./cmd/traingnn -graph /tmp/g.fgg -target gpu -epochs 1
		;;
	fuzz)
		# The oracle targets, short budget.
		go test -run='^$' -fuzz='^FuzzSpMMOracle$'    -fuzztime=20s ./internal/core
		go test -run='^$' -fuzz='^FuzzSDDMMOracle$'   -fuzztime=20s ./internal/core
		go test -run='^$' -fuzz='^FuzzBackendsAgree$' -fuzztime=20s ./internal/dgl
		go test -run='^$' -fuzz='^FuzzFusedAttention$' -fuzztime=20s ./internal/dgl
		go test -run='^$' -fuzz='^FuzzTapeGradients$' -fuzztime=20s ./internal/autodiff
		go test -run='^$' -fuzz='^FuzzVec$'           -fuzztime=20s ./internal/vec
		# -fuzzminimizetime: each new interesting input is otherwise minimized
		# for up to 60s with the exec counter frozen, which dwarfs a 20s smoke
		# budget on a CRC-sectioned format.
		go test -run='^$' -fuzz='^FuzzLoadGraph$'     -fuzztime=20s -fuzzminimizetime=2s ./internal/graphio
		go test -run='^$' -fuzz='^FuzzLoadShard$'     -fuzztime=20s -fuzzminimizetime=2s ./internal/graphio
		go test -run='^$' -fuzz='^FuzzDeltaLog$'      -fuzztime=20s -fuzzminimizetime=2s ./internal/delta
		;;
	*)
		echo "verify.sh: unknown stage $1 (stages: ${stages[*]})" >&2
		exit 2
		;;
	esac
}

if [ $# -eq 0 ]; then
	echo "usage: verify.sh <stage>... | all | list" >&2
	exit 2
fi
for s in "$@"; do
	case "$s" in
	all)
		for t in "${stages[@]}"; do
			echo "== $t"
			stage "$t"
		done
		;;
	list)
		printf '%s\n' "${stages[@]}"
		;;
	*)
		stage "$s"
		;;
	esac
done
