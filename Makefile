# Convenience wrapper; everything below is plain dune.

.PHONY: check build test test-checked lint certify kernels-smoke bench bench-rounds bench-bitpack bench-join bench-join-quick bench-scale bench-scale-quick bench-service bench-service-quick bench-net bench-net-quick bench-e2e bench-e2e-compare serve party-demo clean

# Query-service knobs (flags win; see DESIGN.md "Query service")
ORQ_SOCKET ?= /tmp/orq-service.sock
ORQ_SF ?= 0.001

check: build test lint kernels-smoke

build:
	dune build

test:
	dune runtest

# Static lints (see DESIGN.md "Leakage analysis" and "Concurrency
# discipline"): the audited tree must be clean under both the leakage
# lint and the concurrency-discipline lint, and each deliberately-bad
# fixture must trip its pass's rules (self-tests that the lints still
# catch what they claim to).
lint:
	dune exec bin/orq_lint.exe -- lint lib
	dune exec bin/orq_lint.exe -- lint --expect-violations test/lint_fixtures
	dune exec bin/orq_lint.exe -- concur lib
	dune exec bin/orq_lint.exe -- concur --expect-violations test/lint_fixtures

# Full test suite with the runtime lock checker on: every Locked
# acquisition the tests perform is checked against the declared rank
# order, wait discipline, and the no-locks-in-finalisers rule.
test-checked:
	ORQ_DEBUG_CHECKS=1 dune runtest --force

# Oblivious-transcript certificate: predicted (cost model over a shape
# twin) vs measured structural transcripts for the 31-query suite under
# all three protocols; writes CERTIFICATE.json. ~2 min; `--quick` or
# ORQ_CERTIFY_QUICK=1 runs a representative subset in seconds.
# The second pass re-certifies with out-of-core streaming forced on
# (small chunks, tight budget): all (query, protocol) pairs must still
# certify, i.e. chunked execution leaves the oblivious transcript and
# the cost model's prediction untouched.
certify:
	dune exec bin/orq_lint.exe -- certify
	ORQ_CHUNK_ROWS=512 ORQ_MEM_BUDGET=4M dune exec bin/orq_lint.exe -- certify --out CERTIFICATE_chunked.json

# Quick micro-kernel benchmark at 2 domains: exercises the pool dispatch
# path end to end and refreshes BENCH_kernels.json (quick sizes, ~10s).
kernels-smoke:
	ORQ_KERNELS_QUICK=1 dune exec bench/main.exe -- micro-kernels --domains 2

bench:
	dune exec bench/main.exe

# Round-fusion audit: every query fused vs ORQ_NO_FUSION=1, asserting
# byte-identical traffic and plaintext-validated results; refreshes
# BENCH_rounds.json. ORQ_ROUNDS_QUICK=1 runs a representative subset.
bench-rounds:
	dune exec bench/main.exe -- rounds --sf 0.0002 --n 400

# Bit-packed flag-lane audit: packed-vs-word micro speedup (>= 8x gate),
# end-to-end sort/group-by wall clock, and the full query suite with
# packing on vs off asserting identical values and traffic; refreshes
# BENCH_bitpack.json. ORQ_BITPACK_QUICK=1 runs a representative subset.
bench-bitpack:
	dune exec bench/main.exe -- bitpack

# Physical-join selection audit: the join-heavy TPC-H queries under
# forced sort/linear/quad and cost-based auto (ORQ_JOIN), every run
# plaintext-validated; gates that linear beats sort on measured rounds
# and/or bits and that auto never loses to a forced mode; refreshes
# BENCH_join.json. ORQ_JOIN_QUICK=1 runs Q3/Q9 under sh-hm in ~2 min.
bench-join:
	dune exec bench/main.exe -- join --sf 0.0002

bench-join-quick:
	ORQ_JOIN_QUICK=1 dune exec bench/main.exe -- join --sf 0.0002

# Out-of-core scaling audit: chunked streaming overhead vs monolithic
# (<= 1.3x), an SF 0.1 run completing under a budget clamped to 1/4 of
# its own unlimited peak (with real spills and identical tallies), and
# the SF ladder behind EXPERIMENTS.md; refreshes BENCH_scale.json.
# ORQ_SCALE_QUICK=1 shrinks the big run to SF 0.02 (~5 min);
# ORQ_SCALE_SF overrides the big-run scale factor.
bench-scale:
	dune exec bench/main.exe -- scale

bench-scale-quick:
	ORQ_SCALE_QUICK=1 dune exec bench/main.exe -- scale

# Foreground query service on $(ORQ_SOCKET); query it with
#   dune exec bin/orq_cli.exe -- query --socket $(ORQ_SOCKET) "SELECT ..."
serve:
	dune exec bin/orq_cli.exe -- serve --socket $(ORQ_SOCKET) --sf $(ORQ_SF) -v

# Closed-loop service throughput sweep over (protocol, workers,
# concurrency, cache mode); refreshes BENCH_service.json. Cold cells run
# LAN-paced (workers hold their slot for the query's modeled network
# time) and every cold response is checked byte-identical against the
# serial workers=1 reference; exits nonzero if 8-worker cold throughput
# is below 4x the single worker. ORQ_SERVICE_QUICK=1 shrinks it to a
# workers 1-vs-4 gate (>= 2x) in a few seconds.
bench-service:
	dune exec bench/service.exe

bench-service-quick:
	ORQ_SERVICE_QUICK=1 dune exec bench/service.exe

# Forked local 3-party cluster on loopback TCP — real OS processes
# exchanging real framed messages — running demo queries and printing
# metered-vs-measured wire traffic (see DESIGN.md "Real multi-party
# deployment"). Use `orq_cli party --id k --peers ...` for the manual
# N-terminal version.
party-demo:
	dune exec bin/orq_cli.exe -- party --local -p sh-hm

# Real-deployment audit: for each protocol, fork a complete party
# cluster on loopback TCP (2/3/4 processes) and push the SQL suite
# through it, asserting every response and every measured wire counter
# byte-identical to the in-process simulation; refreshes BENCH_net.json.
# ORQ_NET_QUICK=1 runs a 3-query subset per protocol in seconds.
bench-net:
	dune exec bench/net.exe

bench-net-quick:
	ORQ_NET_QUICK=1 dune exec bench/net.exe

# The repository benchmark (bench/e2e/README.md): every workload, 5 runs
# from seed 1, medians and spreads -> .bench_out/run.json (~11 min).
bench-e2e:
	bash bench/e2e/run.sh run --seed 1

# Judge two bench-e2e result files metric by metric; exits 1 if anything
# got worse. Usage: make bench-e2e-compare OLD=old.json NEW=new.json
bench-e2e-compare:
	@test -n "$(OLD)" -a -n "$(NEW)" || { echo "usage: make bench-e2e-compare OLD=old.json NEW=new.json" >&2; exit 2; }
	bash bench/e2e/run.sh compare $(OLD) $(NEW)

clean:
	dune clean
