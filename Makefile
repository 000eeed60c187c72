# Convenience wrapper; everything below is plain dune.

.PHONY: check build test test-checked lint certify certify-quick bench bench-gates bench-e2e bench-e2e-compare serve party-demo clean

# Query-service settings for `make serve`, passed to orq_cli serve as
# flags (see DESIGN.md "Query service")
ORQ_SOCKET ?= /tmp/orq-service.sock
ORQ_SF ?= 0.001

check: build test lint certify-quick

build:
	dune build

test:
	dune runtest

# Static lints (see DESIGN.md "Leakage analysis", "Concurrency
# discipline" and "Dead-export audit"): the audited tree must be clean
# under the leakage lint, the concurrency-discipline lint and the
# dead-export audit, and each deliberately-bad fixture must trip its
# pass's rules (self-tests that the lints still catch what they claim to).
# The dead-export audit counts uses from lib/, bin/, bench/ and examples/
# only: an export that only test/ uses is a finding of its own class
# unless the keep-list in lib/analysis/exports.ml gives its reason.
lint:
	dune exec bin/orq_lint.exe -- lint lib
	dune exec bin/orq_lint.exe -- lint --expect-violations test/lint_fixtures
	dune exec bin/orq_lint.exe -- concur lib
	dune exec bin/orq_lint.exe -- concur --expect-violations test/lint_fixtures
	dune exec bin/orq_lint.exe -- exports lib

# Full test suite with the runtime lock checker on: every Locked
# acquisition the tests perform is checked against the declared rank
# order, wait discipline, and the no-locks-in-finalisers rule.
test-checked:
	ORQ_DEBUG_CHECKS=1 dune runtest --force

# Oblivious-transcript certificate: predicted (cost model over a shape
# twin) vs measured structural transcripts for the 36-query registry
# under all three protocols (108 rows); writes CERTIFICATE.json. ~2 min;
# `--quick` runs a representative subset in seconds.
# The second pass re-certifies with out-of-core streaming forced on
# (small chunks, tight budget) into the git-ignored .certify-chunked.json
# and fails unless it equals CERTIFICATE.json byte for byte: chunked
# execution leaves every oblivious transcript, tally and prediction
# untouched.
certify:
	dune exec bin/orq_lint.exe -- certify
	ORQ_CHUNK_ROWS=512 ORQ_MEM_BUDGET=4M dune exec bin/orq_lint.exe -- certify --out .certify-chunked.json
	cmp CERTIFICATE.json .certify-chunked.json

# Quick transcript certificate (6 queries under sh-dm and mal-hm, seconds):
# the check that catches a data-dependent transcript in a local `make
# check`, run whole and then chunked like CI's two quick steps. Writes
# git-ignored files, never the committed certificates.
certify-quick:
	dune exec bin/orq_lint.exe -- certify --quick --out .certify-quick.json
	ORQ_CHUNK_ROWS=512 ORQ_MEM_BUDGET=4M dune exec bin/orq_lint.exe -- certify --quick --out .certify-quick-chunked.json

bench:
	dune exec bench/main.exe

# Ratio and selection gates (bench/gates.ml, ~1.5 min): packed AND >= 8x
# the word AND; the physical-join audit of Q3/Q9 under sh-hm (every run
# validates, linear beats sort, auto never loses to a forced mode); the
# GROUP BY path audit (network and compaction agree, the priced pick
# never loses, n = 2..3000 under every protocol);
# chunked <= 1.3x monolithic, a budgeted SF 0.02 run and the SF ladder;
# 4 paced service workers >= 2x one. One PASS/FAIL line per gate; exits
# 1 if any failed.
bench-gates:
	dune exec bench/gates.exe

# Foreground query service on $(ORQ_SOCKET); query it with
#   dune exec bin/orq_cli.exe -- query --socket $(ORQ_SOCKET) "SELECT ..."
serve:
	dune exec bin/orq_cli.exe -- serve --socket $(ORQ_SOCKET) --sf $(ORQ_SF) -v

# Forked local 3-party cluster on loopback TCP — real OS processes
# exchanging real framed messages — running demo queries and printing
# metered-vs-measured wire traffic (see DESIGN.md "Real multi-party
# deployment"). Use `orq_cli party --id k --peers ...` for the manual
# N-terminal version.
party-demo:
	dune exec bin/orq_cli.exe -- party --local -p sh-hm

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
