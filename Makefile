.PHONY: all build test test-verbose bench bench-quick bench-scale bench-scale-quick examples clean doc analyze analyze-baseline determinism equivalence

all: build

build:
	dune build @all

test:
	dune runtest

test-verbose:
	dune runtest --force --no-buffer

bench:
	dune exec bench/main.exe

bench-quick:
	dune exec bench/main.exe -- --skip-micro

# Scale throughput benchmark (Mail.Scale): the full size pushes 1M
# messages between 1M users through the syntax system under the
# standard fault campaign; the quick size is 5k messages.  Writes
# SCALE.json (with wall-clock and GC fields) and TIMESERIES-scale.json,
# and exits 1 when the throughput ratchet fails (see docs/PERF.md).
bench-scale:
	dune exec bench/main.exe -- --scale full

bench-scale-quick:
	dune exec bench/main.exe -- --scale quick

# The static gate over the .cmt typed ASTs: determinism rules R1-R5
# (hash-order escapes, Hashtbl.hash, wall clock and global entropy,
# stdout/exit in lib/, missing .mli), the hot-path allocation ratchet
# (vs analysis_baseline.json), metric-name and span/stage doc parity,
# and typed polymorphic-compare checks.  .cmt files are a build
# artifact; @check emits them for executables' main modules too
# (docs/LINT.md).
analyze:
	dune build @all @check
	dune exec bin/analyze/main.exe -- --json ANALYSIS.json lib bin

# Conscious re-ratchet: rewrite analysis_baseline.json from the
# current tree.  Review the diff — a count going up is a regression
# you are choosing to accept.
analyze-baseline:
	dune build @all @check
	dune exec bin/analyze/main.exe -- --write-baseline lib bin

determinism:
	scripts/check_determinism.sh

# Behaviour-preservation gate for refactors: every --stable artifact
# of the working tree must be byte-identical to git revision BASE's.
equivalence:
	@test -n "$(BASE)" || { echo "usage: make equivalence BASE=<git ref>" >&2; exit 2; }
	scripts/check_determinism.sh --against "$(BASE)"

examples:
	dune exec examples/quickstart.exe
	dune exec examples/campus_mail.exe
	dune exec examples/roaming_users.exe
	dune exec examples/marketing_blast.exe
	dune exec examples/directory_assistance.exe

clean:
	dune clean
