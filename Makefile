.PHONY: all build test bench bench-scale bench-scale-quick examples clean doc lint analyze analyze-baseline determinism equivalence

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

# Large-scale throughput benchmark: >= 50k messages through the syntax
# system under the standard fault campaign; writes the `scale` section
# of BENCH.json (see docs/PERF.md).
bench-scale:
	dune exec bench/main.exe -- --scale-only

bench-scale-quick:
	dune exec bench/main.exe -- --scale-only --scale-quick

lint:
	dune build bin/lint
	dune exec bin/lint/main.exe -- lib bin

# Type-aware analysis over the .cmt typed ASTs: the hot-path
# allocation ratchet (vs analysis_baseline.json), metric-name and
# span/stage doc parity, and typed polymorphic-compare checks.  Needs
# a full build first — .cmt files are a build artifact (docs/LINT.md).
analyze:
	dune build @all
	dune exec bin/analyze/main.exe -- --json ANALYSIS.json lib bin

# Conscious re-ratchet: rewrite analysis_baseline.json from the
# current tree.  Review the diff — a count going up is a regression
# you are choosing to accept.
analyze-baseline:
	dune build @all
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
