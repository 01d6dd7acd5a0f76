#!/bin/sh
# Reproducibility harness.
#
# Runs the fault campaign (mailsim faults -> LEDGER.json), the quick
# scale run (mailsim scale -> SCALE.json + TIMESERIES-scale.json) and
# the benchmark snapshot (bench -> BENCH.json + TRACE.jsonl), each
# under OCAMLRUNPARAM=R (randomized Hashtbl seeds), and fails unless
# every artifact is byte-identical between the two sets of runs.
#
# Default: run the working tree twice.  Randomized hashing makes any
# Hashtbl-iteration-order leak visible immediately; the companion
# static gate is `make analyze` (rules R1-R5, docs/LINT.md).
#
# --against REF: run the working tree once and git revision REF once
# (built from a temporary `git archive` checkout of REF), so a change
# that claims to preserve behaviour — a refactor — is proved to leave
# every artifact byte-identical to REF.
#
# An artifact that differs is reported by scripts/artifact_diff.py
# (python3): the JSON paths that moved with their values in the first
# and the second run (REF and the working tree under --against), and
# for TRACE.jsonl the line count per span name.
#
# Usage: scripts/check_determinism.sh [--against REF]   (from the repository root)
set -eu

ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$ROOT"

REF=
case "${1:-}" in
  "") ;;
  --against)
    [ $# -eq 2 ] || { echo "usage: $0 [--against REF]" >&2; exit 2; }
    REF=$2 ;;
  *) echo "usage: $0 [--against REF]" >&2; exit 2 ;;
esac

dune build @all >/dev/null

WORK=$(mktemp -d "${TMPDIR:-/tmp}/mailsys-determinism.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

# one_run DIR [SRC]: write the artifacts into DIR, running the code of
# the checkout at SRC (default: the working tree).
one_run() {
  dir="$1"
  src="${2:-$ROOT}"
  mkdir -p "$dir"
  (
    cd "$dir"
    # --stable keeps the embedded metric registries free of volatile
    # (wall-clock-derived) metrics so the artifacts byte-compare.
    OCAMLRUNPARAM=R dune exec --root "$src" bin/mailsim.exe -- \
      faults --seed 1 --stable --ledger-out LEDGER.json >faults.txt
    # The quick scale run, replicated under the standard campaign:
    # quorum deposit, failover GetMail and recovery resync must all
    # replay byte-identically — SCALE.json carries the route-cache,
    # replica and failover counters (docs/REPLICATION.md), the full
    # ledger verdict, the critical path and the SLO section, and the
    # run writes the windowed metric timeseries next to it
    # (docs/MONITORING.md).
    OCAMLRUNPARAM=R dune exec --root "$src" bin/mailsim.exe -- \
      scale --size quick --stable \
      --json-out SCALE.json --timeseries-out TIMESERIES-scale.json >scale.txt
    # The bench snapshot holds no wall-clock field (the timed scale run
    # is `bench --scale`, not part of this gate).
    OCAMLRUNPARAM=R dune exec --root "$src" bench/main.exe -- \
      --skip-micro >bench.txt
  )
}

if [ -z "$REF" ]; then
  what="between identical seeded runs"
  echo "determinism: run 1 (OCAMLRUNPARAM=R)"
  one_run "$WORK/run1"
  echo "determinism: run 2 (OCAMLRUNPARAM=R)"
  one_run "$WORK/run2"
else
  what="between $REF and the working tree"
  echo "determinism: checking out $REF"
  mkdir "$WORK/ref"
  git archive "$REF" | tar -x -C "$WORK/ref"
  echo "determinism: run of $REF (OCAMLRUNPARAM=R)"
  one_run "$WORK/run1" "$WORK/ref"
  echo "determinism: run of the working tree (OCAMLRUNPARAM=R)"
  one_run "$WORK/run2"
fi

status=0
for artifact in BENCH.json TRACE.jsonl LEDGER.json SCALE.json \
    TIMESERIES-scale.json; do
  if cmp -s "$WORK/run1/$artifact" "$WORK/run2/$artifact"; then
    echo "determinism: $artifact byte-identical"
  else
    echo "determinism: FAIL — $artifact differs $what" >&2
    cmp "$WORK/run1/$artifact" "$WORK/run2/$artifact" >&2 || true
    # Name the fields that moved (first run → second run).
    python3 "$ROOT/scripts/artifact_diff.py" \
      "$WORK/run1/$artifact" "$WORK/run2/$artifact" >&2 || true
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "determinism: OK (BENCH.json, TRACE.jsonl, LEDGER.json, SCALE.json, TIMESERIES-scale.json identical $what under randomized hash seeds)"
fi
exit "$status"
