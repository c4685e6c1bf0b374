#!/bin/sh
# Formatting gate for the tier-1 verify path (wired to the runtest alias
# via tools/dune, so `dune runtest` covers it).
#
# Checks every .ml/.mli with `ocamlformat --check` when the binary is
# available.  When it is missing (minimal CI images) nothing is checked:
# the script says so plainly and still exits 0, so the test suite stays
# runnable everywhere.  ocamlformat is invoked directly rather than via
# `dune build @fmt` because this script itself runs under dune.
set -eu

if ! command -v ocamlformat >/dev/null 2>&1; then
  echo "check-fmt: WARNING: ocamlformat is not installed -- formatting was NOT checked" >&2
  exit 0
fi

cd "$(dirname "$0")/.."
status=0
for f in $(find lib bin test bench examples -name '*.ml' -o -name '*.mli' | sort); do
  if ! ocamlformat --check "$f" 2>/dev/null; then
    echo "check-fmt: $f is not formatted" >&2
    status=1
  fi
done
exit $status
