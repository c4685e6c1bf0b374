#!/bin/sh
# Crash smoke for the durable store, wired to the runtest alias via
# tools/dune: build a store with slowed fsync barriers, kill -9 the
# loader at a randomized moment, then reopen.  Recovery must either
# restore a checksum-clean store whose query results match the source
# document, or refuse with a clean INCOMPLETE diagnosis — in which case
# re-running the load over the crashed directory must succeed.  Any
# other outcome (CORRUPT, INVALID, wrong answers, a crash) fails.
# Phase 2 then kill -9s a mutation stream mid-commit and checks that
# recovery replays exactly the committed WAL prefix.
set -eu

SCJ=${1:?usage: crash-smoke.sh path/to/scj.exe}
workdir=$(mktemp -d "${TMPDIR:-/tmp}/scj-crash-smoke.XXXXXX")
trap 'rm -rf "$workdir"' EXIT

doc="$workdir/doc.xml"
store="$workdir/store"
query="//item//increase"

"$SCJ" gen --scale 0.002 --seed 7 -o "$doc" 2>/dev/null

# Randomized crash point: each fsync barrier sleeps 25ms, the killer
# strikes somewhere inside the load's barrier sequence.  $$ seeds the
# schedule so repeated runs cover different points.  The clock starts
# once the loader has created the store directory: on a busy host the
# process may not have started within the whole window, and a kill
# before the load begins tests nothing.  (date's %-S drops the leading
# zero, which sh arithmetic would read as octal: 08 and 09 fail.)
"$SCJ" load "$doc" -o "$store" --page-ints 64 --fsync-delay 25 2>/dev/null &
loader=$!
while [ ! -d "$store" ] && kill -0 "$loader" 2>/dev/null; do
  sleep 0.01
done
sleep_ms=$(( ($$ + $(date +%-S)) % 200 ))
sleep "$(printf '0.%03d' "$sleep_ms")"
kill -9 "$loader" 2>/dev/null || true
wait "$loader" 2>/dev/null || true

verdict=$("$SCJ" validate "$store" 2>/dev/null) || true
case "$verdict" in
*ok:*) ;;
*INCOMPLETE:*)
  # clean refusal: the crash predates the committed superblock; a
  # rerun over the same directory must produce a valid store
  "$SCJ" load "$doc" -o "$store" --page-ints 64 2>/dev/null
  "$SCJ" validate "$store" 2>/dev/null | grep -q 'ok:' || {
    echo "crash-smoke: reload after INCOMPLETE did not validate" >&2
    exit 1
  }
  ;;
*)
  echo "crash-smoke: unexpected validate verdict after kill -9:" >&2
  echo "$verdict" >&2
  exit 1
  ;;
esac

# Query parity: the recovered store must answer exactly like the source
# document (strip the timing line, which differs by construction).
store_ans=$("$SCJ" query "$store" "$query" -n 100000 2>/dev/null | tail -n +2)
doc_ans=$("$SCJ" query "$doc" "$query" -n 100000 2>/dev/null | tail -n +2)
if [ "$store_ans" != "$doc_ans" ]; then
  echo "crash-smoke: recovered store answers differ from the source document" >&2
  exit 1
fi

# --- phase 2: kill -9 mid-mutation ---------------------------------
# A single-writer mutation stream (workload --mutate) commits
# insert/rename/delete triples through the store's WAL; the killer
# strikes while commits are in flight, so the WAL may end in a torn
# record.  Recovery must trim the tail and replay exactly the committed
# prefix: validate reports ok, and since every triple only touches a
# transient subtree under the root, the original query still answers
# exactly like the source document.
"$SCJ" workload "$store" --mutate --clients 1 --rounds 400 --fault-latency 200 \
  >/dev/null 2>&1 &
writer=$!
mut_sleep_ms=$(( 120 + ($$ + $(date +%-S)) % 250 ))
sleep "$(printf '0.%03d' "$mut_sleep_ms")"
kill -9 "$writer" 2>/dev/null || true
wait "$writer" 2>/dev/null || true

verdict=$("$SCJ" validate "$store" 2>/dev/null) || true
case "$verdict" in
*ok:*) ;;
*)
  echo "crash-smoke: unexpected validate verdict after mid-mutation kill -9:" >&2
  echo "$verdict" >&2
  exit 1
  ;;
esac

store_ans=$("$SCJ" query "$store" "$query" -n 100000 2>/dev/null | tail -n +2)
if [ "$store_ans" != "$doc_ans" ]; then
  echo "crash-smoke: store answers differ from the source after mid-mutation crash" >&2
  exit 1
fi

# The recovered store must remain fully writable: apply a probe
# mutation, fold everything into the page file, and validate once more.
"$SCJ" mutate "$store" --insert '<crashprobe/>' >/dev/null 2>&1 || {
  echo "crash-smoke: insert on recovered store failed" >&2
  exit 1
}
"$SCJ" mutate "$store" --delete '//crashprobe' --checkpoint >/dev/null 2>&1 || {
  echo "crash-smoke: delete+checkpoint on recovered store failed" >&2
  exit 1
}
"$SCJ" validate "$store" 2>/dev/null | grep -q 'ok:' || {
  echo "crash-smoke: store does not validate after post-crash checkpoint" >&2
  exit 1
}

echo "crash-smoke: ok (load crash at ${sleep_ms}ms recovered; mutation crash at ${mut_sleep_ms}ms replayed the committed prefix, query parity holds)"
