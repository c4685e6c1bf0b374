#!/bin/sh
# Shard smoke for multi-document serving, wired to the runtest alias via
# tools/dune: build three tenant stores under one docs directory, kill
# -9 one tenant's mutation stream mid-commit, and check the blast
# radius stays inside that tenant — the other stores keep answering
# (correctly) throughout, the killed store recovers by WAL replay, and
# `scj serve --docs` then serves the whole corpus off one shared pool,
# wildcard fan-out included.
set -eu

SCJ=${1:?usage: shard-smoke.sh path/to/scj.exe}
workdir=$(mktemp -d "${TMPDIR:-/tmp}/scj-shard-smoke.XXXXXX")
trap 'rm -rf "$workdir"' EXIT

docs="$workdir/docs"
mkdir "$docs"
query="//item"

# Three tenants with distinct contents (different generator seeds),
# each a durable store directory inside the corpus directory.
for t in t0 t1 t2; do
  case "$t" in
  t0) seed=3 ;;
  t1) seed=5 ;;
  *) seed=7 ;;
  esac
  "$SCJ" gen --scale 0.002 --seed "$seed" -o "$workdir/$t.xml" 2>/dev/null
  "$SCJ" load "$workdir/$t.xml" -o "$docs/$t" 2>/dev/null
done

# Baseline answers per tenant (strip the timing line).
ans() { "$SCJ" query "$1" "$query" -n 100000 2>/dev/null | tail -n +2; }
count() { "$SCJ" query "$1" "$query" 2>/dev/null | head -1 | cut -d' ' -f1; }
a0=$(ans "$docs/t0")
a2=$(ans "$docs/t2")

# --- kill -9 one tenant mid-mutation --------------------------------
# A single-writer mutation stream commits through t1's WAL; the killer
# strikes while commits are in flight.  $$ seeds the schedule so
# repeated runs cover different crash points.
"$SCJ" workload "$docs/t1" --mutate --clients 1 --rounds 400 --fault-latency 200 \
  >/dev/null 2>&1 &
writer=$!

# While t1 is being mutated (and then murdered), the other tenants must
# keep answering exactly as before — separate stores share nothing that
# a tenant crash can poison.
mid0=$(ans "$docs/t0")
if [ "$mid0" != "$a0" ]; then
  echo "shard-smoke: t0 answers changed while t1 was under mutation" >&2
  exit 1
fi

# %-S: a zero-padded 08 or 09 is a bad octal number in sh arithmetic
sleep_ms=$(( 120 + ($$ + $(date +%-S)) % 250 ))
sleep "$(printf '0.%03d' "$sleep_ms")"
kill -9 "$writer" 2>/dev/null || true
wait "$writer" 2>/dev/null || true

mid2=$(ans "$docs/t2")
if [ "$mid2" != "$a2" ]; then
  echo "shard-smoke: t2 answers changed after t1's writer was killed" >&2
  exit 1
fi

# --- the killed tenant recovers -------------------------------------
# Recovery replays exactly the committed WAL prefix; every mutation
# triple only touches a transient subtree under the root, so the
# original query answers exactly like the source document.
verdict=$("$SCJ" validate "$docs/t1" 2>/dev/null) || true
case "$verdict" in
*ok:*) ;;
*)
  echo "shard-smoke: unexpected validate verdict for t1 after kill -9:" >&2
  echo "$verdict" >&2
  exit 1
  ;;
esac
t1_ans=$(ans "$docs/t1")
t1_doc=$("$SCJ" query "$workdir/t1.xml" "$query" -n 100000 2>/dev/null | tail -n +2)
if [ "$t1_ans" != "$t1_doc" ]; then
  echo "shard-smoke: recovered t1 answers differ from its source document" >&2
  exit 1
fi

# --- serve the whole corpus off one shared pool ---------------------
# Route to one tenant, fan out with the wildcard, and dump per-tenant
# stats; the wildcard total must equal the sum of the per-tenant counts.
c0=$(count "$docs/t0")
c1=$(count "$docs/t1")
c2=$(count "$docs/t2")
total=$((c0 + c1 + c2))
out=$(printf 't1 %s\n* %s\n\\stats\n' "$query" "$query" \
  | "$SCJ" serve --docs "$docs" --workers 2 2>/dev/null)
echo "$out" | grep -q "^${c1} node(s)" || {
  echo "shard-smoke: routed query to t1 did not answer ${c1} node(s):" >&2
  echo "$out" >&2
  exit 1
}
for t in t0 t1 t2; do
  echo "$out" | grep -q "^$t " || {
    echo "shard-smoke: wildcard fan-out missing tenant $t:" >&2
    echo "$out" >&2
    exit 1
  }
done
echo "$out" | grep -q "^\* ${total} node(s) over 3 document(s)" || {
  echo "shard-smoke: wildcard total is not the sum of per-tenant counts (${total}):" >&2
  echo "$out" >&2
  exit 1
}
echo "$out" | grep -q "^shared pool:" || {
  echo "shard-smoke: \\stats printed no shared-pool line" >&2
  exit 1
}

echo "shard-smoke: ok (t1 killed at ${sleep_ms}ms and recovered; t0/t2 uninterrupted; wildcard served ${total} node(s) over 3 tenants)"
