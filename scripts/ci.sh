#!/bin/sh
# CI entry point: build everything (including tests and benches) and run
# the full test suite. Fails on any compiler error or test failure.
set -eu
cd "$(dirname "$0")/.."

dune build @check
dune build
dune runtest

# Smoke-test the telemetry surface end to end: a real profiled run must
# emit both renderings without tripping any instrument.
dune exec --no-build -- alchemist profile workload:aes:64 --telemetry > /dev/null
dune exec --no-build -- alchemist profile workload:aes:64 --telemetry=json > /dev/null

# Smoke-test the reference interpreter: the switch engine must stay
# runnable from the CLI even though threaded is the default.
dune exec --no-build -- alchemist run workload:aes:64 --engine=switch > /dev/null

# Engine differential: both engines must produce byte-identical saved
# profiles for the same workload (the full differential matrix lives in
# test/test_engines.ml; this guards the CLI wiring end to end).
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
dune exec --no-build -- alchemist profile workload:gzip-1.3.5:2 \
  --engine=threaded --save "$tmpdir/threaded.prof" > /dev/null
dune exec --no-build -- alchemist profile workload:gzip-1.3.5:2 \
  --engine=switch --save "$tmpdir/switch.prof" > /dev/null
cmp "$tmpdir/threaded.prof" "$tmpdir/switch.prof"
echo "engine differential: profiles byte-identical"

# Register-IR differential: the register backend must match the stack
# engines byte for byte through the CLI too, with and without the
# graph-coloring allocator (regalloc only reshuffles slots — any
# observable difference means a canonicalization move went missing).
dune exec --no-build -- alchemist profile workload:gzip-1.3.5:2 \
  --engine=register --save "$tmpdir/register.prof" > /dev/null
if ! cmp "$tmpdir/threaded.prof" "$tmpdir/register.prof"; then
  echo "register engine diverged from threaded on gzip" >&2
  exit 1
fi
dune exec --no-build -- alchemist profile workload:gzip-1.3.5:2 \
  --engine=register --regalloc=false \
  --save "$tmpdir/register-noalloc.prof" > /dev/null
if ! cmp "$tmpdir/register.prof" "$tmpdir/register-noalloc.prof"; then
  echo "regalloc changed the register engine's profile" >&2
  exit 1
fi
echo "register differential: profiles byte-identical"

# Ring differential: batched hook delivery through the event ring must
# not change a single byte of the profile versus direct delivery. The
# ring reorders *when* hooks run (drain-in-bulk, clock restored from
# event stamps, join-free segments elided), never *what* they observe —
# this guards that equivalence end to end through the CLI.
dune exec --no-build -- alchemist profile workload:gzip-1.3.5:2 \
  --engine=register --ring=false \
  --save "$tmpdir/register-noring.prof" > /dev/null
if ! cmp "$tmpdir/register.prof" "$tmpdir/register-noring.prof"; then
  echo "event ring changed the register engine's profile" >&2
  exit 1
fi
echo "ring differential: profiles byte-identical"

# Regalloc sanity: on gzip the coloring must fit the 16-slot window —
# a nonzero spill count here means the allocator regressed (the
# workloads' functions never keep more than 16 values live).
spills=$(dune exec --no-build -- alchemist profile workload:gzip-1.3.5:2 \
  --engine=register --telemetry \
  | awk '$1 == "ir.spills" { print $2 }')
[ -n "$spills" ] || { echo "ir.spills gauge missing from telemetry" >&2; exit 1; }
[ "$spills" -eq 0 ] || { echo "regalloc spilled on gzip: $spills" >&2; exit 1; }
echo "regalloc sanity: 0 spills on gzip"

# Explore goldens: `explore` must print exactly the transcripts saved
# in test/golden. They were recorded when every simulated candidate
# still got an instrumented run of its own; one shared collection run
# now serves all candidates and must not change a byte.
for spec in par2:64 aes:1024 delaunay:8000; do
  name=$(echo "$spec" | tr ':' '-')
  dune exec --no-build -- alchemist explore "workload:$spec" \
    > "$tmpdir/explore-$name.txt"
  if ! cmp "$tmpdir/explore-$name.txt" "test/golden/explore-$name.txt"; then
    echo "explore transcript for $spec diverged from test/golden" >&2
    exit 1
  fi
done
echo "explore goldens: transcripts byte-identical"

# Static checker over every registry workload: CFA validation
# (Cfa.Analysis.validate — any discrepancy fails), prune-on/prune-off
# byte-identity, profile round-trip, and the dynamic-profile sanitizer —
# which cross-validates every observed min Tdep against the distance
# engine's proven lower bounds. At least one workload (par2's gfexp
# table) must actually carry a validated bound, or the distance layer
# silently stopped proving anything.
dune exec --no-build -- alchemist check --all --test-scale > "$tmpdir/check.out"
cat "$tmpdir/check.out"
grep -q "validated against static distance bounds" "$tmpdir/check.out"
echo "distance validation: proven bounds checked against observed Tdep"

# Seeded failure: corrupt a saved profile's observed min Tdep below its
# stored static lower bound; the checker must refuse it (this proves the
# distance cross-check can actually fire, not just that clean profiles
# pass).
dune exec --no-build -- alchemist profile workload:par2:24 \
  --save "$tmpdir/par2.prof" > /dev/null
grep -q "^distbound " "$tmpdir/par2.prof"
awk '$1 == "distbound" { bounded[$2 " " $3] = 1 }
     $1 == "edge" && (($3 " " $4) in bounded) { $6 = 1 }
     { print }' "$tmpdir/par2.prof" > "$tmpdir/par2-bad.prof"
if dune exec --no-build -- alchemist check workload:par2:24 \
     --profile "$tmpdir/par2-bad.prof" > "$tmpdir/seeded.out" 2>&1; then
  echo "seeded corruption was NOT caught" >&2
  exit 1
fi
grep -q "static lower bound" "$tmpdir/seeded.out"
echo "seeded corruption: distance checker fired as required"

# Transform-legality gate. Three properties, end to end through the CLI:
#
# 1. Every registry workload persists version-4 legality verdicts and the
#    sanitizer's cross-validation passes — asserted on the machine-readable
#    `check --json` document, not on prose.
dune exec --no-build -- alchemist check --all --test-scale --json \
  > "$tmpdir/check.json"
grep -q '"failed_workloads": 0' "$tmpdir/check.json"
if grep -q '"validated_legality_edges": 0[,}]' "$tmpdir/check.json"; then
  echo "a workload carries no legality verdicts" >&2
  exit 1
fi
echo "legality gate: every workload persists validated v4 verdicts"

# 2. Seeded failure: retag one of gzip's serializing legality lines as
#    privatizable; the sanitizer must refuse the profile (this proves the
#    legality cross-check can actually fire, not just that clean profiles
#    pass). The threaded.prof saved above is gzip's version-4 profile.
grep -q "^legality .* serial$" "$tmpdir/threaded.prof"
awk '!seeded && $1 == "legality" && $5 == "serial" { $5 = "priv"; seeded = 1 }
     { print }' "$tmpdir/threaded.prof" > "$tmpdir/gzip-bad.prof"
if dune exec --no-build -- alchemist check workload:gzip-1.3.5:2 \
     --profile "$tmpdir/gzip-bad.prof" > "$tmpdir/legality-seeded.out" 2>&1
then
  echo "seeded legality corruption was NOT caught" >&2
  exit 1
fi
grep -q "disagrees with analysis" "$tmpdir/legality-seeded.out"
echo "seeded corruption: legality checker fired as required"

# 3. Backward compatibility of the writer: a profile with no legality
#    block must serialize as byte-exact version-3 output — i.e. the
#    version-4 file differs from the version-3 file by exactly its
#    legality lines and the header digit. par2.prof saved above is the
#    version-4 profile with both distbound and legality blocks.
dune exec --no-build -- alchemist profile workload:par2:24 \
  --legality=false --race=false --save "$tmpdir/par2-v3.prof" > /dev/null
head -1 "$tmpdir/par2-v3.prof" | grep -q "^alchemist-profile 3$"
awk '$1 == "alchemist-profile" { $2 = 3 }
     $1 == "legality" || $1 == "race" { next } { print }' \
  "$tmpdir/par2.prof" > "$tmpdir/par2-stripped.prof"
cmp "$tmpdir/par2-stripped.prof" "$tmpdir/par2-v3.prof"
echo "legality-free writer: byte-exact version-3 output"

# Static race gate. Three properties, end to end through the CLI:
#
# 1. `verify --json` over every registry workload must produce a
#    structurally sound document, and at least one racy construct must
#    exist across the registry — a detector that finds no interference
#    anywhere has silently stopped looking. Every workload must also
#    persist version-5 race statuses the sanitizer cross-validates
#    (asserted on the `check --json` document produced above).
dune exec --no-build -- alchemist verify --all --test-scale --json \
  > "$tmpdir/verify.json"
grep -q '"workloads"' "$tmpdir/verify.json"
grep -q '"race_free"' "$tmpdir/verify.json"
grep -q '"racy_constructs"' "$tmpdir/verify.json"
if grep -q '"total_racy": 0[,}]' "$tmpdir/verify.json"; then
  echo "the race detector found no racy construct in any workload" >&2
  exit 1
fi
if grep -q '"validated_race_constructs": 0[,}]' "$tmpdir/check.json"; then
  echo "a workload carries no validated race statuses" >&2
  exit 1
fi
echo "race gate: verify --json sound, every workload persists v5 statuses"

# 2. Seeded failure: flip one of gzip's racy statuses to race-free in
#    the saved profile; the sanitizer must refuse it — a forged
#    race-free tag is exactly the corruption that would green-light an
#    unsafe spawn. The threaded.prof saved above is gzip's version-5
#    profile.
grep -q "^race .* racy$" "$tmpdir/threaded.prof"
awk '!seeded && $1 == "race" && $3 == "racy" { $3 = "race-free"; seeded = 1 }
     { print }' "$tmpdir/threaded.prof" > "$tmpdir/gzip-race-bad.prof"
if dune exec --no-build -- alchemist check workload:gzip-1.3.5:2 \
     --profile "$tmpdir/gzip-race-bad.prof" > "$tmpdir/race-seeded.out" 2>&1
then
  echo "seeded race corruption was NOT caught" >&2
  exit 1
fi
grep -q "disagrees with analysis" "$tmpdir/race-seeded.out"
echo "seeded corruption: race checker fired as required"

# 3. Backward compatibility of the writer: a profile with no race block
#    must serialize as byte-exact version-4 output — the version-5 file
#    differs from it by exactly its race lines and the header digit.
dune exec --no-build -- alchemist profile workload:par2:24 \
  --race=false --save "$tmpdir/par2-v4.prof" > /dev/null
head -1 "$tmpdir/par2-v4.prof" | grep -q "^alchemist-profile 4$"
awk '$1 == "alchemist-profile" { $2 = 4 } $1 == "race" { next } { print }' \
  "$tmpdir/par2.prof" > "$tmpdir/par2-race-stripped.prof"
cmp "$tmpdir/par2-race-stripped.prof" "$tmpdir/par2-v4.prof"
echo "race-free writer: byte-exact version-4 output"

# Pruning differential through the CLI: instrumentation pruning must not
# change a single byte of the saved profile.
dune exec --no-build -- alchemist profile workload:gzip-1.3.5:2 \
  --save "$tmpdir/prune-on.prof" > /dev/null
dune exec --no-build -- alchemist profile workload:gzip-1.3.5:2 \
  --static-prune=false --save "$tmpdir/prune-off.prof" > /dev/null
cmp "$tmpdir/prune-on.prof" "$tmpdir/prune-off.prof"
echo "pruning differential: profiles byte-identical"

# Serve smoke test: a 10-request stdin batch through the registry
# service must save exactly the same bytes as the one-shot profile
# command for every workload — the scheduler, cache, and facts-reuse
# layers must be invisible in the output.
cat > "$tmpdir/serve.req" <<EOF
workload:aes:128 save=$tmpdir/serve-aes.prof
workload:gzip-1.3.5:2 save=$tmpdir/serve-gzip.prof
workload:par2:24 save=$tmpdir/serve-par2.prof
workload:stencil:512 save=$tmpdir/serve-stencil.prof
workload:ogg:256 save=$tmpdir/serve-ogg.prof
workload:130.li:30 save=$tmpdir/serve-li.prof
workload:197.parser:240 save=$tmpdir/serve-parser.prof
workload:bzip2:1500 save=$tmpdir/serve-bzip2.prof
workload:delaunay:2000 save=$tmpdir/serve-delaunay.prof
workload:aes:128 save=$tmpdir/serve-aes-repeat.prof
EOF
dune exec --no-build -- alchemist serve < "$tmpdir/serve.req" \
  > "$tmpdir/serve.out"
[ "$(grep -c '^ok ' "$tmpdir/serve.out")" -eq 10 ] || {
  echo "serve batch did not answer all 10 requests ok" >&2
  cat "$tmpdir/serve.out" >&2
  exit 1
}
for spec in aes:128 gzip-1.3.5:2 par2:24 stencil:512 ogg:256 \
            130.li:30 197.parser:240 bzip2:1500 delaunay:2000; do
  name=$(echo "$spec" | sed 's/:.*//; s/^130\.li$/li/; s/^197\.parser$/parser/; s/-1\.3\.5$//')
  dune exec --no-build -- alchemist profile "workload:$spec" \
    --save "$tmpdir/direct-$name.prof" > /dev/null
  cmp "$tmpdir/serve-$name.prof" "$tmpdir/direct-$name.prof"
done
cmp "$tmpdir/serve-aes.prof" "$tmpdir/serve-aes-repeat.prof"
echo "serve smoke: 10-request batch byte-identical to one-shot profiles"

# Cold/warm determinism: a second serve run over the same requests and
# a shared cache directory must answer purely from the cache and still
# save byte-identical profiles.
mkdir "$tmpdir/cache"
sed "s|$tmpdir/serve-|$tmpdir/cold-|" "$tmpdir/serve.req" > "$tmpdir/cold.req"
sed "s|$tmpdir/serve-|$tmpdir/warm-|" "$tmpdir/serve.req" > "$tmpdir/warm.req"
dune exec --no-build -- alchemist serve --cache-dir "$tmpdir/cache" \
  < "$tmpdir/cold.req" > /dev/null
dune exec --no-build -- alchemist serve --cache-dir "$tmpdir/cache" \
  < "$tmpdir/warm.req" > "$tmpdir/warm.out"
if grep -q ' miss ' "$tmpdir/warm.out"; then
  echo "warm serve run recomputed instead of hitting the cache" >&2
  cat "$tmpdir/warm.out" >&2
  exit 1
fi
for f in "$tmpdir"/cold-*.prof; do
  cmp "$f" "$(echo "$f" | sed 's|/cold-|/warm-|')"
done
echo "serve determinism: warm run all cache hits, profiles byte-identical"
