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
# runnable from the CLI even though register is the default.
dune exec --no-build -- alchemist run workload:aes:64 --engine=switch > /dev/null

# Engine differential: the default (register) engine must save a profile
# byte-identical to the reference switch interpreter's (the full
# differential matrix lives in test/test_engines.ml; this guards the CLI
# wiring end to end).
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
dune exec --no-build -- alchemist profile workload:gzip-1.3.5:2 \
  --save "$tmpdir/register.prof" > /dev/null
dune exec --no-build -- alchemist profile workload:gzip-1.3.5:2 \
  --engine=switch --save "$tmpdir/switch.prof" > /dev/null
if ! cmp "$tmpdir/register.prof" "$tmpdir/switch.prof"; then
  echo "register engine diverged from switch on gzip" >&2
  exit 1
fi
echo "engine differential: profiles byte-identical"

# Regalloc sanity: on gzip the coloring must fit the 16-slot window —
# a nonzero spill count here means the allocator regressed (the
# workloads' functions never keep more than 16 values live).
spills=$(dune exec --no-build -- alchemist profile workload:gzip-1.3.5:2 \
  --engine=register --telemetry \
  | awk '$1 == "ir.spills" { print $2 }')
[ -n "$spills" ] || { echo "ir.spills gauge missing from telemetry" >&2; exit 1; }
[ "$spills" -eq 0 ] || { echo "regalloc spilled on gzip: $spills" >&2; exit 1; }
echo "regalloc sanity: 0 spills on gzip"

# Array extents: static analysis and register-engine set-up cost what
# the code does, not what the arrays span. verify of a program that
# passes a 2^24-cell global array by reference must finish well inside
# the timeout; a program that passes a 2^18-cell local array must run
# on the default engine and print what the switch interpreter prints
# (exit value, output and instruction count).
cat > "$tmpdir/global-extent.mc" <<'MC'
int g[16777216];
int sum(int a[], int n) {
  int s = 0;
  for (int i = 0; i < n; i++) { s = s + a[i]; a[i] = s; }
  return s;
}
int main() { return sum(g, 16); }
MC
timeout 10 dune exec --no-build -- alchemist verify "$tmpdir/global-extent.mc" \
  > /dev/null
cat > "$tmpdir/local-extent.mc" <<'MC'
int sum(int a[], int n) {
  int s = 0;
  for (int i = 0; i < n; i++) { s = s + a[i]; }
  return s;
}
int main() {
  int big[262144];
  for (int i = 0; i < 262144; i++) { big[i] = i & 7; }
  print(sum(big, 262144));
  return sum(big, 16);
}
MC
timeout 10 dune exec --no-build -- alchemist run "$tmpdir/local-extent.mc" \
  > "$tmpdir/local-register.out"
timeout 10 dune exec --no-build -- alchemist run --engine=switch \
  "$tmpdir/local-extent.mc" > "$tmpdir/local-switch.out"
cmp "$tmpdir/local-register.out" "$tmpdir/local-switch.out"
echo "array extents: 2^24-cell global verified, 2^18-cell local runs as on switch"

# Out of fuel: the default engine stops a run by itself, mid-segment
# and mid-call, so `run --fuel=F` must print what the switch interpreter
# prints (stdout and stderr) and exit with its status at every budget,
# a negative one included (trap at pc 0, nothing retired). One profile
# run with a budget takes the hooked path through the CLI; the event
# stream up to the trap is compared in test/test_engines.ml.
for spec in 130.li:40 par2:8 delaunay:500; do
  for fuel in -1 0 1 7 1000 12345; do
    for engine in register switch; do
      status=0
      dune exec --no-build -- alchemist run "workload:$spec" --fuel="$fuel" \
        --engine="$engine" > "$tmpdir/fuel-$engine.out" \
        2> "$tmpdir/fuel-$engine.err" || status=$?
      echo "exit $status" >> "$tmpdir/fuel-$engine.out"
    done
    if ! cmp "$tmpdir/fuel-register.out" "$tmpdir/fuel-switch.out" ||
       ! cmp "$tmpdir/fuel-register.err" "$tmpdir/fuel-switch.err"; then
      echo "run workload:$spec --fuel=$fuel diverged from switch" >&2
      exit 1
    fi
  done
done
for engine in register switch; do
  status=0
  dune exec --no-build -- alchemist profile workload:par2:8 --fuel=1000 \
    --engine="$engine" > "$tmpdir/fuel-$engine.out" \
    2> "$tmpdir/fuel-$engine.err" || status=$?
  echo "exit $status" >> "$tmpdir/fuel-$engine.out"
done
cmp "$tmpdir/fuel-register.out" "$tmpdir/fuel-switch.out"
cmp "$tmpdir/fuel-register.err" "$tmpdir/fuel-switch.err"
echo "fuel: run and profile stop where the switch interpreter stops"

# Explore goldens: `explore` must print exactly the transcripts saved
# in test/golden. par2, aes and delaunay were recorded when every
# simulated candidate still got an instrumented run of its own; bzip2
# and ogg when task graphs were still collected and scheduled as record
# lists (bzip2's Loop (compress_block,60) has 377,560 instances). One
# shared collection run over flat graphs must not change a byte.
for spec in par2:64 aes:1024 delaunay:8000 bzip2:6000 ogg:800; do
  name=$(echo "$spec" | tr ':' '-')
  dune exec --no-build -- alchemist explore "workload:$spec" \
    > "$tmpdir/explore-$name.txt"
  if ! cmp "$tmpdir/explore-$name.txt" "test/golden/explore-$name.txt"; then
    echo "explore transcript for $spec diverged from test/golden" >&2
    exit 1
  fi
done
echo "explore goldens: transcripts byte-identical"

# Bad counts are usage errors: --cores, -j/--jobs and --cache-capacity
# below 1 and a negative --top must be refused while the command line is
# parsed (cmdliner's exit code 124, with the option named), not fail
# inside the simulator or run with a silently clamped pool. stdin is
# /dev/null, so a serve that wrongly starts reads EOF and exits 0.
for args in "explore workload:par2:64 --cores=0" \
            "explore workload:par2:64 --cores=-2" \
            "explore workload:par2:64 --top=-1" \
            "rank workload:par2:64 --top=-1" \
            "simulate workload:par2:64 --loop-line 86 --cores=0" \
            "profile-all --test-scale -j 0" \
            "serve --jobs=-3" \
            "serve --cache-capacity 0"; do
  status=0
  # shellcheck disable=SC2086
  dune exec --no-build -- alchemist $args < /dev/null \
    > "$tmpdir/bad-count.out" 2>&1 || status=$?
  [ "$status" -eq 124 ] || {
    echo "alchemist $args: exit $status, expected a usage error" >&2
    exit 1
  }
  grep -q "must be at least" "$tmpdir/bad-count.out"
done
echo "count options: bad --cores/--top/--jobs/--cache-capacity values refused as usage errors"

# Bad workload scales: a SCALE that is not a positive integer must be
# refused with a diagnostic naming it (exit 1), not crash (exit 125) or
# profile a nonsense input.
for scale in abc -4 0; do
  status=0
  dune exec --no-build -- alchemist explore "workload:par2:$scale" \
    > "$tmpdir/bad-scale.out" 2>&1 || status=$?
  [ "$status" -eq 1 ] || {
    echo "workload:par2:$scale: exit $status, expected 1" >&2
    exit 1
  }
  grep -q "bad scale \"$scale\"" "$tmpdir/bad-scale.out"
done
echo "workload scales: bad values refused with a diagnostic"

# Recycling goldens: at Table III scale bzip2 and delaunay overflow the
# default 1M-node construct pool, so their profiles depend on how
# completed index nodes are recycled. The saved profiles must match the
# ones in test/golden byte for byte, and the run must really have
# recycled (pool.reused > 0), or the goldens no longer exercise reuse.
for w in bzip2 delaunay; do
  dune exec --no-build -- alchemist profile "workload:$w" \
    --save "$tmpdir/profile-$w.prof" --telemetry=json > "$tmpdir/profile-$w.json"
  if ! cmp "$tmpdir/profile-$w.prof" "test/golden/profile-$w.prof"; then
    echo "profile of $w diverged from test/golden" >&2
    exit 1
  fi
  reused=$(sed -n 's/^ *"pool.reused": \([0-9]*\).*/\1/p' "$tmpdir/profile-$w.json")
  [ -n "$reused" ] || { echo "pool.reused missing from $w telemetry" >&2; exit 1; }
  [ "$reused" -gt 0 ] || { echo "$w no longer recycles index nodes" >&2; exit 1; }
done
echo "recycling goldens: profiles byte-identical, pool recycled"

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
# 1. Every registry workload persists legality verdicts and the
#    sanitizer's cross-validation passes — asserted on the machine-readable
#    `check --json` document, not on prose.
dune exec --no-build -- alchemist check --all --test-scale --json \
  > "$tmpdir/check.json"
grep -q '"failed_workloads": 0' "$tmpdir/check.json"
if grep -q '"validated_legality_edges": 0[,}]' "$tmpdir/check.json"; then
  echo "a workload carries no legality verdicts" >&2
  exit 1
fi
echo "legality gate: every workload persists validated legality verdicts"

# The same gauntlet at Table III scale, where bzip2 and delaunay recycle
# index nodes: prune-on/off byte-identity and the sanitizer must also
# hold on the node-reuse path.
dune exec --no-build -- alchemist check --all --json \
  > "$tmpdir/check-table3.json"
grep -q '"failed_workloads": 0' "$tmpdir/check-table3.json"
echo "static checker: every workload clean at Table III scale"

# 2. Seeded failure: retag one of gzip's serializing legality lines as
#    privatizable; the sanitizer must refuse the profile (this proves the
#    legality cross-check can actually fire, not just that clean profiles
#    pass). The register.prof saved above is gzip's default profile.
grep -q "^legality .* serial$" "$tmpdir/register.prof"
awk '!seeded && $1 == "legality" && $5 == "serial" { $5 = "priv"; seeded = 1 }
     { print }' "$tmpdir/register.prof" > "$tmpdir/gzip-bad.prof"
if dune exec --no-build -- alchemist check workload:gzip-1.3.5:2 \
     --profile "$tmpdir/gzip-bad.prof" > "$tmpdir/legality-seeded.out" 2>&1
then
  echo "seeded legality corruption was NOT caught" >&2
  exit 1
fi
grep -q "disagrees with analysis" "$tmpdir/legality-seeded.out"
echo "seeded corruption: legality checker fired as required"

# Static race gate. Three properties, end to end through the CLI:
#
# 1. `verify --json` over every registry workload must produce a
#    structurally sound document, and at least one racy construct must
#    exist across the registry — a detector that finds no interference
#    anywhere has silently stopped looking. Every workload must also
#    persist race statuses the sanitizer cross-validates
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
echo "race gate: verify --json sound, every workload persists race statuses"

# 2. Seeded failure: flip one of gzip's racy statuses to race-free in
#    the saved profile; the sanitizer must refuse it — a forged
#    race-free tag is exactly the corruption that would green-light an
#    unsafe spawn. The register.prof saved above is gzip's default
#    profile.
grep -q "^race .* racy$" "$tmpdir/register.prof"
awk '!seeded && $1 == "race" && $3 == "racy" { $3 = "race-free"; seeded = 1 }
     { print }' "$tmpdir/register.prof" > "$tmpdir/gzip-race-bad.prof"
if dune exec --no-build -- alchemist check workload:gzip-1.3.5:2 \
     --profile "$tmpdir/gzip-race-bad.prof" > "$tmpdir/race-seeded.out" 2>&1
then
  echo "seeded race corruption was NOT caught" >&2
  exit 1
fi
grep -q "disagrees with analysis" "$tmpdir/race-seeded.out"
echo "seeded corruption: race checker fired as required"

# One profile format: a default save carries the static block under
# header 5, a --trace-locals save none under header 1, and `report`
# loads both. The retired headers 2-4 are refused on line 1.
head -1 "$tmpdir/par2.prof" | grep -q "^alchemist-profile 5$"
dune exec --no-build -- alchemist profile workload:par2:24 --trace-locals \
  --save "$tmpdir/par2-locals.prof" > /dev/null
head -1 "$tmpdir/par2-locals.prof" | grep -q "^alchemist-profile 1$"
dune exec --no-build -- alchemist report workload:par2:24 \
  --profile "$tmpdir/par2-locals.prof" > /dev/null
sed '1s/.*/alchemist-profile 3/' "$tmpdir/par2.prof" > "$tmpdir/par2-v3.prof"
status=0
dune exec --no-build -- alchemist report workload:par2:24 \
  --profile "$tmpdir/par2-v3.prof" > "$tmpdir/v3.out" 2>&1 || status=$?
[ "$status" -eq 1 ] || { echo "header 3: exit $status, expected 1" >&2; exit 1; }
grep -q "line 1:" "$tmpdir/v3.out"
echo "profile format: header 5 and 1 load, header 3 refused on line 1"

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

# Corrupted cache entry: a disk entry that no longer reads back as the
# request's profile must be recomputed (a miss, not a disk hit), the
# reply must save the direct profile's bytes, and the recomputed bytes
# must replace the bad file.
key=$(awk '$3 == "workload:par2:24" { sub(/^key=/, "", $4); print $4 }' \
  "$tmpdir/warm.out")
[ -n "$key" ] || { echo "no cache key for par2 in the warm run" >&2; exit 1; }
printf 'garbage, not a profile' > "$tmpdir/cache/$key.prof"
echo "workload:par2:24 save=$tmpdir/corrupt-par2.prof" \
  | dune exec --no-build -- alchemist serve --cache-dir "$tmpdir/cache" \
  > "$tmpdir/corrupt.out"
grep -q ' miss ' "$tmpdir/corrupt.out" || {
  echo "a corrupted cache entry was served" >&2
  cat "$tmpdir/corrupt.out" >&2
  exit 1
}
cmp "$tmpdir/corrupt-par2.prof" "$tmpdir/direct-par2.prof"
cmp "$tmpdir/cache/$key.prof" "$tmpdir/direct-par2.prof"
echo "serve cache: a corrupted entry is recomputed and rewritten"

# serve --socket replaces only a stale socket: a regular file at PATH
# must be refused (exit 1, the path named) and keep its contents. The
# timeout bounds a serve that would instead delete it and listen.
printf 'not a socket\n' > "$tmpdir/not-a-socket"
status=0
timeout 10 dune exec --no-build -- alchemist serve \
  --socket "$tmpdir/not-a-socket" < /dev/null > "$tmpdir/socket.out" 2>&1 \
  || status=$?
[ "$status" -eq 1 ] || {
  echo "serve --socket on a regular file: exit $status, expected 1" >&2
  exit 1
}
grep -q "$tmpdir/not-a-socket" "$tmpdir/socket.out"
[ "$(cat "$tmpdir/not-a-socket")" = "not a socket" ] || {
  echo "serve --socket clobbered a regular file" >&2
  exit 1
}
echo "serve socket: a regular file at PATH is refused and kept"

# serve --socket set-up failures are diagnostics: when PATH's directory
# does not exist, bind fails, and serve must name PATH and exit 1 rather
# than die of an uncaught exception (exit 125).
status=0
timeout 10 dune exec --no-build -- alchemist serve \
  --socket "$tmpdir/no-such-dir/x.sock" < /dev/null \
  > "$tmpdir/socket-bind.out" 2>&1 || status=$?
[ "$status" -eq 1 ] || {
  echo "serve --socket in a missing directory: exit $status, expected 1" >&2
  exit 1
}
grep -q "$tmpdir/no-such-dir/x.sock" "$tmpdir/socket-bind.out"
echo "serve socket: a bind failure names PATH and exits 1"

# A save= that cannot be written is that request's error reply: the
# session goes on, answers every request in order, and exits 0.
printf 'workload:par2:8\nworkload:par2:8 save=%s\nworkload:par2:9\n' \
  "$tmpdir/no-such-dir/x.prof" \
  | dune exec --no-build -- alchemist serve -j 1 > "$tmpdir/save-fail.out"
[ "$(cut -d' ' -f1-2 "$tmpdir/save-fail.out" | tr '\n' ' ')" = \
  "ok 1 error 2 ok 3 " ] || {
  echo "serve with an unwritable save= did not answer ok/error/ok" >&2
  cat "$tmpdir/save-fail.out" >&2
  exit 1
}
grep -q "^error 2 workload:par2:8: $tmpdir/no-such-dir/x.prof: " \
  "$tmpdir/save-fail.out"
echo "serve save: an unwritable save= is an in-order error reply"

# serve --socket survives its clients: a client that hangs up without
# reading must neither kill the server nor leave replies for the next
# client, which gets exactly its own one reply; and a client whose batch
# has an unwritable save= gets all three of its replies. The server is
# bounded by timeout, stopped here, and must leave no process behind.
cat > "$tmpdir/clients.py" <<'PY'
import socket
import sys
import time

path, bad = sys.argv[1], sys.argv[2]


def connect():
    for _ in range(200):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            s.connect(path)
            return s
        except OSError:
            s.close()
            time.sleep(0.05)
    sys.exit("serve never accepted a connection on " + path)


def session(lines):
    s = connect()
    s.sendall("".join(line + "\n" for line in lines).encode())
    s.shutdown(socket.SHUT_WR)
    data = b""
    while True:
        chunk = s.recv(65536)
        if not chunk:
            break
        data += chunk
    s.close()
    return data.decode().splitlines()


s = connect()
s.sendall(b"workload:par2:30\nworkload:par2:31\n")
s.close()

replies = session(["workload:par2:10"])
if [r.split()[0:3:2] for r in replies] != [["ok", "workload:par2:10"]]:
    sys.exit("after a hang-up, the next client got %r" % replies)

replies = session(["workload:par2:8", "workload:par2:8 save=" + bad,
                   "workload:par2:9"])
if [r.split()[0] for r in replies] != ["ok", "error", "ok"] or \
        bad + ":" not in replies[1]:
    sys.exit("a batch with an unwritable save= got %r" % replies)
PY
alchemist="$(pwd)/_build/default/bin/main.exe"
timeout 120 "$alchemist" serve -j 1 --socket "$tmpdir/clients.sock" \
  < /dev/null > /dev/null 2>&1 &
server=$!
trap 'kill "$server" 2> /dev/null || true; rm -rf "$tmpdir"' EXIT
status=0
timeout 60 python3 "$tmpdir/clients.py" "$tmpdir/clients.sock" \
  "$tmpdir/no-such-dir/x.prof" || status=$?
kill "$server" 2> /dev/null || {
  echo "serve --socket was no longer running after its clients" >&2
  exit 1
}
wait "$server" 2> /dev/null || true
trap 'rm -rf "$tmpdir"' EXIT
[ "$status" -eq 0 ] || exit 1
if pgrep -f "serve -j 1 --socket $tmpdir/clients.sock" > /dev/null; then
  echo "a serve process outlived the socket session" >&2
  exit 1
fi
echo "serve socket: a hang-up client harms no one, a failing save= is answered"

# profile-all: the sharded registry sweep must save the same nine
# profiles at -j 2 as at -j 1, and its telemetry must count every
# workload as one submitted and one completed scheduler job.
mkdir "$tmpdir/all-j2" "$tmpdir/all-j1"
dune exec --no-build -- alchemist profile-all --test-scale -j 2 \
  --save-dir "$tmpdir/all-j2" --telemetry > "$tmpdir/profile-all.out"
dune exec --no-build -- alchemist profile-all --test-scale -j 1 \
  --save-dir "$tmpdir/all-j1" > /dev/null
[ "$(ls "$tmpdir/all-j2" | wc -l)" -eq 9 ] || {
  echo "profile-all did not save nine profiles" >&2
  exit 1
}
diff -r "$tmpdir/all-j2" "$tmpdir/all-j1"
for name in sched.jobs sched.submitted; do
  n=$(awk -v k="$name" '$1 == k { print $2 }' "$tmpdir/profile-all.out")
  [ "$n" = 9 ] || {
    echo "profile-all --telemetry: $name is '$n', expected 9" >&2
    exit 1
  }
done
if grep -q "sched.steals" "$tmpdir/profile-all.out"; then
  echo "profile-all --telemetry still reports sched.steals" >&2
  exit 1
fi
echo "profile-all: -j 2 and -j 1 save identical profiles, 9 scheduler jobs"

# Paper artifacts: every bench section but the bechamel microbenches,
# run from a scratch directory. The bench only prints (fig6 also writes
# figures/*.svg), so no BENCH_*.json may appear there. Table V's par2
# row must show the legality-proven speedup and its race-gated
# withdrawal.
mkdir "$tmpdir/bench"
bench="$(pwd)/_build/default/bench/main.exe"
(cd "$tmpdir/bench" && "$bench" fig2 fig3 fig4 table3 fig6 table4 table5 \
  baseline explore ablation > bench.out)
if ls "$tmpdir/bench"/BENCH_*.json > /dev/null 2>&1; then
  echo "the bench wrote a BENCH_*.json file" >&2
  exit 1
fi
par2=$(awk '/^Table V/ { t5 = 1 } t5 && $1 == "par2" { print $7, $8; exit }' \
  "$tmpdir/bench/bench.out")
[ "$par2" = "2.16 1.05" ] || {
  echo "table5 par2 proven/gated: got '$par2', expected '2.16 1.05'" >&2
  exit 1
}
echo "bench: paper sections ran, no BENCH file written, table5 par2 2.16/1.05"
