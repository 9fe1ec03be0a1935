#!/bin/sh
# Smoke-run the mjoin CLI subcommands; any non-zero exit fails the test.
set -e
MJOIN="$1"
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

"$MJOIN" examples ex4 > /dev/null
"$MJOIN" conditions ex5 > /dev/null
"$MJOIN" verify --scenario ex3 > /dev/null
"$MJOIN" verify --shape chain -n 4 --regime superkey > /dev/null
"$MJOIN" verify --shape path --regime consistent \
  | grep -q 'path query of 5 relations, consistent data, seed 1'
"$MJOIN" enumerate --shape star -n 5 > /dev/null
"$MJOIN" space --shape chain --max 6 > /dev/null
"$MJOIN" optimize --shape cycle -n 5 --regime skewed > /dev/null
"$MJOIN" plan ex1 '(AB * BC) * (DE * FG)' > /dev/null

# Observability: EXPLAIN ANALYZE trees and JSONL trace export.
"$MJOIN" explain --scenario university > /dev/null
"$MJOIN" explain --scenario ex1 --strategy '(AB * BC) * (DE * FG)' \
  --policy hash --trace "$TMP/explain.jsonl" > /dev/null
test -s "$TMP/explain.jsonl"
"$MJOIN" explain --shape chain --size 5 --regime skewed > /dev/null
"$MJOIN" optimize --shape star --size 6 --trace "$TMP/opt.jsonl" > /dev/null
test -s "$TMP/opt.jsonl"
grep -q 'opt.pairs_inspected' "$TMP/opt.jsonl"

# Unified engine flags (--domains / --policy) on every executing
# subcommand.  'cost' is an alias of 'hash'.
"$MJOIN" explain --scenario ex1 --policy cost --domains 2 \
  | grep -q 'lowered (hash)'
"$MJOIN" verify --scenario ex3 --domains 2 | grep -q 'engine: 2 domains'
"$MJOIN" optimize --shape star -n 5 --policy cost \
  | grep -q 'executed (hash lowering)'
# CLI beats the environment.
MJ_ALGO_POLICY=wcoj "$MJOIN" explain --scenario ex1 --policy hash \
  | grep -q 'lowered (hash)'

# Profiling v2: quantile stats, Prometheus exposition, telemetry
# persistence (flag and environment), and telemetry aggregation.
"$MJOIN" stats --scenario university --repeat 2 | grep -q 'p95='
"$MJOIN" stats --scenario university --repeat 2 | grep -q 'span.join.ms'
"$MJOIN" stats --shape chain -n 4 --repeat 2 --prometheus \
  | grep -q '# TYPE mjoin_exec_tuples_generated counter'
"$MJOIN" stats --shape random --repeat 2 \
  | grep -q '^random-5 (uniform data, seed 1): 2 run(s)'
"$MJOIN" stats --scenario ex1 --repeat 2 --prometheus \
  | grep -q 'mjoin_join_probes_count'
"$MJOIN" explain --scenario university --telemetry "$TMP/tel.jsonl" \
  | grep -q 'telemetry: appended'
"$MJOIN" explain --scenario university --telemetry "$TMP/tel.jsonl" > /dev/null
test "$(wc -l < "$TMP/tel.jsonl")" = 2
grep -q '"q_error"' "$TMP/tel.jsonl"
grep -q '"gc.minor_words"' "$TMP/tel.jsonl"
MJ_TELEMETRY="$TMP/tel.jsonl" "$MJOIN" verify --scenario ex3 > /dev/null
test "$(wc -l < "$TMP/tel.jsonl")" = 3
"$MJOIN" stats --from "$TMP/tel.jsonl" | grep -q 'telemetry.records'
"$MJOIN" stats --from "$TMP/tel.jsonl" | grep -q 'telemetry.step.q_error'

# Bench regression gate: identical files pass, an injected regression
# must trip the gate with a non-zero exit.
cat > "$TMP/bench.json" <<BENCH
{"key": ["shape", "n"], "rows": [
  {"shape": "chain", "n": 4, "seed_ms": 10.0, "frame_ms": 2.0},
  {"shape": "star", "n": 5, "seed_ms": 20.0, "frame_ms": 4.0}
]}
BENCH
"$MJOIN" bench-diff "$TMP/bench.json" "$TMP/bench.json" --threshold 5 \
  | grep -q '0 regression'
if "$MJOIN" bench-diff "$TMP/bench.json" --inject 50 --threshold 25 \
  > /dev/null 2>&1; then exit 1; fi
"$MJOIN" bench-diff "$TMP/bench.json" --inject 50 --threshold 100 \
  --out "$TMP/diff.txt" > /dev/null
grep -q '0 regression' "$TMP/diff.txt"

# Yannakakis acyclic path: the yann policy, the acyclicity
# classification on explain, and ranked (top-k) enumeration.
"$MJOIN" explain --shape star --size 4 --policy yann \
  | grep -q 'classification: alpha-acyclic'
"$MJOIN" explain --shape star --size 4 --policy yann \
  | grep -q 'join tree root:'
"$MJOIN" explain --shape star --size 4 --policy yann \
  | grep -q 'semijoin order (leaf-to-root):'
"$MJOIN" explain --shape cycle --size 4 --policy yann \
  | grep -q 'classification: cyclic'
"$MJOIN" verify --shape snowflake -n 4 --policy yann > /dev/null
"$MJOIN" topk --shape star --size 4 --rows 20 --limit 5 | grep -q 'top-5'
"$MJOIN" topk --shape path --size 4 --limit 3 \
  | grep -q 'tau=3'
"$MJOIN" topk --scenario university --limit 3 | grep -q 'rows=3, tau=3'
# verify, explain, topk and stats share one database term: one
# --scenario flag with one doc; optimize takes the generation flags only.
for cmd in verify explain topk stats; do
  test "$("$MJOIN" $cmd --help=plain \
    | grep -c 'Run on this paper scenario instead of a generated database')" = 1
done
if "$MJOIN" optimize --scenario ex1 > /dev/null 2>&1; then exit 1; fi
MJ_ALGO_POLICY=yann "$MJOIN" explain --shape chain --size 4 \
  | grep -q 'lowered (yann'
# ex1 has 8 join trees; the tie rule keeps the first cheapest rooting.
"$MJOIN" explain --scenario ex1 --policy yann \
  | grep -qF 'lowered (yann): (yann root=AB FG->AB DE->AB BC->AB)'

cat > "$TMP/db.txt" <<DB
= users
U,N
1,ann
2,bob

= prefs
U,P
1,dark
2,light
DB
"$MJOIN" analyze "$TMP/db.txt" > /dev/null
"$MJOIN" query "$TMP/db.txt" 'Q(n,p) :- users(u,n), prefs(u,p).' > /dev/null

# Fuzzing: a short campaign, the planted-mutation self-test, and a
# replay of the committed repro.
"$MJOIN" fuzz --cases 3 --seed 5 --out "$TMP/fuzz" | grep -q 'all 3 cases passed'
"$MJOIN" fuzz --self-test | grep -q 'self-test passed'
REPRO=$(dirname "$0")/repros/planted-frame-lossy.repro
"$MJOIN" fuzz --replay "$REPRO" | grep -q 'failed as expected'
# A failpoint left in the environment must not affect replay/fuzz
# verdicts of unrelated commands reading MJ_FAILPOINTS.
MJ_FAILPOINTS=estimate.oversize "$MJOIN" verify --scenario ex3 > /dev/null

# Error paths must exit non-zero but not crash with a backtrace.
if MJ_FAILPOINTS=bogus "$MJOIN" verify --scenario ex3 > /dev/null 2>&1; then exit 1; fi
MJ_FAILPOINTS=bogus "$MJOIN" examples ex1 2>&1 | grep -q 'unknown failpoint'
# So must an unknown policy and a non-numeric worker count; an empty
# or blank value means unset.
for var in MJ_ALGO_POLICY=greedy MJ_DOMAINS=four; do
  if env "$var" "$MJOIN" verify --scenario ex3 > /dev/null 2>&1; then exit 1; fi
  env "$var" "$MJOIN" examples ex1 2>&1 | grep -q "mjoin: ${var%%=*}: "
done
MJ_ALGO_POLICY=' ' MJ_DOMAINS= \
  "$MJOIN" verify --scenario ex3 | grep -q 'engine: [0-9]* domains'
if "$MJOIN" fuzz --replay /nonexistent.repro > /dev/null 2>&1; then exit 1; fi
if "$MJOIN" examples nosuch > /dev/null 2>&1; then exit 1; fi
if "$MJOIN" query "$TMP/db.txt" 'Q(x) :- nosuch(x,y).' > /dev/null 2>&1; then exit 1; fi
# Every plan runs on frames, with one row store and the default morsel;
# the old plane, row-store and morsel flags are gone.
if "$MJOIN" explain --scenario ex1 --engine frame > /dev/null 2>&1; then exit 1; fi
if "$MJOIN" explain --scenario ex1 --storage heap > /dev/null 2>&1; then exit 1; fi
if "$MJOIN" verify --scenario ex3 --morsel 512 > /dev/null 2>&1; then exit 1; fi
if "$MJOIN" explain --scenario ex1 --policy greedy > /dev/null 2>&1; then exit 1; fi
if "$MJOIN" optimize --shape chain -n 4 --policy bogus > /dev/null 2>&1; then exit 1; fi
if "$MJOIN" explain --scenario ex1 --algo hash > /dev/null 2>&1; then exit 1; fi
if "$MJOIN" bench-diff "$TMP/db.txt" > /dev/null 2>&1; then exit 1; fi
if "$MJOIN" bench-diff "$TMP/bench.json" > /dev/null 2>&1; then exit 1; fi
if "$MJOIN" stats --from "$TMP/db.txt" > /dev/null 2>&1; then exit 1; fi
if "$MJOIN" topk --shape cycle --size 4 > /dev/null 2>&1; then exit 1; fi
"$MJOIN" topk --shape cycle --size 4 2>&1 | grep -q 'cyclic'
if "$MJOIN" topk --shape star --size 4 --limit x > /dev/null 2>&1; then exit 1; fi
# A generation knob out of range is the user's error, not an internal one.
if "$MJOIN" verify --shape cycle -n 2 > /dev/null 2>&1; then exit 1; fi
"$MJOIN" explain --shape cycle -n 2 2>&1 | grep -q '^mjoin: Querygraph.cycle: need n >= 3'

# Serving: NDJSON over stdin.  Happy path — the repeated query arrives
# in a later batch (the sleeps split the read loop's batches), so it
# must hit the warm plan cache; stats rides along; shutdown drains.
{
  echo '{"id":1,"op":"query","shape":"chain","n":4,"rows":20,"domain":8,"policy":"cost"}'
  sleep 0.3
  echo '{"id":2,"op":"query","shape":"chain","n":4,"rows":20,"domain":8,"policy":"cost"}'
  sleep 0.3
  echo '{"id":3,"op":"stats"}'
  echo '{"id":4,"op":"shutdown"}'
} | "$MJOIN" serve --telemetry "$TMP/serve-tel.jsonl" \
  > "$TMP/serve.out" 2> /dev/null
test "$(wc -l < "$TMP/serve.out")" = 4
test "$(grep -c '"status":"ok"' "$TMP/serve.out")" = 4
grep -q '"cached_plan":true' "$TMP/serve.out"
grep -q 'serve.plan_cache_hit' "$TMP/serve.out"
grep -q '"draining":true' "$TMP/serve.out"
# The telemetry sidecar recorded both queries and aggregates via
# stats --from like any other command's records.
test "$(wc -l < "$TMP/serve-tel.jsonl")" = 2
grep -q '"cmd":"serve"' "$TMP/serve-tel.jsonl"
grep -q '"plan_cache":"hit"' "$TMP/serve-tel.jsonl"
"$MJOIN" stats --from "$TMP/serve-tel.jsonl" | grep -q 'telemetry.cmd.serve'
# Wire compatibility: the result hash is computed on the native result
# (frame code buffers, no decode), and must equal the pinned hex the
# daemon has always served for this workload, whichever plane the
# request names (the field is still accepted, then ignored).
GOLDEN=93ed89284983ef4b
for plane in seed frame; do
  echo '{"id":1,"op":"query","shape":"chain","n":4,"rows":40,"domain":12,"seed":7,"plane":"'$plane'"}' \
    | "$MJOIN" serve 2> /dev/null | grep -o '"hash":"[0-9a-f]*"' > "$TMP/hash-$plane"
done
test "$(cat "$TMP/hash-seed")" = "$(cat "$TMP/hash-frame")"
test "$(cat "$TMP/hash-frame")" = "\"hash\":\"$GOLDEN\""
# The same contract on generated superkey data large enough that the
# generator and the order pass both matter.
GOLDEN=0b66406c2ecd28c0
for plane in seed frame; do
  echo '{"id":1,"op":"query","shape":"chain","n":4,"rows":3000,"domain":4000,"regime":"superkey","seed":5,"plane":"'$plane'"}' \
    | "$MJOIN" serve 2> /dev/null | grep -o '"hash":"[0-9a-f]*"' > "$TMP/hash-$plane"
done
test "$(cat "$TMP/hash-seed")" = "$(cat "$TMP/hash-frame")"
test "$(cat "$TMP/hash-frame")" = "\"hash\":\"$GOLDEN\""
# The consistent regime is the served regime whose database is built
# from relations and encoded on its first query.  The same query in a
# later batch reads that database's one encoding: a plan-cache hit, the
# same hash.
{
  echo '{"id":1,"op":"query","shape":"chain","n":4,"rows":30,"domain":10,"regime":"consistent","seed":3}'
  sleep 0.3
  echo '{"id":2,"op":"query","shape":"chain","n":4,"rows":30,"domain":10,"regime":"consistent","seed":3}'
} | "$MJOIN" serve > "$TMP/consistent.out" 2> /dev/null
test "$(grep -c '"status":"ok"' "$TMP/consistent.out")" = 2
grep '"id":2' "$TMP/consistent.out" | grep -q '"cached_plan":true'
test "$(grep -o '"hash":"[0-9a-f]*"' "$TMP/consistent.out" | sort -u | wc -l)" = 1
# Error paths answer structured per-request errors; the daemon itself
# exits 0 on EOF.
echo '{not json' | "$MJOIN" serve 2> /dev/null \
  | grep -q '"code":"bad_request"'
echo '{"op":"query","policy":"greedy-banana"}' | "$MJOIN" serve 2> /dev/null \
  | grep -q '"status":"error"'
# A workload field beyond its bound is refused by name before anything
# is materialized.
echo '{"op":"query","shape":"chain","n":4,"rows":20000,"domain":4000}' \
  | "$MJOIN" serve 2> /dev/null \
  | grep -q '"error":"field rows must be between 0 and 10000"'
# A 2 MiB request line is read in one linear pass and answered.
{ printf '{"op":"ping","pad":"'; head -c 2097152 /dev/zero | tr '\0' x; printf '"}\n'; } \
  | "$MJOIN" serve 2> /dev/null | grep -q '"pong":true'
# Admission control: a zero queue cap sheds every query (flag and
# MJ_SERVE_* spellings) while control ops still answer.
echo '{"op":"query"}' | "$MJOIN" serve --queue-cap 0 2> /dev/null \
  | grep -q '"status":"overloaded"'
{ echo '{"op":"query"}'; echo '{"op":"ping"}'; } \
  | MJ_SERVE_QUEUE_CAP=0 "$MJOIN" serve 2> /dev/null \
  | grep -q '"pong":true'
# A malformed MJ_SERVE_* integer dies naming itself; a blank one means
# unset.
for var in MJ_SERVE_QUEUE_CAP=lots MJ_SERVE_TIMEOUT_MS=ten MJ_SERVE_PLAN_CACHE=1.5; do
  if echo '{"op":"ping"}' | env "$var" "$MJOIN" serve > /dev/null 2>&1; then exit 1; fi
  echo '{"op":"ping"}' | env "$var" "$MJOIN" serve 2>&1 \
    | grep -q "mjoin: ${var%%=*}: .* is not an integer"
done
echo '{"op":"ping"}' | MJ_SERVE_TIMEOUT_MS=' ' "$MJOIN" serve 2> /dev/null \
  | grep -q '"pong":true'
# A malformed --listen spec must die cleanly, non-zero.
if "$MJOIN" serve --listen bogus:addr < /dev/null > /dev/null 2>&1; then exit 1; fi

echo cli-smoke-ok
