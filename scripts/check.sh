#!/bin/sh
# One-shot gate: full build, full test suite, then a live smoke test of
# the ricd daemon — start it, issue one RCDP over the socket, assert a
# well-formed JSON verdict, shut it down.
set -eu

cd "$(dirname "$0")/.."

# bench_guard LABEL BASELINE FRESH PATTERN BETTER TOL_PCT
# Regression guard on one figure of a bench's JSON output: the first
# integer following PATTERN (a grep regex ending just before the
# closing quote of the key) in the FRESH file, against the same figure
# in BASELINE — a committed BENCH_*.json, or a literal integer for an
# absolute floor.  BETTER is "higher" or "lower"; the guard fails when
# the fresh figure is more than TOL_PCT percent worse than the
# baseline, and skips when the baseline file is not committed.
bench_int() { grep -o "$2\":[0-9]*" "$1" | head -n 1 | grep -o '[0-9]*$' || true; }
bench_guard() {
  label=$1 baseline=$2 fresh_file=$3 pattern=$4 better=$5 tol=$6
  case "$baseline" in
    *[!0-9]*)
      if [ ! -f "$baseline" ]; then
        echo "skip: no $baseline baseline committed"
        return 0
      fi
      base=$(bench_int "$baseline" "$pattern") ;;
    *) base=$baseline ;;
  esac
  fresh=$(bench_int "$fresh_file" "$pattern")
  if [ -z "$base" ] || [ -z "$fresh" ]; then
    echo "FAIL: could not extract $pattern for the $label guard" >&2
    return 1
  fi
  echo "$label: baseline $base, fresh $fresh (tolerance ${tol}%)"
  case "$better" in
    higher) [ $((fresh * 100)) -ge $((base * (100 - tol))) ] ;;
    lower) [ $((fresh * 100)) -le $((base * (100 + tol))) ] ;;
  esac || {
    echo "FAIL: $label is more than ${tol}% worse than $baseline" >&2
    return 1
  }
}

echo "== dune build @all"
dune build @all

echo "== dune runtest"
dune runtest

echo "== ricd smoke test"
SOCKET="${TMPDIR:-/tmp}/ricd-check-$$.sock"
RIC="_build/default/bin/ric.exe"

cleanup() {
  "$RIC" shutdown -S "$SOCKET" >/dev/null 2>&1 || true
  wait "${SERVER_PID:-$$}" 2>/dev/null || true
  rm -f "$SOCKET"
}
trap cleanup EXIT INT TERM

"$RIC" serve -S "$SOCKET" -d 2 &
SERVER_PID=$!

# wait for the socket to accept connections
i=0
until "$RIC" request ping -S "$SOCKET" >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -ge 50 ]; then
    echo "FAIL: ricd did not come up on $SOCKET" >&2
    exit 1
  fi
  sleep 0.1
done

OPEN=$("$RIC" request open scenarios/crm.ric -S "$SOCKET")
echo "open:    $OPEN"
case "$OPEN" in
  '{"ok":true,"session":"'*) ;;
  *) echo "FAIL: open did not return a session" >&2; exit 1 ;;
esac
SESSION=$(printf '%s' "$OPEN" | sed 's/.*"session":"\([^"]*\)".*/\1/')

VERDICT=$("$RIC" request rcdp "$SESSION" Q0 -S "$SOCKET")
echo "rcdp:    $VERDICT"
case "$VERDICT" in
  '{"ok":true,'*'"cached":false'*'"verdict":'*) ;;
  *) echo "FAIL: rcdp response is not a well-formed verdict" >&2; exit 1 ;;
esac

# the second identical request must be served from the cache
WARM=$("$RIC" request rcdp "$SESSION" Q0 -S "$SOCKET")
echo "cached:  $WARM"
case "$WARM" in
  *'"cached":true'*) ;;
  *) echo "FAIL: second identical request was not a cache hit" >&2; exit 1 ;;
esac

"$RIC" shutdown -S "$SOCKET" >/dev/null
wait "$SERVER_PID"
SERVER_PID=""

echo "== metrics smoke test"
MSOCKET="${TMPDIR:-/tmp}/ricd-check-$$-metrics.sock"

cleanup_metrics() {
  "$RIC" shutdown -S "$SOCKET" >/dev/null 2>&1 || true
  wait "${SERVER_PID:-$$}" 2>/dev/null || true
  rm -f "$SOCKET" "$MSOCKET"
}
trap cleanup_metrics EXIT INT TERM

"$RIC" serve -S "$SOCKET" -d 2 --metrics "$MSOCKET" &
SERVER_PID=$!
i=0
until "$RIC" request ping -S "$SOCKET" >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -ge 50 ]; then
    echo "FAIL: ricd did not come up on $SOCKET" >&2
    exit 1
  fi
  sleep 0.1
done

# the Prometheus exposition is live and names the request counter
SCRAPE=$("$RIC" scrape "$MSOCKET")
case "$SCRAPE" in
  *'# TYPE ric_requests_total counter'*) ;;
  *) echo "FAIL: scrape does not expose ric_requests_total" >&2; exit 1 ;;
esac
PINGS_BEFORE=$(printf '%s\n' "$SCRAPE" | sed -n 's/^ric_requests_total{op="ping"} \([0-9]*\)$/\1/p')
PINGS_BEFORE="${PINGS_BEFORE:-0}"

# one more request must move the counter in the next scrape
"$RIC" request ping -S "$SOCKET" >/dev/null
PINGS_AFTER=$("$RIC" scrape "$MSOCKET" \
  | sed -n 's/^ric_requests_total{op="ping"} \([0-9]*\)$/\1/p')
echo "metrics: ping count ${PINGS_BEFORE} -> ${PINGS_AFTER:-?}"
if [ -z "${PINGS_AFTER:-}" ] || [ "$PINGS_AFTER" -le "$PINGS_BEFORE" ]; then
  echo "FAIL: ric_requests_total{op=\"ping\"} did not increment" >&2
  exit 1
fi

# ric top renders a live dashboard off the same exposition (two frames
# at a short interval; the output is ANSI-redrawn but must carry the
# throughput and latency rows)
TOP=$("$RIC" top "$MSOCKET" -n 2 -i 0.2)
case "$TOP" in
  *'requests'*'latency'*'steps/s'*) ;;
  *) echo "FAIL: ric top did not render the dashboard" >&2; exit 1 ;;
esac
echo "top:     dashboard rendered"

"$RIC" shutdown -S "$SOCKET" >/dev/null
wait "$SERVER_PID"
SERVER_PID=""
rm -f "$MSOCKET"

echo "== explain smoke test"
# profile attribution on the hostile instance under a 500 ms budget:
# the profile's attributed steps must cover >= 95% of the budget's
# step total (the tick sites are mirrored, so this should be 100%)
EXPLAIN=$("$RIC" explain scenarios/hard.ric --timeout-ms 500)
ESTEPS=$(printf '%s\n' "$EXPLAIN" | sed -n 's/^steps: \([0-9]*\).*/\1/p')
EATTR=$(printf '%s\n' "$EXPLAIN" | sed -n 's/^steps: [0-9]*  attributed: \([0-9]*\).*/\1/p')
echo "explain: steps $ESTEPS, attributed ${EATTR:-?}"
if [ -z "${ESTEPS:-}" ] || [ -z "${EATTR:-}" ] || [ "$ESTEPS" -eq 0 ]; then
  echo "FAIL: ric explain did not report a step attribution line" >&2
  exit 1
fi
if [ $((EATTR * 100)) -lt $((ESTEPS * 95)) ]; then
  echo "FAIL: explain attributed less than 95% of the budget's steps" >&2
  exit 1
fi

echo "== flight recorder smoke test"
FLIGHT="${TMPDIR:-/tmp}/ricd-check-$$.flight.jsonl"

cleanup_flight() {
  "$RIC" shutdown -S "$SOCKET" >/dev/null 2>&1 || true
  wait "${SERVER_PID:-$$}" 2>/dev/null || true
  rm -f "$SOCKET" "$FLIGHT"
}
trap cleanup_flight EXIT INT TERM

"$RIC" serve -S "$SOCKET" -d 2 --flight "$FLIGHT" &
SERVER_PID=$!
i=0
until "$RIC" request ping -S "$SOCKET" >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -ge 50 ]; then
    echo "FAIL: ricd did not come up on $SOCKET" >&2
    exit 1
  fi
  sleep 0.1
done

# some traffic for the ring, then SIGUSR1 must dump it as JSONL
OPEN=$("$RIC" request open scenarios/crm.ric -S "$SOCKET")
FSESSION=$(printf '%s' "$OPEN" | sed 's/.*"session":"\([^"]*\)".*/\1/')
"$RIC" request rcdp "$FSESSION" Q0 -S "$SOCKET" >/dev/null
kill -USR1 "$SERVER_PID"
i=0
until [ -s "$FLIGHT" ]; do
  i=$((i + 1))
  if [ "$i" -ge 50 ]; then
    echo "FAIL: SIGUSR1 did not produce a flight dump at $FLIGHT" >&2
    exit 1
  fi
  sleep 0.1
done
# every line is a flight event: the writer emits a fixed key order, so
# a torn or interleaved line cannot match
BAD=$(grep -cv '^{"seq":[0-9]*,"t_us":[0-9]*,"kind":"' "$FLIGHT" || true)
if [ "${BAD:-1}" -ne 0 ]; then
  echo "FAIL: $FLIGHT holds $BAD malformed lines" >&2
  exit 1
fi
# the dump op rewrites the same file on demand and reports its size
DUMP=$("$RIC" request dump -S "$SOCKET")
echo "flight:  $DUMP"
case "$DUMP" in
  '{"ok":true,'*'"events":'*) ;;
  *) echo "FAIL: the dump op did not report an event count" >&2; exit 1 ;;
esac

"$RIC" shutdown -S "$SOCKET" >/dev/null
wait "$SERVER_PID"
SERVER_PID=""
rm -f "$FLIGHT"

echo "== robustness smoke test"
JOURNAL="${TMPDIR:-/tmp}/ricd-check-$$.journal"

cleanup2() {
  "$RIC" shutdown -S "$SOCKET" >/dev/null 2>&1 || true
  wait "${SERVER_PID:-$$}" 2>/dev/null || true
  rm -f "$SOCKET" "$JOURNAL"
}
trap cleanup2 EXIT INT TERM

"$RIC" serve -S "$SOCKET" -d 2 --journal "$JOURNAL" &
SERVER_PID=$!
i=0
until "$RIC" request ping -S "$SOCKET" >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -ge 50 ]; then
    echo "FAIL: ricd did not come up on $SOCKET" >&2
    exit 1
  fi
  sleep 0.1
done

# a deliberately hostile RCDP instance (hours of search) with a 100 ms
# deadline must come back promptly with a timeout verdict
OPEN=$("$RIC" request open scenarios/hard.ric -S "$SOCKET")
HSESSION=$(printf '%s' "$OPEN" | sed 's/.*"session":"\([^"]*\)".*/\1/')
START=$(date +%s)
T=$("$RIC" request rcdp "$HSESSION" QH --timeout-ms 100 -S "$SOCKET")
ELAPSED=$(( $(date +%s) - START ))
echo "timeout: $T (${ELAPSED}s)"
case "$T" in
  *'"verdict":"timeout"'*) ;;
  *) echo "FAIL: deadline did not produce a timeout verdict" >&2; exit 1 ;;
esac
if [ "$ELAPSED" -gt 5 ]; then
  echo "FAIL: 100 ms deadline took ${ELAPSED}s" >&2
  exit 1
fi

# the daemon is still healthy and serving after the aborted search
"$RIC" request ping -S "$SOCKET" >/dev/null
OPEN=$("$RIC" request open scenarios/crm.ric -S "$SOCKET")
CSESSION=$(printf '%s' "$OPEN" | sed 's/.*"session":"\([^"]*\)".*/\1/')
"$RIC" request insert "$CSESSION" Supt e1 d1 c2 -S "$SOCKET" >/dev/null

# SIGTERM drains gracefully: clean exit, socket file removed
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || { echo "FAIL: SIGTERM exit was not clean" >&2; exit 1; }
SERVER_PID=""
if [ -e "$SOCKET" ]; then
  echo "FAIL: socket file survived graceful shutdown" >&2
  exit 1
fi

# --recover restores the journaled sessions (with their inserts)
"$RIC" serve -S "$SOCKET" -d 2 --journal "$JOURNAL" --recover &
SERVER_PID=$!
i=0
until "$RIC" request ping -S "$SOCKET" >/dev/null 2>&1; do
  i=$((i + 1))
  if [ "$i" -ge 50 ]; then
    echo "FAIL: ricd did not come back up on $SOCKET" >&2
    exit 1
  fi
  sleep 0.1
done
RECOVERED=$("$RIC" request rcdp "$CSESSION" Q0 -S "$SOCKET" 2>/dev/null || true)
echo "recover: $RECOVERED"
case "$RECOVERED" in
  '{"ok":true,'*'"epoch":1'*) ;;
  *) echo "FAIL: recovered session did not answer at epoch 1" >&2; exit 1 ;;
esac

"$RIC" shutdown -S "$SOCKET" >/dev/null
wait "$SERVER_PID"
SERVER_PID=""
rm -f "$JOURNAL"

echo "== soak smoke test"
# >= 200 concurrent clients hammering a forked daemon for a few
# seconds; the harness itself exits nonzero on any protocol-level
# failure (a connection dropped without a structured reply), an
# unclean SIGTERM drain, or a shed counter inconsistent with the
# overloaded replies the clients observed
SOAK_OUT="${TMPDIR:-/tmp}/ricd-check-$$-soak.json"
RIC_SOAK_CLIENTS="${RIC_SOAK_CLIENTS:-200}" \
  RIC_SOAK_SECONDS="${RIC_SOAK_SECONDS:-3}" \
  RIC_SOAK_OUT="$SOAK_OUT" \
  _build/default/bench/service.exe soak \
  || { echo "FAIL: soak smoke failed" >&2; rm -f "$SOAK_OUT"; exit 1; }
case "$(cat "$SOAK_OUT")" in
  *'"protocol_failures":0'*) ;;
  *) echo "FAIL: soak dropped connections without a structured reply" >&2
     rm -f "$SOAK_OUT"; exit 1 ;;
esac
case "$(cat "$SOAK_OUT")" in
  *'"clean_exit":true'*) ;;
  *) echo "FAIL: daemon did not drain cleanly under SIGTERM" >&2
     rm -f "$SOAK_OUT"; exit 1 ;;
esac

echo "== soak p99 guard"
# fresh p99 latency must not regress by more than
# RIC_BENCH_SERVE_TOLERANCE_PCT (default 25) percent over the
# committed BENCH_serve.json baseline (same 200-client smoke scale)
bench_guard "soak p99 (us)" BENCH_serve.json "$SOAK_OUT" '"p99_us' lower \
  "${RIC_BENCH_SERVE_TOLERANCE_PCT:-25}" \
  || { rm -f "$SOAK_OUT"; exit 1; }
rm -f "$SOAK_OUT"

echo "== search-mode bench smoke test"
# both valuation-search strategies on the hostile instance with a
# small step budget; the bench exits nonzero if any scenario query gets
# a different verdict under seq vs par
BENCH_OUT="${TMPDIR:-/tmp}/ricd-check-$$-bench.json"
RIC_BENCH_STEPS=20000 RIC_BENCH_OUT="$BENCH_OUT" \
  _build/default/bench/main.exe search \
  || { echo "FAIL: search-mode verdicts diverged" >&2; rm -f "$BENCH_OUT"; exit 1; }
case "$(cat "$BENCH_OUT")" in
  *'"all_agree":true'*) ;;
  *) echo "FAIL: $BENCH_OUT does not record agreement" >&2; rm -f "$BENCH_OUT"; exit 1 ;;
esac
rm -f "$BENCH_OUT"

echo "== match-kernel bench smoke test"
# compiled kernel vs naive oracle: the bench exits nonzero when the
# solution counts diverge or the compiled path is slower than the oracle
MATCH_OUT="${TMPDIR:-/tmp}/ricd-check-$$-match.json"
RIC_BENCH_MATCH_OUT="$MATCH_OUT" _build/default/bench/main.exe match \
  || { echo "FAIL: match-kernel bench failed" >&2; rm -f "$MATCH_OUT"; exit 1; }

echo "== match-kernel bench guard"
# fresh compiled solves/s must stay within RIC_BENCH_MATCH_TOLERANCE_PCT
# (default 25 — a microbench is noisier than the step-metered search)
# of the committed BENCH_match.json baseline
bench_guard "compiled solves/s" BENCH_match.json "$MATCH_OUT" \
  '"compiled_solves_per_sec' higher "${RIC_BENCH_MATCH_TOLERANCE_PCT:-25}" \
  || { rm -f "$MATCH_OUT"; exit 1; }
rm -f "$MATCH_OUT"

echo "== mining smoke test"
# mining the crm scenario must emit a non-empty constraint block and
# the cross-check must flip at least one query to Complete
MINED=$("$RIC" mine scenarios/crm.ric --check)
case "$MINED" in
  *'constraint mined-1('*) ;;
  *) echo "FAIL: ric mine emitted no constraints" >&2; exit 1 ;;
esac
case "$MINED" in
  *'[flipped to Complete]'*) ;;
  *) echo "FAIL: mined constraints flipped no query to Complete" >&2; exit 1 ;;
esac
# the mined block must survive a parser round trip
MINE_RT="${TMPDIR:-/tmp}/ricd-check-$$-mined.ric"
"$RIC" mine scenarios/crm.ric --full > "$MINE_RT"
"$RIC" file show "$MINE_RT" >/dev/null \
  || { echo "FAIL: mined scenario did not reparse" >&2; rm -f "$MINE_RT"; exit 1; }
rm -f "$MINE_RT"
# contract: an empty instance is a clean no-op, not an error
EMPTY_RIC="${TMPDIR:-/tmp}/ricd-check-$$-empty.ric"
printf 'schema R(a, b).\nmaster M(a).\nrows M { (m0) }.\n' > "$EMPTY_RIC"
EMPTY_ERR=$("$RIC" mine "$EMPTY_RIC" 2>&1 >/dev/null) \
  || { echo "FAIL: mine on an empty instance exited nonzero" >&2; rm -f "$EMPTY_RIC"; exit 1; }
case "$EMPTY_ERR" in
  *'nothing to mine'*) ;;
  *) echo "FAIL: empty instance did not explain itself on stderr" >&2; rm -f "$EMPTY_RIC"; exit 1 ;;
esac
rm -f "$EMPTY_RIC"
# contract: an exhausted budget yields partial results with a marker
TIMED=$("$RIC" mine scenarios/crm.ric --timeout-ms 1 2>/dev/null) \
  || { echo "FAIL: mine under a 1 ms budget exited nonzero" >&2; exit 1; }
case "$TIMED" in
  *'# timeout:'*'(partial results)'*) ;;
  *) echo "FAIL: exhausted budget did not leave a timeout marker" >&2; exit 1 ;;
esac
echo "mine:    crm block mined, reparsed, flip observed; contracts hold"

echo "== mining bench smoke test"
# seq vs pool-parallel scoring must accept the same constraint set;
# the bench exits nonzero on divergence
MINE_OUT="${TMPDIR:-/tmp}/ricd-check-$$-mine.json"
RIC_BENCH_MINE_OUT="$MINE_OUT" _build/default/bench/main.exe mine \
  || { echo "FAIL: mining bench failed" >&2; rm -f "$MINE_OUT"; exit 1; }

echo "== mining bench guard"
# fresh sequential candidates/s on crm (the first row) must stay within
# RIC_BENCH_MINE_TOLERANCE_PCT (default 25) of the committed baseline
bench_guard "mining candidates/s" BENCH_mine.json "$MINE_OUT" \
  '"seq_candidates_per_sec' higher "${RIC_BENCH_MINE_TOLERANCE_PCT:-25}" \
  || { rm -f "$MINE_OUT"; exit 1; }
rm -f "$MINE_OUT"

echo "== bench guard (instrumentation must not slow the seq search)"
# re-measure untraced seq steps/s at the committed baseline's step cap
# and require it within RIC_BENCH_TOLERANCE_PCT (default 5) percent of
# BENCH_search.json — the zero-cost-when-disabled contract, kept honest
BASELINE="BENCH_search.json"
if [ -f "$BASELINE" ]; then
  BASE_CAP=$(bench_int "$BASELINE" '"step_cap')
  GUARD_OUT="${TMPDIR:-/tmp}/ricd-check-$$-guard.json"
  RIC_BENCH_STEPS="${BASE_CAP:-400000}" RIC_BENCH_OUT="$GUARD_OUT" \
    _build/default/bench/main.exe search >/dev/null \
    || { echo "FAIL: bench guard run failed" >&2; rm -f "$GUARD_OUT"; exit 1; }
  bench_guard "seq steps/s" "$BASELINE" "$GUARD_OUT" \
    '"mode":"seq"[^}]*"steps_per_sec' higher "${RIC_BENCH_TOLERANCE_PCT:-5}" \
    || { rm -f "$GUARD_OUT"; exit 1; }

  echo "== par-vs-seq guard (parallel mode must not cost throughput)"
  # same fresh run: the bench times seq and par:4 within each interleaved
  # round and records the best paired par/seq ratio — that pairing
  # cancels the ~10% run-to-run load swing of a shared host, so the
  # gate can stay tight at RIC_BENCH_PAR_TOLERANCE_PCT (default 5)
  # percent; on a one-core host the par engine degrades to seq, so
  # anything below is coordination overhead leaking back in; scaling
  # itself is asserted by the bench's forced worker sweep (steal
  # counter + per-worker utilisation)
  bench_guard "par:4 vs seq best paired-round ratio (%)" 100 "$GUARD_OUT" \
    '"par_vs_seq_best_round_ratio_pct' higher "${RIC_BENCH_PAR_TOLERANCE_PCT:-5}" \
    || { rm -f "$GUARD_OUT"; exit 1; }
  rm -f "$GUARD_OUT"

  # the committed baseline must carry the scaling sweep (steals and
  # per-worker utilisation under forced workers)
  case "$(cat "$BASELINE")" in
    *'"scaling":'*'"steals":'*) ;;
    *) echo "FAIL: $BASELINE has no scaling section" >&2; exit 1 ;;
  esac
else
  echo "skip: no $BASELINE baseline committed"
fi

echo "== ric gen smoke test"
# each generated family must emit, reparse, and (where tractable)
# decide; the same (family, tuples, seed) must be byte-identical
GEN_RIC="${TMPDIR:-/tmp}/ricd-check-$$-gen.ric"
GEN_RIC2="${TMPDIR:-/tmp}/ricd-check-$$-gen2.ric"
cleanup_gen() { rm -f "$GEN_RIC" "$GEN_RIC2"; }
trap 'cleanup_gen; cleanup2' EXIT INT TERM
"$RIC" gen triple --tuples 2000 --seed 11 -o "$GEN_RIC"
"$RIC" gen triple --tuples 2000 --seed 11 -o "$GEN_RIC2"
cmp -s "$GEN_RIC" "$GEN_RIC2" \
  || { echo "FAIL: ric gen is not deterministic by seed" >&2; exit 1; }
"$RIC" file show "$GEN_RIC" >/dev/null \
  || { echo "FAIL: generated triple scenario did not reparse" >&2; exit 1; }
GVERDICT=$("$RIC" file rcdp "$GEN_RIC" --query QT)
case "$GVERDICT" in
  *incomplete*) ;;
  *) echo "FAIL: QT over generated triples must be incomplete" >&2; exit 1 ;;
esac
"$RIC" gen telco --tuples 2000 --seed 5 -o "$GEN_RIC"
"$RIC" file show "$GEN_RIC" >/dev/null \
  || { echo "FAIL: generated telco scenario did not reparse" >&2; exit 1; }
"$RIC" gen ladder --rung 1 --seed 3 -o "$GEN_RIC"
"$RIC" file rcdp "$GEN_RIC" --query QL >/dev/null \
  || { echo "FAIL: ladder rung 1 did not decide" >&2; exit 1; }
rm -f "$GEN_RIC" "$GEN_RIC2"
echo "gen:     triple deterministic + incomplete, telco reparses, ladder decides"

echo "== ingest bench smoke test"
# streaming columnar loader vs slurp baseline on generated files; the
# bench exits nonzero if the two loaders ever build different databases
LOAD_OUT="${TMPDIR:-/tmp}/ricd-check-$$-load.json"
LOAD_BASELINE="BENCH_load.json"
if [ -f "$LOAD_BASELINE" ]; then
  LBASE_TUPLES=$(bench_int "$LOAD_BASELINE" '"top_tuples')
fi
RIC_BENCH_LOAD_TUPLES="${RIC_BENCH_LOAD_TUPLES:-${LBASE_TUPLES:-1000000}}" \
  RIC_BENCH_LOAD_OUT="$LOAD_OUT" \
  _build/default/bench/main.exe load >/dev/null \
  || { echo "FAIL: ingest bench failed (stream/slurp divergence?)" >&2; rm -f "$LOAD_OUT"; exit 1; }

echo "== ingest bench guard"
# fresh streaming tuples/s at the baseline's top rung must stay within
# RIC_BENCH_LOAD_TOLERANCE_PCT (default 25) of BENCH_load.json; the
# first stream_tuples_per_sec in the file is the top (headline) rung
LOAD_KEY='"stream_tuples_per_sec'
LFRESH_TOP=$(bench_int "$LOAD_OUT" '"top_tuples')
if [ -f "$LOAD_BASELINE" ] && [ -n "$(bench_int "$LOAD_BASELINE" "$LOAD_KEY")" ] \
  && [ -n "$(bench_int "$LOAD_OUT" "$LOAD_KEY")" ] \
  && [ "$LFRESH_TOP" != "${LBASE_TUPLES:-}" ]; then
  echo "skip: fresh run at $LFRESH_TOP tuples, baseline at ${LBASE_TUPLES:-?} — not comparable"
else
  bench_guard "stream tuples/s" "$LOAD_BASELINE" "$LOAD_OUT" "$LOAD_KEY" higher \
    "${RIC_BENCH_LOAD_TOLERANCE_PCT:-25}" \
    || { rm -f "$LOAD_OUT"; exit 1; }
fi
rm -f "$LOAD_OUT"

echo "== all checks passed"
