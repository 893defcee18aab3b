#!/usr/bin/env bash
# Copyright 2026 The ONEX Reproduction Authors.
# Prometheus exposition-format lint for the METRICS verb's output.
# Reads one exposition payload (sample + "# HELP"/"# TYPE" lines, no
# protocol framing) from the file argument or stdin and enforces:
#
#   1. every sample line's metric family is declared by a # TYPE line
#      (histogram/summary samples may carry _bucket/_sum/_count);
#   2. every family declared "counter" is named *_total;
#   3. every histogram family exposes a _bucket{le="+Inf"} sample whose
#      value equals its _count;
#   4. no duplicate HELP/TYPE declarations, no unparseable lines;
#   5. the process/introspection gauge families a fleet dashboard
#      depends on are all present (an exposition that silently lost
#      onex_process_* or the watchdog counters would pass pure grammar
#      checks while blinding every alert built on them).
#
# Usage:
#   scripts/check_metrics.sh [--router] [file]
#
#   printf 'metrics\nquit\n' | nc -q1 localhost 7070 \
#     | sed -e '1,/^OK Metrics$/d' -e '/^\.$/,$d' \
#     | scripts/check_metrics.sh
#   scripts/check_metrics.sh exposition.txt
#
# --router switches the required-family list to the onex_router set
# (an onex_router process exposes routing counters plus the process
# gauges, but none of the storage/replication families a data node
# carries). The grammar rules are identical in both modes.
#
# Exits nonzero on the first violation. The same grammar is enforced
# in-process by tests/metrics_test.cc; this script exists so CI can lint
# the bytes an actual server (or router) emits over a socket.

set -euo pipefail

mode=server
if [[ "${1:-}" == "--router" ]]; then
  mode=router
  shift
fi

awk -v mode="$mode" '
  function fail(msg) { printf "check_metrics: line %d: %s\n", NR, msg; bad = 1 }
  function family(name) {
    # _bucket/_sum/_count samples belong to the declaring family.
    sub(/_bucket$/, "", name); sub(/_sum$/, "", name)
    sub(/_count$/, "", name)
    return name
  }

  /^$/ { fail("blank line in exposition output"); next }

  /^# HELP / {
    if (split($0, hp, " ") < 4) fail("HELP without a docstring")
    if (hp[3] in helped) fail("duplicate HELP for " hp[3])
    helped[hp[3]] = 1
    next
  }
  /^# TYPE / {
    if (NF != 4) fail("malformed TYPE line")
    if ($3 in type) fail("duplicate TYPE for " $3)
    if ($4 !~ /^(counter|gauge|histogram|summary)$/)
      fail("unknown type \"" $4 "\" for " $3)
    if ($4 == "counter" && $3 !~ /_total$/)
      fail("counter " $3 " not named *_total")
    type[$3] = $4
    next
  }
  /^#/ { fail("unknown comment line: " $0); next }

  {
    # Sample line: name[{labels}] value
    if (match($0, /^[a-zA-Z_:][a-zA-Z0-9_:]*/) == 0) {
      fail("unparseable sample line: " $0); next
    }
    name = substr($0, 1, RLENGTH)
    rest = substr($0, RLENGTH + 1)
    value = rest
    sub(/^\{[^}]*\} /, "", value)
    sub(/^ /, "", value)
    if (value !~ /^[-+0-9.eE]+$|^[-+]?Inf$|^NaN$/)
      fail("bad sample value \"" value "\" for " name)

    base = name
    if (!(base in type)) base = family(name)
    if (!(base in type)) { fail("sample without TYPE declaration: " name); next }

    if (type[base] == "histogram") {
      if (name == base "_bucket" && rest ~ /^\{le="\+Inf"\} /)
        inf[base] = value + 0
      if (name == base "_count") count[base] = value + 0
      seen_hist[base] = 1
    }
  }

  END {
    for (h in seen_hist) {
      if (!(h in inf)) fail("histogram " h " missing le=\"+Inf\" bucket")
      else if (!(h in count)) fail("histogram " h " missing _count")
      else if (inf[h] != count[h])
        fail(sprintf("histogram %s: +Inf bucket %g != _count %g",
                     h, inf[h], count[h]))
    }
    # Required families. Both process kinds carry the process gauges;
    # data nodes add the stall/WAL/replication/GC signals (emitted on
    # leaders AND followers — lag is -1 when not following), routers add
    # the routing counters every operations dashboard keys on.
    procs = "onex_process_uptime_seconds " \
            "onex_process_resident_memory_bytes " \
            "onex_process_virtual_memory_bytes " \
            "onex_process_open_fds " \
            "onex_process_threads " \
            "onex_process_cpu_user_seconds_total " \
            "onex_process_cpu_sys_seconds_total"
    if (mode == "router") {
      split(procs " " \
            "onex_router_requests_total " \
            "onex_router_scatter_queries_total " \
            "onex_router_failovers_total " \
            "onex_router_cancel_fanout_total " \
            "onex_router_upstream_requests_total " \
            "onex_router_merge_latency_seconds " \
            "onex_router_upstream_healthy " \
            "onex_router_upstream_lag_seconds", required, " ")
    } else {
      split(procs " " \
            "onex_stalled_workers " \
            "onex_wal_write_failed " \
            "onex_watchdog_stalls_total " \
            "onex_checkpoint_delta_bytes " \
            "onex_delta_chain_length " \
            "onex_delta_gc_reclaimed_bytes " \
            "onex_delta_gc_pending_artifacts " \
            "onex_replica_lag_seconds " \
            "onex_replica_last_applied_seq", required, " ")
    }
    for (i in required) {
      if (!(required[i] in type)) {
        printf "check_metrics: missing required family %s\n", required[i]
        bad = 1
      }
    }
    if (bad) exit 1
    if (length(type) == 0) { print "check_metrics: empty input"; exit 1 }
    printf "check_metrics: OK (%d families, %s mode)\n", length(type), mode
  }
' "${1:-/dev/stdin}"
