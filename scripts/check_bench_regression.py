#!/usr/bin/env python3
"""Guard against order-of-magnitude crypto regressions in the CI bench smoke run.

Usage: check_bench_regression.py CURRENT_RESULTS BASELINE [THRESHOLD]

CURRENT_RESULTS is the JSON-lines file the vendored criterion shim (and the
fig12_failover harness, via BENCH_JSON) appends to. BASELINE is an archived
snapshot — BENCH_crypto.json or BENCH_ensemble.json — whose medians live
under _meta.results. Only the guarded benchmarks present in the baseline are
checked, so one guard list serves both baselines. The check fails when a
guarded benchmark's median exceeds THRESHOLD x its baseline median (default
3x — generous on purpose: CI machines are noisy, and this guard exists to
catch accidental algorithmic regressions, not percent-level drift).
"""

import json
import sys

GUARDED_BENCHMARKS = [
    # Crypto hot path (BENCH_crypto.json). aes_gcm_seal runs the backend the
    # host selects (AES-NI + CLMUL on the CI runners); the portable rows keep
    # the table-driven AES-GCM and the FIPS 180-4 SHA-256 fallbacks guarded
    # even where they never run by default.
    "zkcrypto/aes_gcm_seal/4096",
    "zkcrypto_fastpath/aes_gcm_seal_portable/4096",
    "zkcrypto_fastpath/sha256_portable/1024",
    "zkcrypto_fastpath/ghash_1k/table",
    # Networked-ensemble failover (BENCH_ensemble.json): recovery time after
    # a leader crash and steady-state per-op latency, plain and secure.
    "ensemble/failover_recovery_ms/plain",
    "ensemble/failover_recovery_ms/secure",
    "ensemble/steady_op_latency/plain",
    "ensemble/steady_op_latency/secure",
    # Durable-replica crash recovery (BENCH_persist.json): boot from the
    # newest snapshot + log suffix vs the full-log-replay baseline.
    "persist/recovery_ms/snapshot",
    "persist/recovery_ms/log_replay",
    # Connection scaling on the event-loop transport
    # (BENCH_connections.json): p99 read latency and derived ns/op with 1000
    # live connections, plain and secure.
    "fig14/active_read_p99_ns_1000conns/plain",
    "fig14/active_read_p99_ns_1000conns/secure",
    "fig14/active_read_derived_ns_per_op_1000conns/plain",
    "fig14/active_read_derived_ns_per_op_1000conns/secure",
    # Sharded namespace behind the routing gateway (BENCH_sharding.json):
    # per-op cost of the durable write pipeline at the CI shard counts
    # (isolated-sum rows — shards loaded one at a time, so the row tracks
    # the pipeline, not bench-host contention) and the gateway's routing
    # tax on single-shard write latency. shared_host rows stay unguarded:
    # they measure the CI machine as much as the code.
    "fig15/agg_write_isolated_ns_per_op_1shards/plain",
    "fig15/agg_write_isolated_ns_per_op_1shards/secure",
    "fig15/agg_write_isolated_ns_per_op_2shards/plain",
    "fig15/agg_write_isolated_ns_per_op_2shards/secure",
    "fig15/write_latency_median_ns_gateway_1shard/plain",
    "fig15/write_latency_median_ns_gateway_1shard/secure",
    "fig15/write_latency_median_ns_direct/plain",
    "fig15/write_latency_median_ns_direct/secure",
    # Always-on flight-recorder overhead (BENCH_trace.json): median write
    # ns/op with the recorder on and off, plain and secure. The <2% on/off
    # ratio is asserted inside the harness (--check); these rows guard the
    # absolute pipeline cost.
    "fig16/set_ns_per_op_recorder_on/plain",
    "fig16/set_ns_per_op_recorder_off/plain",
    "fig16/set_ns_per_op_recorder_on/secure",
    "fig16/set_ns_per_op_recorder_off/secure",
]
DEFAULT_THRESHOLD = 3.0


def load_medians(path):
    """Returns {benchmark: median_ns} from either a JSON-lines results file or
    the archived baseline wrapper ({"_meta": {"results": [...]}})."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read().strip()
    medians = {}
    try:
        wrapper = json.loads(text)
    except json.JSONDecodeError:
        wrapper = None
    if isinstance(wrapper, dict):
        rows = wrapper.get("_meta", {}).get("results", [])
    else:
        rows = [json.loads(line) for line in text.splitlines() if line.strip()]
    for row in rows:
        medians[row["benchmark"]] = float(row["median_ns"])
    return medians


def main(argv):
    if len(argv) < 3:
        print(__doc__)
        return 2
    current = load_medians(argv[1])
    baseline = load_medians(argv[2])
    threshold = float(argv[3]) if len(argv) > 3 else DEFAULT_THRESHOLD

    guarded = [name for name in GUARDED_BENCHMARKS if name in baseline]
    if not guarded:
        print(f"no guarded benchmark appears in baseline {argv[2]}")
        return 2

    failures = []
    for name in guarded:
        if name not in current:
            failures.append(f"{name}: missing from current results {argv[1]}")
            continue
        ratio = current[name] / baseline[name]
        verdict = "FAIL" if ratio > threshold else "ok"
        print(
            f"{verdict:>4}  {name}: {current[name]:.1f} ns vs baseline "
            f"{baseline[name]:.1f} ns ({ratio:.2f}x, threshold {threshold:.1f}x)"
        )
        if ratio > threshold:
            failures.append(f"{name}: {ratio:.2f}x over baseline")

    if failures:
        print("\nbench regression guard failed:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nbench regression guard passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
