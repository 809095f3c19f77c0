//! Figure 12: measured throughput over time while a member of a live
//! 3-replica TCP ensemble crashes — the leader (12a: an outage until a new
//! leader serves) and a follower (12b: only the loss of one member).
//!
//! All three variants run on loopback: vanilla members (plain wire, local
//! reads, forwarded writes), TLS-ZK members (transport encryption terminated
//! in the replica) and SecureKeeper members (entry-enclave interceptor on
//! every replica). Encrypted clients present replayable session keys that
//! survive the failover. Every reply is checked; anything but a lost member
//! panics. The harness reports the pre-crash steady state, the depth of the
//! outage, and the time until throughput recovers.
//!
//! When `BENCH_JSON` is set, the leader-crash metrics of the plain and
//! SecureKeeper ensembles are appended to that file as JSON lines compatible
//! with `scripts/check_bench_regression.py` (the `ensemble-bench` CI job
//! archives them as `BENCH_ensemble.json`).

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use securekeeper::ReplayableSessionCredentials;
use workload::failover::{run_failover, FailoverReport, FailoverSpec};
use workload::netdriver::member;
use workload::variant::Variant;
use zkserver::ensemble::{EnsembleConfig, ZkEnsembleServer};
use zkserver::net::{PlainCredentials, SessionCredentials};

fn ensemble_config() -> EnsembleConfig {
    EnsembleConfig {
        heartbeat_interval: Duration::from_millis(25),
        election_timeout: Duration::from_millis(200),
        election_vote_window: Duration::from_millis(100),
        write_timeout: Duration::from_secs(2),
        poll_interval: Duration::from_millis(5),
        ..EnsembleConfig::default()
    }
}

/// Runs one crash experiment on a fresh ensemble of `variant`: member 1
/// leads the first epoch; `crash_leader` picks it as the victim, otherwise
/// member 3 (a follower) goes.
fn run_variant(variant: Variant, crash_leader: bool, spec: &FailoverSpec) -> FailoverReport {
    let mut servers =
        ZkEnsembleServer::start_local_ensemble(3, &ensemble_config(), |id| member(variant, id))
            .expect("bind the ensemble");
    assert!(servers[0].is_leader(), "member 1 leads the first epoch");
    // After a leader crash clients dial only the survivors, so every
    // reconnect lands; after a follower crash they spread over all three.
    let (victim, first_dialled) = if crash_leader { (0, 1) } else { (2, 0) };
    let addrs: Vec<SocketAddr> = servers[first_dialled..].iter().map(|s| s.client_addr()).collect();
    let victim = servers.remove(victim);
    let credentials = || -> Arc<dyn SessionCredentials> {
        match variant {
            Variant::VanillaZk => Arc::new(PlainCredentials),
            _ => Arc::new(ReplayableSessionCredentials::generate()),
        }
    };
    let report = run_failover(&addrs, &credentials, || victim.shutdown(), spec);

    let fault = if crash_leader { "leader" } else { "follower" };
    println!("--- {variant}, {fault} crash ---");
    println!(
        "steady state: {:.0} req/s ({:.1} µs/op, {} clients)",
        report.pre_crash_rps,
        report.steady_op_latency.as_secs_f64() * 1e6,
        spec.clients,
    );
    match report.recovery {
        Some(recovery) => println!(
            "{fault} crash at t={:.1}s: back to >=50% in {} ms, post-crash {:.0} req/s",
            report.crash_bucket as f64 * report.bucket_seconds,
            recovery.as_millis(),
            report.post_crash_rps,
        ),
        None => println!("{fault} crash: the ensemble did NOT recover within the run"),
    }
    print!("timeline [req/s]:");
    for (bucket, rps) in report.timeline_rps.iter().enumerate() {
        if bucket == report.crash_bucket {
            print!("  |CRASH|");
        }
        print!(" {rps:.0}");
    }
    println!("\n");
    assert!(
        report.recovery.is_some(),
        "{variant} ensemble failed to recover from the {fault} crash"
    );
    for server in servers {
        server.shutdown();
    }
    report
}

fn main() {
    bench::print_header(
        "Figure 12 — measured fault tolerance of the live TCP ensemble",
        "paper §6.3, Figures 12a/12b: a leader failure causes a short outage until a new \
         leader serves; a follower failure only removes one member",
    );
    let json_path = std::env::var("BENCH_JSON").ok();
    let spec = FailoverSpec::default();
    for crash_leader in [true, false] {
        for variant in Variant::all() {
            let report = run_variant(variant, crash_leader, &spec);
            let label = match variant {
                Variant::VanillaZk => "plain",
                Variant::TlsZk => continue,
                Variant::SecureKeeper => "secure",
            };
            if let (true, Some(path)) = (crash_leader, &json_path) {
                bench::append_bench_row(
                    path,
                    &format!("ensemble/failover_recovery_ms/{label}"),
                    report.recovery_ms(&spec) * 1e6,
                );
                bench::append_bench_row(
                    path,
                    &format!("ensemble/steady_op_latency/{label}"),
                    report.steady_op_latency.as_nanos() as f64,
                );
            }
        }
    }
}
