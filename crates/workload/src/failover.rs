//! Throughput over time across an injected replica crash (Figure 12),
//! measured against a live networked ensemble
//! ([`zkserver::ensemble::ZkEnsembleServer`]).
//!
//! N client threads send the paper's 70:30 GET/SET mix over real sockets
//! through `netdriver::drive`, which checks every reply. When a
//! member goes away, a client reconnects to a surviving one; any other
//! failed check panics. The harness samples completed operations in fixed
//! time buckets and injects the crash at a configured instant. A leader
//! crash shows the dip during the election and the recovery once a new
//! leader serves writes; a follower crash shows only the loss of a member.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use zkserver::net::SessionCredentials;
use zkserver::{ZkError, ZkTcpClient};

use crate::generator::WorkloadSpec;
use crate::netdriver::{create_all, drive, ReplyCheck};

/// Operations generated per client; a client cycles through them until the
/// run ends.
const OPS_PER_CYCLE: usize = 1_000;

/// Shape of one failover run.
#[derive(Debug, Clone)]
pub struct FailoverSpec {
    /// Concurrent client connections.
    pub clients: usize,
    /// Payload size of the SET operations.
    pub payload_bytes: usize,
    /// Width of one throughput sample bucket.
    pub bucket: Duration,
    /// Ramp-up time excluded from the pre-crash baseline.
    pub warmup: Duration,
    /// Measured time before the crash is injected (after warmup).
    pub pre_crash: Duration,
    /// Measured time after the crash.
    pub post_crash: Duration,
}

impl Default for FailoverSpec {
    fn default() -> Self {
        FailoverSpec {
            clients: 8,
            payload_bytes: 128,
            bucket: Duration::from_millis(100),
            warmup: Duration::from_millis(500),
            pre_crash: Duration::from_millis(1500),
            post_crash: Duration::from_millis(3000),
        }
    }
}

/// Result of one failover run.
#[derive(Debug, Clone)]
pub struct FailoverReport {
    /// Requests/s per bucket, warmup included, in time order.
    pub timeline_rps: Vec<f64>,
    /// Bucket width in seconds.
    pub bucket_seconds: f64,
    /// Index of the first bucket after the crash injection.
    pub crash_bucket: usize,
    /// Mean throughput of the pre-crash measured window.
    pub pre_crash_rps: f64,
    /// Mean throughput of the post-crash window *after* recovery.
    pub post_crash_rps: f64,
    /// Time from the crash until throughput first regained 50% of the
    /// pre-crash mean. `None` if it never recovered within the run.
    pub recovery: Option<Duration>,
    /// Mean latency of one client operation in the pre-crash window.
    pub steady_op_latency: Duration,
    /// Total operations completed across the whole run.
    pub total_ops: u64,
}

impl FailoverReport {
    /// Recovery time in milliseconds; the full post-crash window when the
    /// ensemble never recovered (a pessimistic bound, so regression guards
    /// still bite).
    pub fn recovery_ms(&self, spec: &FailoverSpec) -> f64 {
        self.recovery.unwrap_or(spec.post_crash).as_secs_f64() * 1e3
    }
}

/// Runs the failover experiment: client threads load the ensemble at
/// `addrs` (failing over between addresses when a member goes away), `crash`
/// is invoked once the pre-crash window elapses, and the run continues for
/// the post-crash window.
///
/// `credentials` yields the per-connection session credentials — pass
/// sticky/replayable credentials to model secure sessions surviving the
/// crash.
///
/// # Panics
///
/// Panics if the workload's znodes cannot be created, or if a client gets an
/// error reply or a wrong payload that a lost member does not explain.
pub fn run_failover(
    addrs: &[SocketAddr],
    credentials: &dyn Fn() -> Arc<dyn SessionCredentials>,
    crash: impl FnOnce() + Send,
    spec: &FailoverSpec,
) -> FailoverReport {
    assert!(!addrs.is_empty(), "the ensemble has no client addresses");
    let workload = WorkloadSpec::paper_mix(spec.payload_bytes, spec.clients);
    let mut admin = ZkTcpClient::connect_with(addrs[0], credentials(), 30_000)
        .expect("connect the setup session");
    create_all(&mut admin, &workload.setup_requests(0)).expect("create the workload's znodes");
    admin.close();
    let mut per_client = vec![Vec::new(); spec.clients];
    for op in workload.generate(spec.clients * OPS_PER_CYCLE) {
        per_client[op.client].push(op.request);
    }

    let stop = AtomicBool::new(false);
    let completed = AtomicU64::new(0);
    let latency_ns = AtomicU64::new(0);
    let latency_samples = AtomicU64::new(0);
    let sample_latency = AtomicBool::new(true);
    let worker = |t: usize, credentials: Arc<dyn SessionCredentials>| {
        let mut next_addr = t;
        let mut check = ReplyCheck::new(spec.payload_bytes, 0, true);
        let mut client: Option<ZkTcpClient> = None;
        let mut requests = per_client[t].iter().cycle();
        while !stop.load(Ordering::Relaxed) {
            let Some(active) = client.as_mut() else {
                client = (0..addrs.len()).find_map(|_| {
                    let addr = addrs[next_addr % addrs.len()];
                    next_addr += 1;
                    ZkTcpClient::connect_with(addr, Arc::clone(&credentials), 30_000).ok()
                });
                if client.is_none() {
                    std::thread::sleep(Duration::from_millis(20));
                }
                continue;
            };
            let request = requests.next().expect("the cycle never ends");
            let started = Instant::now();
            match drive(active, std::slice::from_ref(request), 1, &mut check) {
                Ok(()) => {
                    completed.fetch_add(1, Ordering::Relaxed);
                    if sample_latency.load(Ordering::Relaxed) {
                        latency_ns
                            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
                        latency_samples.fetch_add(1, Ordering::Relaxed);
                    }
                }
                // The member went away or lost its quorum: fail over to the
                // next address. A write whose reply was lost may or may not
                // have landed, so what this client wrote is unknown now.
                Err(
                    ZkError::ConnectionLoss { .. }
                    | ZkError::NoQuorum
                    | ZkError::SessionExpired { .. },
                ) => {
                    client = None;
                    check.forget_writes();
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(err) => panic!("failover client {t}: {err}"),
            }
        }
    };

    // Sample the completed-op counter per bucket; inject the crash on time.
    let warmup_buckets = ratio_ceil(spec.warmup, spec.bucket);
    let pre_buckets = warmup_buckets + ratio_ceil(spec.pre_crash, spec.bucket);
    let post_buckets = ratio_ceil(spec.post_crash, spec.bucket);
    let bucket_seconds = spec.bucket.as_secs_f64();
    let timeline_rps = std::thread::scope(|scope| {
        for t in 0..spec.clients {
            let (worker, credentials) = (&worker, credentials());
            scope.spawn(move || worker(t, credentials));
        }
        let mut timeline_rps = Vec::with_capacity(pre_buckets + post_buckets);
        let mut last_count = 0u64;
        let mut crash = Some(crash);
        for bucket in 0..pre_buckets + post_buckets {
            if bucket == pre_buckets {
                // Freeze the steady-state latency sample and pull the plug —
                // on its own thread, since stopping a member can take longer
                // than a bucket and the sampler must stay on schedule.
                sample_latency.store(false, Ordering::Relaxed);
                if let Some(crash) = crash.take() {
                    scope.spawn(crash);
                }
            }
            std::thread::sleep(spec.bucket);
            let count = completed.load(Ordering::Relaxed);
            timeline_rps.push((count - last_count) as f64 / bucket_seconds);
            last_count = count;
        }
        stop.store(true, Ordering::Relaxed);
        timeline_rps
    });

    let pre_crash_rps = mean(&timeline_rps[warmup_buckets..pre_buckets]);
    let recovery_threshold = pre_crash_rps * 0.5;
    let recovery = timeline_rps[pre_buckets..]
        .iter()
        .position(|&rps| rps >= recovery_threshold)
        .map(|buckets| spec.bucket * (buckets as u32 + 1));
    let post_recovered: Vec<f64> = timeline_rps[pre_buckets..]
        .iter()
        .copied()
        .filter(|&rps| rps >= recovery_threshold)
        .collect();
    let samples = latency_samples.load(Ordering::Relaxed).max(1);
    FailoverReport {
        crash_bucket: pre_buckets,
        bucket_seconds,
        pre_crash_rps,
        post_crash_rps: mean(&post_recovered),
        recovery,
        steady_op_latency: Duration::from_nanos(latency_ns.load(Ordering::Relaxed) / samples),
        total_ops: completed.load(Ordering::Relaxed),
        timeline_rps,
    }
}

fn ratio_ceil(window: Duration, bucket: Duration) -> usize {
    ((window.as_secs_f64() / bucket.as_secs_f64()).ceil() as usize).max(1)
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use zkserver::ensemble::{EnsembleConfig, ZkEnsembleServer};
    use zkserver::net::PlainCredentials;
    use zkserver::ZkReplica;

    fn fast_config() -> EnsembleConfig {
        EnsembleConfig {
            heartbeat_interval: Duration::from_millis(20),
            election_timeout: Duration::from_millis(150),
            election_vote_window: Duration::from_millis(80),
            write_timeout: Duration::from_secs(2),
            poll_interval: Duration::from_millis(5),
            ..EnsembleConfig::default()
        }
    }

    #[test]
    fn leader_crash_timeline_dips_and_recovers() {
        let mut servers = ZkEnsembleServer::start_local_ensemble(3, &fast_config(), |id| {
            Arc::new(ZkReplica::new(id))
        })
        .unwrap();
        // Clients only target the survivors, so reconnects always land well.
        let addrs: Vec<SocketAddr> = servers[1..].iter().map(|s| s.client_addr()).collect();
        let leader = servers.remove(0);
        let spec = FailoverSpec {
            clients: 4,
            warmup: Duration::from_millis(300),
            pre_crash: Duration::from_millis(600),
            post_crash: Duration::from_millis(2500),
            ..FailoverSpec::default()
        };
        let report =
            run_failover(&addrs, &|| Arc::new(PlainCredentials), || leader.shutdown(), &spec);
        assert!(report.pre_crash_rps > 0.0, "no throughput before the crash");
        assert!(report.recovery.is_some(), "ensemble never recovered: {report:?}");
        assert!(report.post_crash_rps > 0.0);
        assert!(report.total_ops > 0);
        assert_eq!(
            report.timeline_rps.len(),
            report.crash_bucket + ratio_ceil(spec.post_crash, spec.bucket)
        );
    }

    #[test]
    fn follower_crash_on_a_tls_ensemble_never_stops_service() {
        use crate::netdriver::{credentials, member};
        use crate::variant::Variant;

        let mut servers = ZkEnsembleServer::start_local_ensemble(3, &fast_config(), |id| {
            member(Variant::TlsZk, id)
        })
        .unwrap();
        // Clients spread over every member; those on the crashed follower
        // fail over to the others.
        let addrs: Vec<SocketAddr> = servers.iter().map(|s| s.client_addr()).collect();
        let follower = servers.remove(2);
        let spec = FailoverSpec {
            clients: 3,
            warmup: Duration::from_millis(200),
            pre_crash: Duration::from_millis(400),
            post_crash: Duration::from_millis(800),
            ..FailoverSpec::default()
        };
        let report =
            run_failover(&addrs, &|| credentials(Variant::TlsZk), || follower.shutdown(), &spec);
        assert!(report.pre_crash_rps > 0.0, "no throughput before the crash");
        assert!(report.post_crash_rps > 0.0, "no throughput after the crash: {report:?}");
        assert!(report.recovery.is_some(), "{report:?}");
    }
}
