//! Figure 13 (extension): crash-recovery time of a durable replica — the
//! snapshot + log-suffix boot against the full-log-replay baseline.
//!
//! The harness populates a single-member durable ensemble over real TCP,
//! kills it (process teardown; the data directory survives), and measures
//! the wall-clock time of [`ZkEnsembleServer::start_persistent`] — which
//! performs the entire recovery (newest valid snapshot, log-suffix replay,
//! protocol log rebuild) before returning. Two variants run over the same
//! write history:
//!
//! * **snapshot** — periodic snapshots enabled, so boot loads the newest
//!   snapshot and replays only the short suffix behind it;
//! * **log_replay** — snapshots disabled, so boot replays the entire
//!   write-ahead log from zxid 1 (the pre-snapshot behaviour).
//!
//! When `BENCH_JSON` is set, both recovery times are appended in the
//! regression-guard JSON-lines format (`persist/recovery_ms/*`, recorded in
//! nanoseconds like every other guarded metric), and
//! `scripts/check_bench_regression.py` guards them against the committed
//! `BENCH_persist.json` baseline.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use zab::NodeId;
use zkserver::client::ZkTcpClient;
use zkserver::ensemble::{EnsembleConfig, ZkEnsembleServer};
use zkserver::persist::{PersistConfig, ReplicaPersistence};
use zkserver::session::MonotonicClock;
use zkserver::ZkReplica;

/// Writes in the recovered history.
const WRITES: usize = 12_000;
/// Payload per write.
const PAYLOAD_BYTES: usize = 256;
/// Snapshot cadence of the snapshot variant.
const SNAPSHOT_EVERY: u64 = 500;

fn fresh_replica() -> Arc<ZkReplica> {
    Arc::new(ZkReplica::new(1).with_clock(Arc::new(MonotonicClock::new())))
}

fn peer_addrs() -> HashMap<NodeId, SocketAddr> {
    let probe = zab::TcpNetwork::bind(NodeId(1), "127.0.0.1:0").expect("bind probe");
    let addrs = HashMap::from([(NodeId(1), probe.local_addr())]);
    drop(probe);
    addrs
}

fn start(
    addrs: &HashMap<NodeId, SocketAddr>,
    dir: &PathBuf,
    config: PersistConfig,
) -> ZkEnsembleServer {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let persistence = ReplicaPersistence::open(dir, config).expect("open data dir");
        match ZkEnsembleServer::start_persistent(
            NodeId(1),
            addrs.clone(),
            "127.0.0.1:0",
            fresh_replica(),
            EnsembleConfig::default(),
            persistence,
        ) {
            Ok(server) => return server,
            Err(err) => {
                assert!(Instant::now() < deadline, "member never started: {err}");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// Populates, kills, and re-opens one durable member; returns the recovery
/// duration and the recovered stats line.
fn run_variant(label: &str, config: PersistConfig) -> Duration {
    let dir = std::env::temp_dir().join(format!("fig13-recovery-{}-{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let addrs = peer_addrs();

    let server = start(&addrs, &dir, config);
    let mut client = ZkTcpClient::connect(server.client_addr()).expect("client connect");
    client
        .create("/bench", Vec::new(), jute::records::CreateMode::Persistent)
        .expect("create root");
    let payload = vec![0x5a; PAYLOAD_BYTES];
    for i in 0..WRITES {
        client
            .create(
                &format!("/bench/n-{i:06}"),
                payload.clone(),
                jute::records::CreateMode::Persistent,
            )
            .expect("populate write");
    }
    let expected_zxid = server.last_applied_zxid();
    client.close();
    server.shutdown();

    // Recovery: everything happens inside start_persistent.
    let started = Instant::now();
    let server = start(&addrs, &dir, config);
    let elapsed = started.elapsed();
    assert_eq!(server.last_applied_zxid(), expected_zxid, "recovery lost writes");
    let stats = server.sync_stats();

    println!(
        "{label:>10}: recovered {} writes in {:.1} ms  (snapshot@{}, {} txns replayed)",
        WRITES,
        elapsed.as_secs_f64() * 1e3,
        stats.recovered_snapshot_zxid & 0xffff_ffff,
        stats.recovered_txns,
    );
    match label {
        "snapshot" => assert!(
            stats.recovered_snapshot_zxid > 0 && stats.recovered_txns < SNAPSHOT_EVERY * 2,
            "snapshot variant must boot from a snapshot plus a short suffix"
        ),
        _ => assert!(
            stats.recovered_txns as usize >= WRITES,
            "baseline variant must replay the full log"
        ),
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    elapsed
}

fn main() {
    bench::print_header(
        "Figure 13 — crash-recovery time: snapshot + suffix vs full log replay",
        "a durable replica reboots from its newest snapshot and replays only the log suffix",
    );
    let json_path = std::env::var("BENCH_JSON").ok();

    let baseline = run_variant(
        "log_replay",
        PersistConfig { snapshot_every: u64::MAX, ..PersistConfig::default() },
    );
    let snapshot = run_variant(
        "snapshot",
        PersistConfig { snapshot_every: SNAPSHOT_EVERY, ..PersistConfig::default() },
    );
    println!(
        "snapshot boot is {:.1}x the full-replay baseline ({:.1} ms vs {:.1} ms)",
        snapshot.as_secs_f64() / baseline.as_secs_f64().max(f64::MIN_POSITIVE),
        snapshot.as_secs_f64() * 1e3,
        baseline.as_secs_f64() * 1e3,
    );
    if let Some(path) = &json_path {
        bench::append_bench_row(path, "persist/recovery_ms/log_replay", baseline.as_nanos() as f64);
        bench::append_bench_row(path, "persist/recovery_ms/snapshot", snapshot.as_nanos() as f64);
    }
}
