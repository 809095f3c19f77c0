//! Figure 15 (repro extension): write-throughput scaling of the sharded
//! namespace behind the routing gateway.
//!
//! ZooKeeper's write path is commit-latency-bound: every write funnels
//! through one ensemble's agreement pipeline, so adding clients stops
//! helping long before the CPU saturates. The sharded namespace multiplies
//! independent commit pipelines — this harness measures what that buys and
//! what the extra routing hop costs. For each variant (plain wire and
//! client-sealed SecureKeeper ciphertext) it:
//!
//! 1. sweeps the shard count (default 1, 2, 4), running a fixed number of
//!    synchronous writers **per shard** against one gateway, and reports
//!    aggregate write throughput two ways:
//!    * **isolated-sum** — each shard's durable pipeline is loaded one
//!      shard at a time through the full n-shard gateway and the per-shard
//!      throughputs are summed. This is the aggregate of the deployment
//!      the sharded namespace targets (each ensemble on its own machines
//!      and disks); loading shards one at a time removes the bench host
//!      itself from the measurement while still proving the shared
//!      gateway serializes nothing across shards.
//!    * **shared-host** — all shards loaded concurrently on this one
//!      host. Every shard's fsyncs and the whole client/gateway/server
//!      stack multiplex onto the same core(s) and backing device here, so
//!      on small CI machines this curve saturates at the host, not the
//!      architecture (a raw 4-thread `fdatasync` loop on a 1-core
//!      container already caps below 2.5x). Both curves are printed so
//!      the host ceiling is visible instead of silently folded in.
//! 2. measures single-client write latency through the gateway at one
//!    shard versus directly against the backend — the routing-hop tax.
//!
//! ```text
//! cargo run --release --bin fig15_sharding                 # 1, 2, 4 shards
//! cargo run --release --bin fig15_sharding -- --shards 1,2
//! ```
//!
//! With `BENCH_JSON` set, derived ns/op and latency rows are appended in
//! the regression-guard JSON-lines format
//! (`scripts/check_bench_regression.py`, baseline `BENCH_sharding.json`).

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use std::collections::HashMap;
use std::path::PathBuf;

use gateway::{Gateway, GatewayConfig, ShardMap};
use jute::records::CreateMode;
use securekeeper::path_crypto::PathCipher;
use securekeeper::SealedClient;
use workload::metrics::{Figure, Series};
use zab::{NodeId, TcpNetwork};
use zkcrypto::keys::StorageKey;
use zkserver::client::ZkTcpClient;
use zkserver::ensemble::{EnsembleConfig, ZkEnsembleServer};
use zkserver::persist::{PersistConfig, ReplicaPersistence};
use zkserver::{ZkError, ZkReplica};

/// Synchronous writers per shard — fixed, so the sweep isolates the number
/// of commit pipelines as the only variable.
const WRITERS_PER_SHARD: usize = 1;
/// Writes each writer performs per cell.
const DEFAULT_OPS_PER_WRITER: usize = 200;
/// Sequential writes in each latency probe.
const LATENCY_OPS: usize = 150;
/// Payload of every write.
const PAYLOAD_BYTES: usize = 1024;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Plain,
    Secure,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Plain => "plain",
            Mode::Secure => "secure",
        }
    }
}

/// One writer session, plain or client-sealed.
enum BenchClient {
    Plain(Box<ZkTcpClient>),
    Sealed(Box<SealedClient>),
}

impl BenchClient {
    fn connect(addr: SocketAddr, mode: Mode, key: &StorageKey) -> BenchClient {
        match mode {
            Mode::Plain => {
                BenchClient::Plain(Box::new(ZkTcpClient::connect(addr).expect("connect plain")))
            }
            Mode::Secure => BenchClient::Sealed(Box::new(
                SealedClient::connect(addr, key, 60_000).expect("connect sealed"),
            )),
        }
    }

    fn create(&mut self, path: &str, data: Vec<u8>) -> Result<(), ZkError> {
        let result = match self {
            BenchClient::Plain(client) => {
                client.create(path, data, CreateMode::Persistent).map(|_| ())
            }
            BenchClient::Sealed(client) => {
                client.create(path, data, CreateMode::Persistent).map(|_| ())
            }
        };
        match result {
            Ok(()) | Err(ZkError::NodeExists { .. }) => Ok(()),
            Err(err) => Err(err),
        }
    }

    fn set_data(&mut self, path: &str, data: Vec<u8>) -> Result<(), ZkError> {
        match self {
            BenchClient::Plain(client) => client.set_data(path, data, -1).map(|_| ()),
            BenchClient::Sealed(client) => client.set_data(path, data, -1).map(|_| ()),
        }
    }

    fn close(self) {
        match self {
            BenchClient::Plain(client) => client.close(),
            BenchClient::Sealed(client) => client.close(),
        }
    }
}

/// One running cell: `n` *durable* single-member shard ensembles and a
/// gateway whose map routes `/t{i}` to shard `i` (sealed prefixes in
/// secure mode). Durability matters here: production coordination writes
/// are WAL-fsync-bound, and it is exactly that per-ensemble fsync pipeline
/// the sharded namespace multiplies — an in-memory backend would measure
/// the CPU instead of the claim.
struct Cell {
    shards: Vec<Vec<ZkEnsembleServer>>,
    gateway: Gateway,
    data_dirs: Vec<PathBuf>,
}

/// Boots one durable single-member ensemble over a fresh temp data dir.
fn start_durable_member(config: &EnsembleConfig, data_dir: &PathBuf) -> ZkEnsembleServer {
    let transport = TcpNetwork::bind(NodeId(1), "127.0.0.1:0").expect("bind peer transport");
    let peer_addrs: HashMap<NodeId, SocketAddr> =
        HashMap::from([(NodeId(1), transport.local_addr())]);
    let persistence =
        ReplicaPersistence::open(data_dir, PersistConfig::default()).expect("open shard data dir");
    ZkEnsembleServer::start_custom(
        Arc::new(transport),
        peer_addrs,
        "127.0.0.1:0",
        Arc::new(ZkReplica::new(1)),
        config.clone(),
        Some(persistence),
    )
    .expect("start durable shard member")
}

fn shard_prefix(shard: usize) -> String {
    format!("/t{shard}")
}

fn register_path(shard: usize, writer: usize) -> String {
    format!("/t{shard}/w{writer}")
}

impl Cell {
    fn start(shard_count: usize, mode: Mode, key: &StorageKey) -> Cell {
        let config = EnsembleConfig {
            heartbeat_interval: Duration::from_millis(20),
            election_timeout: Duration::from_millis(150),
            election_vote_window: Duration::from_millis(80),
            write_timeout: Duration::from_secs(5),
            poll_interval: Duration::from_millis(5),
            ..EnsembleConfig::default()
        };
        let data_dirs: Vec<PathBuf> = (0..shard_count)
            .map(|shard| {
                static CELL: std::sync::atomic::AtomicUsize =
                    std::sync::atomic::AtomicUsize::new(0);
                let cell = CELL.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                std::env::temp_dir()
                    .join(format!("zk-fig15-{}-{cell}-s{shard}", std::process::id()))
            })
            .collect();
        let shards: Vec<Vec<ZkEnsembleServer>> =
            data_dirs.iter().map(|dir| vec![start_durable_member(&config, dir)]).collect();

        // Bootstrap each shard's subtree directly (the gateway would route
        // the shared ancestors elsewhere), then front them with the map.
        let prefixes: Vec<String> = (0..shard_count).map(shard_prefix).collect();
        let mut rules: Vec<(&str, usize)> = vec![("/", 0)];
        for (shard, prefix) in prefixes.iter().enumerate() {
            rules.push((prefix.as_str(), shard));
        }
        let map = ShardMap::new(shard_count, &rules).expect("valid map");
        let map = match mode {
            Mode::Plain => map,
            Mode::Secure => {
                let cipher = PathCipher::new(key);
                map.sealed_with(|p| cipher.encrypt_path(p).expect("seal prefix"))
            }
        };
        for (shard, members) in shards.iter().enumerate() {
            let mut boot = BenchClient::connect(members[0].client_addr(), mode, key);
            boot.create(&shard_prefix(shard), Vec::new()).expect("bootstrap prefix");
            for writer in 0..WRITERS_PER_SHARD {
                boot.create(&register_path(shard, writer), vec![0u8; PAYLOAD_BYTES])
                    .expect("bootstrap register");
            }
            boot.close();
        }

        let shard_addrs: Vec<Vec<SocketAddr>> = shards
            .iter()
            .map(|members| members.iter().map(ZkEnsembleServer::client_addr).collect())
            .collect();
        let gateway = Gateway::bind("127.0.0.1:0", GatewayConfig::new(map, shard_addrs))
            .expect("bind gateway");
        Cell { shards, gateway, data_dirs }
    }

    fn shutdown(self) {
        self.gateway.shutdown();
        for members in self.shards {
            for member in members {
                member.shutdown();
            }
        }
        for dir in self.data_dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Synchronous write throughput over the given `(shard, writer)` pairs,
/// each writer hammering its own register through the gateway. Sessions
/// are established before the clock starts (a `Barrier` holds the writers
/// until everyone is connected), so the figure is pure write-path time.
fn run_writers(
    cell: &Cell,
    pairs: &[(usize, usize)],
    mode: Mode,
    key: &StorageKey,
    ops: usize,
) -> f64 {
    let addr = cell.gateway.local_addr();
    let gate = Arc::new(std::sync::Barrier::new(pairs.len() + 1));
    let workers: Vec<_> = pairs
        .iter()
        .map(|&(shard, writer)| {
            let key = key.clone();
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                let mut client = BenchClient::connect(addr, mode, &key);
                let path = register_path(shard, writer);
                gate.wait();
                for i in 0..ops {
                    let mut payload = vec![0u8; PAYLOAD_BYTES];
                    payload[..8].copy_from_slice(&(i as u64).to_be_bytes());
                    client.set_data(&path, payload).expect("bench write");
                }
                client.close();
            })
        })
        .collect();
    gate.wait();
    let started = Instant::now();
    for worker in workers {
        worker.join().expect("writer thread");
    }
    let wall = started.elapsed();
    (pairs.len() * ops) as f64 / wall.as_secs_f64().max(f64::MIN_POSITIVE)
}

fn writer_pairs(shards: impl Iterator<Item = usize>) -> Vec<(usize, usize)> {
    shards.flat_map(|shard| (0..WRITERS_PER_SHARD).map(move |writer| (shard, writer))).collect()
}

/// All shards loaded at once — every pipeline contends for this host.
fn shared_host_cell(
    cell: &Cell,
    shard_count: usize,
    mode: Mode,
    key: &StorageKey,
    ops: usize,
) -> f64 {
    run_writers(cell, &writer_pairs(0..shard_count), mode, key, ops)
}

/// One shard at a time through the same n-shard gateway, throughputs
/// summed — the aggregate when each ensemble owns its hardware.
fn isolated_sum_cell(
    cell: &Cell,
    shard_count: usize,
    mode: Mode,
    key: &StorageKey,
    ops: usize,
) -> f64 {
    (0..shard_count)
        .map(|shard| run_writers(cell, &writer_pairs(shard..=shard), mode, key, ops))
        .sum()
}

/// Median single-client write latency via the gateway and directly
/// against the backend, interleaved op-by-op on the same shard so both
/// medians sample the same filesystem weather (fsync latency drifts on
/// shared hosts; back-to-back probes would compare different windows).
fn latency_probes(
    gateway_addr: SocketAddr,
    direct_addr: SocketAddr,
    mode: Mode,
    key: &StorageKey,
    shard: usize,
) -> (u64, u64) {
    let mut via_gateway = BenchClient::connect(gateway_addr, mode, key);
    let mut direct = BenchClient::connect(direct_addr, mode, key);
    let path = register_path(shard, 0);
    let mut gateway_samples = Vec::with_capacity(LATENCY_OPS);
    let mut direct_samples = Vec::with_capacity(LATENCY_OPS);
    for i in 0..LATENCY_OPS {
        for (client, samples) in
            [(&mut via_gateway, &mut gateway_samples), (&mut direct, &mut direct_samples)]
        {
            let mut payload = vec![0u8; PAYLOAD_BYTES];
            payload[..8].copy_from_slice(&(i as u64).to_be_bytes());
            let before = Instant::now();
            client.set_data(&path, payload).expect("latency write");
            samples.push(before.elapsed().as_nanos() as u64);
        }
    }
    via_gateway.close();
    direct.close();
    let median = |samples: &mut Vec<u64>| {
        samples.sort_unstable();
        samples[samples.len() / 2]
    };
    (median(&mut gateway_samples), median(&mut direct_samples))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let shard_counts: Vec<usize> = args
        .iter()
        .position(|arg| arg == "--shards")
        .and_then(|position| args.get(position + 1))
        .map(|value| {
            value
                .split(',')
                .map(|n| n.trim().parse::<usize>().expect("--shards takes e.g. 1,2,4"))
                .collect()
        })
        .unwrap_or_else(|| vec![1, 2, 4]);
    let ops = args
        .iter()
        .position(|arg| arg == "--ops")
        .and_then(|position| args.get(position + 1))
        .and_then(|value| value.parse::<usize>().ok())
        .unwrap_or(DEFAULT_OPS_PER_WRITER);
    let json_path = std::env::var("BENCH_JSON").ok();

    bench::print_header(
        "Figure 15 (repro extension) — sharded-namespace write scaling behind the gateway",
        "aggregate write throughput vs shard count, plus the gateway's latency tax at one shard",
    );

    let key = StorageKey::derive_from_label("fig15-sharding");
    let mut figure = Figure::new("Figure 15 — aggregate write throughput", "Shards", "Writes/s");

    for mode in [Mode::Plain, Mode::Secure] {
        let label = mode.label();
        let mut isolated_series = Series::new(format!("{label} isolated-sum (measured)"));
        let mut shared_series = Series::new(format!("{label} shared-host (measured)"));
        let mut first_isolated = None;
        let mut first_shared = None;
        for &shard_count in &shard_counts {
            let cell = Cell::start(shard_count, mode, &key);
            let isolated = isolated_sum_cell(&cell, shard_count, mode, &key, ops);
            let shared = shared_host_cell(&cell, shard_count, mode, &key, ops);
            cell.shutdown();
            println!(
                "{label} @{shard_count} shard(s): {isolated:.0} writes/s isolated-sum, \
                 {shared:.0} writes/s shared-host \
                 ({WRITERS_PER_SHARD} writers/shard x {ops} ops)"
            );
            if let Some(path) = json_path.as_deref() {
                bench::append_bench_row(
                    path,
                    &format!("fig15/agg_write_isolated_ns_per_op_{shard_count}shards/{label}"),
                    1e9 / isolated.max(f64::MIN_POSITIVE),
                );
                bench::append_bench_row(
                    path,
                    &format!("fig15/agg_write_shared_host_ns_per_op_{shard_count}shards/{label}"),
                    1e9 / shared.max(f64::MIN_POSITIVE),
                );
            }
            isolated_series.push(shard_count as f64, isolated);
            shared_series.push(shard_count as f64, shared);
            first_isolated.get_or_insert(isolated);
            first_shared.get_or_insert(shared);
            if Some(&shard_count) == shard_counts.last() && shard_count > 1 {
                println!(
                    "{label}: {:.2}x isolated-sum aggregate scaling {} -> {shard_count} shards \
                     ({:.2}x concurrently on this shared host)",
                    isolated / first_isolated.unwrap(),
                    shard_counts[0],
                    shared / first_shared.unwrap(),
                );
            }
        }
        figure.add(isolated_series);
        figure.add(shared_series);

        // Latency tax: one shard, a single synchronous writer, gateway vs
        // direct backend connection.
        let cell = Cell::start(1, mode, &key);
        let (via_gateway, direct) = latency_probes(
            cell.gateway.local_addr(),
            cell.shards[0][0].client_addr(),
            mode,
            &key,
            0,
        );
        cell.shutdown();
        let overhead = (via_gateway as f64 / direct as f64 - 1.0) * 100.0;
        println!(
            "{label} single-shard write latency: {:.2} ms via gateway vs {:.2} ms direct \
             ({overhead:+.1}% routing tax)",
            via_gateway as f64 / 1e6,
            direct as f64 / 1e6,
        );
        if let Some(path) = json_path.as_deref() {
            bench::append_bench_row(
                path,
                &format!("fig15/write_latency_median_ns_gateway_1shard/{label}"),
                via_gateway as f64,
            );
            bench::append_bench_row(
                path,
                &format!("fig15/write_latency_median_ns_direct/{label}"),
                direct as f64,
            );
        }
    }

    bench::print_figure(&figure);
}
