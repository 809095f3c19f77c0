//! Figure 14 (repro extension): connection scaling on the event-loop
//! transport — many live client connections against one server process.
//!
//! The paper's deployment regime is "many concurrent clients"; this harness
//! measures what the sharded readiness reactor buys there. For each variant
//! (vanilla ZooKeeper and SecureKeeper) it:
//!
//! 1. ramps up N live connections (default 1000, `--clients N` to override;
//!    the 10k point is opt-in because in-process loopback costs two file
//!    descriptors per connection — 10k connections need `ulimit -n` ≥ 24000,
//!    see docs/OPERATIONS.md),
//! 2. holds them all **idle** while a sampled subset performs reads, proving
//!    the held connections cost no transport threads and the loop stays
//!    interactive,
//! 3. drives **reads across every connection** from a small pool of worker
//!    threads and reports aggregate throughput plus the p99 read latency.
//!
//! The server's transport thread count is asserted O(cores) — independent of
//! N — which is the scaling claim the reactor exists to make true.
//!
//! ```text
//! cargo run --release --bin fig14_connections            # 1000 connections
//! cargo run --release --bin fig14_connections -- --clients 10000
//! ```
//!
//! With `BENCH_JSON` set, p99 and derived ns/op rows are appended in the
//! regression-guard JSON-lines format (`scripts/check_bench_regression.py`).

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use securekeeper::integration::{secure_standalone, SecureKeeperConfig};
use securekeeper::SecureSessionCredentials;
use workload::metrics::{Figure, Series};
use zkserver::net::{PlainCredentials, SessionCredentials};
use zkserver::session::MonotonicClock;
use zkserver::{ZkReplica, ZkTcpClient, ZkTcpServer};

/// Default number of live connections per variant.
const DEFAULT_CLIENTS: usize = 1000;
/// Payload of the read target znode.
const PAYLOAD_BYTES: usize = 256;
/// Reads per connection in the active phase.
const READS_PER_CONN: usize = 4;
/// Worker threads driving the active phase (the point: a handful of client
/// threads, not one per connection).
const ACTIVE_WORKERS: usize = 8;
/// Every Nth connection performs a probe read during the idle phase.
const IDLE_SAMPLE_STRIDE: usize = 100;

struct PhaseReport {
    ops: usize,
    wall: Duration,
    p99_ns: u64,
}

impl PhaseReport {
    fn throughput_rps(&self) -> f64 {
        self.ops as f64 / self.wall.as_secs_f64().max(f64::MIN_POSITIVE)
    }
}

fn p99(latencies: &mut [u64]) -> u64 {
    if latencies.is_empty() {
        return 0;
    }
    latencies.sort_unstable();
    let rank = (latencies.len() as f64 * 0.99).ceil() as usize;
    latencies[rank.saturating_sub(1).min(latencies.len() - 1)]
}

/// Connects `count` sessions and verifies each can read the target znode's
/// prefix (cheap liveness check during ramp-up, every 250th connection).
fn ramp_up(
    addr: SocketAddr,
    credentials: &Arc<dyn SessionCredentials>,
    count: usize,
) -> Vec<ZkTcpClient> {
    let mut clients = Vec::with_capacity(count);
    for index in 0..count {
        let mut client = ZkTcpClient::connect_with(addr, Arc::clone(credentials), 60_000)
            .unwrap_or_else(|err| {
                panic!("connect {index}/{count} failed: {err} (raise `ulimit -n`?)")
            });
        if index % 250 == 0 {
            client.get_data("/fig14", false).expect("ramp-up probe read");
        }
        clients.push(client);
    }
    clients
}

/// Idle phase: all connections stay open, a sampled subset reads. Returns the
/// sampled read latencies' p99.
fn idle_phase(clients: &mut [ZkTcpClient]) -> PhaseReport {
    let started = Instant::now();
    let mut latencies = Vec::new();
    for client in clients.iter_mut().step_by(IDLE_SAMPLE_STRIDE) {
        let before = Instant::now();
        client.get_data("/fig14", false).expect("idle probe read");
        latencies.push(before.elapsed().as_nanos() as u64);
    }
    let ops = latencies.len();
    PhaseReport { ops, wall: started.elapsed(), p99_ns: p99(&mut latencies) }
}

/// Active phase: every connection performs `READS_PER_CONN` reads, driven by
/// `ACTIVE_WORKERS` threads that each own a slice of the connections.
fn active_phase(clients: Vec<ZkTcpClient>) -> (PhaseReport, Vec<ZkTcpClient>) {
    let total = clients.len();
    let chunk = total.div_ceil(ACTIVE_WORKERS);
    let started = Instant::now();
    let mut handles = Vec::new();
    let mut clients = clients;
    while !clients.is_empty() {
        let mut slice: Vec<ZkTcpClient> = clients.drain(..chunk.min(clients.len())).collect();
        handles.push(std::thread::spawn(move || {
            let mut latencies = Vec::with_capacity(slice.len() * READS_PER_CONN);
            for client in &mut slice {
                for _ in 0..READS_PER_CONN {
                    let before = Instant::now();
                    client.get_data("/fig14", false).expect("active read");
                    latencies.push(before.elapsed().as_nanos() as u64);
                }
            }
            (slice, latencies)
        }));
    }
    let mut latencies = Vec::with_capacity(total * READS_PER_CONN);
    let mut survivors = Vec::with_capacity(total);
    for handle in handles {
        let (slice, mut worker_latencies) = handle.join().expect("active worker");
        survivors.extend(slice);
        latencies.append(&mut worker_latencies);
    }
    let wall = started.elapsed();
    let ops = latencies.len();
    (PhaseReport { ops, wall, p99_ns: p99(&mut latencies) }, survivors)
}

struct VariantResult {
    label: &'static str,
    clients: usize,
    idle: PhaseReport,
    active: PhaseReport,
    transport_threads: usize,
}

fn run_variant(
    label: &'static str,
    server: &ZkTcpServer,
    credentials: Arc<dyn SessionCredentials>,
    count: usize,
) -> VariantResult {
    // Seed the read target through a throwaway session.
    {
        let mut seeder =
            ZkTcpClient::connect_with(server.local_addr(), Arc::clone(&credentials), 60_000)
                .expect("seeder connect");
        match seeder.create(
            "/fig14",
            vec![7u8; PAYLOAD_BYTES],
            jute::records::CreateMode::Persistent,
        ) {
            Ok(_) | Err(zkserver::ZkError::NodeExists { .. }) => {}
            Err(err) => panic!("seed /fig14: {err}"),
        }
        seeder.close();
    }

    let mut clients = ramp_up(server.local_addr(), &credentials, count);
    assert!(
        server.connection_count() >= count,
        "{label}: expected {count} live connections, server sees {}",
        server.connection_count()
    );

    // The scaling claim: transport threads are O(cores), never O(N).
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let transport_threads = server.transport_thread_count();
    assert!(
        transport_threads <= cores.min(4) + 2,
        "{label}: {transport_threads} transport threads for {count} connections"
    );

    let idle = idle_phase(&mut clients);
    let (active, survivors) = active_phase(clients);
    for client in survivors {
        client.close();
    }
    VariantResult { label, clients: count, idle, active, transport_threads }
}

fn report(result: &VariantResult, json_path: Option<&str>) {
    println!(
        "{}: {} connections held on {} transport threads",
        result.label, result.clients, result.transport_threads
    );
    println!(
        "  idle probe:  {} sampled reads, p99 {:.2} ms",
        result.idle.ops,
        result.idle.p99_ns as f64 / 1e6
    );
    println!(
        "  active:      {} reads in {:.2} s — {:.0} reads/s, p99 {:.2} ms",
        result.active.ops,
        result.active.wall.as_secs_f64(),
        result.active.throughput_rps(),
        result.active.p99_ns as f64 / 1e6
    );
    if let Some(path) = json_path {
        let clients = result.clients;
        let label = result.label;
        bench::append_bench_row(
            path,
            &format!("fig14/active_read_p99_ns_{clients}conns/{label}"),
            result.active.p99_ns as f64,
        );
        bench::append_bench_row(
            path,
            &format!("fig14/active_read_derived_ns_per_op_{clients}conns/{label}"),
            1e9 / result.active.throughput_rps().max(f64::MIN_POSITIVE),
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let clients = args
        .iter()
        .position(|arg| arg == "--clients")
        .and_then(|position| args.get(position + 1))
        .and_then(|value| value.parse::<usize>().ok())
        .unwrap_or(DEFAULT_CLIENTS)
        .max(1);
    let json_path = std::env::var("BENCH_JSON").ok();

    bench::print_header(
        "Figure 14 (repro extension) — live-connection scaling on the event-loop transport",
        "N held connections, O(cores) transport threads, p99 read latency under full fan-out",
    );

    let mut figure = Figure::new(
        format!("Figure 14 — active read throughput at {clients} live connections"),
        "Variant",
        "Reads/s",
    );

    // Vanilla ZooKeeper: plain transport, passthrough interceptor.
    let plain = {
        let replica = Arc::new(ZkReplica::new(1).with_clock(Arc::new(MonotonicClock::new())));
        let server = ZkTcpServer::bind("127.0.0.1:0", replica).expect("bind loopback");
        let result = run_variant("plain", &server, Arc::new(PlainCredentials), clients);
        server.shutdown();
        result
    };
    report(&plain, json_path.as_deref());
    let mut series = Series::new("zookeeper (measured)");
    series.push(clients as f64, plain.active.throughput_rps());
    figure.add(series);

    // SecureKeeper: entry enclaves on the connection path, encrypted wire.
    let secure = {
        let config = SecureKeeperConfig::with_label("fig14-conns");
        let (replica, _interceptor, _counter) = secure_standalone(&config);
        let server = ZkTcpServer::bind("127.0.0.1:0", replica).expect("bind loopback");
        let result = run_variant("secure", &server, Arc::new(SecureSessionCredentials), clients);
        server.shutdown();
        result
    };
    report(&secure, json_path.as_deref());
    let mut series = Series::new("securekeeper (measured)");
    series.push(clients as f64, secure.active.throughput_rps());
    figure.add(series);

    bench::print_figure(&figure);
}
