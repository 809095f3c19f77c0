//! Figure 16 (repro extension): cost of the always-on flight recorder,
//! with per-stage latency attribution, plain and secure.
//!
//! The tracing design claims production viability: every request carries
//! a trace envelope and every pipeline stage records a span into the
//! per-thread ring buffer, *always*, with export gated on sampling and
//! the slow threshold instead of a recording on/off switch. That claim
//! only holds if recording is nearly free. This harness measures it:
//!
//! 1. drives synchronous `set_data` load through a single-member
//!    loopback ensemble (in-memory, deliberately — an fsync-bound
//!    pipeline would hide the recorder in disk noise; CPU-bound is the
//!    recorder's worst case), alternating recorder-ON and recorder-OFF
//!    op by op so both per-op latency distributions sample the same
//!    host weather, and reports the ratio of their medians;
//! 2. repeats the sweep through the SecureKeeper entry-enclave pipeline
//!    (transport-sealed frames; the envelope rides outside the cipher);
//! 3. prints the per-stage latency breakdown the recorder captured —
//!    mean span duration by stage, plain vs secure, the attribution
//!    table `docs/TRACING.md` describes.
//!
//! ```text
//! cargo run --release --bin fig16_trace_overhead               # full sweep
//! cargo run --release --bin fig16_trace_overhead -- --pairs 2000
//! cargo run --release --bin fig16_trace_overhead -- --check    # exit 1 if >= 2%
//! ```
//!
//! With `BENCH_JSON` set, median ns/op rows (recorder on and off, both
//! modes) are appended in the regression-guard JSON-lines format
//! (`scripts/check_bench_regression.py`, baseline `BENCH_trace.json`).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use securekeeper::integration::{secure_ensemble_replica, SecureKeeperConfig};
use securekeeper::SecureSessionCredentials;
use trace::Stage;
use zkserver::client::ZkTcpClient;
use zkserver::ensemble::{EnsembleConfig, ZkEnsembleServer};
use zkserver::ZkReplica;

/// Interleaved ON/OFF op pairs per mode. Each pair times one write with
/// the recorder on and one with it off, back to back, so both legs see
/// the same host weather; the overhead is the ratio of the two per-op
/// medians. Batch-level pairing was tried first and rejected: a batch
/// pair spans ~50 ms, long enough for CPU-frequency and load drift to
/// swamp a sub-1% effect.
const DEFAULT_OP_PAIRS: usize = 12_000;
/// Warm-up writes per leg before anything is timed.
const WARMUP_OPS: usize = 400;
/// Payload of every write.
const PAYLOAD_BYTES: usize = 128;
/// The acceptance ceiling `--check` enforces.
const OVERHEAD_CEILING_PCT: f64 = 2.0;

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

fn ensemble_config() -> EnsembleConfig {
    EnsembleConfig {
        heartbeat_interval: Duration::from_millis(20),
        election_timeout: Duration::from_millis(150),
        election_vote_window: Duration::from_millis(80),
        write_timeout: Duration::from_secs(5),
        poll_interval: Duration::from_millis(5),
        ..EnsembleConfig::default()
    }
}

fn start_member(mode: Mode) -> Vec<ZkEnsembleServer> {
    match mode {
        Mode::Plain => ZkEnsembleServer::start_local_ensemble(1, &ensemble_config(), |id| {
            Arc::new(ZkReplica::new(id))
        }),
        Mode::Secure => {
            let config = SecureKeeperConfig::with_label("fig16-trace-overhead");
            ZkEnsembleServer::start_local_ensemble(1, &ensemble_config(), move |id| {
                let (replica, _interceptor, _counter) = secure_ensemble_replica(id, &config);
                replica
            })
        }
    }
    .expect("bind loopback member")
}

fn connect(member: &ZkEnsembleServer, mode: Mode) -> ZkTcpClient {
    match mode {
        Mode::Plain => ZkTcpClient::connect(member.client_addr()).expect("connect plain"),
        Mode::Secure => ZkTcpClient::connect_with(
            member.client_addr(),
            Arc::new(SecureSessionCredentials),
            30_000,
        )
        .expect("connect secure"),
    }
}

/// One timed synchronous write; returns its latency in nanoseconds.
fn timed_op(client: &mut ZkTcpClient, seq: u64) -> f64 {
    let mut payload = vec![0u8; PAYLOAD_BYTES];
    payload[..8].copy_from_slice(&seq.to_be_bytes());
    let started = Instant::now();
    client.set_data("/reg", payload, -1).expect("bench write");
    started.elapsed().as_nanos() as f64
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

/// Mean recorded span duration per stage, in nanoseconds.
fn stage_means() -> BTreeMap<&'static str, (usize, f64)> {
    let mut sums: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
    for span in trace::snapshot() {
        let entry = sums.entry(span.stage.name()).or_insert((0, 0.0));
        entry.0 += 1;
        entry.1 += span.end_ns.saturating_sub(span.start_ns) as f64;
    }
    sums.into_iter().map(|(stage, (count, sum))| (stage, (count, sum / count as f64))).collect()
}

struct ModeResult {
    on_ns: f64,
    off_ns: f64,
    /// `(median(on) / median(off) - 1) * 100`, over per-op latencies of
    /// op-level interleaved legs. Medians, not means: a single scheduler
    /// stall in one leg would otherwise dominate a sub-1% effect.
    overhead_pct: f64,
    stages: BTreeMap<&'static str, (usize, f64)>,
}

fn run_mode(mode: Mode, pairs: usize) -> ModeResult {
    let members = start_member(mode);
    let mut client = connect(&members[0], mode);
    client
        .create("/reg", vec![0u8; PAYLOAD_BYTES], jute::records::CreateMode::Persistent)
        .expect("bootstrap register");

    // Warm both paths (session caches, the secure path's per-session
    // enclave, allocator) before anything is timed.
    trace::set_enabled(true);
    for i in 0..WARMUP_OPS {
        timed_op(&mut client, i as u64);
    }
    trace::set_enabled(false);
    for i in 0..WARMUP_OPS {
        timed_op(&mut client, i as u64);
    }

    // Only the ON ops' spans should feed the attribution table.
    trace::clear();
    let mut on = Vec::with_capacity(pairs);
    let mut off = Vec::with_capacity(pairs);
    for pair in 0..pairs {
        // Alternate which leg goes first so any order effect (cache
        // residency left by the previous op) cancels across pairs.
        let on_first = pair % 2 == 0;
        for leg in 0..2 {
            let recording = (leg == 0) == on_first;
            trace::set_enabled(recording);
            let ns = timed_op(&mut client, (pair * 2 + leg) as u64);
            if recording {
                on.push(ns);
            } else {
                off.push(ns);
            }
        }
    }
    trace::set_enabled(true);
    let stages = stage_means();

    client.close();
    for member in members {
        member.shutdown();
    }
    let on_ns = median(&mut on);
    let off_ns = median(&mut off);
    ModeResult { on_ns, off_ns, overhead_pct: (on_ns / off_ns - 1.0) * 100.0, stages }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let pairs = args
        .iter()
        .position(|arg| arg == "--pairs")
        .and_then(|position| args.get(position + 1))
        .and_then(|value| value.parse::<usize>().ok())
        .unwrap_or(DEFAULT_OP_PAIRS);
    let check = args.iter().any(|arg| arg == "--check");
    let json_path = std::env::var("BENCH_JSON").ok();

    bench::print_header(
        "Figure 16 (repro extension) — always-on flight-recorder overhead",
        "recorder ON vs OFF write latency (op-level interleaved) plus per-stage attribution",
    );

    let mut results: Vec<(Mode, ModeResult)> = Vec::new();
    for mode in [Mode::Plain, Mode::Secure] {
        let result = run_mode(mode, pairs);
        let label = mode.label();
        println!(
            "{label}: {:.1} us/op recorder ON vs {:.1} us/op OFF over {pairs} \
             interleaved write pairs ({:+.2}% recorder overhead)",
            result.on_ns / 1e3,
            result.off_ns / 1e3,
            result.overhead_pct,
        );
        if let Some(path) = json_path.as_deref() {
            bench::append_bench_row(
                path,
                &format!("fig16/set_ns_per_op_recorder_on/{label}"),
                result.on_ns,
            );
            bench::append_bench_row(
                path,
                &format!("fig16/set_ns_per_op_recorder_off/{label}"),
                result.off_ns,
            );
        }
        results.push((mode, result));
    }

    // The attribution table: mean recorded span duration per stage. The
    // enclave stages (`open`/`seal`) only exist on the secure pipeline;
    // the durable stage (`wal_fsync`) needs a persistent member and is
    // legitimately absent here (fig15 exercises that pipeline).
    println!();
    println!("per-stage mean recorded latency (us), from the flight recorder itself:");
    println!("{:>12} {:>14} {:>14}", "stage", "plain", "secure");
    for stage in Stage::ALL {
        let cell = |mode_result: &ModeResult| {
            mode_result
                .stages
                .get(stage.name())
                .map(|(count, mean)| format!("{:.2} (n={count})", mean / 1e3))
                .unwrap_or_else(|| "-".to_string())
        };
        println!("{:>12} {:>14} {:>14}", stage.name(), cell(&results[0].1), cell(&results[1].1));
    }

    println!();
    let mut worst = f64::MIN;
    for (mode, result) in &results {
        worst = worst.max(result.overhead_pct);
        println!(
            "{}: recorder overhead {:+.2}% (ceiling {OVERHEAD_CEILING_PCT}%)",
            mode.label(),
            result.overhead_pct
        );
    }
    if worst < OVERHEAD_CEILING_PCT {
        println!("PASS: always-on recording costs < {OVERHEAD_CEILING_PCT}% of write throughput");
    } else {
        println!(
            "FAIL: recorder overhead {worst:+.2}% breaches the {OVERHEAD_CEILING_PCT}% ceiling"
        );
        if check {
            std::process::exit(1);
        }
    }
}
