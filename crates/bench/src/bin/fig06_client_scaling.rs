//! Figure 6: throughput of the 70:30 GET/SET mix (1 KiB payload) as the number
//! of client connections grows — synchronous (6a) and asynchronous (6b) —
//! measured over live loopback TCP servers for vanilla ZooKeeper, TLS-ZK and
//! SecureKeeper.
//!
//! With `--multi N` the harness instead measures atomic `multi`
//! transactions of N sub-operations (one `check` guard plus N-1 `set_data`
//! writes per batch) against plain and SecureKeeper servers, reporting
//! throughput in sub-operations per second so the batching amortization is
//! directly comparable with the single-op mix. When `BENCH_JSON` is set, the
//! plain-vs-secure batched results are appended to that file in the
//! regression-guard JSON-lines format.
//!
//! ```text
//! BENCH_JSON=bench-multi.json cargo run --release --bin fig06_client_scaling -- --multi 8
//! ```
//!
//! With `--recipes` the harness measures the transactional *recipes* built
//! on `multi`'s atomicity — atomic rename (create the new name + delete the
//! old one in one batch) and CAS counters (version-guarded check + set) —
//! against both servers, reporting sub-operations per second per recipe:
//!
//! ```text
//! BENCH_JSON=bench-recipes.json cargo run --release --bin fig06_client_scaling -- --recipes
//! ```

use workload::generator::{MultiSpec, RecipeSpec, WorkloadSpec};
use workload::metrics::{Figure, Series};
use workload::netdriver::{run_multi_batches, run_recipes, LiveServer, NetRunReport};
use workload::variant::{RequestMode, Variant};

/// Payload size of the Figure 6 mix.
const PAYLOAD_BYTES: usize = 1024;
/// Transactions each connection commits in the `--multi` and `--recipes`
/// modes.
const TXNS_PER_CLIENT: usize = 100;
/// The variants the `--multi` and `--recipes` modes compare, with the label
/// of their BENCH_JSON rows.
const BATCH_VARIANTS: [(Variant, &str); 2] =
    [(Variant::VanillaZk, "plain"), (Variant::SecureKeeper, "secure")];

fn run_scaling() {
    bench::print_header(
        "Figure 6 — throughput of the 70:30 mix vs number of client connections",
        "paper §6.1, Figures 6a/6b: each point drives N live loopback connections",
    );
    for (caption, mode, client_counts) in [
        (
            "Figure 6a — synchronous requests",
            RequestMode::Synchronous,
            &[1usize, 2, 4, 8, 16, 32][..],
        ),
        ("Figure 6b — asynchronous requests", RequestMode::Asynchronous, &[1, 2, 4, 8][..]),
    ] {
        let mut figure = Figure::new(caption, "Client Connections", "Requests/s");
        for variant in Variant::all() {
            let mut series = Series::new(variant.label());
            for &clients in client_counts {
                let spec = WorkloadSpec::paper_mix(PAYLOAD_BYTES, clients);
                series.push(clients as f64, bench::measure(variant, &spec, mode));
            }
            figure.add(series);
        }
        bench::print_figure(&figure);
    }
}

/// The recorded value is the *derived* ns per sub-operation — the reciprocal
/// of aggregate throughput, gated on the slowest worker — not a sampled
/// latency median; the benchmark key spells that out.
fn append_derived_ns_row(path: &str, benchmark: &str, report: &NetRunReport) {
    bench::append_bench_row(path, benchmark, 1e9 / report.throughput_rps.max(f64::MIN_POSITIVE));
}

fn run_multi_mode(batch: usize) {
    bench::print_header(
        "Figure 6 (multi) — measured throughput of atomic multi batches vs TCP connections",
        "batched writes amortize one wire round-trip and one agreement round over N sub-ops",
    );
    let json_path = std::env::var("BENCH_JSON").ok();
    let mut figure = Figure::new(
        format!("Figure 6 (multi, batch={batch}) — sub-operations/s on loopback"),
        "Client Connections",
        "Sub-ops/s",
    );
    let mut last = Vec::new();
    for (variant, label) in BATCH_VARIANTS {
        let server = LiveServer::start(variant);
        let mut series = Series::new(variant.label());
        let mut report = None;
        for clients in [1usize, 2, 4, 8, 16] {
            let spec = MultiSpec::batched_writes(batch, PAYLOAD_BYTES, clients);
            let run = run_multi_batches(&server, TXNS_PER_CLIENT, &spec)
                .unwrap_or_else(|err| panic!("{variant} multi run failed: {err}"));
            series.push(clients as f64, run.throughput_rps);
            report = Some(run);
        }
        server.shutdown();
        figure.add(series);
        last.push((label, report.expect("the sweep has points")));
    }
    bench::print_figure(&figure);
    if let Some(path) = &json_path {
        for (label, report) in &last {
            let clients = report.clients;
            let key =
                format!("fig06/multi_batch{batch}_derived_ns_per_subop_{clients}clients/{label}");
            append_derived_ns_row(path, &key, report);
        }
        println!(
            "BENCH_JSON: recorded batch={batch} plain {:.0} sub-ops/s vs secure {:.0} sub-ops/s",
            last[0].1.throughput_rps, last[1].1.throughput_rps
        );
    }
}

fn run_recipes_mode() {
    bench::print_header(
        "Figure 6 (recipes) — atomic rename and CAS counters as multi transactions",
        "coordination recipes ride multi's atomicity: 2 sub-ops, 1 round-trip, 1 agreement round",
    );
    let json_path = std::env::var("BENCH_JSON").ok();
    let clients = 16usize;
    for spec in
        [RecipeSpec::atomic_rename(PAYLOAD_BYTES, clients), RecipeSpec::cas_counter(clients)]
    {
        let recipe = spec.kind.label();
        let mut figure = Figure::new(
            format!("Figure 6 (recipe: {recipe}) — sub-operations/s on loopback"),
            "Variant",
            "Sub-ops/s",
        );
        let mut rps = Vec::new();
        for (variant, label) in BATCH_VARIANTS {
            let server = LiveServer::start(variant);
            let report = run_recipes(&server, TXNS_PER_CLIENT, &spec)
                .unwrap_or_else(|err| panic!("{variant} {recipe} recipe run failed: {err}"));
            server.shutdown();
            let mut series = Series::new(variant.label());
            series.push(clients as f64, report.throughput_rps);
            figure.add(series);
            rps.push(report.throughput_rps);
            if let Some(path) = &json_path {
                let key =
                    format!("fig06/recipe_{recipe}_derived_ns_per_subop_{clients}clients/{label}");
                append_derived_ns_row(path, &key, &report);
            }
        }
        bench::print_figure(&figure);
        println!(
            "recipe {recipe}: plain {:.0} sub-ops/s vs secure {:.0} sub-ops/s ({clients} clients)",
            rps[0], rps[1]
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|arg| arg == "--recipes") {
        run_recipes_mode();
    } else if let Some(position) = args.iter().position(|arg| arg == "--multi") {
        let batch = args
            .get(position + 1)
            .and_then(|value| value.parse::<usize>().ok())
            .unwrap_or(8)
            .max(1);
        run_multi_mode(batch);
    } else {
        run_scaling();
    }
}
