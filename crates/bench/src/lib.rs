//! Shared helpers for the figure/table reproduction binaries.
//!
//! Each binary in `src/bin/` regenerates one figure or table of the paper's
//! evaluation (the index is "Paper mapping" in `README.md`; the crates they
//! drive are laid out in `docs/ARCHITECTURE.md`) and prints it as an aligned
//! text table: one row per x value, one column per series. Run them with, e.g.,
//!
//! ```text
//! cargo run --release -p bench --bin fig07_get_throughput
//! ```
//!
//! The throughput figures measure live loopback TCP servers through
//! [`workload::netdriver`]: each data point is the median of three runs, each
//! on a fresh server, and any error reply or wrong payload panics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::Write;

use workload::generator::WorkloadSpec;
use workload::metrics::{Figure, Series};
use workload::netdriver::{run_workload, LiveServer};
use workload::variant::{OpKind, RequestMode, Variant};

/// Payload sizes (bytes) swept on the x-axis of Figures 7–9 and 11.
pub fn payload_sweep() -> Vec<usize> {
    vec![0, 256, 512, 1024, 1536, 2048, 2560, 3072, 3584, 4096, 4500]
}

/// Client connections of one measured point. Synchronous clients keep one
/// request in flight, asynchronous ones a window of
/// [`workload::netdriver::ASYNC_WINDOW`]. The paper ran 300 synchronous
/// threads and 5 asynchronous clients against four machines; server and
/// clients share one host here.
pub fn clients(mode: RequestMode) -> usize {
    match mode {
        RequestMode::Synchronous => 8,
        RequestMode::Asynchronous => 2,
    }
}

/// Operations each connection sends in one measured point.
pub fn ops_per_client(mode: RequestMode) -> usize {
    match mode {
        RequestMode::Synchronous => 1_000,
        RequestMode::Asynchronous => 4_000,
    }
}

/// Runs of one measured point; the point is their median.
const REPEATS: usize = 3;

/// The median of `REPEATS` calls of `run`, each returning requests/s.
pub fn median_of_runs(mut run: impl FnMut() -> f64) -> f64 {
    let mut runs: Vec<f64> = (0..REPEATS).map(|_| run()).collect();
    runs.sort_by(f64::total_cmp);
    runs[REPEATS / 2]
}

/// Measures `spec` in `mode` on fresh loopback servers of `variant`: the
/// median of `REPEATS` runs, in requests/s.
///
/// # Panics
///
/// Panics if a run fails: a connection failure, an error reply or a wrong
/// payload.
pub fn measure(variant: Variant, spec: &WorkloadSpec, mode: RequestMode) -> f64 {
    median_of_runs(|| {
        let server = LiveServer::start(variant);
        let report =
            run_workload(&server, spec, ops_per_client(mode), mode).unwrap_or_else(|err| {
                panic!("{variant} {mode} run of {:?} at {} B: {err}", spec.mix, spec.payload)
            });
        server.shutdown();
        report.throughput_rps
    })
}

/// Measures one operation at one payload size with [`clients`] connections.
pub fn measure_op(variant: Variant, op: OpKind, payload: usize, mode: RequestMode) -> f64 {
    measure(variant, &WorkloadSpec::single(op, payload, clients(mode)), mode)
}

/// Builds one throughput-vs-payload figure for a single operation, with one
/// series per (variant, mode) — the layout of Figures 7, 8 and 10.
pub fn throughput_vs_payload(caption: &str, op: OpKind, payloads: &[usize]) -> Figure {
    let mut figure = Figure::new(caption, "Payload [Byte]", "Requests/s");
    for mode in RequestMode::all() {
        for variant in Variant::all() {
            let mut series = Series::new(format!("{} {}", variant.label(), mode.label()));
            for &payload in payloads {
                series.push(payload as f64, measure_op(variant, op, payload, mode));
            }
            figure.add(series);
        }
    }
    figure
}

/// Prints a figure to stdout in the canonical text-table form.
pub fn print_figure(figure: &Figure) {
    println!("{}", figure.to_table());
}

/// Prints a short header so the harness output is self-describing.
pub fn print_header(experiment: &str, paper_reference: &str) {
    println!("================================================================");
    println!("{experiment}");
    println!("reproduces: {paper_reference}");
    println!("================================================================");
}

/// Appends one regression-guard row to the `BENCH_JSON` file at `path`, in
/// the JSON-lines format `scripts/check_bench_regression.py` reads (the
/// vendored criterion shim writes the same). The field is named `median_ns`
/// because the guard keys on it, whatever the value measures.
///
/// # Panics
///
/// Panics if the file cannot be opened or written.
pub fn append_bench_row(path: &str, benchmark: &str, median_ns: f64) {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .expect("open BENCH_JSON output");
    writeln!(file, "{}", bench_row(benchmark, median_ns)).expect("write BENCH_JSON row");
}

fn bench_row(benchmark: &str, median_ns: f64) -> String {
    format!("{{\"benchmark\":\"{benchmark}\",\"median_ns\":{median_ns:.1}}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_sweep_is_sorted_and_covers_the_paper_range() {
        let sweep = payload_sweep();
        assert_eq!(*sweep.first().unwrap(), 0);
        assert_eq!(*sweep.last().unwrap(), 4500);
        assert!(sweep.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn bench_rows_keep_the_guard_format() {
        assert_eq!(
            bench_row("ensemble/steady_op_latency/plain", 413597.04),
            r#"{"benchmark":"ensemble/steady_op_latency/plain","median_ns":413597.0}"#
        );
    }
}
