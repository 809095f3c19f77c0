//! Shared helpers for the figure/table reproduction binaries.
//!
//! Each binary in `src/bin/` regenerates one figure or table of the paper's
//! evaluation (the index is "Paper mapping" in `README.md`; the crates they
//! drive are laid out in `docs/ARCHITECTURE.md`) and prints it as an aligned
//! text table: one row per x value, one column per series. Run them with, e.g.,
//!
//! ```text
//! cargo run -p bench --bin fig07_get_throughput
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use workload::costmodel::ServiceCostModel;
use workload::metrics::{Figure, Series};
use workload::variant::{OpKind, RequestMode, Variant};

/// Payload sizes (bytes) swept on the x-axis of Figures 7–9.
pub fn payload_sweep() -> Vec<usize> {
    vec![0, 256, 512, 1024, 1536, 2048, 2560, 3072, 3584, 4096, 4500]
}

/// Builds one throughput-vs-payload figure for a single operation, with one
/// series per (variant, mode) combination — the layout of Figures 7 and 8.
pub fn throughput_vs_payload_figure(caption: &str, op: OpKind, modes: &[RequestMode]) -> Figure {
    let model = ServiceCostModel::default();
    let mut figure = Figure::new(caption, "Payload [Byte]", "Requests/s");
    for &mode in modes {
        for variant in Variant::all() {
            let mut series = Series::new(format!("{} {}", variant.label(), mode.label()));
            for &payload in &payload_sweep() {
                let clients = match mode {
                    RequestMode::Synchronous => 300,
                    RequestMode::Asynchronous => 5,
                };
                series.push(
                    payload as f64,
                    model.throughput_rps(variant, op, payload, mode, clients),
                );
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
    fn figures_contain_six_series_for_two_modes() {
        let figure = throughput_vs_payload_figure(
            "test",
            OpKind::Get,
            &[RequestMode::Synchronous, RequestMode::Asynchronous],
        );
        assert_eq!(figure.series.len(), 6);
        assert!(figure.to_table().contains("SecureKeeper"));
    }
}
