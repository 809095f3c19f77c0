//! Figure 9: CREATE throughput (regular and sequential znodes) versus payload
//! size, measured over loopback TCP. Sequential creates under SecureKeeper
//! additionally pass through the counter enclave.

use workload::metrics::{Figure, Series};
use workload::variant::{OpKind, RequestMode, Variant};

fn main() {
    bench::print_header(
        "Figure 9 — throughput of CREATE requests (regular and sequential)",
        "paper §6.2, Figures 9a/9b",
    );
    for (caption, mode) in [
        ("Figure 9a — synchronous requests", RequestMode::Synchronous),
        ("Figure 9b — asynchronous requests", RequestMode::Asynchronous),
    ] {
        let mut figure = Figure::new(caption, "Payload [Byte]", "Requests/s");
        let series = Variant::all().map(|variant| (variant, OpKind::Create, variant.label()));
        let sequential = (Variant::SecureKeeper, OpKind::CreateSequential, "SecureKeeper (seq.)");
        for (variant, op, label) in series.into_iter().chain([sequential]) {
            let mut series = Series::new(label);
            for &payload in &bench::payload_sweep() {
                series.push(payload as f64, bench::measure_op(variant, op, payload, mode));
            }
            figure.add(series);
        }
        bench::print_figure(&figure);
    }
}
