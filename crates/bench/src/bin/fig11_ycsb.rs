//! Figure 11: YCSB-style mixed synchronous read/write workload, throughput
//! versus payload size, measured over loopback TCP for all three variants.

use workload::metrics::{Figure, Series};
use workload::netdriver::{run_ycsb, LiveServer};
use workload::variant::{RequestMode, Variant};
use workload::ycsb::YcsbWorkload;

fn main() {
    bench::print_header(
        "Figure 11 — YCSB mixed synchronous workload",
        "paper §6.2, Figure 11: 35 threads, mixed reads/writes, 500k operations",
    );
    let mode = RequestMode::Synchronous;
    let (clients, ops) = (bench::clients(mode), bench::ops_per_client(mode));
    let mut figure =
        Figure::new("Figure 11 — YCSB throughput vs payload", "Payload [Byte]", "Requests/s");
    for variant in Variant::all() {
        let mut series = Series::new(variant.label());
        for &payload in &bench::payload_sweep() {
            let workload = YcsbWorkload { payload, ..YcsbWorkload::default() };
            let rps = bench::median_of_runs(|| {
                let server = LiveServer::start(variant);
                let report = run_ycsb(&server, &workload, clients, ops, mode)
                    .unwrap_or_else(|err| panic!("{variant} YCSB at {payload} B failed: {err}"));
                server.shutdown();
                report.throughput_rps
            });
            series.push(payload as f64, rps);
        }
        figure.add(series);
    }
    bench::print_figure(&figure);
    let workload = YcsbWorkload::default();
    println!(
        "({clients} synchronous clients, {ops} operations each, {:.0}% reads, Zipfian theta {:.2} \
         over {} records)",
        workload.read_proportion * 100.0,
        workload.zipf_theta,
        workload.record_count
    );
}
