//! Figure 7: GET throughput versus payload size, synchronous and
//! asynchronous, measured over loopback TCP for vanilla ZooKeeper, TLS-ZK
//! and SecureKeeper.

use workload::variant::OpKind;

fn main() {
    bench::print_header(
        "Figure 7 — throughput of sync. and async. GET requests",
        "paper §6.2, Figure 7",
    );
    let figure = bench::throughput_vs_payload(
        "Figure 7 — GET throughput vs payload",
        OpKind::Get,
        &bench::payload_sweep(),
    );
    bench::print_figure(&figure);
}
