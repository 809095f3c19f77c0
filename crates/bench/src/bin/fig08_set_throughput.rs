//! Figure 8: SET throughput versus payload size, synchronous and
//! asynchronous, measured over loopback TCP for vanilla ZooKeeper, TLS-ZK
//! and SecureKeeper.

use workload::variant::OpKind;

fn main() {
    bench::print_header(
        "Figure 8 — throughput of sync. and async. SET requests",
        "paper §6.2, Figure 8",
    );
    let figure = bench::throughput_vs_payload(
        "Figure 8 — SET throughput vs payload",
        OpKind::Set,
        &bench::payload_sweep(),
    );
    bench::print_figure(&figure);
}
