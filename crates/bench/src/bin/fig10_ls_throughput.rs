//! Figure 10: LS (getChildren) throughput versus payload size, measured over
//! loopback TCP. Under SecureKeeper every listed child name must be
//! decrypted individually.

use workload::variant::{OpKind, RequestMode};

fn main() {
    bench::print_header(
        "Figure 10 — throughput of sync. and async. LS requests",
        "paper §6.2, Figure 10: the per-child path decryption makes LS the costliest read",
    );
    let figure = bench::throughput_vs_payload(
        "Figure 10 — LS throughput vs payload",
        OpKind::Ls,
        &[0, 20, 40, 60, 80, 100],
    );
    bench::print_figure(&figure);
    println!(
        "(each LS lists the parent of the clients' znodes: {} children in sync runs, {} in async)",
        bench::clients(RequestMode::Synchronous),
        bench::clients(RequestMode::Asynchronous)
    );
}
