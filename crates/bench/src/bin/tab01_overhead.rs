//! Table 1: per-operation throughput overhead of TLS-ZK and SecureKeeper
//! versus vanilla ZooKeeper, for synchronous and asynchronous requests, plus
//! the read/write and global averages. Every cell averages the measured drop
//! over payloads of 0–4096 bytes, each run against a fresh loopback TCP
//! server.

use workload::report::OverheadTable;
use workload::variant::RequestMode;

fn main() {
    bench::print_header(
        "Table 1 — SecureKeeper overhead comparison",
        "paper §6.2, Table 1: global average delta over TLS-ZK ≈ 11.2%",
    );
    let table = OverheadTable::measure(&[0, 512, 1024, 2048, 4096], bench::measure_op);
    println!("{}", table.to_text());
    let (tls, sk) = table.global_average();
    println!("measured: TLS-ZK {tls:.1}% | SecureKeeper {sk:.1}% | delta {:.1}%", sk - tls);
    println!(
        "({} sync clients x {} ops, {} async clients x {} ops per run; AES-GCM backend `{}`)",
        bench::clients(RequestMode::Synchronous),
        bench::ops_per_client(RequestMode::Synchronous),
        bench::clients(RequestMode::Asynchronous),
        bench::ops_per_client(RequestMode::Asynchronous),
        zkcrypto::gcm::backend_name()
    );
}
