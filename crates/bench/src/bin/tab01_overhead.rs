//! Table 1: per-operation overhead of TLS-ZK and SecureKeeper versus vanilla
//! ZooKeeper, for synchronous and asynchronous requests, plus the read/write
//! and global averages — and a wall-clock cross-check against the real
//! in-process implementations.

use workload::costmodel::ServiceCostModel;
use workload::measured::compare_variants;
use workload::report::OverheadTable;
use workload::variant::Variant;

fn main() {
    bench::print_header(
        "Table 1 — SecureKeeper overhead comparison",
        "paper §6.2, Table 1: global average delta over TLS-ZK ≈ 11.2%",
    );
    let table = OverheadTable::compute(&ServiceCostModel::default());
    println!("{}", table.to_text());

    let (tls, sk) = table.global_average();
    println!("model summary: TLS-ZK {tls:.1}% | SecureKeeper {sk:.1}% | delta {:.1}%", sk - tls);

    println!("\nwall-clock cross-check (real in-process clusters, 4 clients, 512 B payload):");
    let measured = compare_variants(2_000, 512);
    let vanilla = measured
        .iter()
        .find(|m| m.variant == Variant::VanillaZk)
        .expect("vanilla run")
        .ops_per_second;
    println!("{:<14} {:>14} {:>22}", "variant", "ops/s", "overhead vs vanilla");
    for result in &measured {
        let overhead = (vanilla - result.ops_per_second) / vanilla * 100.0;
        println!(
            "{:<14} {:>14.0} {:>21.1}%",
            result.variant.label(),
            result.ops_per_second,
            overhead
        );
    }
    println!("\n(absolute wall-clock numbers reflect this machine and the in-process");
    println!("transport; only the ordering and rough magnitude are comparable.");
    let backend = zkcrypto::gcm::backend_name();
    println!("AES-GCM ran on the `{backend}` backend; run with --release.");
    if backend == "aesni-clmul" {
        println!("Like the paper's enclaves, it used AES-NI; the in-process transport and");
        println!("simulated enclaves still differ from SGX, so the calibrated model above");
        println!("is the faithful reproduction of Table 1)");
    } else {
        println!("This CPU lacks AES-NI/CLMUL, so the crypto is table-driven software AES;");
        println!("the paper's enclaves used AES-NI, so its relative overheads are far smaller");
        println!("than this run can show; the calibrated model above is the faithful");
        println!("reproduction of Table 1)");
    }
}
