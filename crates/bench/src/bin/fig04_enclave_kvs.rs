//! Figure 4: throughput of a key-value store running inside an enclave versus
//! natively, as the enclave memory range grows past the EPC — a *model*
//! (`sgx_sim::paging`): EPC paging needs SGX hardware.

use sgx_sim::paging::{figure4_sizes_mb, kvs_sweep, KvsExperiment};
use sgx_sim::CostModel;

fn main() {
    bench::print_header(
        "Figure 4 — key-value store in an enclave, randomized request pattern (EPC model)",
        "paper §3.3, Figure 4: throughput collapses once the enclave exceeds ~92 MB",
    );
    let model = CostModel::default();
    let experiment = KvsExperiment::default();
    let sizes: Vec<usize> = figure4_sizes_mb().iter().map(|mb| mb * 1024 * 1024).collect();
    let points = kvs_sweep(&model, &experiment, &sizes);

    println!(
        "{:>16} {:>18} {:>18} {:>18}",
        "enclave [MB]", "native [req/s]", "SGX [req/s]", "normed diff"
    );
    for point in &points {
        println!(
            "{:>16} {:>18.0} {:>18.0} {:>18.2}",
            point.enclave_bytes / (1024 * 1024),
            point.native_rps,
            point.sgx_rps,
            point.normed_difference()
        );
    }
    println!();
    println!("normed diff = (native - SGX) / SGX, the secondary axis of the paper's figure");
}
