//! Figure 3: random page accesses per second versus allocated enclave memory,
//! showing the L3-cache and EPC cliffs — a *model* (`sgx_sim::paging`):
//! EPC paging needs SGX hardware.

use sgx_sim::paging::{figure3_sizes_mb, random_access_sweep};
use sgx_sim::CostModel;

fn main() {
    bench::print_header(
        "Figure 3 — performance impact of enclave memory size on random accesses (EPC model)",
        "paper §3.3, Figure 3: ~5.5x slowdown past the 8 MB L3, ~200x past the EPC",
    );
    let model = CostModel::default();
    let sizes: Vec<usize> = figure3_sizes_mb().iter().map(|mb| mb * 1024 * 1024).collect();
    let points = random_access_sweep(&model, &sizes);

    println!(
        "{:>14} {:>26} {:>26}",
        "enclave [MB]", "random read [k acc/s]", "random write [k acc/s]"
    );
    for point in &points {
        println!(
            "{:>14} {:>26.1} {:>26.1}",
            point.enclave_bytes / (1024 * 1024),
            point.kilo_reads_per_sec,
            point.kilo_writes_per_sec
        );
    }
    let l3 = points.iter().find(|p| p.enclave_bytes == 4 * 1024 * 1024).unwrap();
    let epc = points.iter().find(|p| p.enclave_bytes == 64 * 1024 * 1024).unwrap();
    let paged = points.last().unwrap();
    println!();
    println!(
        "L3-resident / EPC-resident ratio: {:.1}x",
        l3.kilo_reads_per_sec / epc.kilo_reads_per_sec
    );
    println!(
        "EPC-resident / paged ratio:       {:.0}x",
        epc.kilo_reads_per_sec / paged.kilo_reads_per_sec
    );
    println!(
        "L3-resident / paged ratio:        {:.0}x",
        l3.kilo_reads_per_sec / paged.kilo_reads_per_sec
    );
}
