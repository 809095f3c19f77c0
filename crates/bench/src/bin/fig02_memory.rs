//! Figure 2: memory usage of a ZooKeeper cluster over time (idle, then a
//! 70:30 GET/SET workload from 4 clients on 1 KiB znodes) — a *model*: the
//! replicas here are not JVMs, so a JVM heap model sits on top of the
//! measured data-tree size of an in-process cluster.

use workload::memtrace::{JvmModel, MemoryTrace};

fn main() {
    bench::print_header(
        "Figure 2 — memory usage of ZooKeeper over time (model: JVM heap + measured tree)",
        "paper §3.3, Figure 2: idle ~120 MB, >400 MB under a small workload",
    );
    let trace = MemoryTrace::default();
    let traces = trace.run(&JvmModel::default());

    println!(
        "{:>8} {:>22} {:>22} {:>22}",
        "time[s]", &traces[0].label, &traces[1].label, &traces[2].label
    );
    println!(
        "{:>8} {:>11} {:>10} {:>11} {:>10} {:>11} {:>10}",
        "", "total[MB]", "tree[MB]", "total[MB]", "tree[MB]", "total[MB]", "tree[MB]"
    );
    let samples = traces[0].total_bytes.points.len();
    for i in 0..samples {
        let t = traces[0].total_bytes.points[i].0;
        print!("{t:>8.0}");
        for replica in &traces {
            let total = replica.total_bytes.points[i].1 / (1024.0 * 1024.0);
            let tree = replica.tree_bytes.points[i].1 / (1024.0 * 1024.0);
            print!(" {total:>11.1} {tree:>10.3}");
        }
        println!();
    }
    println!();
    println!("note: 'total' models the paper's JVM process footprint (baseline heap +");
    println!("per-request garbage); 'tree' is the measured coordination state of this");
    println!("reproduction's replicas — the part SecureKeeper actually has to protect.");
    let epc_mb = sgx_sim::EPC_USABLE_BYTES as f64 / (1024.0 * 1024.0);
    println!("usable EPC for comparison: {epc_mb:.0} MB");
}
