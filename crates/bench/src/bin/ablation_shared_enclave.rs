//! Ablation (paper §6.5 discussion): EPC footprint of per-client entry
//! enclaves versus a single shared enclave per replica — a *model*: the
//! footprints are the paper's per-enclave sizes, and whether they page is
//! the EPC model's verdict, since paging needs SGX hardware.
//!
//! The paper chooses one enclave per client to keep the enclave code free of
//! session management; the cost is EPC footprint (~580 KB per client).

use sgx_sim::Epc;

const ENTRY_ENCLAVE_BYTES: usize = 580 * 1024;
const SHARED_ENCLAVE_BASE_BYTES: usize = 700 * 1024;
const PER_SESSION_STATE_BYTES: usize = 4 * 1024;

fn main() {
    bench::print_header(
        "Ablation — per-client entry enclaves vs one shared enclave per replica (EPC model)",
        "paper §6.5: >150 per-client enclaves fit in the EPC; co-locating clients would shrink memory but add synchronization",
    );

    println!(
        "{:>10} {:>28} {:>28} {:>12}",
        "clients", "per-client EPC [MB]", "shared-enclave EPC [MB]", "paging?"
    );
    for clients in [1usize, 50, 100, 150, 200, 400, 800] {
        let per_client_bytes = clients * ENTRY_ENCLAVE_BYTES;
        let shared_bytes = SHARED_ENCLAVE_BASE_BYTES + clients * PER_SESSION_STATE_BYTES;
        let epc = Epc::new();
        epc.set_allocation(sgx_sim::EnclaveId::from_raw(1), per_client_bytes);
        println!(
            "{:>10} {:>28.1} {:>28.1} {:>12}",
            clients,
            per_client_bytes as f64 / (1024.0 * 1024.0),
            shared_bytes as f64 / (1024.0 * 1024.0),
            if epc.usage().is_paging() { "per-client" } else { "no" }
        );
    }
}
