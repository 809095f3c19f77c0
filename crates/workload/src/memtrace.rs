//! Memory usage of a ZooKeeper cluster over time (Figure 2).
//!
//! The paper's Figure 2 motivates the tailored-enclave design: even an idle
//! ZooKeeper replica uses ~120 MB of RAM (JVM heap, thread stacks, buffers)
//! and a modest 70:30 workload on four 1 KiB znodes pushes it past 400 MB —
//! far beyond the 128 MB EPC, so running all of ZooKeeper inside an enclave
//! would page constantly.
//!
//! Our replicas are Rust, not a JVM, so their intrinsic footprint is tiny. To
//! preserve the figure's argument we report both components explicitly: the
//! *measured* data-tree footprint of the real in-process replicas, plus a
//! documented JVM-overhead model (baseline heap + per-request garbage that
//! accumulates until a collection). The sum reproduces the published curve
//! shape; the measured tree bytes alone show why SecureKeeper's enclaves can
//! stay small.

use zkserver::client::share;
use zkserver::ZkCluster;

use crate::generator::WorkloadSpec;
use crate::metrics::Series;

/// Parameters of the Figure 2 trace.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryTrace {
    /// Seconds from the start of the trace at which the cluster is started.
    pub cluster_start_s: f64,
    /// Seconds at which the workload starts.
    pub workload_start_s: f64,
    /// Total trace duration in seconds.
    pub duration_s: f64,
    /// Requests applied per second once the workload runs.
    pub requests_per_second: usize,
    /// Number of client threads (the paper uses 4).
    pub clients: usize,
    /// Payload size in bytes (the paper uses standard 1 KiB nodes).
    pub payload: usize,
}

impl Default for MemoryTrace {
    fn default() -> Self {
        MemoryTrace {
            cluster_start_s: 2.0,
            workload_start_s: 10.0,
            duration_s: 22.0,
            requests_per_second: 2_000,
            clients: 4,
            payload: 1024,
        }
    }
}

/// Model of the JVM-related memory the paper measures around the data tree.
#[derive(Debug, Clone, PartialEq)]
pub struct JvmModel {
    /// Resident set right after JVM and ZooKeeper start, bytes.
    pub baseline_bytes: f64,
    /// Garbage generated per processed request (buffers, boxed records), bytes.
    pub garbage_per_request: f64,
    /// Heap size at which the collector runs and reclaims the garbage, bytes.
    pub gc_threshold_bytes: f64,
}

impl Default for JvmModel {
    fn default() -> Self {
        JvmModel {
            baseline_bytes: 120.0 * 1024.0 * 1024.0,
            garbage_per_request: 14.0 * 1024.0,
            gc_threshold_bytes: 430.0 * 1024.0 * 1024.0,
        }
    }
}

/// One replica's memory samples over the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaTrace {
    /// Replica label (Leader / Follower 1 / Follower 2).
    pub label: String,
    /// Measured data-tree bytes per sample.
    pub tree_bytes: Series,
    /// Modelled total (tree + JVM) bytes per sample.
    pub total_bytes: Series,
}

impl MemoryTrace {
    /// Runs the trace against a real in-process 3-replica cluster and returns
    /// one [`ReplicaTrace`] per replica.
    pub fn run(&self, jvm: &JvmModel) -> Vec<ReplicaTrace> {
        let cluster = share(ZkCluster::new(3));
        let ids = cluster.lock().replica_ids();
        let leader = cluster.lock().leader_id();

        // Connect the paper's four clients, spread over the replicas.
        let mut sessions = Vec::new();
        for i in 0..self.clients {
            let replica = ids[i % ids.len()];
            let session =
                cluster.lock().connect_default(replica).expect("replica alive").session_id;
            sessions.push(session);
        }

        let spec = WorkloadSpec::paper_mix(self.payload, self.clients);
        let setup = spec.setup_requests(0);
        let mut setup_done = false;
        let mut ops =
            spec.generate((self.requests_per_second as f64 * self.duration_s) as usize).into_iter();

        let mut traces: Vec<ReplicaTrace> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| ReplicaTrace {
                label: if id == leader { "Leader".to_string() } else { format!("Follower {i}") },
                tree_bytes: Series::new("tree"),
                total_bytes: Series::new("total"),
            })
            .collect();

        let mut garbage = vec![0.0f64; ids.len()];
        let samples = self.duration_s as usize;
        for second in 0..samples {
            let t = second as f64;
            if t >= self.cluster_start_s && t >= self.workload_start_s {
                if !setup_done {
                    for request in &setup {
                        let session = sessions[0];
                        cluster.lock().submit(session, request);
                    }
                    setup_done = true;
                }
                for _ in 0..self.requests_per_second {
                    let Some(op) = ops.next() else { break };
                    let session = sessions[op.client % sessions.len()];
                    cluster.lock().submit(session, &op.request);
                    // Every replica materializes the write; reads only touch
                    // the connected replica. Either way buffers churn.
                    for g in garbage.iter_mut() {
                        *g += jvm.garbage_per_request;
                    }
                }
            }
            let memory = cluster.lock().memory_bytes_per_replica();
            for (i, &id) in ids.iter().enumerate() {
                let tree = if t >= self.cluster_start_s { memory[&id] as f64 } else { 0.0 };
                let jvm_part = if t >= self.cluster_start_s {
                    if jvm.baseline_bytes + garbage[i] > jvm.gc_threshold_bytes {
                        garbage[i] = 0.0;
                    }
                    jvm.baseline_bytes + garbage[i]
                } else {
                    0.0
                };
                traces[i].tree_bytes.push(t, tree);
                traces[i].total_bytes.push(t, tree + jvm_part);
            }
        }
        traces
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_trace() -> MemoryTrace {
        MemoryTrace { requests_per_second: 200, duration_s: 16.0, ..MemoryTrace::default() }
    }

    #[test]
    fn memory_is_zero_before_cluster_start_and_grows_under_load() {
        let traces = small_trace().run(&JvmModel::default());
        assert_eq!(traces.len(), 3);
        for trace in &traces {
            assert_eq!(trace.total_bytes.y_at(0.0), Some(0.0));
            let idle = trace.total_bytes.y_at(5.0).unwrap();
            let loaded = trace.total_bytes.y_at(15.0).unwrap();
            assert!(idle > 100.0 * 1024.0 * 1024.0, "idle baseline ≈ 120 MB, got {idle}");
            assert!(loaded > idle, "memory should grow under load");
        }
    }

    #[test]
    fn idle_footprint_exceeds_epc_but_tree_alone_does_not() {
        // The figure's argument: the *process* never fits in the EPC, but the
        // actual coordination state is tiny — which is what SecureKeeper's
        // tailored enclaves exploit.
        let traces = small_trace().run(&JvmModel::default());
        let epc = sgx_sim::EPC_USABLE_BYTES as f64;
        for trace in &traces {
            let total = trace.total_bytes.y_at(15.0).unwrap();
            let tree = trace.tree_bytes.y_at(15.0).unwrap();
            assert!(total > epc, "total {total} should exceed the usable EPC");
            assert!(tree < epc / 10.0, "tree {tree} stays far below the EPC");
        }
    }

    #[test]
    fn one_replica_is_labelled_leader() {
        let traces = small_trace().run(&JvmModel::default());
        assert_eq!(traces.iter().filter(|t| t.label == "Leader").count(), 1);
    }
}
