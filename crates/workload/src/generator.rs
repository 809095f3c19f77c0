//! Request generators for the paper's workloads.
//!
//! The evaluation methodology (Section 6.1) follows the original ZooKeeper
//! paper: every client thread owns one znode of a given payload size and
//! issues a 70:30 mix of GET and SET requests against it as fast as possible;
//! the per-operation experiments issue a single operation type instead.

use jute::multi::Op;
use jute::records::{
    CheckVersionRequest, CreateMode, CreateRequest, DeleteRequest, GetChildrenRequest,
    GetDataRequest, SetDataRequest,
};
use jute::Request;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::variant::OpKind;

/// A workload specification.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Operation mix as `(operation, weight)` pairs; weights need not sum to 1.
    pub mix: Vec<(OpKind, f64)>,
    /// Payload size in bytes for operations that carry payload.
    pub payload: usize,
    /// Number of client threads (each owns one znode).
    pub clients: usize,
    /// RNG seed so traces are reproducible.
    pub seed: u64,
}

impl WorkloadSpec {
    /// The paper's standard 70:30 GET/SET mix.
    pub fn paper_mix(payload: usize, clients: usize) -> Self {
        WorkloadSpec {
            mix: vec![(OpKind::Get, 0.7), (OpKind::Set, 0.3)],
            payload,
            clients,
            seed: 42,
        }
    }

    /// A single-operation workload.
    pub fn single(op: OpKind, payload: usize, clients: usize) -> Self {
        WorkloadSpec { mix: vec![(op, 1.0)], payload, clients, seed: 42 }
    }

    /// The znode path owned by client `index`.
    pub fn client_path(index: usize) -> String {
        format!("/bench/client-{index:04}")
    }

    /// The parent path under which all per-client znodes live.
    pub fn root_path() -> &'static str {
        "/bench"
    }

    /// The `index`-th node a client's CREATEs add next to its own znode.
    fn extra_path(client: usize, index: usize) -> String {
        format!("{}-extra-{index:06}", Self::client_path(client))
    }

    /// The `index`-th node setup creates for a client's DELETEs to remove.
    fn victim_path(client: usize, index: usize) -> String {
        format!("{}-victim-{index:06}", Self::client_path(client))
    }

    /// Requests that set up the tree for a run of `count` generated
    /// operations: the `/bench` parent plus one znode per client, as in the
    /// paper ("initially, for both GET and SET we create one znode for each
    /// client thread"), plus, when the mix deletes, enough victim nodes per
    /// client that every DELETE of [`WorkloadSpec::generate`] finds its
    /// target.
    pub fn setup_requests(&self, count: usize) -> Vec<Request> {
        let create = |path: String, data: Vec<u8>| {
            Request::Create(CreateRequest { path, data, mode: CreateMode::Persistent })
        };
        let mut requests = vec![create(Self::root_path().to_string(), Vec::new())];
        let clients = self.clients.max(1);
        let victims = if self.mix.iter().any(|&(op, w)| op == OpKind::Delete && w > 0.0) {
            count.div_ceil(clients)
        } else {
            0
        };
        for client in 0..clients {
            requests.push(create(Self::client_path(client), vec![0u8; self.payload]));
            for index in 0..victims {
                requests.push(create(Self::victim_path(client, index), Vec::new()));
            }
        }
        requests
    }

    /// Generates `count` operations according to the mix. Each operation is
    /// attributed to a client thread round-robin, targeting that client's
    /// znode. CREATEs add fresh nodes next to it; a DELETE removes the
    /// newest node the same client created and has not deleted yet, or,
    /// with none left, the client's next victim from
    /// [`WorkloadSpec::setup_requests`].
    pub fn generate(&self, count: usize) -> Vec<GeneratedOp> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let total_weight: f64 = self.mix.iter().map(|(_, w)| w).sum();
        let clients = self.clients.max(1);
        let mut created: Vec<Vec<String>> = vec![Vec::new(); clients];
        let mut next_extra = vec![0usize; clients];
        let mut next_victim = vec![0usize; clients];
        let mut ops = Vec::with_capacity(count);
        for i in 0..count {
            let client = i % clients;
            let mut pick = rng.gen_range(0.0..total_weight);
            let mut chosen = self.mix[0].0;
            for &(op, weight) in &self.mix {
                if pick < weight {
                    chosen = op;
                    break;
                }
                pick -= weight;
            }
            let path = Self::client_path(client);
            let request = match chosen {
                OpKind::Get => Request::GetData(GetDataRequest { path, watch: false }),
                OpKind::Set => Request::SetData(SetDataRequest {
                    path,
                    data: vec![rng.gen::<u8>(); self.payload],
                    version: -1,
                }),
                OpKind::Ls => Request::GetChildren(GetChildrenRequest {
                    path: Self::root_path().to_string(),
                    watch: false,
                }),
                OpKind::Create => {
                    let path = Self::extra_path(client, next_extra[client]);
                    next_extra[client] += 1;
                    created[client].push(path.clone());
                    Request::Create(CreateRequest {
                        path,
                        data: vec![0u8; self.payload],
                        mode: CreateMode::Persistent,
                    })
                }
                OpKind::CreateSequential => Request::Create(CreateRequest {
                    path: format!("{path}-seq-"),
                    data: vec![0u8; self.payload],
                    mode: CreateMode::PersistentSequential,
                }),
                OpKind::Delete => {
                    let path = created[client].pop().unwrap_or_else(|| {
                        next_victim[client] += 1;
                        Self::victim_path(client, next_victim[client] - 1)
                    });
                    Request::Delete(DeleteRequest { path, version: -1 })
                }
            };
            ops.push(GeneratedOp { client, kind: chosen, request });
        }
        ops
    }
}

/// One generated operation, attributed to a client thread.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedOp {
    /// Index of the issuing client thread.
    pub client: usize,
    /// Kind of operation.
    pub kind: OpKind,
    /// The ready-to-send request.
    pub request: Request,
}

/// Specification of the `multi` transaction workload: every client thread
/// owns one znode and issues atomic batches against it, each batch mixing
/// version-guard `check` sub-operations with `set_data` writes — the
/// read-modify-write recipe `multi` exists for, with the wire/agreement cost
/// of the whole batch amortized into one request and one ZAB proposal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiSpec {
    /// Number of sub-operations per transaction.
    pub batch_size: usize,
    /// How many of those sub-operations are `check` guards on the client's
    /// znode (the rest are `set_data` writes) — the check:write mix.
    pub checks_per_batch: usize,
    /// Payload size in bytes of each `set_data` sub-operation.
    pub payload: usize,
    /// Number of client threads (each owns one znode).
    pub clients: usize,
    /// RNG seed so traces are reproducible.
    pub seed: u64,
}

impl MultiSpec {
    /// A batch of `batch_size` sub-operations, one existence check plus
    /// writes — the default scenario of the `--multi` bench mode.
    pub fn batched_writes(batch_size: usize, payload: usize, clients: usize) -> Self {
        MultiSpec { batch_size: batch_size.max(1), checks_per_batch: 1, payload, clients, seed: 42 }
    }

    /// Requests that set up the tree (same layout as [`WorkloadSpec`]): the
    /// `/bench` parent plus one znode per client.
    pub fn setup_requests(&self) -> Vec<Request> {
        WorkloadSpec {
            mix: vec![(OpKind::Set, 1.0)],
            payload: self.payload,
            clients: self.clients,
            seed: self.seed,
        }
        .setup_requests(0)
    }

    /// Generates `count` transactions, attributed round-robin to the client
    /// threads; each targets the issuing client's znode.
    pub fn generate(&self, count: usize) -> Vec<GeneratedMulti> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..count).map(|i| self.batch(i % self.clients.max(1), &mut rng)).collect()
    }

    /// Generates `count` transactions for one client thread only, without
    /// materializing the other clients' batches — the networked driver runs
    /// one of these per worker, so trace generation stays O(count) per
    /// thread instead of O(count × clients). Deterministic per
    /// (seed, client).
    pub fn generate_for(&self, client: usize, count: usize) -> Vec<GeneratedMulti> {
        let mut rng = StdRng::seed_from_u64(
            self.seed.wrapping_add((client as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        (0..count).map(|_| self.batch(client, &mut rng)).collect()
    }

    /// Builds one atomic batch for `client`: the check guards first, then
    /// the writes.
    fn batch(&self, client: usize, rng: &mut StdRng) -> GeneratedMulti {
        let checks = self.checks_per_batch.min(self.batch_size);
        let path = WorkloadSpec::client_path(client);
        let mut ops = Vec::with_capacity(self.batch_size);
        for slot in 0..self.batch_size {
            if slot < checks {
                // -1 guards existence without pinning a version, so every
                // generated batch commits (abort rates are a correctness
                // concern, not a throughput scenario).
                ops.push(Op::Check(CheckVersionRequest { path: path.clone(), version: -1 }));
            } else {
                ops.push(Op::SetData(SetDataRequest {
                    path: path.clone(),
                    data: vec![rng.gen::<u8>(); self.payload],
                    version: -1,
                }));
            }
        }
        GeneratedMulti { client, ops }
    }
}

/// One generated transaction, attributed to a client thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratedMulti {
    /// Index of the issuing client thread.
    pub client: usize,
    /// The sub-operations of the atomic batch.
    pub ops: Vec<Op>,
}

/// The transactional *recipe* a [`RecipeSpec`] generates — real coordination
/// patterns built from `multi`'s atomicity, beyond [`MultiSpec`]'s
/// check:write mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecipeKind {
    /// Atomic rename: each transaction creates the node under its next name
    /// and deletes the previous one — the two-op batch either moves the
    /// node or leaves it where it was, never duplicates or loses it.
    AtomicRename,
    /// Compare-and-swap counter: each transaction guards on the counter
    /// node's exact version (`check`) and writes the incremented value
    /// (`set_data` pinned to the same version) — optimistic concurrency
    /// control, the recipe `check` exists for.
    CasCounter,
}

impl RecipeKind {
    /// Short label used in reports and BENCH_JSON keys.
    pub fn label(self) -> &'static str {
        match self {
            RecipeKind::AtomicRename => "rename",
            RecipeKind::CasCounter => "cas",
        }
    }
}

/// Specification of a transactional-recipe workload: every client thread
/// owns a private slot under `/bench` and drives one [`RecipeKind`] against
/// it. Generation is deterministic per `(seed, client)` and each client's
/// transactions are designed to commit when executed in order against a
/// healthy server (versions and slot names advance exactly with the
/// transactions that bump them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecipeSpec {
    /// Which transactional recipe to generate.
    pub kind: RecipeKind,
    /// Payload size in bytes carried by the recipe's writes.
    pub payload: usize,
    /// Number of client threads.
    pub clients: usize,
    /// RNG seed so payload streams are reproducible.
    pub seed: u64,
}

impl RecipeSpec {
    /// An atomic-rename workload.
    pub fn atomic_rename(payload: usize, clients: usize) -> Self {
        RecipeSpec { kind: RecipeKind::AtomicRename, payload, clients, seed: 42 }
    }

    /// A CAS-counter workload (the counter value is the payload).
    pub fn cas_counter(clients: usize) -> Self {
        RecipeSpec { kind: RecipeKind::CasCounter, payload: 8, clients, seed: 42 }
    }

    /// The name a client's node carries after `step` committed renames
    /// (also its initial name at step 0).
    pub fn slot_path(client: usize, step: usize) -> String {
        format!("/bench/client-{client:04}-slot-{step:06}")
    }

    /// The CAS counter node owned by `client`.
    pub fn counter_path(client: usize) -> String {
        WorkloadSpec::client_path(client)
    }

    /// Requests that set up one client's state: the shared `/bench` parent
    /// (idempotent across clients) plus the client's initial node.
    pub fn setup_requests_for(&self, client: usize) -> Vec<Request> {
        let initial = match self.kind {
            RecipeKind::AtomicRename => CreateRequest {
                path: Self::slot_path(client, 0),
                data: vec![0u8; self.payload],
                mode: CreateMode::Persistent,
            },
            RecipeKind::CasCounter => CreateRequest {
                path: Self::counter_path(client),
                data: 0u64.to_be_bytes().to_vec(),
                mode: CreateMode::Persistent,
            },
        };
        vec![
            Request::Create(CreateRequest {
                path: WorkloadSpec::root_path().to_string(),
                data: Vec::new(),
                mode: CreateMode::Persistent,
            }),
            Request::Create(initial),
        ]
    }

    /// Generates `count` transactions for one client thread. Transaction
    /// `i` assumes transactions `0..i` committed (the rename chain and the
    /// counter version both advance exactly once per commit).
    pub fn generate_for(&self, client: usize, count: usize) -> Vec<GeneratedMulti> {
        let mut rng = StdRng::seed_from_u64(
            self.seed.wrapping_add((client as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        (0..count)
            .map(|step| {
                let ops = match self.kind {
                    RecipeKind::AtomicRename => vec![
                        Op::Create(CreateRequest {
                            path: Self::slot_path(client, step + 1),
                            data: vec![rng.gen::<u8>(); self.payload],
                            mode: CreateMode::Persistent,
                        }),
                        Op::Delete(DeleteRequest {
                            path: Self::slot_path(client, step),
                            version: -1,
                        }),
                    ],
                    RecipeKind::CasCounter => {
                        let version = step as i32;
                        vec![
                            Op::Check(CheckVersionRequest {
                                path: Self::counter_path(client),
                                version,
                            }),
                            Op::SetData(SetDataRequest {
                                path: Self::counter_path(client),
                                data: (step as u64 + 1).to_be_bytes().to_vec(),
                                version,
                            }),
                        ]
                    }
                };
                GeneratedMulti { client, ops }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_creates_parent_and_one_node_per_client() {
        let spec = WorkloadSpec::paper_mix(1024, 4);
        let setup = spec.setup_requests(100);
        assert_eq!(setup.len(), 5);
        assert_eq!(setup[0].path(), Some("/bench"));
        assert_eq!(setup[1].path(), Some("/bench/client-0000"));
    }

    #[test]
    fn paper_mix_is_roughly_70_30() {
        let spec = WorkloadSpec::paper_mix(1024, 8);
        let ops = spec.generate(10_000);
        let gets = ops.iter().filter(|o| o.kind == OpKind::Get).count();
        let sets = ops.iter().filter(|o| o.kind == OpKind::Set).count();
        assert_eq!(gets + sets, 10_000);
        let get_fraction = gets as f64 / 10_000.0;
        assert!((0.67..0.73).contains(&get_fraction), "{get_fraction}");
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let spec = WorkloadSpec::paper_mix(128, 4);
        assert_eq!(spec.generate(100), spec.generate(100));
        let other = WorkloadSpec { seed: 43, ..spec.clone() };
        assert_ne!(other.generate(100), spec.generate(100));
    }

    #[test]
    fn clients_are_assigned_round_robin() {
        let spec = WorkloadSpec::single(OpKind::Get, 0, 3);
        let ops = spec.generate(6);
        let clients: Vec<usize> = ops.iter().map(|o| o.client).collect();
        assert_eq!(clients, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn payload_sizes_are_respected() {
        let spec = WorkloadSpec::single(OpKind::Set, 777, 1);
        let ops = spec.generate(3);
        for op in ops {
            match op.request {
                Request::SetData(set) => assert_eq!(set.data.len(), 777),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn multi_spec_mixes_checks_and_writes_per_batch() {
        let spec =
            MultiSpec { batch_size: 8, checks_per_batch: 3, payload: 64, clients: 4, seed: 7 };
        let txns = spec.generate(8);
        assert_eq!(txns.len(), 8);
        for (i, txn) in txns.iter().enumerate() {
            assert_eq!(txn.client, i % 4);
            assert_eq!(txn.ops.len(), 8);
            let checks = txn.ops.iter().filter(|op| matches!(op, Op::Check(_))).count();
            assert_eq!(checks, 3);
            for op in &txn.ops {
                assert_eq!(op.path(), WorkloadSpec::client_path(txn.client));
                if let Op::SetData(set) = op {
                    assert_eq!(set.data.len(), 64);
                }
            }
        }
        // Deterministic for a seed, like the single-op generator.
        assert_eq!(spec.generate(8), txns);
    }

    #[test]
    fn multi_generate_for_is_per_client_and_deterministic() {
        let spec = MultiSpec::batched_writes(4, 32, 8);
        let mine = spec.generate_for(3, 5);
        assert_eq!(mine.len(), 5);
        assert!(mine.iter().all(|txn| txn.client == 3));
        assert!(mine
            .iter()
            .flat_map(|txn| &txn.ops)
            .all(|op| op.path() == WorkloadSpec::client_path(3)));
        assert_eq!(spec.generate_for(3, 5), mine, "deterministic per (seed, client)");
        assert_ne!(spec.generate_for(4, 5), mine, "distinct payload streams per client");
    }

    #[test]
    fn multi_spec_setup_matches_the_single_op_layout() {
        let spec = MultiSpec::batched_writes(4, 128, 3);
        assert_eq!(spec.checks_per_batch, 1);
        let setup = spec.setup_requests();
        assert_eq!(setup.len(), 4);
        assert_eq!(setup[0].path(), Some("/bench"));
        // checks_per_batch is clamped to the batch size.
        let tiny =
            MultiSpec { batch_size: 2, checks_per_batch: 9, payload: 0, clients: 1, seed: 1 };
        let txns = tiny.generate(1);
        assert!(txns[0].ops.iter().all(|op| matches!(op, Op::Check(_))));
    }

    #[test]
    fn atomic_rename_recipe_chains_create_then_delete() {
        let spec = RecipeSpec::atomic_rename(32, 2);
        let txns = spec.generate_for(1, 3);
        assert_eq!(txns.len(), 3);
        for (step, txn) in txns.iter().enumerate() {
            assert_eq!(txn.ops.len(), 2);
            match (&txn.ops[0], &txn.ops[1]) {
                (Op::Create(create), Op::Delete(delete)) => {
                    assert_eq!(create.path, RecipeSpec::slot_path(1, step + 1));
                    assert_eq!(create.data.len(), 32);
                    assert_eq!(delete.path, RecipeSpec::slot_path(1, step));
                }
                other => panic!("unexpected recipe shape {other:?}"),
            }
        }
        assert_eq!(spec.generate_for(1, 3), txns, "deterministic per (seed, client)");
        let setup = spec.setup_requests_for(1);
        assert_eq!(setup[1].path(), Some(RecipeSpec::slot_path(1, 0)).as_deref());
    }

    #[test]
    fn cas_counter_recipe_pins_the_exact_version() {
        let spec = RecipeSpec::cas_counter(4);
        let txns = spec.generate_for(0, 4);
        for (step, txn) in txns.iter().enumerate() {
            match (&txn.ops[0], &txn.ops[1]) {
                (Op::Check(check), Op::SetData(set)) => {
                    assert_eq!(check.version, step as i32);
                    assert_eq!(set.version, step as i32);
                    assert_eq!(set.data, (step as u64 + 1).to_be_bytes().to_vec());
                    assert_eq!(check.path, set.path);
                }
                other => panic!("unexpected recipe shape {other:?}"),
            }
        }
    }

    #[test]
    fn deletes_target_nodes_created_earlier_by_the_same_client_or_in_setup() {
        use std::collections::HashMap;

        let deletes_only = WorkloadSpec::single(OpKind::Delete, 8, 3);
        let churn = WorkloadSpec {
            mix: vec![(OpKind::Create, 0.5), (OpKind::Delete, 0.5), (OpKind::Get, 0.2)],
            seed: 9,
            ..deletes_only.clone()
        };
        for spec in [deletes_only, churn] {
            let count = 300;
            // Live node -> the client that owns it (`None`: created in setup).
            let mut live: HashMap<String, Option<usize>> = spec
                .setup_requests(count)
                .iter()
                .map(|request| (request.path().unwrap().to_string(), None))
                .collect();
            let mut deletes = 0;
            for op in spec.generate(count) {
                match op.request {
                    Request::Create(create) => {
                        assert!(live.insert(create.path, Some(op.client)).is_none());
                    }
                    Request::Delete(delete) => {
                        deletes += 1;
                        assert_ne!(delete.path, WorkloadSpec::client_path(op.client));
                        let owner = live.remove(&delete.path);
                        assert!(
                            matches!(owner, Some(None)) || owner == Some(Some(op.client)),
                            "{} deletes {} it does not own: {owner:?}",
                            op.client,
                            delete.path
                        );
                        if owner == Some(None) {
                            assert!(delete.path.starts_with(&WorkloadSpec::client_path(op.client)));
                        }
                    }
                    _ => {}
                }
            }
            assert!(deletes > 0);
        }
    }

    #[test]
    fn sequential_creates_target_sequential_mode() {
        let spec = WorkloadSpec::single(OpKind::CreateSequential, 10, 2);
        for op in spec.generate(4) {
            match op.request {
                Request::Create(create) => assert!(create.mode.is_sequential()),
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}
