//! The three workloads: their namespaces, key ownership and operation mix.

use std::collections::HashSet;

/// Client sessions per workload, each a closed loop on its own thread.
/// Two matches the two cores of the host the bounds were set on, and
/// `write-secure` needs one session on the leader and one on a follower.
pub const SESSIONS: usize = 2;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One in-memory SecureKeeper member; Zipf reads and listings over a
    /// namespace four times the path cache.
    ReadSecure,
    /// Three durable SecureKeeper members; conditional writes and 8-write
    /// `multi`s from one session on the leader and one on a follower.
    WriteSecure,
    /// A gateway over two durable plain shards; the 70:30 read/write mix.
    MixedGateway,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] =
        [Workload::ReadSecure, Workload::WriteSecure, Workload::MixedGateway];

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadSecure => "read-secure",
            Workload::WriteSecure => "write-secure",
            Workload::MixedGateway => "mixed-gateway",
        }
    }

    /// Whether members run the SecureKeeper entry enclave.
    pub fn secure(self) -> bool {
        self != Workload::MixedGateway
    }
}

/// One operation a session issues.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Call {
    /// `get_data` of a key.
    Get(usize),
    /// `get_children` of a group (`read-secure` only).
    Children(usize),
    /// Conditional `set_data` of an owned key.
    Set(usize),
    /// One `multi` of conditional `set_data`s on distinct owned keys.
    Multi(Vec<usize>),
}

/// Sub-operations of each `multi` in `write-secure`.
pub const MULTI_WRITES: usize = 8;

/// The namespace and mix of one workload at one scale.
#[derive(Debug, Clone)]
pub struct Spec {
    /// The workload.
    pub workload: Workload,
    /// The seed every input is derived from.
    pub seed: u64,
    /// Keys (leaf znodes) in the namespace.
    pub keys: usize,
    /// Groups of `read-secure` (0 elsewhere).
    pub groups: usize,
    /// Payload bytes of every key.
    pub payload: usize,
}

/// Leaves per group of `read-secure`.
pub const GROUP_SIZE: usize = 32;

impl Spec {
    /// The full-size namespace, or a tiny one for smoke tests.
    pub fn new(workload: Workload, seed: u64, tiny: bool) -> Spec {
        let (keys, groups, payload) = match (workload, tiny) {
            // 16,384 leaves: four times the 4,096-entry path cache.
            (Workload::ReadSecure, false) => (512 * GROUP_SIZE, 512, 1024),
            (Workload::ReadSecure, true) => (16 * GROUP_SIZE, 16, 1024),
            // 256 registers fit the path cache.
            (Workload::WriteSecure, false) => (256, 0, 128),
            (Workload::WriteSecure, true) => (32, 0, 128),
            // Two shards of 512 keys each.
            (Workload::MixedGateway, false) => (1024, 0, 1024),
            (Workload::MixedGateway, true) => (64, 0, 1024),
        };
        Spec { workload, seed, keys, groups, payload }
    }

    /// Keys per shard of `mixed-gateway`.
    pub fn keys_per_shard(&self) -> usize {
        self.keys / 2
    }

    /// The shard that holds `key` (`mixed-gateway`; 0 elsewhere).
    pub fn shard_of(&self, key: usize) -> usize {
        match self.workload {
            Workload::MixedGateway => key / self.keys_per_shard(),
            _ => 0,
        }
    }

    /// The plaintext path of `key`.
    pub fn key_path(&self, key: usize) -> String {
        match self.workload {
            Workload::ReadSecure => {
                format!("/r/g{:03}/k{:02}", key / GROUP_SIZE, key % GROUP_SIZE)
            }
            Workload::WriteSecure => format!("/w/r{key:03}"),
            Workload::MixedGateway => {
                format!("/t{}/k{:03}", self.shard_of(key), key % self.keys_per_shard())
            }
        }
    }

    /// The plaintext path of group `group` (`read-secure`).
    pub fn group_path(&self, group: usize) -> String {
        format!("/r/g{group:03}")
    }

    /// The children every listing of a group must return, sorted.
    pub fn group_children() -> Vec<String> {
        (0..GROUP_SIZE).map(|i| format!("k{i:02}")).collect()
    }

    /// Payload-less ancestors of the keys held by `shard`, parents first.
    pub fn parents(&self, shard: usize) -> Vec<String> {
        match self.workload {
            Workload::ReadSecure => std::iter::once("/r".to_string())
                .chain((0..self.groups).map(|g| self.group_path(g)))
                .collect(),
            Workload::WriteSecure => vec!["/w".to_string()],
            Workload::MixedGateway => vec![format!("/t{shard}")],
        }
    }

    /// The session that writes `key`, if any session does.
    pub fn owner(&self, key: usize) -> Option<usize> {
        match self.workload {
            Workload::ReadSecure => None,
            // Each session writes its own half of the registers.
            Workload::WriteSecure => Some(key * SESSIONS / self.keys),
            // Every session owns keys on both shards.
            Workload::MixedGateway => Some(key % SESSIONS),
        }
    }

    /// Every plaintext path component of the namespace: none may appear as
    /// a component of a path stored by a secure member.
    pub fn plaintext_components(&self) -> HashSet<String> {
        let mut components = HashSet::new();
        let all = (0..self.keys).map(|k| self.key_path(k)).chain(self.parents(0));
        for path in all {
            components.extend(path.split('/').filter(|c| !c.is_empty()).map(str::to_string));
        }
        components
    }
}
