//! Evaluation substrate for the SecureKeeper reproduction.
//!
//! The paper evaluates SecureKeeper on a four-machine Skylake cluster against
//! vanilla ZooKeeper and TLS-enabled ZooKeeper. This crate regenerates that
//! evaluation on one machine by running the real system: every throughput
//! figure and Table 1 are measured over live loopback TCP servers.
//!
//! * [`variant::Variant`] — the three systems under comparison;
//! * [`generator`] — request generators for the paper's 70:30 GET/SET mix,
//!   per-operation workloads, `multi` batches and transactional recipes;
//! * [`ycsb`] — a YCSB-style mixed workload generator (Figure 11);
//! * [`netdriver`] — starts a live [`zkserver::net::ZkTcpServer`] per
//!   variant and drives N real TCP connections through it, synchronous or
//!   pipelined, checking every reply (Figures 6–11, Table 1);
//! * [`measured`] — the TLS-ZK baseline: transport encryption terminated in
//!   untrusted replica code;
//! * [`failover`] — Figure 12: throughput over time against a live
//!   networked ensemble while a leader or a follower crashes;
//! * [`memtrace`] — Figure 2, a *model*: the measured data-tree size of an
//!   in-process cluster plus a JVM heap model, since the replicas here are
//!   not JVMs;
//! * [`report`] — the overhead table (Table 1, from measured throughputs),
//!   the message-size analysis (Table 2) and the code-base size census
//!   (Table 3);
//! * [`metrics`] — small series/row containers shared by the bench binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod failover;
pub mod generator;
pub mod measured;
pub mod memtrace;
pub mod metrics;
pub mod netdriver;
pub mod report;
pub mod variant;
pub mod ycsb;

pub use variant::Variant;
