//! Facade crate for the SecureKeeper reproduction workspace.
//!
//! This crate re-exports the public API of every member crate so that the
//! workspace-level examples and integration tests (and downstream users who
//! just want "the whole system") can depend on a single package:
//!
//! * [`securekeeper`] — the paper's contribution: entry/counter enclaves,
//!   path and payload encryption, key management, secure client;
//! * [`zkserver`] — the ZooKeeper-semantics coordination service substrate;
//! * [`zab`] — the atomic-broadcast agreement protocol;
//! * [`jute`] — the wire-format serialization;
//! * [`zkcrypto`] — the cryptographic primitives (AES-GCM on AES-NI where the
//!   CPU has it, portable safe Rust elsewhere);
//! * [`sgx_sim`] — the SGX enclave simulation;
//! * [`workload`] — the evaluation harness that regenerates the paper's
//!   figures and tables.
//!
//! See `README.md` for a guided tour and its "Paper mapping" for the
//! experiment index, and `docs/ARCHITECTURE.md` for how the crates layer.

#![forbid(unsafe_code)]

pub use jute;
pub use securekeeper;
pub use sgx_sim;
pub use workload;
pub use zab;
pub use zkcrypto;
pub use zkserver;
