//! The repository benchmark: real TCP members booted in-process, driven by
//! closed-loop client sessions, with every output checked.
//!
//! See `README.md` beside this crate for the workloads, the metrics and
//! which layer each metric measures.

pub mod deploy;
pub mod gen;
pub mod run;
pub mod seams;
pub mod session;
pub mod spec;
pub mod window;
