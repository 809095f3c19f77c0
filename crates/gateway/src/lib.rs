//! A stateless routing gateway fronting a sharded, multi-ensemble
//! namespace.
//!
//! SecureKeeper's coordination tree is a single replicated namespace; this
//! crate scales its write path horizontally by partitioning the tree
//! across N independent ensembles (*shards*) behind a thin routing tier
//! that still speaks the ordinary client protocol:
//!
//! - [`ShardMap`] — longest-prefix subtree → shard routing table, loadable
//!   from a [`jute::shardmap::ShardMapConfig`] record. In secure
//!   deployments its prefixes are *sealed* (deterministically encrypted
//!   per path component), so the gateway routes on ciphertext and never
//!   holds a key — it stays outside the TCB exactly like the untrusted
//!   ZooKeeper core in the paper.
//! - [`Gateway`] — a [`netcore::Reactor`] service that terminates client
//!   sessions on its front port, opens one backend session per touched
//!   shard, correlates replies back into the client's strict FIFO order,
//!   and folds per-shard zxids into a single lane vector
//!   ([`LaneCodec`]) the unmodified client already tolerates.
//! - Cross-shard `multi` transactions are refused with the typed
//!   [`jute::records::ErrorCode::CrossShard`] error; a `multi` confined to
//!   one shard passes through with its atomicity intact.
//! - Per-tenant admission control ([`opsplane::TenantRateLimiter`]) and
//!   `gw_`-prefixed metrics make the tier operable on its own.

#![forbid(unsafe_code)]

pub mod backend;
pub mod lanes;
pub mod metrics;
pub mod service;
pub mod shardmap;

pub use backend::BackendLink;
pub use lanes::LaneCodec;
pub use metrics::GatewayMetrics;
pub use service::{Gateway, GatewayConfig, GatewayService};
pub use shardmap::{RouteError, ShardMap};
