//! Distributed crawl coordination for the hidden-database crawler.
//!
//! The sharded crawl's determinism contract ([`hdc_core::ShardSpec`])
//! says a shard's charged query sequence, cost, and extracted bag depend
//! only on the spec and the database — any session, any machine, any
//! order. This crate turns that contract into a *fleet*: one
//! coordinator owns the shard plan and leases shards to workers; workers
//! crawl leased shards against the data service and report results back.
//! The fleet's merged bag and total charged cost are exactly a solo
//! sharded crawl's (the `fleet_equiv` differential suite pins this).
//!
//! # Pieces
//!
//! * [`LeaseRepository`] — the coordination contract: atomically lease a
//!   pending shard (lease id + deadline), renew by heartbeat, report
//!   completion. Expired leases are reclaimed, so a crashed worker's
//!   shard is salvaged by a peer. [`MemoryLeaseRepository`] is the
//!   canonical in-process implementation (and the coordinator's own
//!   state machine); [`WireLeaseRepository`] speaks the same contract
//!   over HTTP to a [`Coordinator`] mounted on the wire server.
//! * **Partial snapshots** — a heartbeat may carry a partial
//!   [`hdc_core::ShardSnapshot`] (`frontier = Some(c)`: the shard's
//!   first `c` root values are done). When the lease expires, the
//!   salvaging peer resumes from the frontier
//!   ([`hdc_core::ResumableShard::resume_suffix`]) and replays only the
//!   un-checkpointed suffix instead of the whole shard.
//! * [`TupleDedup`] — cross-restart tuple dedup: an exact set or a
//!   seeded double-hash [`BloomFilter`], persisted beside the
//!   checkpoint, so repeated or incremental crawls report how many
//!   tuples are genuinely new. Dedup **annotates** (new-vs-seen
//!   counters); the crawled bag itself always stays exact.
//! * [`drive_worker`] — the worker loop (`hdc work --join URL`): lease,
//!   crawl with per-root heartbeats, merge any salvaged prefix, report,
//!   repeat until the plan drains.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bloom;
pub mod coordinator;
pub mod lease;
pub mod protocol;
pub mod wire;
pub mod worker;

pub use bloom::{BloomFilter, DedupStats, TupleDedup};
pub use coordinator::{Coordinator, CoordinatorConfig, FleetOutcome, Restore};
pub use lease::{LeaseDecision, LeaseGrant, LeaseRepository, MemoryLeaseRepository};
pub use wire::WireLeaseRepository;
pub use worker::{drive_worker, merge_snapshot, WorkerConfig, WorkerReport};
