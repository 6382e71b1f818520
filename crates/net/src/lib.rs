//! Offline wire layer for the hidden-database crawler: hand-rolled
//! HTTP/1.1 over `std::net`, loopback serving, and a health-tracked
//! client — no external dependencies, no network beyond the sockets the
//! tests open themselves.
//!
//! # What this crate adds
//!
//! Everything below `Crawl::builder()` so far ran in-process. This
//! crate puts a real socket in the middle and proves nothing changes:
//!
//! * [`serve`] / [`WireServer`] — expose a
//!   [`SharedServer`](hdc_server::SharedServer) as a thread-per-connection
//!   query endpoint ([`proto`] documents the endpoints and bodies), with
//!   per-connection identity isolation, optional per-connection budgets,
//!   graceful drain on shutdown, and a deterministic server-side fault
//!   injector ([`FaultPlan`]).
//! * [`HttpConnector`] / [`HttpDb`] — the client side: a
//!   [`Connector`](hdc_core::Connector) whose connections implement
//!   `HiddenDatabase` over the wire, mapping timeouts and resets to
//!   `DbError::Transient` (so retry, per-identity strikes, and
//!   checkpoint/resume work unchanged), pacing identities with a token
//!   bucket ([`bucket`]), and retiring identities after consecutive
//!   failures.
//!
//! Bodies are read by the workspace's one bounded JSON reader,
//! [`hdc_types::json`], shared with checkpoints and `hdc-coord`.
//!
//! # Determinism contract
//!
//! The server charges nothing for injected faults and the client
//! charges nothing for failed requests, so a retried crawl over a faulty
//! wire converges on the *bit-identical* bag, cost, and tallies of a
//! fault-free in-process crawl — `tests/wire_equiv.rs` proves it
//! differentially, and `tests/protocol_fuzz.rs` proves malformed bytes
//! on either side are clean errors, never panics or hangs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bucket;
pub mod client;
pub mod http;
pub mod proto;
pub mod server;

pub use bucket::{RateLimiter, TokenBucket};
pub use client::{HttpConnector, HttpDb};
pub use server::{serve, FaultPlan, RouteExt, ServeOptions, ServeStats, WireServer};
