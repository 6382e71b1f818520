//! Data model for the hidden-database crawler.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace, following the problem setup of Section 1.1 of
//! *Optimal Algorithms for Crawling a Hidden Database in the Web*
//! (Sheng, Zhang, Tao, Jin; VLDB 2012):
//!
//! * a **data space** `𝔻 = dom(A1) × … × dom(Ad)` described by a [`Schema`]
//!   whose attributes are either *numeric* (totally ordered integer domains)
//!   or *categorical* (unordered finite domains `{0, …, U−1}`);
//! * a hidden database `D`, a **bag** of [`Tuple`]s over that space
//!   (duplicates allowed — see [`TupleBag`] for multiset bookkeeping);
//! * **queries** ([`Query`]) that attach one [`Predicate`] per attribute:
//!   a range `Ai ∈ [x, y]` on numeric attributes, an equality `Ai = x` or
//!   wildcard `Ai = ⋆` on categorical attributes;
//! * the **top-k interface** ([`HiddenDatabase`]) through which all data
//!   acquisition happens: a query either *resolves* (its entire result is
//!   returned) or *overflows* (only `k` tuples plus an overflow signal).
//!
//! Every serialized format shares one bounded JSON reader, [`json`],
//! and one value-token codec, [`Value::token`] / [`Value::from_token`].
//!
//! Crawling algorithms live in `hdc-core`; the server simulator that
//! faithfully implements the adversarial top-k semantics lives in
//! `hdc-server`. Both speak only the types defined here, so the algorithms
//! could drive a real web form by implementing [`HiddenDatabase`] over HTTP.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bag;
pub mod budget;
pub mod error;
pub mod fault;
pub mod interface;
pub mod json;
pub mod predicate;
pub mod query;
pub mod schema;
pub mod tuple;
pub mod value;

pub use bag::TupleBag;
pub use budget::Budgeted;
pub use error::{DbError, SchemaError};
pub use fault::{FaultConfig, FaultyDb};
pub use interface::{HiddenDatabase, QueryOutcome};
pub use predicate::Predicate;
pub use query::Query;
pub use schema::{AttrKind, Attribute, Schema, SchemaBuilder};
pub use tuple::Tuple;
pub use value::Value;
