//! Join graphs for factorized learning.
//!
//! A training dataset in JoinBoost is a *join graph*: relations plus join
//! edges (Section 5.1). This crate describes the graph; it does not
//! schedule messages. The trainer's Factorizer (`joinboost::messages`)
//! walks the subtree behind each edge itself and emits the message SQL.
//! This crate provides:
//!
//! * [`graph::JoinGraph`] — relations, features, edges with declared
//!   multiplicity; acyclicity/connectivity validation; path queries and
//!   ancestral-sampling orders (Section 5.5.2); snowflake detection;
//! * [`cluster`] — Clustered Predicate Tree (CPT) clustering of galaxy
//!   schemas: each cluster is a local fact table plus the relations it
//!   reaches over N-to-1 edges, within which leaf predicates can always be
//!   pushed to the cluster's fact table without creating cycles;
//! * [`cache::MessageCache`] — the map from `(from, to, predicate
//!   signature)` to a materialized message that lets parent and child
//!   tree nodes share messages (Section 5.5.1), the optimization that
//!   gives the paper its 3× improvement over per-node batching.

pub mod cache;
pub mod cluster;
pub mod graph;

pub use cache::MessageCache;
pub use cluster::{clusters, Cluster};
pub use graph::{GraphError, JoinGraph, Multiplicity, RelId};
