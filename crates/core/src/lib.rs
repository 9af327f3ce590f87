//! # JoinBoost: grow trees over normalized data using only SQL
//!
//! A Rust reproduction of the VLDB 2023 paper. JoinBoost trains decision
//! trees, random forests and gradient-boosted trees over a *normalized*
//! database without ever materializing the join: the training algorithm
//! runs in Rust (like the paper's Python driver) and compiles its
//! computationally heavy step — evaluating split criteria — into plain
//! SPJA SQL executed by a DBMS backend (here, `joinboost-engine`).
//!
//! ```
//! use joinboost::{train_gbm, Dataset, TrainParams};
//! use joinboost_engine::{Column, Database, Table};
//! use joinboost_graph::JoinGraph;
//!
//! // `sales` (fact, target net_profit) joins `dates` (dimension).
//! let db = Database::in_memory();
//! db.create_table(
//!     "sales",
//!     Table::from_columns(vec![
//!         ("date_id", Column::int(vec![1, 1, 2, 2])),
//!         ("net_profit", Column::float(vec![10.0, 12.0, 30.0, 34.0])),
//!     ]),
//! )
//! .unwrap();
//! db.create_table(
//!     "dates",
//!     Table::from_columns(vec![
//!         ("date_id", Column::int(vec![1, 2])),
//!         ("holiday", Column::int(vec![0, 1])),
//!     ]),
//! )
//! .unwrap();
//! let mut graph = JoinGraph::new();
//! graph.add_relation("sales", &[]).unwrap();
//! graph.add_relation("dates", &["holiday"]).unwrap();
//! graph.add_edge("sales", "dates", &["date_id"]).unwrap();
//!
//! let dataset = Dataset::new(&db, graph, "sales", "net_profit").unwrap();
//! let params = TrainParams { num_iterations: 3, ..TrainParams::default() };
//! let model = train_gbm(&dataset, &params).unwrap();
//! assert_eq!(model.trees.len(), 3);
//! // Holiday days are more profitable; the model learns the gap.
//! assert!(model.trees[0].num_leaves() > 1);
//! ```
//!
//! ## Module map
//!
//! * [`backend`] — the [`SqlBackend`] trait every training query goes
//!   through, and its implementations: the in-memory engine (AST fast
//!   path), the SQL-text round-trip backend, the remote wire backend
//!   (SQL over a socket to a separate engine process), and the sharded
//!   fan-out backend with pluggable in-process/remote shard transports
//!   (Section 5's portability claim, made pluggable).
//! * [`dataset`] — binding a [`joinboost_graph::JoinGraph`] to database
//!   tables; feature kinds; lifted (annotated) table creation. Training
//!   never modifies user data: all writes go to `jb_`-prefixed temp tables.
//! * [`sqlgen`] — symbolic semi-ring algebra → SQL expressions; split
//!   criteria queries (paper Example 2); gradient/Hessian SQL for every
//!   objective of Table 3.
//! * [`messages`] — factorized message passing with identity-message and
//!   semi-join optimizations, plus the cross-node message cache
//!   (Section 5.5.1).
//! * [`trainer`] — Algorithm 1 (best-first / depth-wise decision tree
//!   growth) over factorized split evaluation.
//! * [`boosting`] — factorized gradient boosting: residual updates on
//!   snowflake schemas (UPDATE / CREATE TABLE / column swap / dataframe
//!   interop — Sections 4.1, 5.3, 5.4) and galaxy schemas via update
//!   relations and Clustered Predicate Trees (Section 4.2).
//! * [`forest`] — random forests with fact-table / ancestral sampling
//!   (Section 5.5.2) and tree-parallel training.
//! * [`sampling`] — ancestral sampling over the join graph.
//! * [`scheduler`] — inter-query parallelism (Section 5.5.3): one ordered
//!   `par_map` over worker threads, for split queries, forest trees and
//!   shard fan-out.
//! * [`tree`], [`predict`] — the returned models and their application.
//! * [`serve`] — the serving tier: trained forests compiled into
//!   per-relation message tables so per-key scoring is dictionary
//!   lookups plus `⊕`-adds — never a join — with a [`Scorer`] trait over
//!   the materialized and factorized paths.

#![deny(missing_docs)]

pub mod backend;
pub mod boosting;
pub mod dataset;
pub mod error;
pub mod forest;
pub mod messages;
pub mod params;
pub mod predict;
pub mod sampling;
pub mod scheduler;
pub mod serve;
pub mod sqlgen;
pub mod trainer;
pub mod tree;

pub use backend::{
    BackendCapabilities, BackendResult, EngineBackend, RemoteBackend, ShardedBackend, SqlBackend,
    SqlTextBackend,
};
pub use boosting::{train_gbm, train_gbm_cb, train_gbm_resume, GbmModel};
pub use dataset::{Dataset, FeatureKind};
pub use error::{Result, TrainError};
pub use forest::{train_random_forest, RfModel};
pub use params::{Growth, TrainParams, UpdateMethod};
pub use serve::{FactorizedScorer, JoinScorer, Scorer, ScorerSpec};
pub use trainer::{train_decision_tree, TrainStats};
pub use tree::{Split, SplitCondition, Tree};
