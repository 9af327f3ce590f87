//! In-memory columnar SQL engine — the DBMS substrate for JoinBoost.
//!
//! The paper runs JoinBoost against DuckDB and a commercial DBMS ("DBMS-X").
//! This crate is the from-scratch Rust substitute: it executes exactly the
//! SQL subset JoinBoost emits (see `joinboost-sql`) over an in-memory
//! columnar store, and implements the storage-engine mechanisms whose costs
//! drive the paper's systems findings:
//!
//! * **columnar vs row execution** (`X-col` vs `X-row` in the paper) —
//!   [`ExecMode`],
//! * **write-ahead logging** — every write is encoded and appended to a log
//!   file before it is applied ([`wal`]),
//! * **MVCC-style versioning** — updates first copy the before-image of the
//!   touched column into an undo buffer ([`db`]),
//! * **lightweight columnar compression** — each stored column is held
//!   as its run-length codec image when that makes it smaller, and kept
//!   plain otherwise; scans decode the encoded columns, and an update
//!   re-encodes the columns it assigns ([`storage::codec`]),
//! * **column swap** — the paper's <100-LOC DuckDB extension: an O(1)
//!   schema-level pointer swap of a column between two tables, bypassing
//!   WAL, MVCC and compression entirely (`SWAP COLUMN a.x WITH b.y`),
//! * **interop (dataframe) storage** — a table can be held in an external
//!   uncompressed array store that is copied into the engine on every scan
//!   (the DuckDB+Pandas `DP` backend) but supports O(1) column replacement
//!   ([`interop`]),
//! * **out-of-core paged storage** — tables live in fixed-size pages on
//!   disk behind a capacity-bounded Clock buffer pool, scans pin pages
//!   one at a time, and committed state survives crashes via WAL replay
//!   ([`storage`]).
//!
//! Entry point: [`Database`].
//!
//! ```
//! use joinboost_engine::{Column, Database, Table};
//!
//! let db = Database::in_memory();
//! db.create_table(
//!     "r",
//!     Table::from_columns(vec![
//!         ("a", Column::int(vec![1, 1, 2])),
//!         ("y", Column::float(vec![2.0, 3.0, 5.0])),
//!     ]),
//! )
//! .unwrap();
//! let t = db
//!     .query("SELECT a, SUM(y) AS s FROM r GROUP BY a ORDER BY a")
//!     .unwrap();
//! assert_eq!(t.num_rows(), 2);
//! assert_eq!(t.column(None, "s").unwrap().f64_at(0), Some(5.0));
//! ```

#![deny(missing_docs)]

pub mod agg;
pub mod column;
pub mod datum;
pub mod db;
pub mod error;
pub mod exec;
pub mod expr;
pub mod interop;
pub mod keys;
mod mask;
pub mod plan;
pub mod storage;
pub mod table;
pub mod wal;

pub use column::Column;
pub use datum::{DataType, Datum};
pub use db::{Database, EngineConfig, ExecMode};
pub use error::{EngineError, Result};
pub use storage::BufferPoolStats;
pub use table::Table;
