//! Binding a join graph to database tables (the training dataset of the
//! JoinBoost API, Section 5.1 / Figure 4).

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

use joinboost_engine::{DataType, Table};
use joinboost_graph::{JoinGraph, RelId};
use joinboost_sql::ast::Statement;

use crate::backend::SqlBackend;
use crate::error::{Result, TrainError};

/// How a feature is split: numeric features use inequality splits over
/// window prefix sums; categorical features use equality splits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureKind {
    /// Inequality splits (`f <= v`) over window prefix sums.
    Numeric,
    /// Equality splits (`f = v`) over per-value aggregates.
    Categorical,
}

static DATASET_COUNTER: AtomicUsize = AtomicUsize::new(0);

/// A training dataset: a join graph whose relation names are tables in a
/// SQL backend, plus the target variable.
///
/// Safety (Section 5.1): training never modifies user tables. Every write
/// goes to a `jb_<id>_`-prefixed temporary table registered here; they are
/// dropped when the dataset is dropped unless [`Dataset::keep_temp_tables`]
/// is set (the paper keeps them for provenance/debugging on request).
pub struct Dataset<'a> {
    /// The DBMS backend every training query runs against. A plain
    /// [`joinboost_engine::Database`] coerces here directly; see
    /// [`crate::backend`] for the other implementations.
    pub db: &'a dyn SqlBackend,
    /// The join graph binding relations, features and join keys.
    pub graph: JoinGraph,
    /// Name of the relation holding the target column.
    pub target_relation: String,
    /// Name of the target (label) column.
    pub target_column: String,
    target_rel_id: RelId,
    kinds: HashMap<String, FeatureKind>,
    prefix: String,
    temp_tables: Mutex<Vec<String>>,
    counter: AtomicUsize,
    /// Keep `jb_`-prefixed temp tables alive on drop (provenance).
    pub keep_temp_tables: bool,
}

impl<'a> Dataset<'a> {
    /// Validate the graph against the backend and infer feature kinds
    /// (string columns are categorical, numeric columns numeric).
    pub fn new(
        db: &'a dyn SqlBackend,
        graph: JoinGraph,
        target_relation: &str,
        target_column: &str,
    ) -> Result<Self> {
        graph.validate_tree()?;
        let target_rel_id = graph.rel_id(target_relation)?;
        // Every relation must exist with its features and join keys.
        let mut kinds = HashMap::new();
        for (rel, info) in graph.relations() {
            let cols = db
                .column_names(&info.name)
                .map_err(|e| TrainError::Engine(e.to_string()))?;
            let has = |c: &str| cols.iter().any(|x| x.eq_ignore_ascii_case(c));
            for f in &info.features {
                if !has(f) {
                    return Err(TrainError::Graph(format!(
                        "feature {f} not found in table {}",
                        info.name
                    )));
                }
                let kind = match db.column_dtype(&info.name, f)? {
                    DataType::Str => FeatureKind::Categorical,
                    DataType::Int | DataType::Float => FeatureKind::Numeric,
                };
                kinds.insert(f.to_ascii_lowercase(), kind);
            }
            for (other, _) in graph.neighbors(rel) {
                for k in graph
                    .join_keys(rel, other)
                    .expect("neighbors share an edge")
                {
                    if !has(k) {
                        return Err(TrainError::Graph(format!(
                            "join key {k} not found in table {}",
                            info.name
                        )));
                    }
                }
            }
        }
        let tcols = db.column_names(target_relation)?;
        if !tcols.iter().any(|c| c.eq_ignore_ascii_case(target_column)) {
            return Err(TrainError::Graph(format!(
                "target column {target_column} not found in {target_relation}"
            )));
        }
        let id = DATASET_COUNTER.fetch_add(1, Ordering::Relaxed);
        Ok(Dataset {
            db,
            graph,
            target_relation: target_relation.to_string(),
            target_column: target_column.to_string(),
            target_rel_id,
            kinds,
            prefix: format!("jb_{id}"),
            temp_tables: Mutex::new(Vec::new()),
            counter: AtomicUsize::new(0),
            keep_temp_tables: false,
        })
    }

    /// Graph id of the relation holding the target column.
    pub fn target_rel(&self) -> RelId {
        self.target_rel_id
    }

    /// All `(feature, relation)` pairs.
    pub fn features(&self) -> Vec<(String, RelId)> {
        self.graph.all_features()
    }

    /// How the named feature splits (numeric unless known categorical).
    pub fn feature_kind(&self, feature: &str) -> FeatureKind {
        self.kinds
            .get(&feature.to_ascii_lowercase())
            .copied()
            .unwrap_or(FeatureKind::Numeric)
    }

    /// Force a numeric column to be treated as categorical (equality
    /// splits), e.g. dictionary-encoded ids.
    pub fn set_categorical(&mut self, feature: &str) {
        self.kinds
            .insert(feature.to_ascii_lowercase(), FeatureKind::Categorical);
    }

    /// Execute one statement on the backend as an AST, naming it in the
    /// error: every statement training issues goes through here.
    pub(crate) fn run(&self, stmt: &Statement) -> Result<Table> {
        self.db
            .execute_ast(stmt)
            .map_err(|e| TrainError::Engine(format!("{e} in: {stmt}")))
    }

    /// Allocate a fresh temp-table name (registered for cleanup).
    pub fn fresh_table(&self, hint: &str) -> String {
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        let name = format!("{}_{hint}_{n}", self.prefix);
        self.temp_tables.lock().push(name.clone());
        name
    }

    /// Number of live temp tables created so far.
    pub fn temp_table_count(&self) -> usize {
        self.temp_tables.lock().len()
    }

    /// Drop all registered temp tables (ignores already-dropped ones).
    pub fn drop_temp_tables(&self) {
        let names: Vec<String> = self.temp_tables.lock().drain(..).collect();
        for n in names {
            let _ = self.db.drop_table_if_exists(&n);
        }
    }
}

impl Drop for Dataset<'_> {
    fn drop(&mut self) {
        if !self.keep_temp_tables {
            self.drop_temp_tables();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinboost_engine::{Column, Database, Table};

    fn db_and_graph() -> (Database, JoinGraph) {
        let db = Database::in_memory();
        db.create_table(
            "sales",
            Table::from_columns(vec![
                ("date_id", Column::int(vec![1, 2])),
                ("net_profit", Column::float(vec![10.0, 20.0])),
            ]),
        )
        .unwrap();
        db.create_table(
            "dates",
            Table::from_columns(vec![
                ("date_id", Column::int(vec![1, 2])),
                ("holiday", Column::int(vec![0, 1])),
                (
                    "season",
                    Column::str(vec!["winter".into(), "summer".into()]),
                ),
            ]),
        )
        .unwrap();
        let mut g = JoinGraph::new();
        g.add_relation("sales", &[]).unwrap();
        g.add_relation("dates", &["holiday", "season"]).unwrap();
        g.add_edge("sales", "dates", &["date_id"]).unwrap();
        (db, g)
    }

    #[test]
    fn builds_and_infers_kinds() {
        let (db, g) = db_and_graph();
        let ds = Dataset::new(&db, g, "sales", "net_profit").unwrap();
        assert_eq!(ds.feature_kind("holiday"), FeatureKind::Numeric);
        assert_eq!(ds.feature_kind("season"), FeatureKind::Categorical);
        assert_eq!(ds.features().len(), 2);
        assert_eq!(ds.target_rel(), ds.graph.rel_id("sales").unwrap());
    }

    #[test]
    fn rejects_missing_columns() {
        let (db, mut g) = db_and_graph();
        g.add_relation("extra", &["nope"]).unwrap();
        g.add_edge("sales", "extra", &["date_id"]).unwrap();
        assert!(Dataset::new(&db, g, "sales", "net_profit").is_err());
        let (db, g) = db_and_graph();
        assert!(Dataset::new(&db, g, "sales", "wrong_target").is_err());
    }

    #[test]
    fn rejects_missing_join_key() {
        let (db, _) = db_and_graph();
        let mut g = JoinGraph::new();
        g.add_relation("sales", &[]).unwrap();
        g.add_relation("dates", &["holiday"]).unwrap();
        g.add_edge("sales", "dates", &["bad_key"]).unwrap();
        assert!(Dataset::new(&db, g, "sales", "net_profit").is_err());
    }

    #[test]
    fn temp_tables_are_dropped_on_drop() {
        let (db, g) = db_and_graph();
        let name;
        {
            let ds = Dataset::new(&db, g, "sales", "net_profit").unwrap();
            name = ds.fresh_table("msg");
            db.execute(&format!("CREATE TABLE {name} AS SELECT 1 AS x"))
                .unwrap();
            assert!(db.has_table(&name));
            assert_eq!(ds.temp_table_count(), 1);
        }
        assert!(!db.has_table(&name), "temp table must be cleaned up");
    }

    #[test]
    fn set_categorical_overrides() {
        let (db, g) = db_and_graph();
        let mut ds = Dataset::new(&db, g, "sales", "net_profit").unwrap();
        ds.set_categorical("holiday");
        assert_eq!(ds.feature_kind("holiday"), FeatureKind::Categorical);
    }
}
