//! End-to-end training tests over synthetic workloads.

#![allow(clippy::field_reassign_with_default)]

use joinboost::predict::{materialize_features, targets};
use joinboost::{
    train_decision_tree, train_gbm, train_random_forest, Dataset, TrainParams, UpdateMethod,
};
use joinboost_datagen::{favorita, imdb_galaxy, FavoritaConfig, ImdbConfig};
use joinboost_engine::{Database, EngineConfig};
use joinboost_semiring::loss::rmse;
use joinboost_semiring::Objective;

fn favorita_db(
    fact_rows: usize,
    dim_rows: usize,
) -> (Database, joinboost_datagen::favorita::Generated) {
    let gen = favorita(&FavoritaConfig {
        fact_rows,
        dim_rows,
        noise: 1.0,
        ..Default::default()
    });
    let db = Database::in_memory();
    gen.load_into(&db).unwrap();
    (db, gen)
}

fn eval_rmse_gbm(set: &Dataset, model: &joinboost::GbmModel) -> f64 {
    let t = materialize_features(set).unwrap();
    let ys = targets(&t).unwrap();
    let ps = model.predict(&t);
    rmse(&ys, &ps)
}

#[test]
fn decision_tree_beats_the_mean_predictor() {
    let (db, gen) = favorita_db(3000, 30);
    let set = Dataset::new(&db, gen.graph.clone(), "sales", "net_profit").unwrap();
    let mut params = TrainParams::default();
    params.num_leaves = 16;
    let (tree, stats) = train_decision_tree(&set, &params).unwrap();
    assert!(tree.num_leaves() > 1, "tree must actually split");
    assert!(stats.split_queries > 0);

    let t = materialize_features(&set).unwrap();
    let ys = targets(&t).unwrap();
    let mean = ys.iter().sum::<f64>() / ys.len() as f64;
    let base = rmse(&ys, &vec![mean; ys.len()]);
    let preds: Vec<f64> = (0..t.num_rows())
        .map(|i| {
            tree.predict(&joinboost::predict::TableRow {
                table: &t,
                index: i,
            })
        })
        .collect();
    let tree_rmse = rmse(&ys, &preds);
    assert!(
        tree_rmse < 0.8 * base,
        "tree rmse {tree_rmse} vs baseline {base}"
    );
}

#[test]
fn decision_tree_leaf_weights_sum_to_total() {
    let (db, gen) = favorita_db(1000, 10);
    let set = Dataset::new(&db, gen.graph.clone(), "sales", "net_profit").unwrap();
    let params = TrainParams::default();
    let (tree, _) = train_decision_tree(&set, &params).unwrap();
    let leaf_total: f64 = tree
        .nodes
        .iter()
        .filter(|n| n.split.is_none())
        .map(|n| n.weight)
        .sum();
    assert_eq!(leaf_total, 1000.0, "leaves partition all rows");
    assert!(tree.num_leaves() <= params.num_leaves);
}

#[test]
fn gbm_rmse_decreases_with_iterations() {
    let (db, gen) = favorita_db(2000, 20);
    let set = Dataset::new(&db, gen.graph.clone(), "sales", "net_profit").unwrap();
    let mut params = TrainParams::default();
    params.num_iterations = 20;
    params.learning_rate = 0.3;
    let model = train_gbm(&set, &params).unwrap();
    assert_eq!(model.trees.len(), 20);

    let t = materialize_features(&set).unwrap();
    let ys = targets(&t).unwrap();
    // Error after 1 tree vs after all trees.
    let short = joinboost::GbmModel {
        trees: model.trees[..1].to_vec(),
        ..model.clone()
    };
    let r1 = rmse(&ys, &short.predict(&t));
    let rn = rmse(&ys, &model.predict(&t));
    assert!(rn < r1 * 0.8, "rmse must drop: 1 tree {r1}, 20 trees {rn}");
}

#[test]
fn gbm_update_methods_produce_identical_models() {
    // The four portable update methods must be pure implementation
    // choices: same trees, same predictions.
    let gen = favorita(&FavoritaConfig {
        fact_rows: 1200,
        dim_rows: 12,
        ..Default::default()
    });
    let mut reference: Option<joinboost::GbmModel> = None;
    for method in [
        UpdateMethod::CreateTable,
        UpdateMethod::UpdateInPlace,
        UpdateMethod::Naive,
        UpdateMethod::Interop,
        UpdateMethod::ColumnSwap,
    ] {
        let config = if method == UpdateMethod::ColumnSwap {
            EngineConfig::d_swap()
        } else {
            EngineConfig::duckdb_mem()
        };
        let db = Database::new(config);
        gen.load_into(&db).unwrap();
        let set = Dataset::new(&db, gen.graph.clone(), "sales", "net_profit").unwrap();
        let mut params = TrainParams::default();
        params.num_iterations = 5;
        params.update_method = method;
        let model = train_gbm(&set, &params).unwrap();
        match &reference {
            None => reference = Some(model),
            Some(r) => {
                assert_eq!(
                    r.trees, model.trees,
                    "method {method:?} diverged from CreateTable"
                );
                assert!((r.init_score - model.init_score).abs() < 1e-12);
            }
        }
    }
}

#[test]
fn gbm_on_a_paged_engine_with_an_8_page_pool_is_bit_identical() {
    // The out-of-core stress: the whole training run — every message
    // materialization, residual update and split query — on an engine
    // whose buffer pool holds 8 pages (32 KiB) while the working set is
    // megabytes. Every page fault, eviction and dirty write-back must
    // leave the folded bits untouched.
    let gen = favorita(&FavoritaConfig {
        fact_rows: 2500,
        dim_rows: 25,
        noise: 1.0,
        ..Default::default()
    });
    let mut reference: Option<joinboost::GbmModel> = None;
    let dir = std::env::temp_dir().join(format!("jb_e2e_paged_{}", std::process::id()));
    for paged in [false, true] {
        let config = if paged {
            let _ = std::fs::remove_dir_all(&dir);
            EngineConfig {
                bufferpool_pages: 8,
                ..EngineConfig::paged(&dir)
            }
        } else {
            EngineConfig::duckdb_mem()
        };
        let db = Database::new(config);
        gen.load_into(&db).unwrap();
        let set = Dataset::new(&db, gen.graph.clone(), "sales", "net_profit").unwrap();
        let mut params = TrainParams::default();
        params.num_iterations = 5;
        let model = train_gbm(&set, &params).unwrap();
        match &reference {
            None => reference = Some(model),
            Some(r) => {
                assert_eq!(r.trees, model.trees, "paging changed the model");
                assert_eq!(
                    r.init_score.to_bits(),
                    model.init_score.to_bits(),
                    "init score must be bit-identical"
                );
                let stats = db.bufferpool_stats().expect("paged engine");
                assert!(
                    stats.evictions > 0 && stats.spilled_bytes > 0,
                    "the tiny pool must actually thrash: {stats:?}"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gbm_column_swap_requires_capable_backend() {
    let (db, gen) = favorita_db(200, 5);
    let set = Dataset::new(&db, gen.graph.clone(), "sales", "net_profit").unwrap();
    let mut params = TrainParams::default();
    params.num_iterations = 1;
    params.update_method = UpdateMethod::ColumnSwap;
    // Default in-memory engine has no swap support.
    assert!(train_gbm(&set, &params).is_err());
}

#[test]
fn gbm_l1_and_huber_objectives_train() {
    let (db, gen) = favorita_db(1500, 15);
    for objective in [
        Objective::AbsoluteError,
        Objective::Huber { delta: 50.0 },
        Objective::Fair { c: 10.0 },
        Objective::Quantile { alpha: 0.5 },
    ] {
        let set = Dataset::new(&db, gen.graph.clone(), "sales", "net_profit").unwrap();
        let mut params = TrainParams::default();
        params.objective = objective;
        params.num_iterations = 15;
        params.learning_rate = 0.5;
        let model = train_gbm(&set, &params).unwrap();
        let t = materialize_features(&set).unwrap();
        let ys = targets(&t).unwrap();
        let init_loss: f64 = ys
            .iter()
            .map(|&y| objective.loss(y, model.init_score))
            .sum();
        let ps = model.predict_raw(&t);
        let final_loss: f64 = ys
            .iter()
            .zip(&ps)
            .map(|(&y, &p)| objective.loss(y, p))
            .sum();
        assert!(
            final_loss < init_loss,
            "{}: loss must decrease ({init_loss} -> {final_loss})",
            objective.name()
        );
    }
}

#[test]
fn galaxy_gbm_trains_with_cpt() {
    let gen = imdb_galaxy(&ImdbConfig {
        persons: 40,
        movies: 30,
        cast_rows: 800,
        person_info_rows: 120,
        movie_info_rows: 90,
        seed: 42,
    });
    let db = Database::in_memory();
    gen.load_into(&db).unwrap();
    let set = Dataset::new(&db, gen.graph.clone(), "cast_info", "rating").unwrap();
    let mut params = TrainParams::default();
    params.num_iterations = 8;
    params.learning_rate = 0.3;
    params.num_leaves = 4;
    params.update_method = UpdateMethod::CreateTable;
    let model = train_gbm(&set, &params).unwrap();
    assert_eq!(model.trees.len(), 8);
    // Every tree respects CPT: all non-root splits are in the root's
    // cluster.
    let clusters = joinboost_graph::cluster::clusters(&set.graph);
    for tree in &model.trees {
        let Some(root_split) = &tree.nodes[0].split else {
            continue;
        };
        let root_rel = set.graph.rel_id(&root_split.relation).unwrap();
        let cluster = clusters.iter().find(|c| c.contains(root_rel)).unwrap();
        for node in &tree.nodes {
            if let Some(s) = &node.split {
                let rel = set.graph.rel_id(&s.relation).unwrap();
                assert!(
                    cluster.contains(rel),
                    "split on {} escapes the {} cluster",
                    s.feature,
                    set.graph.name(cluster.fact)
                );
            }
        }
    }
    // Training loss must drop relative to the constant predictor.
    let t = materialize_features(&set).unwrap();
    let ys = targets(&t).unwrap();
    let base = rmse(&ys, &vec![model.init_score; ys.len()]);
    let r = rmse(&ys, &model.predict(&t));
    assert!(r < base, "galaxy GBM must improve: base {base}, got {r}");
}

#[test]
fn galaxy_rejects_non_rmse_objectives() {
    let gen = imdb_galaxy(&ImdbConfig {
        cast_rows: 100,
        ..Default::default()
    });
    let db = Database::in_memory();
    gen.load_into(&db).unwrap();
    let set = Dataset::new(&db, gen.graph.clone(), "cast_info", "rating").unwrap();
    let mut params = TrainParams::default();
    params.objective = Objective::AbsoluteError;
    assert!(train_gbm(&set, &params).is_err());
}

#[test]
fn random_forest_trains_and_predicts() {
    let (db, gen) = favorita_db(2000, 20);
    let set = Dataset::new(&db, gen.graph.clone(), "sales", "net_profit").unwrap();
    let mut params = TrainParams::default();
    params.num_iterations = 10;
    params.bagging_fraction = 0.5;
    params.feature_fraction = 0.8;
    params.num_leaves = 8;
    let model = train_random_forest(&set, &params).unwrap();
    assert_eq!(model.trees.len(), 10);

    let t = materialize_features(&set).unwrap();
    let ys = targets(&t).unwrap();
    let mean = ys.iter().sum::<f64>() / ys.len() as f64;
    let base = rmse(&ys, &vec![mean; ys.len()]);
    let r = rmse(&ys, &model.predict(&t));
    assert!(r < base, "forest must beat the mean: {r} vs {base}");
}

#[test]
fn random_forest_parallel_matches_sequential() {
    let (db, gen) = favorita_db(800, 10);
    let set = Dataset::new(&db, gen.graph.clone(), "sales", "net_profit").unwrap();
    let mut params = TrainParams::default();
    params.num_iterations = 4;
    params.bagging_fraction = 0.5;
    let seq = train_random_forest(&set, &params).unwrap();
    params.threads = 4;
    let set2 = Dataset::new(&db, gen.graph.clone(), "sales", "net_profit").unwrap();
    let par = train_random_forest(&set2, &params).unwrap();
    assert_eq!(
        seq.trees, par.trees,
        "parallelism must not change the model"
    );
}

#[test]
fn random_forest_on_galaxy_uses_ancestral_sampling() {
    let gen = imdb_galaxy(&ImdbConfig {
        persons: 25,
        movies: 20,
        cast_rows: 300,
        person_info_rows: 60,
        movie_info_rows: 50,
        seed: 1,
    });
    let db = Database::in_memory();
    gen.load_into(&db).unwrap();
    let set = Dataset::new(&db, gen.graph.clone(), "cast_info", "rating").unwrap();
    let mut params = TrainParams::default();
    params.num_iterations = 3;
    params.bagging_fraction = 0.05;
    params.num_leaves = 4;
    let model = train_random_forest(&set, &params).unwrap();
    assert_eq!(model.trees.len(), 3);
}

#[test]
fn temp_tables_cleaned_after_training() {
    let (db, gen) = favorita_db(500, 10);
    {
        let set = Dataset::new(&db, gen.graph.clone(), "sales", "net_profit").unwrap();
        let mut params = TrainParams::default();
        params.num_iterations = 3;
        let _ = train_gbm(&set, &params).unwrap();
    }
    // Only the 6 user tables survive.
    assert_eq!(db.table_names().len(), 6, "tables: {:?}", db.table_names());
}

#[test]
fn histogram_binning_trains_with_coarser_splits() {
    let (db, gen) = favorita_db(1500, 40);
    let set = Dataset::new(&db, gen.graph.clone(), "sales", "net_profit").unwrap();
    let mut params = TrainParams::default();
    params.num_iterations = 5;
    params.max_bins = 5;
    let model = train_gbm(&set, &params).unwrap();
    assert_eq!(model.trees.len(), 5);
    let t = materialize_features(&set).unwrap();
    let ys = targets(&t).unwrap();
    let base = rmse(&ys, &vec![model.init_score; ys.len()]);
    let r = rmse(&ys, &model.predict(&t));
    assert!(r < base);
}

#[test]
fn cuboid_training_approximates_binned_training() {
    let (db, gen) = favorita_db(2000, 30);
    let set = Dataset::new(&db, gen.graph.clone(), "sales", "net_profit").unwrap();
    let mut params = TrainParams::default();
    params.num_iterations = 8;
    params.max_bins = 5;
    params.use_cuboid = true;
    let model = train_gbm(&set, &params).unwrap();
    assert_eq!(model.trees.len(), 8);
    let r_cuboid = eval_rmse_gbm(&set, &model);
    let base = {
        let t = materialize_features(&set).unwrap();
        let ys = targets(&t).unwrap();
        rmse(&ys, &vec![model.init_score; ys.len()])
    };
    assert!(
        r_cuboid < base,
        "cuboid GBM must improve: {r_cuboid} vs {base}"
    );
    // The cuboid is much smaller than the fact table.
    // (5 features × 5 bins bounds it at 5^5 cells, but in practice far
    // fewer are populated than fact rows here.)
}

// ---------------------------------------------------------------------------
// Resume and statement-stream pins: one boosting loop trains every schema,
// and replaying a stored forest runs the update call that trained it.
// ---------------------------------------------------------------------------

/// One training configuration of the resume and statement-stream pins.
struct Fixture {
    name: &'static str,
    config: EngineConfig,
    galaxy: bool,
    params: TrainParams,
}

fn fixtures() -> Vec<Fixture> {
    let star = |name, objective, update_method, config| {
        let mut params = TrainParams::default();
        params.num_iterations = 6;
        params.learning_rate = 0.5;
        params.objective = objective;
        params.update_method = update_method;
        Fixture {
            name,
            config,
            galaxy: false,
            params,
        }
    };
    // Fair's Hessian c²/(|e| + c)² is far below 1 per row here, so the
    // leaf-size floor (a Hessian sum) must drop for its trees to split,
    // and λ keeps the leaf weights −G/(H + λ) finite.
    let mut fair = star(
        "star-fair",
        Objective::Fair { c: 1.0 },
        UpdateMethod::CreateTable,
        EngineConfig::duckdb_mem(),
    );
    fair.params.min_data_in_leaf = 1e-3;
    fair.params.reg_lambda = 1.0;
    let mut galaxy = TrainParams::default();
    galaxy.num_iterations = 6;
    galaxy.learning_rate = 0.3;
    galaxy.num_leaves = 4;
    vec![
        star(
            "star-rmse-create",
            Objective::SquaredError,
            UpdateMethod::CreateTable,
            EngineConfig::duckdb_mem(),
        ),
        star(
            "star-rmse-swap",
            Objective::SquaredError,
            UpdateMethod::ColumnSwap,
            EngineConfig::d_swap(),
        ),
        star(
            "star-l1",
            Objective::AbsoluteError,
            UpdateMethod::CreateTable,
            EngineConfig::duckdb_mem(),
        ),
        fair,
        Fixture {
            name: "galaxy-rmse",
            config: EngineConfig::duckdb_mem(),
            galaxy: true,
            params: galaxy,
        },
    ]
}

impl Fixture {
    /// Load the fixture's data into `db`; returns the graph, target
    /// relation and target column to build a dataset from.
    fn load(&self, db: &Database) -> (joinboost_graph::JoinGraph, &'static str, &'static str) {
        load_schema(db, self.galaxy)
    }
}

/// Load the fixtures' galaxy or star data into `db`; returns the graph,
/// target relation and target column to build a dataset from.
fn load_schema(
    db: &Database,
    galaxy: bool,
) -> (joinboost_graph::JoinGraph, &'static str, &'static str) {
    if galaxy {
        let gen = imdb_galaxy(&ImdbConfig {
            persons: 40,
            movies: 30,
            cast_rows: 800,
            person_info_rows: 120,
            movie_info_rows: 90,
            seed: 42,
        });
        gen.load_into(db).unwrap();
        (gen.graph, "cast_info", "rating")
    } else {
        let gen = favorita(&FavoritaConfig {
            fact_rows: 1200,
            dim_rows: 12,
            noise: 1.0,
            ..Default::default()
        });
        gen.load_into(db).unwrap();
        (gen.graph, "sales", "net_profit")
    }
}

/// A forest's exact bit pattern: every node's split, value and weight.
fn forest_bits(trees: &[joinboost::Tree]) -> Vec<String> {
    forest_lines(trees, true)
}

/// One line per node: split, weight and children, plus the value's bits
/// when `values` is set.
fn forest_lines(trees: &[joinboost::Tree], values: bool) -> Vec<String> {
    use joinboost::SplitCondition;
    let mut out = Vec::new();
    for (t, tree) in trees.iter().enumerate() {
        for n in &tree.nodes {
            let split = n.split.as_ref().map(|s| {
                let cond = match &s.cond {
                    SplitCondition::LtEq(v) => format!("<={:x}", v.to_bits()),
                    SplitCondition::EqNum(v) => format!("=={:x}", v.to_bits()),
                    SplitCondition::EqStr(v) => format!("=='{v}'"),
                };
                format!("{}.{}{cond}/{}", s.relation, s.feature, s.default_left)
            });
            let value = if values {
                format!(" v={:x}", n.value.to_bits())
            } else {
                String::new()
            };
            out.push(format!(
                "{t}: {split:?}{value} w={:x} l={} r={} d={}",
                n.weight.to_bits(),
                n.left,
                n.right,
                n.depth
            ));
        }
    }
    out
}

#[test]
fn resumed_training_is_bit_identical_from_any_prefix() {
    for fx in fixtures() {
        let reference = {
            let db = Database::new(fx.config.clone());
            let (graph, rel, col) = fx.load(&db);
            let set = Dataset::new(&db, graph, rel, col).unwrap();
            train_gbm(&set, &fx.params).unwrap()
        };
        assert_eq!(reference.trees.len(), fx.params.num_iterations);
        assert!(
            reference.trees.iter().all(|t| t.num_leaves() > 1),
            "{}: every tree must split, or replay updates nothing",
            fx.name
        );
        for k in [0usize, 1, 3, 5] {
            let db = Database::new(fx.config.clone());
            let (graph, rel, col) = fx.load(&db);
            let set = Dataset::new(&db, graph, rel, col).unwrap();
            let mut fired = Vec::new();
            let resumed =
                joinboost::train_gbm_resume(&set, &fx.params, &reference.trees[..k], |iter, m| {
                    fired.push((iter, m.trees.len()));
                    true
                })
                .unwrap();
            assert_eq!(
                resumed.init_score.to_bits(),
                reference.init_score.to_bits(),
                "{}: init score after resuming from {k} trees",
                fx.name
            );
            assert_eq!(
                forest_bits(&resumed.trees),
                forest_bits(&reference.trees),
                "{}: forest after resuming from {k} trees",
                fx.name
            );
            let want: Vec<(usize, usize)> =
                (k..fx.params.num_iterations).map(|i| (i, i + 1)).collect();
            assert_eq!(
                fired, want,
                "{}: the callback fires for new trees only",
                fx.name
            );
        }
    }
}

/// A backend that records every statement the trainer sends, text and
/// AST alike (ASTs printed), counts the ones that arrive as text, then
/// forwards each to an in-memory engine.
struct Recorder {
    inner: joinboost::EngineBackend,
    log: std::sync::Mutex<Vec<String>>,
    text_calls: std::sync::atomic::AtomicUsize,
}

impl Recorder {
    fn new(config: EngineConfig) -> Recorder {
        Recorder {
            inner: joinboost::EngineBackend::new(config),
            log: Default::default(),
            text_calls: Default::default(),
        }
    }
}

impl Recorder {
    fn record(&self, sql: String) {
        self.log.lock().unwrap().push(sql);
    }
}

impl joinboost::SqlBackend for Recorder {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn capabilities(&self) -> joinboost::BackendCapabilities {
        self.inner.capabilities()
    }
    fn execute(&self, sql: &str) -> joinboost::BackendResult {
        self.text_calls
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.record(sql.to_string());
        self.inner.execute(sql)
    }
    fn execute_ast(&self, stmt: &joinboost_sql::ast::Statement) -> joinboost::BackendResult {
        self.record(stmt.to_string());
        self.inner.execute_ast(stmt)
    }
    fn create_table(
        &self,
        name: &str,
        table: joinboost_engine::Table,
    ) -> joinboost::BackendResult<()> {
        self.inner.create_table(name, table)
    }
    fn snapshot(&self, name: &str) -> joinboost::BackendResult {
        self.inner.snapshot(name)
    }
    fn column_names(&self, table: &str) -> joinboost::BackendResult<Vec<String>> {
        self.inner.column_names(table)
    }
    fn column_dtype(
        &self,
        table: &str,
        column: &str,
    ) -> joinboost::BackendResult<joinboost_engine::DataType> {
        self.inner.column_dtype(table, column)
    }
    fn has_table(&self, name: &str) -> bool {
        self.inner.has_table(name)
    }
    fn row_count(&self, name: &str) -> joinboost::BackendResult<usize> {
        self.inner.row_count(name)
    }
    fn register_external(
        &self,
        name: &str,
        table: &joinboost_engine::Table,
    ) -> joinboost::BackendResult<()> {
        self.inner.register_external(name, table)
    }
    fn external(
        &self,
        name: &str,
    ) -> joinboost::BackendResult<std::sync::Arc<joinboost_engine::interop::ExternalTable>> {
        self.inner.external(name)
    }
}

/// Replace each `jb_<n>_` dataset prefix with `jb_#_`: the dataset counter
/// is process-wide, so its values depend on which tests ran first.
fn normalize_dataset_prefix(sql: &str) -> String {
    let b = sql.as_bytes();
    let mut out = String::with_capacity(sql.len());
    let mut i = 0;
    while i < b.len() {
        if b[i..].starts_with(b"jb_") {
            let digits = b[i + 3..].iter().take_while(|c| c.is_ascii_digit()).count();
            if digits > 0 && b.get(i + 3 + digits) == Some(&b'_') {
                out.push_str("jb_#_");
                i += 3 + digits + 1;
                continue;
            }
        }
        let ch = sql[i..].chars().next().expect("in bounds");
        out.push(ch);
        i += ch.len_utf8();
    }
    out
}

/// FNV-1a over the normalized statements, one per line.
fn stream_digest(stmts: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in stmts {
        for &byte in normalize_dataset_prefix(s).as_bytes().iter().chain(b"\n") {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn trainer_statement_stream_is_pinned() {
    let mut runs = fixtures();
    let mut cuboid = TrainParams::default();
    cuboid.num_iterations = 6;
    cuboid.max_bins = 5;
    cuboid.use_cuboid = true;
    runs.push(Fixture {
        name: "star-cuboid",
        config: EngineConfig::duckdb_mem(),
        galaxy: false,
        params: cuboid,
    });
    // (fixture, statements, digest) recorded when the larger child of a
    // split began deriving its variance messages as parent ⊖ sibling and
    // the children of the last split stopped being evaluated; a deliberate
    // change to the trainer's SQL updates these.
    let pinned: [(&str, usize, u64); 6] = [
        ("star-rmse-create", 1121, 0x1011_dd9c_3895_320a),
        ("star-rmse-swap", 1139, 0x87fb_d32d_745e_e2fe),
        ("star-l1", 1201, 0xea78_54f1_18c1_8f7c),
        ("star-fair", 894, 0x3dcb_11de_53f5_7095),
        ("galaxy-rmse", 281, 0x11b6_f576_9711_899d),
        ("star-cuboid", 411, 0x6d69_7e4a_b8a2_a3aa),
    ];
    let mut got = Vec::new();
    for fx in &runs {
        let backend = Recorder::new(fx.config.clone());
        let (graph, rel, col) = fx.load(backend.inner.database());
        {
            let set = Dataset::new(&backend, graph, rel, col).unwrap();
            train_gbm(&set, &fx.params).unwrap();
        }
        let log = backend.log.lock().unwrap();
        got.push((fx.name, log.len(), stream_digest(&log)));
    }
    assert_eq!(got, pinned, "the trainer's statement stream changed");
}

/// One path from trainer to backend: every statement training, sampling,
/// feature materialization and join scoring issue arrives as an AST
/// through `execute_ast` — none as SQL text through `execute`/`query` —
/// across every update method, schema shape and model family.
#[test]
fn trainer_sends_no_sql_text() {
    type Run = Box<dyn Fn(&Dataset)>;
    let gbm = |method, objective, config| -> (EngineConfig, bool, Run) {
        let run: Run = Box::new(move |set| {
            let mut params = TrainParams::default();
            params.num_iterations = 3;
            params.update_method = method;
            params.objective = objective;
            train_gbm(set, &params).unwrap();
        });
        (config, false, run)
    };
    let mut runs = vec![
        gbm(
            UpdateMethod::CreateTable,
            Objective::SquaredError,
            EngineConfig::duckdb_mem(),
        ),
        gbm(
            UpdateMethod::UpdateInPlace,
            Objective::SquaredError,
            EngineConfig::duckdb_mem(),
        ),
        gbm(
            UpdateMethod::Naive,
            Objective::SquaredError,
            EngineConfig::duckdb_mem(),
        ),
        gbm(
            UpdateMethod::Interop,
            Objective::SquaredError,
            EngineConfig::duckdb_mem(),
        ),
        gbm(
            UpdateMethod::ColumnSwap,
            Objective::SquaredError,
            EngineConfig::d_swap(),
        ),
        // Leaf renewal reads residuals back per leaf.
        gbm(
            UpdateMethod::CreateTable,
            Objective::AbsoluteError,
            EngineConfig::duckdb_mem(),
        ),
    ];
    let galaxy_gbm: Run = Box::new(|set| {
        let mut params = TrainParams::default();
        params.num_iterations = 3;
        params.num_leaves = 4;
        train_gbm(set, &params).unwrap();
    });
    let cuboid_gbm: Run = Box::new(|set| {
        let mut params = TrainParams::default();
        params.num_iterations = 3;
        params.max_bins = 5;
        params.use_cuboid = true;
        train_gbm(set, &params).unwrap();
    });
    let binned_tree: Run = Box::new(|set| {
        let mut params = TrainParams::default();
        params.max_bins = 5;
        train_decision_tree(set, &params).unwrap();
    });
    let forest: Run = Box::new(|set| {
        let mut params = TrainParams::default();
        params.num_iterations = 3;
        params.num_leaves = 4;
        params.bagging_fraction = 0.5;
        params.threads = 2;
        train_random_forest(set, &params).unwrap();
    });
    let scoring: Run = Box::new(|set| {
        let mut params = TrainParams::default();
        params.num_iterations = 2;
        let model = train_gbm(set, &params).unwrap();
        materialize_features(set).unwrap();
        joinboost::JoinScorer::compile(set, &model, "sale_id").unwrap();
    });
    let mem = EngineConfig::duckdb_mem;
    runs.push((mem(), true, galaxy_gbm));
    runs.push((mem(), false, cuboid_gbm));
    runs.push((mem(), false, binned_tree));
    runs.push((mem(), false, forest));
    runs.push((mem(), false, scoring));
    // Ancestral sampling: a forest over the galaxy.
    runs.push((
        mem(),
        true,
        Box::new(|set| {
            let mut params = TrainParams::default();
            params.num_iterations = 2;
            params.num_leaves = 4;
            params.bagging_fraction = 0.1;
            params.threads = 2;
            train_random_forest(set, &params).unwrap();
        }),
    ));
    for (i, (config, galaxy, run)) in runs.into_iter().enumerate() {
        let backend = Recorder::new(config);
        let db = backend.inner.database();
        let (graph, rel, col) = load_schema(db, galaxy);
        if !galaxy {
            // A unique key for the join scorer to index by.
            let mut sales = db.snapshot("sales").unwrap();
            let n = sales.num_rows() as i64;
            sales.push_column(
                joinboost_engine::table::ColumnMeta::new("sale_id"),
                joinboost_engine::Column::int((0..n).collect()),
            );
            db.execute("DROP TABLE sales").unwrap();
            db.create_table("sales", sales).unwrap();
        }
        {
            let set = Dataset::new(&backend, graph, rel, col).unwrap();
            run(&set);
        }
        let text = backend
            .text_calls
            .load(std::sync::atomic::Ordering::Relaxed);
        let all = backend.log.lock().unwrap().len();
        assert!(all > 0, "run {i} issued no statements");
        assert_eq!(
            text, 0,
            "run {i}: {text} of {all} statements arrived as text"
        );
    }
}

/// Sleeps `SLOW` before every `SELECT` that names `slow_feat`, forwarding
/// everything to an in-memory engine.
struct SlowFeature(joinboost::EngineBackend);

const SLOW: std::time::Duration = std::time::Duration::from_millis(40);

impl joinboost::SqlBackend for SlowFeature {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn capabilities(&self) -> joinboost::BackendCapabilities {
        self.0.capabilities()
    }
    fn execute(&self, sql: &str) -> joinboost::BackendResult {
        self.0.execute(sql)
    }
    fn execute_ast(&self, stmt: &joinboost_sql::ast::Statement) -> joinboost::BackendResult {
        if matches!(stmt, joinboost_sql::ast::Statement::Select(_))
            && stmt.to_string().contains("slow_feat")
        {
            std::thread::sleep(SLOW);
        }
        self.0.execute_ast(stmt)
    }
    fn create_table(
        &self,
        name: &str,
        table: joinboost_engine::Table,
    ) -> joinboost::BackendResult<()> {
        self.0.create_table(name, table)
    }
    fn snapshot(&self, name: &str) -> joinboost::BackendResult {
        self.0.snapshot(name)
    }
    fn column_names(&self, table: &str) -> joinboost::BackendResult<Vec<String>> {
        self.0.column_names(table)
    }
    fn column_dtype(
        &self,
        table: &str,
        column: &str,
    ) -> joinboost::BackendResult<joinboost_engine::DataType> {
        self.0.column_dtype(table, column)
    }
    fn has_table(&self, name: &str) -> bool {
        self.0.has_table(name)
    }
    fn row_count(&self, name: &str) -> joinboost::BackendResult<usize> {
        self.0.row_count(name)
    }
}

/// `split_durations` holds each split query's own latency, measured where
/// it ran — not the batch's wall-clock spread evenly over its queries —
/// so Figure 9b's latency histogram shows the one slow feature.
#[test]
fn split_durations_are_measured_per_query() {
    use joinboost_engine::{Column, Table};
    let backend = SlowFeature(joinboost::EngineBackend::in_memory());
    let n = 64;
    joinboost::SqlBackend::create_table(
        &backend,
        "t",
        Table::from_columns(vec![
            ("slow_feat", Column::int((0..n).map(|i| i % 4).collect())),
            ("fast_feat", Column::int((0..n).map(|i| i % 8).collect())),
            ("y", Column::float((0..n).map(|i| (i % 8) as f64).collect())),
        ]),
    )
    .unwrap();
    let mut graph = joinboost_graph::JoinGraph::new();
    graph
        .add_relation("t", &["slow_feat", "fast_feat"])
        .unwrap();
    let set = Dataset::new(&backend, graph, "t", "y").unwrap();
    for threads in [1, 2] {
        let mut params = TrainParams::default();
        params.num_leaves = 2; // one split batch: the root's
        params.threads = threads;
        let (_, stats) = train_decision_tree(&set, &params).unwrap();
        let d = &stats.split_durations;
        assert_eq!(d.len(), 2, "threads = {threads}");
        let max = d.iter().max().unwrap();
        let min = d.iter().min().unwrap();
        assert!(*max >= SLOW, "threads = {threads}: slowest {max:?}");
        assert!(*min < SLOW, "threads = {threads}: fastest {min:?}");
        assert!(stats.split_time >= *max);
    }
}

#[test]
fn cuboid_rejects_update_methods_other_than_create_table() {
    let (db, gen) = favorita_db(300, 5);
    let set = Dataset::new(&db, gen.graph.clone(), "sales", "net_profit").unwrap();
    for method in [
        UpdateMethod::Naive,
        UpdateMethod::UpdateInPlace,
        UpdateMethod::ColumnSwap,
        UpdateMethod::Interop,
    ] {
        let mut params = TrainParams::default();
        params.num_iterations = 2;
        params.max_bins = 5;
        params.use_cuboid = true;
        params.update_method = method;
        let err = train_gbm(&set, &params).unwrap_err();
        assert!(
            matches!(err, joinboost::TrainError::Invalid(_)),
            "{method:?}: {err:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Sibling subtraction: the larger child's messages are parent ⊖ sibling.
// Both pins below were recorded at the commit before subtraction existed.
// ---------------------------------------------------------------------------

#[test]
fn dyadic_star_model_bits_survive_sibling_subtraction() {
    // The dyadic recipe (DESIGN.md § Backends): target on the 1/8 grid,
    // learning rate ½, leaves on the 2⁻¹⁰ grid. Every message sum is exact,
    // so a derived message equals the scanned one bit for bit.
    let (db, gen) = favorita_db(3000, 30);
    db.execute("UPDATE sales SET net_profit = FLOOR(net_profit * 8.0) / 8.0")
        .unwrap();
    let set = Dataset::new(&db, gen.graph.clone(), "sales", "net_profit").unwrap();
    let params = TrainParams {
        num_iterations: 6,
        learning_rate: 0.5,
        leaf_quantization: (2.0f64).powi(-10),
        ..Default::default()
    };
    let model = train_gbm(&set, &params).unwrap();
    let mut bits = forest_bits(&model.trees);
    bits.push(format!("init={:x}", model.init_score.to_bits()));
    assert_eq!(
        stream_digest(&bits),
        0x5c9d_e72e_91c1_0482,
        "dyadic forest changed"
    );
}

#[test]
fn off_recipe_leaves_stay_within_the_stated_ulp_bound() {
    // Off the recipe, `parent − sibling` may round differently from the
    // scanned sum. The contract: the same splits, and every leaf value
    // within 1e-12 relative of the scan-only trainer's.
    let fx = fixtures()
        .into_iter()
        .find(|f| f.name == "star-rmse-create")
        .expect("fixture");
    let db = Database::new(fx.config.clone());
    let (graph, rel, col) = fx.load(&db);
    let set = Dataset::new(&db, graph, rel, col).unwrap();
    let model = train_gbm(&set, &fx.params).unwrap();
    assert_eq!(
        stream_digest(&forest_lines(&model.trees, false)),
        0x581d_4429_59c4_8bc9,
        "split list changed"
    );
    let leaves: Vec<f64> = model
        .trees
        .iter()
        .flat_map(|t| t.nodes.iter().filter(|n| n.split.is_none()))
        .map(|n| n.value)
        .collect();
    let pinned: [f64; 48] = [
        979.8020162016795,
        -8371.554653285528,
        6631.943264551595,
        3163.6559449500155,
        -4403.206205175601,
        -313.49106797168935,
        -4612.07557002175,
        -731.5301596735942,
        -1341.6210660303689,
        -1480.3013835498984,
        1286.9297814060053,
        3720.2761728327355,
        511.3904663154182,
        2928.110725519844,
        -5643.783069116053,
        -2694.2568136976183,
        -2308.107507461258,
        314.18079001740136,
        -940.4572675798452,
        1011.5237195115973,
        1416.1328857352569,
        3021.5885124299125,
        -227.11768462845836,
        -2559.856253443251,
        729.6374719454213,
        -2089.343199926751,
        1045.1646862953248,
        -1266.5718398678243,
        -655.4140985528633,
        224.17863770941347,
        3033.291544036232,
        1107.920352939898,
        -976.7113306598993,
        -941.7986330774714,
        922.2879292001119,
        1042.392714946657,
        894.9333537549825,
        -524.3752582651736,
        -721.4100931891938,
        49.239839691689944,
        543.6750928701973,
        -108.12954722294388,
        -439.08645622444556,
        -1413.1257540746483,
        476.0219788433417,
        -211.25438297815035,
        1003.2234712183507,
        352.18142982162135,
    ];
    assert_eq!(leaves.len(), pinned.len(), "{leaves:?}");
    for (i, (got, want)) in leaves.iter().zip(pinned).enumerate() {
        assert!(
            (got - want).abs() <= 1e-12 * want.abs(),
            "leaf {i}: {got} vs {want}"
        );
    }
}
