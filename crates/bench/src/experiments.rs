//! One experiment per table/figure of the paper's evaluation.
//!
//! Datasets are scaled-down synthetics (DESIGN.md documents the
//! substitutions); absolute times differ from the paper's testbed, but
//! each experiment is expected to reproduce the *shape* of its figure —
//! who wins, roughly by what factor, and where crossovers fall.

#![allow(clippy::field_reassign_with_default)]

use std::time::{Duration, Instant};

use joinboost::backend::{ShardedBackend, SqlBackend};
use joinboost::predict::{materialize_features, targets};
use joinboost::{
    train_decision_tree, train_gbm, train_gbm_cb, train_random_forest, Dataset, TrainParams,
    UpdateMethod,
};
use joinboost_baselines::lightgbm::{self, LgbmParams};
use joinboost_baselines::{batch, madlib, naive};
use joinboost_datagen::{
    favorita, fig5_fact_table, imdb_galaxy, tpcds, tpch, FavoritaConfig, Fig5Config, ImdbConfig,
    TpcConfig,
};
use joinboost_engine::{Column, Database, EngineConfig, EngineError};
use joinboost_semiring::loss::rmse;

use crate::report::Report;
use crate::{secs, time};

/// An experiment: prints its tables, or says why it could not.
pub type Body = fn() -> Result<(), String>;

/// Every experiment: its name, what it prints, and its body. `run`, `all`
/// and the binary's `help` all read this one table.
pub const EXPERIMENTS: &[(&str, &str, Body)] = &[
    (
        "fig5",
        "residual update time per method x backend (pilot study)",
        fig5,
    ),
    (
        "fig8a",
        "random forest training time vs LightGBM-like baseline",
        fig8a,
    ),
    (
        "fig8b",
        "gradient boosting training time + rmse curves (Figs. 8b and 8c)",
        fig8b,
    ),
    (
        "fig9",
        "1st-iteration query counts and latency histogram",
        fig9,
    ),
    (
        "fig10",
        "gradient boosting vs number of features (baseline OOM)",
        fig10,
    ),
    (
        "fig11",
        "gradient boosting vs TPC-DS scale factor (baseline OOM)",
        fig11,
    ),
    ("fig12", "multi-machine scaling, TPC-DS SF sweep", fig12),
    (
        "fig13",
        "cloud-warehouse style decision tree, 1-6 machines",
        fig13,
    ),
    (
        "fig14",
        "galaxy-schema gradient boosting on IMDB-like data",
        fig14,
    ),
    ("fig15", "train/update time per DBMS backend", fig15),
    (
        "fig16a",
        "decision tree: Naive vs Batch(LMFAO-like) vs JoinBoost",
        fig16a,
    ),
    ("fig16b", "decision tree vs MADLib-like row engine", fig16b),
    (
        "fig17",
        "TPC-DS / TPC-H gradient boosting and random forest",
        fig17,
    ),
    ("fig18", "intra/inter-query parallelism sweeps", fig18),
    ("fig20", "histogram bins and the cuboid optimization", fig20),
    (
        "losses",
        "objective sweep (Table 3 gradients/hessians in action)",
        losses,
    ),
];

/// Run one experiment by name; `all` runs every one, in table order.
pub fn run(name: &str) -> Result<(), String> {
    if name == "all" {
        return EXPERIMENTS.iter().try_for_each(|(_, _, body)| body());
    }
    let (_, _, body) = EXPERIMENTS
        .iter()
        .find(|(n, _, _)| *n == name)
        .ok_or_else(|| format!("unknown experiment {name}; see `experiments help` for the list"))?;
    body()
}

// ---------------------------------------------------------------------------

fn favorita_scaled(
    fact_rows: usize,
    dim_rows: usize,
    extra: usize,
) -> joinboost_datagen::favorita::Generated {
    favorita(&FavoritaConfig {
        fact_rows,
        dim_rows,
        extra_features_per_dim: extra,
        noise: 100.0,
        seed: 42,
    })
}

fn load(gen: &joinboost_datagen::favorita::Generated, config: EngineConfig) -> Database {
    let db = Database::new(config);
    gen.load_into(&db).expect("load");
    db
}

/// Figure 5: residual update time per method on each DBMS backend.
fn fig5() -> Result<(), String> {
    let leaves = 8usize;
    let base_cfg = Fig5Config {
        rows: 150_000,
        ..Default::default()
    };
    let preds = joinboost_datagen::fig5::fig5_leaf_predictions(&base_cfg);
    let backends: Vec<(&str, EngineConfig, bool)> = vec![
        ("X-col", EngineConfig::dbms_x_col(), false),
        ("X-row", EngineConfig::dbms_x_row(), false),
        ("D-dis", EngineConfig::duckdb_disk(), false),
        ("D-mem", EngineConfig::duckdb_mem(), false),
        ("DP", EngineConfig::duckdb_mem(), true),
        ("D-Swap", EngineConfig::d_swap(), false),
    ];
    let methods = [
        "Naive",
        "UPDATE",
        "CREATE-0",
        "CREATE-5",
        "CREATE-10",
        "ColSwap",
    ];
    let mut report = Report::new(
        "Figure 5: residual update time (s) by method and backend",
        &[
            "backend",
            "Naive",
            "UPDATE",
            "CREATE-0",
            "CREATE-5",
            "CREATE-10",
            "ColSwap",
        ],
    );
    for (bname, config, external) in &backends {
        let mut cells = vec![bname.to_string()];
        for method in methods {
            let k = match method {
                "CREATE-5" => 5,
                "CREATE-10" => 10,
                _ => 0,
            };
            let cfg = Fig5Config {
                extra_columns: k,
                ..base_cfg.clone()
            };
            let mut fact = fig5_fact_table(&cfg);
            if method == "Naive" {
                fact.push_column(
                    joinboost_engine::table::ColumnMeta::new("jb_rid"),
                    Column::int((0..fact.num_rows() as i64).collect()),
                );
            }
            let db = Database::new(config.clone());
            if *external {
                db.register_external("f", &fact);
            } else {
                db.create_table("f", fact).expect("load fact");
            }
            for (i, m) in joinboost_datagen::fig5::fig5_messages(&cfg)
                .into_iter()
                .enumerate()
            {
                db.create_table(&format!("m{i}"), m).expect("load message");
            }
            let case_expr = {
                let mut whens = String::new();
                for (i, p) in preds.iter().enumerate().take(leaves) {
                    whens.push_str(&format!(" WHEN d IN (SELECT d FROM m{i}) THEN s - {p:.6}"));
                }
                format!("CASE{whens} ELSE s END")
            };
            let other_cols: String = (1..=k).map(|i| format!(", c{i}")).collect();
            // A failed statement fails the figure; only a backend without
            // `SWAP COLUMN` has no ColSwap cell.
            let timed = |f: &dyn Fn() -> Result<(), EngineError>| {
                let (r, d) = time(f);
                r.map(|_| Some(d))
                    .map_err(|e| format!("fig5 {bname} {method}: {e}"))
            };
            let result: Option<Duration> = match method {
                "Naive" => timed(&|| {
                    db.execute(&format!(
                        "CREATE TABLE u AS SELECT jb_rid, {case_expr} AS jb_delta FROM f"
                    ))?;
                    db.execute(&format!(
                        "CREATE OR REPLACE TABLE f AS SELECT jb_delta AS s, d{other_cols}, jb_rid FROM f JOIN u USING (jb_rid)"
                    ))?;
                    db.execute("DROP TABLE u")?;
                    Ok(())
                })?,
                "UPDATE" => timed(&|| {
                    for (i, p) in preds.iter().enumerate().take(leaves) {
                        db.execute(&format!(
                            "UPDATE f SET s = s - {p:.6} WHERE d IN (SELECT d FROM m{i})"
                        ))?;
                    }
                    Ok(())
                })?,
                "CREATE-0" | "CREATE-5" | "CREATE-10" => timed(&|| {
                    db.execute(&format!(
                        "CREATE OR REPLACE TABLE f AS SELECT {case_expr} AS s, d{other_cols} FROM f"
                    ))?;
                    Ok(())
                })?,
                "ColSwap" if *external => timed(&|| {
                    let t = db.execute(&format!("SELECT {case_expr} AS s FROM f"))?;
                    db.external("f")?.replace_column("s", t.columns[0].clone())
                })?,
                "ColSwap" if config.allow_swap => timed(&|| {
                    db.execute(&format!(
                        "CREATE TABLE delta AS SELECT {case_expr} AS s FROM f"
                    ))?;
                    db.execute("SWAP COLUMN f.s WITH delta.s")?;
                    db.execute("DROP TABLE delta")?;
                    Ok(())
                })?,
                "ColSwap" => None,
                _ => unreachable!(),
            };
            cells.push(result.map_or("n/a".to_string(), secs));
        }
        report.row(&cells);
    }
    // LightGBM reference: a threaded write over a plain array.
    let cfg = base_cfg.clone();
    let fact = fig5_fact_table(&cfg);
    let mut s = fact
        .column(None, "s")
        .expect("s")
        .to_f64_vec()
        .expect("f64");
    let d = fact
        .column(None, "d")
        .expect("d")
        .to_f64_vec()
        .expect("f64");
    let range = (cfg.key_domain / leaves as i64) as f64;
    let (_, lgbm_t) = time(|| {
        let chunk = s.len().div_ceil(4);
        std::thread::scope(|scope| {
            for (ci, sl) in s.chunks_mut(chunk).enumerate() {
                let d = &d;
                let preds = &preds;
                scope.spawn(move || {
                    let base = ci * chunk;
                    for (i, v) in sl.iter_mut().enumerate() {
                        let leaf = (((d[base + i] - 1.0) / range) as usize).min(leaves - 1);
                        *v -= preds[leaf];
                    }
                });
            }
        });
    });
    report.note(format!(
        "LightGBM-style parallel array update: {} s (the red line)",
        secs(lgbm_t)
    ));
    report.note("expected shape: Naive >> UPDATE/CREATE >> ColSwap ~ DP ~ LightGBM");
    report.note(
        "on D-mem and D-Swap CREATE-k nears ColSwap: a column the projection passes through \
         keeps its stored form, not run-counted or re-encoded; X-col and D-dis (WAL images) \
         and DP (copy-in) still grow with k, and X-row rebuilds every column",
    );
    report.print();
    Ok(())
}

/// Figure 8a: random forest training time vs the LightGBM-like baseline.
fn fig8a() -> Result<(), String> {
    let gen = favorita_scaled(20_000, 50, 0);
    let iters = [5usize, 10, 20, 40];
    let mut report = Report::new(
        "Figure 8a: random forest cumulative training time (s)",
        &["trees", "joinboost", "lightgbm-like", "lgbm+export"],
    );
    // Baseline export charged once.
    let db = load(&gen, EngineConfig::duckdb_mem());
    let set = Dataset::new(
        &db,
        gen.graph.clone(),
        &gen.target_relation,
        &gen.target_column,
    )
    .map_err(|e| e.to_string())?;
    let (flat, export) = lightgbm::export_join(&set).map_err(|e| e.to_string())?;
    for &n in &iters {
        let mut params = TrainParams::paper_rf();
        params.num_iterations = n;
        params.threads = 4;
        let set = Dataset::new(
            &db,
            gen.graph.clone(),
            &gen.target_relation,
            &gen.target_column,
        )
        .map_err(|e| e.to_string())?;
        let (_, jb_t) = time(|| train_random_forest(&set, &params).expect("rf"));
        let lp = LgbmParams {
            num_iterations: n,
            bagging_fraction: 0.1,
            feature_fraction: 0.8,
            ..Default::default()
        };
        let (_, lg_t) = time(|| lightgbm::train_rf(&flat, &lp).expect("lgbm rf"));
        report.row(&[
            n.to_string(),
            secs(jb_t),
            secs(lg_t),
            secs(lg_t + export.total()),
        ]);
    }
    report.note(format!(
        "baseline join+export+load cost: {} s (dotted line in the paper)",
        secs(export.total())
    ));
    report.note("expected shape: joinboost < lgbm+export (paper: ~3x faster at 80M rows, where join+export dominates)");
    report.note("deviation: at this scale our interpreted SQL engine cannot beat a flat-array Rust loop; the scaling/OOM figures (10-12) carry the headline instead");
    report.print();
    Ok(())
}

/// Figures 8b + 8c: gradient boosting time and rmse per iteration.
fn fig8b() -> Result<(), String> {
    let gen = favorita_scaled(20_000, 50, 0);
    let db = load(&gen, EngineConfig::d_swap());
    let set = Dataset::new(
        &db,
        gen.graph.clone(),
        &gen.target_relation,
        &gen.target_column,
    )
    .map_err(|e| e.to_string())?;
    let eval = materialize_features(&set).map_err(|e| e.to_string())?;
    let ys = targets(&eval).map_err(|e| e.to_string())?;
    let checkpoints = [1usize, 5, 10, 20, 40];

    let mut params = TrainParams::paper_gbm();
    params.num_iterations = 40;
    params.update_method = UpdateMethod::ColumnSwap;
    let mut jb_scores = vec![0.0f64; ys.len()];
    let mut jb_rows: Vec<(usize, Duration, f64)> = Vec::new();
    let start = Instant::now();
    let model = train_gbm_cb(&set, &params, |iter, m| {
        let tree = m.trees.last().expect("just trained");
        for (i, sc) in jb_scores.iter_mut().enumerate() {
            *sc += m.learning_rate
                * tree.predict(&joinboost::predict::TableRow {
                    table: &eval,
                    index: i,
                });
        }
        if checkpoints.contains(&(iter + 1)) {
            let preds: Vec<f64> = jb_scores.iter().map(|s| s + m.init_score).collect();
            jb_rows.push((iter + 1, start.elapsed(), rmse(&ys, &preds)));
        }
        true
    })
    .map_err(|e| e.to_string())?;
    let _ = model;

    // Baseline.
    let set2 = Dataset::new(
        &db,
        gen.graph.clone(),
        &gen.target_relation,
        &gen.target_column,
    )
    .map_err(|e| e.to_string())?;
    let (flat, export) = lightgbm::export_join(&set2).map_err(|e| e.to_string())?;
    let lp = LgbmParams {
        num_iterations: 40,
        ..Default::default()
    };
    let mut lg_rows: Vec<(usize, Duration, f64)> = Vec::new();
    let lg_start = Instant::now();
    lightgbm::train_gbdt_cb(&flat, &lp, |iter, m| {
        if checkpoints.contains(&(iter + 1)) {
            let preds = m.predict_table(&eval);
            lg_rows.push((
                iter + 1,
                lg_start.elapsed() + export.total(),
                rmse(&ys, &preds),
            ));
        }
    })
    .map_err(|e| e.to_string())?;

    let mut report = Report::new(
        "Figure 8b/8c: gradient boosting time (s) and training rmse",
        &[
            "iter",
            "jb_time",
            "jb_rmse",
            "lgbm_time(+export)",
            "lgbm_rmse",
        ],
    );
    for ((i, jt, jr), (_, lt, lr)) in jb_rows.iter().zip(&lg_rows) {
        report.row(&[
            i.to_string(),
            secs(*jt),
            format!("{jr:.2}"),
            secs(*lt),
            format!("{lr:.2}"),
        ]);
    }
    report.note("expected shape: near-identical rmse curves (same algorithm); paper gets 1.1x time at 80M rows where export dominates");
    report.note("deviation: our interpreted engine is slower per query than the flat-array baseline at laptop scale");
    report.print();
    Ok(())
}

/// Figure 9: query counts and latency histogram of the 1st GBM iteration.
fn fig9() -> Result<(), String> {
    let gen = favorita_scaled(20_000, 50, 2); // 15 features over 5 edges
    let db = load(&gen, EngineConfig::duckdb_mem());
    let set = Dataset::new(
        &db,
        gen.graph.clone(),
        &gen.target_relation,
        &gen.target_column,
    )
    .map_err(|e| e.to_string())?;
    let mut params = TrainParams::default();
    params.num_iterations = 1;
    let model = train_gbm(&set, &params).map_err(|e| e.to_string())?;
    let stats = &model.stats;
    let mut report = Report::new(
        "Figure 9a: query counts in the 1st iteration",
        &["kind", "count"],
    );
    report.row(&["feature-split".into(), stats.split_queries.to_string()]);
    report.row(&["message".into(), stats.message_queries.to_string()]);
    let nodes = 2 * params.num_leaves - 1;
    report.note(format!(
        "expected: split ~= nodes x features = {} x {} (paper: 270 = 15 x 18); messages bounded by nodes x edges = {} x {} (paper: 75 = 15 x 5, identity dims dropped)",
        nodes,
        set.features().len(),
        nodes,
        set.graph.num_edges(),
    ));
    report.print();

    let mut hist = Report::new(
        "Figure 9b: query execution time histogram (ms buckets)",
        &["bucket_ms", "split_queries", "message_queries"],
    );
    let bucket = |d: &Duration| -> usize {
        let ms = d.as_secs_f64() * 1000.0;
        (ms.ln_1p().floor() as usize).min(9)
    };
    let mut split_h = [0u64; 10];
    let mut msg_h = [0u64; 10];
    for d in &stats.split_durations {
        split_h[bucket(d)] += 1;
    }
    for d in &stats.message_durations {
        msg_h[bucket(d)] += 1;
    }
    for b in 0..10 {
        if split_h[b] == 0 && msg_h[b] == 0 {
            continue;
        }
        hist.row(&[
            format!("<= {:.0}", ((b + 1) as f64).exp() - 1.0),
            split_h[b].to_string(),
            msg_h[b].to_string(),
        ]);
    }
    hist.note("expected shape: split queries cheap; fact-table messages the slowest");
    hist.print();
    Ok(())
}

/// Figure 10: gradient boosting vs number of features.
fn fig10() -> Result<(), String> {
    let mut report = Report::new(
        "Figure 10: GBM training time (s) at 10 iterations vs #features",
        &["features", "joinboost", "lightgbm-like"],
    );
    for extra in [0usize, 4, 9] {
        let nfeat = 5 * (extra + 1);
        let gen = favorita_scaled(15_000, 50, extra);
        let db = load(&gen, EngineConfig::duckdb_mem());
        let set = Dataset::new(
            &db,
            gen.graph.clone(),
            &gen.target_relation,
            &gen.target_column,
        )
        .map_err(|e| e.to_string())?;
        let mut params = TrainParams::default();
        params.num_iterations = 10;
        let (_, jb_t) = time(|| train_gbm(&set, &params).expect("gbm"));
        // Baseline memory limit sized so 50 features exceed it (paper:
        // LightGBM OOMs at 50 features / 125 GB, scaled down here).
        let limit = 15_000 * 30 * 10; // bytes ~= rows x 30 features x 10B
        let set2 = Dataset::new(
            &db,
            gen.graph.clone(),
            &gen.target_relation,
            &gen.target_column,
        )
        .map_err(|e| e.to_string())?;
        let lgbm_cell = match lightgbm::export_join(&set2) {
            Ok((flat, export)) => {
                let lp = LgbmParams {
                    num_iterations: 10,
                    memory_limit_bytes: Some(limit),
                    ..Default::default()
                };
                match lightgbm::train_gbdt(&flat, &lp) {
                    Ok(m) => secs(m.train_time + export.total()),
                    Err(_) => "OOM".to_string(),
                }
            }
            Err(e) => format!("error: {e}"),
        };
        report.row(&[nfeat.to_string(), secs(jb_t), lgbm_cell]);
    }
    report.note("expected shape: joinboost scales linearly with lower slope; baseline OOMs at 50");
    report.print();
    Ok(())
}

/// Figure 11: gradient boosting vs TPC-DS scale factor.
fn fig11() -> Result<(), String> {
    let mut report = Report::new(
        "Figure 11: GBM time (s) at 10 iterations vs TPC-DS scale (paper SF 10-25)",
        &["sf(paper)", "joinboost", "lightgbm-like"],
    );
    for (paper_sf, sf) in [(10, 1.0f64), (15, 1.5), (20, 2.0), (25, 2.5)] {
        let gen = tpcds(&TpcConfig {
            scale_factor: sf,
            base_fact_rows: 8_000,
            seed: 7,
        });
        let db = Database::in_memory();
        gen.load_into(&db).map_err(|e| e.to_string())?;
        let set = Dataset::new(
            &db,
            gen.graph.clone(),
            &gen.target_relation,
            &gen.target_column,
        )
        .map_err(|e| e.to_string())?;
        let mut params = TrainParams::default();
        params.num_iterations = 10;
        let (_, jb_t) = time(|| train_gbm(&set, &params).expect("gbm"));
        let set2 = Dataset::new(
            &db,
            gen.graph.clone(),
            &gen.target_relation,
            &gen.target_column,
        )
        .map_err(|e| e.to_string())?;
        let limit = 76 * 18_000; // flat model needs ~76 B/row; SF 25 (20k rows) exceeds this
        let cell = match lightgbm::export_join(&set2) {
            Ok((flat, export)) => {
                let lp = LgbmParams {
                    num_iterations: 10,
                    memory_limit_bytes: Some(limit),
                    ..Default::default()
                };
                match lightgbm::train_gbdt(&flat, &lp) {
                    Ok(m) => secs(m.train_time + export.total()),
                    Err(_) => "OOM".to_string(),
                }
            }
            Err(e) => format!("error: {e}"),
        };
        report.row(&[paper_sf.to_string(), secs(jb_t), cell]);
    }
    report.note("expected shape: both linear, joinboost lower slope; baseline OOM at SF=25");
    report.print();
    Ok(())
}

/// Figures 12–13's distributed run: the TPC-DS snowflake on `machines`
/// shards of [`ShardedBackend`] (`store_sales` hash-partitioned on
/// `date_id`, every dimension replicated), training one depth-3 decision
/// tree. Returns the training time and the rows the shards shipped to the
/// coordinator.
fn train_sharded_tree(
    gen: &joinboost_datagen::favorita::Generated,
    machines: usize,
) -> Result<(Duration, u64), String> {
    let backend = ShardedBackend::new(
        machines,
        EngineConfig::duckdb_mem(),
        &gen.target_relation,
        "date_id",
    );
    for (name, t) in &gen.tables {
        backend
            .create_table(name, t.clone())
            .map_err(|e| e.to_string())?;
    }
    let set = Dataset::new(
        &backend,
        gen.graph.clone(),
        &gen.target_relation,
        &gen.target_column,
    )
    .map_err(|e| e.to_string())?;
    let mut params = TrainParams::default();
    params.max_depth = 3;
    params.min_data_in_leaf = 5.0;
    let (trained, t) = time(|| train_decision_tree(&set, &params));
    trained.map_err(|e| e.to_string())?;
    Ok((t, backend.stats().rows_shipped))
}

/// Figure 12: multi-machine decision-tree workload.
fn fig12() -> Result<(), String> {
    let mut report = Report::new(
        "Figure 12a: distributed tree workload time (s) on 4 machines vs SF (paper 30-40)",
        &[
            "sf(paper)",
            "joinboost(4m)",
            "rows_shipped",
            "single-table baseline",
        ],
    );
    for (paper_sf, sf) in [(30, 3.0f64), (35, 3.5), (40, 4.0)] {
        let gen = tpcds(&TpcConfig {
            scale_factor: sf,
            base_fact_rows: 8_000,
            seed: 11,
        });
        let (jb_t, shipped) = train_sharded_tree(&gen, 4)?;
        // Single-node baseline with a memory cap that SF40 exceeds.
        let db = Database::in_memory();
        gen.load_into(&db).map_err(|e| e.to_string())?;
        let set = Dataset::new(
            &db,
            gen.graph.clone(),
            &gen.target_relation,
            &gen.target_column,
        )
        .map_err(|e| e.to_string())?;
        let limit = 76 * 30_000; // OOM at SF 40 (32k rows)
        let cell = match lightgbm::export_join(&set) {
            Ok((flat, export)) => {
                // One tree with JoinBoost's leaf budget, so both columns
                // time the same work.
                let lp = LgbmParams {
                    num_iterations: 1,
                    num_leaves: 8,
                    min_data_in_leaf: 5,
                    memory_limit_bytes: Some(limit),
                    ..Default::default()
                };
                match lightgbm::train_gbdt(&flat, &lp) {
                    Ok(m) => secs(m.train_time + export.total()),
                    Err(_) => "OOM".to_string(),
                }
            }
            Err(e) => format!("error: {e}"),
        };
        report.row(&[paper_sf.to_string(), secs(jb_t), shipped.to_string(), cell]);
    }
    report
        .note("expected shape: joinboost scales; baseline OOMs at the top SF (paper: >9x faster)");
    report.print();

    let mut r2 = Report::new(
        "Figure 12b: time (s) vs machines at the top SF",
        &["machines", "joinboost", "rows_shipped"],
    );
    let gen = tpcds(&TpcConfig {
        scale_factor: 4.0,
        base_fact_rows: 8_000,
        seed: 11,
    });
    for m in [1usize, 2, 3, 4] {
        let (t, shipped) = train_sharded_tree(&gen, m)?;
        r2.row(&[m.to_string(), secs(t), shipped.to_string()]);
    }
    r2.note("expected shape: trains even on 1 machine; speeds up with more machines");
    r2.note("the shards here share one host's cores, so rows_shipped is the scaling signal");
    r2.print();
    Ok(())
}

/// Figure 13: cloud-warehouse style decision tree, 1-6 machines.
fn fig13() -> Result<(), String> {
    let gen = tpcds(&TpcConfig {
        scale_factor: 8.0,
        base_fact_rows: 8_000,
        seed: 13,
    });
    let mut report = Report::new(
        "Figure 13: depth-3 decision tree time (s) vs machines (paper: TPC-DS SF=1000)",
        &["machines", "time", "rows_shipped"],
    );
    for m in [1usize, 2, 4, 6] {
        let (t, shipped) = train_sharded_tree(&gen, m)?;
        report.row(&[m.to_string(), secs(t), shipped.to_string()]);
    }
    report.note("expected shape: 2 machines introduce a shuffle stage; 4-6 recover modest gains");
    report.note("the shards here share one host's cores, so rows_shipped is the scaling signal");
    report.print();
    Ok(())
}

/// Figure 14: galaxy-schema gradient boosting (IMDB-like, CPT).
fn fig14() -> Result<(), String> {
    let gen = imdb_galaxy(&ImdbConfig {
        persons: 150,
        movies: 120,
        cast_rows: 10_000,
        person_info_rows: 1_500,
        movie_info_rows: 1_200,
        seed: 42,
    });
    let db = Database::in_memory();
    gen.load_into(&db).map_err(|e| e.to_string())?;
    let set = Dataset::new(
        &db,
        gen.graph.clone(),
        &gen.target_relation,
        &gen.target_column,
    )
    .map_err(|e| e.to_string())?;
    let mut params = TrainParams::default();
    params.num_iterations = 10;
    params.num_leaves = 8;
    let mut rows: Vec<(usize, Duration)> = Vec::new();
    let start = Instant::now();
    train_gbm_cb(&set, &params, |iter, _| {
        rows.push((iter + 1, start.elapsed()));
        true
    })
    .map_err(|e| e.to_string())?;
    let mut report = Report::new(
        "Figure 14: galaxy GBM cumulative time (s) per iteration",
        &["iter", "time"],
    );
    for (i, t) in rows {
        report.row(&[i.to_string(), secs(t)]);
    }
    report.note("expected shape: linear in iterations (single-table libraries cannot run at all: |join| explodes)");
    report.print();
    Ok(())
}

/// Figure 15: train/update breakdown per backend.
fn fig15() -> Result<(), String> {
    let gen = favorita_scaled(20_000, 50, 0);
    let backends: Vec<(&str, EngineConfig, UpdateMethod)> = vec![
        (
            "X-col",
            EngineConfig::dbms_x_col(),
            UpdateMethod::CreateTable,
        ),
        (
            "X-row",
            EngineConfig::dbms_x_row(),
            UpdateMethod::CreateTable,
        ),
        (
            "X-Swap*",
            EngineConfig {
                allow_swap: true,
                ..EngineConfig::dbms_x_col()
            },
            UpdateMethod::ColumnSwap,
        ),
        (
            "D-disk",
            EngineConfig::duckdb_disk(),
            UpdateMethod::CreateTable,
        ),
        (
            "D-mem",
            EngineConfig::duckdb_mem(),
            UpdateMethod::CreateTable,
        ),
        ("DP", EngineConfig::duckdb_mem(), UpdateMethod::Interop),
        ("D-Swap", EngineConfig::d_swap(), UpdateMethod::ColumnSwap),
    ];
    let mut report = Report::new(
        "Figure 15: one GBM iteration: train vs residual-update time (s)",
        &["backend", "train", "update", "total"],
    );
    for (name, config, method) in backends {
        let db = load(&gen, config);
        let set = Dataset::new(
            &db,
            gen.graph.clone(),
            &gen.target_relation,
            &gen.target_column,
        )
        .map_err(|e| e.to_string())?;
        let mut params = TrainParams::default();
        params.num_iterations = 1;
        params.update_method = method;
        let model = train_gbm(&set, &params).map_err(|e| e.to_string())?;
        report.row(&[
            name.to_string(),
            secs(model.train_time),
            secs(model.update_time),
            secs(model.train_time + model.update_time),
        ]);
    }
    report.note("expected shape: columnar trains fast; swap/interop updates ~free; DP trains slower (interop scans)");
    report.print();
    Ok(())
}

/// Figure 16a: Naive vs Batch (LMFAO-like) vs JoinBoost decision tree.
fn fig16a() -> Result<(), String> {
    let gen = favorita_scaled(20_000, 200, 0);
    let db = load(&gen, EngineConfig::duckdb_mem());
    let mut params = TrainParams::default();
    params.num_leaves = 64;
    params.max_depth = 10;
    let mut report = Report::new(
        "Figure 16a: decision tree training time (s)",
        &["system", "time", "message_queries"],
    );
    let set = Dataset::new(
        &db,
        gen.graph.clone(),
        &gen.target_relation,
        &gen.target_column,
    )
    .map_err(|e| e.to_string())?;
    let ((_, _, mat), naive_t) = time(|| naive::train_naive_tree(&set, &params).expect("naive"));
    report.row(&[
        "Naive".into(),
        secs(naive_t),
        format!("(materialize {} s)", secs(mat)),
    ]);
    let set = Dataset::new(
        &db,
        gen.graph.clone(),
        &gen.target_relation,
        &gen.target_column,
    )
    .map_err(|e| e.to_string())?;
    let ((_, bstats), batch_t) = time(|| batch::train_batch_tree(&set, &params).expect("batch"));
    report.row(&[
        "Batch (LMFAO-like)".into(),
        secs(batch_t),
        bstats.message_queries.to_string(),
    ]);
    let set = Dataset::new(
        &db,
        gen.graph.clone(),
        &gen.target_relation,
        &gen.target_column,
    )
    .map_err(|e| e.to_string())?;
    let ((_, jstats), jb_t) = time(|| train_decision_tree(&set, &params).expect("jb"));
    report.row(&[
        "JoinBoost".into(),
        secs(jb_t),
        jstats.message_queries.to_string(),
    ]);
    report.note("expected shape: JoinBoost < Batch < Naive (paper: sharing ~3x over Batch; Batch ~2x over Naive; LMFAO sits between JoinBoost and Batch thanks to its compiled engine)");
    report.print();
    Ok(())
}

/// Figure 16b: JoinBoost vs the MADLib-like row-engine baseline.
fn fig16b() -> Result<(), String> {
    let gen = favorita_scaled(10_000, 30, 0);
    let mut params = TrainParams::default();
    params.num_leaves = 32;
    params.max_depth = 10;
    let db_col = load(&gen, EngineConfig::duckdb_mem());
    let set = Dataset::new(
        &db_col,
        gen.graph.clone(),
        &gen.target_relation,
        &gen.target_column,
    )
    .map_err(|e| e.to_string())?;
    let (_, jb_t) = time(|| train_decision_tree(&set, &params).expect("jb"));
    let db_row = madlib::row_oriented_db(&gen.tables);
    let set = Dataset::new(
        &db_row,
        gen.graph.clone(),
        &gen.target_relation,
        &gen.target_column,
    )
    .map_err(|e| e.to_string())?;
    let (_, mad_t) = time(|| madlib::train_madlib_tree(&set, &params).expect("madlib"));
    let mut report = Report::new(
        "Figure 16b: decision tree vs MADLib-like (10k rows)",
        &["system", "time", "speedup"],
    );
    report.row(&["JoinBoost".into(), secs(jb_t), "1.0x".into()]);
    report.row(&[
        "MADLib-like".into(),
        secs(mad_t),
        format!(
            "{:.1}x slower",
            mad_t.as_secs_f64() / jb_t.as_secs_f64().max(1e-9)
        ),
    ]);
    report.note("expected shape: JoinBoost >> MADLib-like (paper: ~16x)");
    report.print();
    Ok(())
}

/// Figure 17 (Appendix C.1): TPC-DS / TPC-H GBM and RF.
fn fig17() -> Result<(), String> {
    let mut report = Report::new(
        "Figure 17: GBM / RF time (s) at 10 iterations, TPC-DS vs TPC-H",
        &["dataset", "model", "joinboost", "lgbm+export"],
    );
    for (name, gen) in [
        (
            "tpcds",
            tpcds(&TpcConfig {
                scale_factor: 1.0,
                base_fact_rows: 15_000,
                seed: 5,
            }),
        ),
        (
            "tpch",
            tpch(&TpcConfig {
                scale_factor: 1.0,
                base_fact_rows: 15_000,
                seed: 5,
            }),
        ),
    ] {
        let db = Database::in_memory();
        gen.load_into(&db).map_err(|e| e.to_string())?;
        let set = Dataset::new(
            &db,
            gen.graph.clone(),
            &gen.target_relation,
            &gen.target_column,
        )
        .map_err(|e| e.to_string())?;
        let (flat, export) = lightgbm::export_join(&set).map_err(|e| e.to_string())?;
        for model in ["gbm", "rf"] {
            let set = Dataset::new(
                &db,
                gen.graph.clone(),
                &gen.target_relation,
                &gen.target_column,
            )
            .map_err(|e| e.to_string())?;
            let (jb_t, lg_t) = if model == "gbm" {
                let mut params = TrainParams::default();
                params.num_iterations = 10;
                let (_, jt) = time(|| train_gbm(&set, &params).expect("gbm"));
                let lp = LgbmParams {
                    num_iterations: 10,
                    ..Default::default()
                };
                let (m, _) = time(|| lightgbm::train_gbdt(&flat, &lp).expect("lgbm"));
                (jt, m.train_time + export.total())
            } else {
                let mut params = TrainParams::paper_rf();
                params.num_iterations = 10;
                params.threads = 4;
                let (_, jt) = time(|| train_random_forest(&set, &params).expect("rf"));
                let lp = LgbmParams {
                    num_iterations: 10,
                    bagging_fraction: 0.1,
                    feature_fraction: 0.8,
                    ..Default::default()
                };
                let (m, _) = time(|| lightgbm::train_rf(&flat, &lp).expect("lgbm rf"));
                (jt, m.train_time + export.total())
            };
            report.row(&[name.to_string(), model.to_string(), secs(jb_t), secs(lg_t)]);
        }
    }
    report.note("expected shape: joinboost competitive; TPC-H relatively slower for joinboost (large dimension messages)");
    report.print();
    Ok(())
}

/// Figure 18: parallelism sweeps.
fn fig18() -> Result<(), String> {
    let gen = favorita_scaled(20_000, 50, 1);
    let db = load(&gen, EngineConfig::duckdb_mem());
    let mut r1 = Report::new(
        "Figure 18a: one tree (8 leaves), split-query worker threads",
        &["threads", "time"],
    );
    for threads in [1usize, 2, 4, 8] {
        let set = Dataset::new(
            &db,
            gen.graph.clone(),
            &gen.target_relation,
            &gen.target_column,
        )
        .map_err(|e| e.to_string())?;
        let mut params = TrainParams::default();
        params.threads = threads;
        let (_, t) = time(|| train_decision_tree(&set, &params).expect("dt"));
        r1.row(&[threads.to_string(), secs(t)]);
    }
    r1.note("deviation: at this scale parallel split queries contend on scan memory bandwidth; the tree-parallel effect shows in 18b/RF");
    r1.print();

    let mut r2 = Report::new(
        "Figure 18b: inter-query parallelism (w/o vs para)",
        &["model", "w/o", "para", "reduction"],
    );
    for model in ["GB", "RF"] {
        let mut times = Vec::new();
        for threads in [1usize, 4] {
            let set = Dataset::new(
                &db,
                gen.graph.clone(),
                &gen.target_relation,
                &gen.target_column,
            )
            .map_err(|e| e.to_string())?;
            let t = if model == "GB" {
                let mut params = TrainParams::default();
                params.num_iterations = 10;
                params.threads = threads;
                time(|| train_gbm(&set, &params).expect("gbm")).1
            } else {
                let mut params = TrainParams::paper_rf();
                params.num_iterations = 10;
                params.threads = threads;
                time(|| train_random_forest(&set, &params).expect("rf")).1
            };
            times.push(t);
        }
        let red = 100.0 * (1.0 - times[1].as_secs_f64() / times[0].as_secs_f64().max(1e-9));
        r2.row(&[
            model.to_string(),
            secs(times[0]),
            secs(times[1]),
            format!("{red:.0}%"),
        ]);
    }
    r2.note("expected shape: parallelism cuts GB ~28% and RF ~35% in the paper");
    r2.print();
    Ok(())
}

/// Figure 20: histogram bins and the cuboid optimization.
fn fig20() -> Result<(), String> {
    let gen = favorita_scaled(30_000, 60, 0);
    let db = load(&gen, EngineConfig::duckdb_mem());
    let eval = {
        let set = Dataset::new(
            &db,
            gen.graph.clone(),
            &gen.target_relation,
            &gen.target_column,
        )
        .map_err(|e| e.to_string())?;
        materialize_features(&set).map_err(|e| e.to_string())?
    };
    let ys = targets(&eval).map_err(|e| e.to_string())?;
    let mut report = Report::new(
        "Figure 20: histogram bins / cuboid: GBM 10 iterations",
        &["variant", "time", "rmse"],
    );
    for (label, bins, cuboid) in [
        ("exact (no bins)", 0usize, false),
        ("bins=10", 10, false),
        ("bins=5", 5, false),
        ("cuboid bins=10", 10, true),
        ("cuboid bins=5", 5, true),
    ] {
        let set = Dataset::new(
            &db,
            gen.graph.clone(),
            &gen.target_relation,
            &gen.target_column,
        )
        .map_err(|e| e.to_string())?;
        let mut params = TrainParams::default();
        params.num_iterations = 10;
        params.max_bins = bins;
        params.use_cuboid = cuboid;
        let (model, t) = time(|| train_gbm(&set, &params).expect("gbm"));
        let r = rmse(&ys, &model.predict(&eval));
        report.row(&[label.to_string(), secs(t), format!("{r:.2}")]);
    }
    report.note("expected shape: fewer bins + cuboid much faster at modest rmse cost (paper: >100x at bins=5)");
    report.note("cuboid pays off once the cell count (bins^features) drops below the fact row count (bins=5: 3125 cells vs 30k rows)");
    report.print();
    Ok(())
}

/// Objective sweep: every Table-3 loss trains and reduces its loss.
fn losses() -> Result<(), String> {
    use joinboost_semiring::Objective;
    let gen = favorita_scaled(5_000, 30, 0);
    let db = load(&gen, EngineConfig::duckdb_mem());
    let mut report = Report::new(
        "Table 3 objectives: loss before/after 15 boosting iterations",
        &["objective", "init_loss", "final_loss"],
    );
    for obj in [
        Objective::SquaredError,
        Objective::AbsoluteError,
        Objective::Huber { delta: 50.0 },
        Objective::Fair { c: 10.0 },
        Objective::Quantile { alpha: 0.9 },
        Objective::Mape,
    ] {
        let set = Dataset::new(
            &db,
            gen.graph.clone(),
            &gen.target_relation,
            &gen.target_column,
        )
        .map_err(|e| e.to_string())?;
        let mut params = TrainParams::default();
        params.objective = obj;
        params.num_iterations = 15;
        params.learning_rate = 0.5;
        let model = train_gbm(&set, &params).map_err(|e| e.to_string())?;
        let eval = materialize_features(&set).map_err(|e| e.to_string())?;
        let ys = targets(&eval).map_err(|e| e.to_string())?;
        let ps = model.predict_raw(&eval);
        let init: f64 = ys
            .iter()
            .map(|&y| obj.loss(y, model.init_score))
            .sum::<f64>()
            / ys.len() as f64;
        let fin: f64 = ys
            .iter()
            .zip(&ps)
            .map(|(&y, &p)| obj.loss(y, p))
            .sum::<f64>()
            / ys.len() as f64;
        report.row(&[
            obj.name().to_string(),
            format!("{init:.2}"),
            format!("{fin:.2}"),
        ]);
    }
    report.print();
    Ok(())
}
