//! The portability claim, end to end: the same training run against every
//! [`SqlBackend`] implementation must produce the *same model* — not just
//! statistically, but bit for bit.
//!
//! Floating-point `⊕` is only associative on values where no addition ever
//! rounds, so the workload pins everything to a dyadic grid (see
//! `DESIGN.md` § Backends):
//!
//! * the target is quantized to multiples of 1/8 (exact in `f64`),
//! * `leaf_quantization` rounds the initial score and every leaf value to
//!   the 2⁻¹⁰ grid,
//! * the learning rate is 0.5 (dyadic).
//!
//! Under those conditions every residual, message aggregate and split
//! statistic the trainer ever sums is a dyadic rational of bounded
//! magnitude, so shard merge order cannot change a single bit — which is
//! exactly what this test asserts for 1-shard and 4-shard backends.

use joinboost::backend::{
    EngineBackend, PushdownConfig, RemoteBackend, RemoteOptions, ShardedBackend, SqlBackend,
    SqlTextBackend, WireServer,
};
use joinboost::{train_gbm, Dataset, GbmModel, TrainParams};
use joinboost_datagen::{favorita, tpcds, FavoritaConfig, TpcConfig};
use joinboost_engine::{Column, Database, EngineConfig, Table};

/// A real `shard_server` child process (cross-process, not a thread):
/// spawned on an ephemeral port, killed on drop.
struct ShardServerProc {
    child: std::process::Child,
    addr: std::net::SocketAddr,
}

impl ShardServerProc {
    fn spawn() -> ShardServerProc {
        use std::io::BufRead as _;
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_shard_server"))
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn shard_server");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read LISTENING line");
        let addr = line
            .trim()
            .strip_prefix("LISTENING ")
            .expect("server must announce its address")
            .parse()
            .expect("valid socket address");
        ShardServerProc { child, addr }
    }
}

impl Drop for ShardServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn workload() -> joinboost_datagen::favorita::Generated {
    favorita(&FavoritaConfig {
        fact_rows: 3000,
        dim_rows: 30,
        noise: 1.0,
        ..Default::default()
    })
}

fn load_and_train(backend: &dyn SqlBackend) -> GbmModel {
    load_and_train_on_threads(backend, 1)
}

/// [`load_and_train`] with `threads` split queries in flight at once.
fn load_and_train_on_threads(backend: &dyn SqlBackend, threads: usize) -> GbmModel {
    let gen = workload();
    for (name, t) in &gen.tables {
        backend.create_table(name, t.clone()).unwrap();
    }
    // Quantize the target to the 1/8 grid: FLOOR(y*8) is exact for these
    // magnitudes and /8 is an exponent shift, so the stored values are
    // dyadic rationals and every sum of them is exact in f64.
    backend
        .execute("UPDATE sales SET net_profit = FLOOR(net_profit * 8.0) / 8.0")
        .unwrap();
    let set = Dataset::new(backend, gen.graph.clone(), "sales", "net_profit").unwrap();
    let params = TrainParams {
        num_iterations: 4,
        learning_rate: 0.5,
        leaf_quantization: (2.0f64).powi(-10),
        threads,
        ..Default::default()
    };
    train_gbm(&set, &params).unwrap()
}

fn assert_bit_identical(reference: &GbmModel, model: &GbmModel, who: &str) {
    assert_eq!(
        reference.init_score.to_bits(),
        model.init_score.to_bits(),
        "{who}: init score diverged"
    );
    assert_eq!(
        reference.trees.len(),
        model.trees.len(),
        "{who}: tree count diverged"
    );
    for (i, (a, b)) in reference.trees.iter().zip(&model.trees).enumerate() {
        assert_eq!(a.nodes.len(), b.nodes.len(), "{who}: tree {i} shape");
        for (na, nb) in a.nodes.iter().zip(&b.nodes) {
            assert_eq!(na.split, nb.split, "{who}: tree {i} split");
            assert_eq!(
                na.value.to_bits(),
                nb.value.to_bits(),
                "{who}: tree {i} leaf value diverged ({} vs {})",
                na.value,
                nb.value
            );
            assert_eq!(
                na.weight.to_bits(),
                nb.weight.to_bits(),
                "{who}: tree {i} weight diverged"
            );
        }
    }
}

#[test]
fn all_backends_train_bit_identical_gbms() {
    // Reference: the plain engine behind the AST fast path.
    let engine = EngineBackend::in_memory();
    let reference = load_and_train(&engine);
    assert_eq!(reference.trees.len(), 4);
    assert!(
        reference.trees.iter().any(|t| t.num_leaves() > 1),
        "the workload must actually produce splits"
    );

    // Uncompressed storage: scans clone stored columns instead of
    // decompressing the ones a statement names.
    let model = load_and_train(&EngineBackend::new(EngineConfig {
        compression: false,
        ..EngineConfig::duckdb_mem()
    }));
    assert_bit_identical(&reference, &model, "uncompressed");

    // SQL text: every statement through print ∘ parse ∘ print.
    let text = SqlTextBackend::in_memory();
    let model = load_and_train(&text);
    assert_bit_identical(&reference, &model, "sql-text");
    assert!(
        text.round_trips() > 50,
        "training must have exercised the text path ({} round-trips)",
        text.round_trips()
    );

    // Sharded: 1 shard (degenerate) and 4 shards (real fan-out + merge),
    // with the shard-local split evaluation forced on even at this small
    // cardinality (min_rows 0) so the summary/compression protocol is
    // what actually produces the asserted bits.
    for shards in [1usize, 4] {
        let sharded = ShardedBackend::new(shards, EngineConfig::duckdb_mem(), "sales", "items_id");
        sharded.set_pushdown_config(PushdownConfig {
            boundaries_per_shard: 8,
            min_rows: 0,
        });
        let model = load_and_train(&sharded);
        assert_bit_identical(&reference, &model, &format!("sharded x{shards}"));
        let stats = sharded.stats();
        assert!(stats.fanout_selects > 0, "aggregates must fan out");
        assert!(stats.broadcast_statements > 0, "updates must broadcast");
        assert!(
            stats.pushdown_splits > 0,
            "split queries must evaluate shard-locally"
        );
        if shards > 1 {
            assert!(stats.rows_shipped > 0, "merging must move rows");
            // The fact partition really is spread out.
            let nonempty = (0..shards)
                .filter(|&i| sharded.shard(i).row_count("sales").unwrap_or(0) > 0)
                .count();
            assert!(nonempty > 1, "hash partitioning left all rows on one shard");
        }
    }
}

/// Inter-query parallelism is a schedule, not a different computation:
/// split queries running 2 or 4 at a time pick the same splits, bit for
/// bit, as one at a time — on one engine and on a 2-shard backend.
#[test]
fn gbm_split_query_threads_do_not_change_a_bit() {
    let backend = |shards: usize| -> Box<dyn SqlBackend> {
        match shards {
            1 => Box::new(EngineBackend::in_memory()),
            n => Box::new(ShardedBackend::new(
                n,
                EngineConfig::duckdb_mem(),
                "sales",
                "items_id",
            )),
        }
    };
    for shards in [1, 2] {
        let reference = load_and_train_on_threads(backend(shards).as_ref(), 1);
        for threads in [2, 4] {
            let model = load_and_train_on_threads(backend(shards).as_ref(), threads);
            let who = format!("{shards} shard(s), threads = {threads}");
            assert_bit_identical(&reference, &model, &who);
        }
    }
}

/// `BackendStats::selects` means the same on every backend: `SELECT`s and
/// `CREATE TABLE AS` queries, whether the engine runs them in process or
/// a remote one is sent their text.
#[test]
fn remote_backend_counts_selects_like_the_engine() {
    let engine = EngineBackend::in_memory();
    load_and_train(&engine);
    let server = WireServer::builder(Database::in_memory()).spawn().unwrap();
    let remote = RemoteBackend::builder(server.addr()).connect().unwrap();
    load_and_train(&remote);
    let selects = engine.stats().selects;
    assert!(selects > 0);
    assert_eq!(remote.stats().selects, selects);
}

/// The binder's aggregate decomposition over the wire: `AVG`, arithmetic
/// over aggregates and a group key absent from the output fan out to two
/// remote shards, whose `__key{i}`/`__agg{j}` aliases survive print and
/// parse there, and answer as one engine does — bit for bit on Int and
/// dyadic data.
#[test]
fn remote_shards_fan_out_avg_arithmetic_and_hidden_keys_like_one_engine() {
    let rows = 300i64;
    let fact = Table::from_columns(vec![
        ("k", Column::int((0..rows).collect())),
        ("g", Column::int((0..rows).map(|i| i % 7).collect())),
        (
            "v",
            Column::int((0..rows).map(|i| (i * 7919) % 1000 - 500).collect()),
        ),
        (
            "y",
            Column::float((0..rows).map(|i| ((i * 31) % 64) as f64 / 8.0).collect()),
        ),
    ]);
    let engine = Database::in_memory();
    engine.create_table("fact", fact.clone()).unwrap();
    let servers: Vec<WireServer> = (0..2)
        .map(|_| WireServer::builder(Database::in_memory()).spawn().unwrap())
        .collect();
    let addrs: Vec<_> = servers.iter().map(WireServer::addr).collect();
    let remote = ShardedBackend::remote(
        &addrs,
        EngineConfig::duckdb_mem(),
        "fact",
        "k",
        RemoteOptions::default(),
    )
    .unwrap();
    remote.create_table("fact", fact).unwrap();
    let queries = [
        "SELECT * FROM (SELECT g, AVG(v) AS av, AVG(y) AS ay, SUM(y) / COUNT(*) AS mean, \
         MAX(v) - MIN(v) AS span, SUM(y) * 2 AS twice FROM fact GROUP BY g) AS t ORDER BY g",
        "SELECT * FROM (SELECT MIN(g) AS low, COUNT(*) AS c, AVG(v) AS av \
         FROM fact GROUP BY g + 1) AS t ORDER BY low",
        "SELECT AVG(y) AS ay, SUM(v) / COUNT(v) AS mean FROM fact",
    ];
    for q in queries {
        assert_eq!(remote.query(q).unwrap(), engine.query(q).unwrap(), "{q}");
    }
    assert_eq!(remote.stats().fanout_selects, queries.len() as u64);
}

/// The out-of-core claim: the paged engine — tables on disk behind a
/// buffer pool, scans pinning pages one at a time — trains the same bits
/// as the in-memory engine, even when the pool is squeezed to 8 pages
/// (32 KiB, far below the working set, so every scan thrashes). Paging
/// moves bytes; it must never touch fold order.
#[test]
fn paged_engine_trains_bit_identical_gbms_even_at_an_8_page_pool() {
    let engine = EngineBackend::in_memory();
    let reference = load_and_train(&engine);

    for pool_pages in [256, 8] {
        let dir = std::env::temp_dir().join(format!(
            "jb_equiv_paged_{}_{pool_pages}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let config = EngineConfig {
            bufferpool_pages: pool_pages,
            ..EngineConfig::paged(&dir)
        };
        let paged = EngineBackend::labeled(config, format!("paged-{pool_pages}"));
        let model = load_and_train(&paged);
        assert_bit_identical(&reference, &model, &format!("paged {pool_pages} pages"));
        let stats = paged
            .database()
            .bufferpool_stats()
            .expect("paged engine exposes pool stats");
        assert!(stats.misses > 0, "scans must actually fault pages in");
        if pool_pages == 8 {
            assert!(
                stats.evictions > 0,
                "an 8-page pool must thrash on this workload: {stats:?}"
            );
            assert!(
                stats.spilled_bytes > 0,
                "evicting dirty frames must write pages back: {stats:?}"
            );
        }
        drop(paged);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The portability claim across a *process boundary*: the same training
/// run against engines living in separate `shard_server` processes —
/// reached only through SQL text and columnar blocks over sockets — must
/// produce the same bits as the in-process engine, with the split
/// pushdown forced on so the PR-4 summary protocol is what actually runs
/// over the wire.
#[test]
fn remote_backends_train_bit_identical_gbms_cross_process() {
    let engine = EngineBackend::in_memory();
    let reference = load_and_train(&engine);

    // One remote engine process behind a plain RemoteBackend.
    {
        let server = ShardServerProc::spawn();
        let remote = RemoteBackend::builder(server.addr).connect().unwrap();
        let model = load_and_train(&remote);
        assert_bit_identical(&reference, &model, "remote single");
        let stats = remote.stats();
        assert!(
            stats.bytes_sent > 0 && stats.bytes_received > 0,
            "wire volume must be measured: {stats:?}"
        );
        assert!(stats.statements > 50, "training must run over the wire");
    }

    // Multi-process sharding: the fact partitioned across 1 and 4 server
    // processes, coordinator local, pushdown forced on.
    for shards in [1usize, 4] {
        let servers: Vec<ShardServerProc> = (0..shards).map(|_| ShardServerProc::spawn()).collect();
        let addrs: Vec<std::net::SocketAddr> = servers.iter().map(|s| s.addr).collect();
        let remote = ShardedBackend::remote(
            &addrs,
            EngineConfig::duckdb_mem(),
            "sales",
            "items_id",
            RemoteOptions::default(),
        )
        .unwrap();
        remote.set_pushdown_config(PushdownConfig {
            boundaries_per_shard: 8,
            min_rows: 0,
        });
        let model = load_and_train(&remote);
        assert_bit_identical(&reference, &model, &format!("remote x{shards}"));
        let stats = remote.stats();
        assert!(stats.fanout_selects > 0, "aggregates must fan out");
        assert!(
            stats.pushdown_splits > 0,
            "split queries must evaluate shard-locally over the wire"
        );
        assert!(
            stats.bytes_sent > 0 && stats.bytes_received > 0,
            "wire volume must be measured: {stats:?}"
        );
        if shards > 1 {
            let nonempty = (0..shards)
                .filter(|&i| remote.shard(i).row_count("sales").unwrap_or(0) > 0)
                .count();
            assert!(
                nonempty > 1,
                "hash partitioning left all rows on one server"
            );
        }
    }
}

/// The serving tier's exactness claim across every backend: factorized
/// scoring (per-relation message tables, k dictionary lookups + ⊕-adds,
/// no join) must be *bit-identical* to scoring over the materialized
/// join — on the in-process engine, on 1- and 4-shard backends (fact
/// messages partitioned, dim messages replicated, partial scores merged
/// by the coordinator), and across a real process boundary where only
/// keys and partial sums cross the wire.
#[test]
fn factorized_scoring_matches_join_scoring_bit_for_bit_on_all_backends() {
    use joinboost::{FactorizedScorer, JoinScorer, Scorer};
    use joinboost_engine::table::ColumnMeta;

    // The favorita fact has no unique key: append one.
    let keyed_tables = |gen: &joinboost_datagen::favorita::Generated| {
        let mut tables = gen.tables.clone();
        for (name, t) in &mut tables {
            if name == "sales" {
                t.push_column(
                    ColumnMeta::new("sale_id"),
                    Column::int((0..t.num_rows() as i64).collect()),
                );
            }
        }
        tables
    };
    let gen = workload();
    let params = TrainParams {
        num_iterations: 4,
        learning_rate: 0.5,
        leaf_quantization: (2.0f64).powi(-10),
        ..Default::default()
    };
    let load = |backend: &dyn SqlBackend| {
        for (name, t) in keyed_tables(&gen) {
            backend.create_table(&name, t).unwrap();
        }
        backend
            .execute("UPDATE sales SET net_profit = FLOOR(net_profit * 8.0) / 8.0")
            .unwrap();
    };
    // Keys 0..N exist; the tail keys do not (inner-join misses → None).
    let n = gen
        .tables
        .iter()
        .find(|(n, _)| n == "sales")
        .unwrap()
        .1
        .num_rows() as i64;
    let keys: Vec<i64> = (0..n + 10).collect();

    // Reference: the materialized-join scorer on the plain engine.
    let engine = EngineBackend::in_memory();
    load(&engine);
    let set = Dataset::new(&engine, gen.graph.clone(), "sales", "net_profit").unwrap();
    let model = train_gbm(&set, &params).unwrap();
    let join = JoinScorer::compile(&set, &model, "sale_id").unwrap();
    let reference = join.score_batch(&keys).unwrap();
    assert!(reference[..n as usize].iter().all(|s| s.is_some()));
    assert!(reference[n as usize..].iter().all(|s| s.is_none()));

    let check = |backend: &dyn SqlBackend, who: &str| {
        load(backend);
        let set = Dataset::new(backend, gen.graph.clone(), "sales", "net_profit").unwrap();
        let model = train_gbm(&set, &params).unwrap();
        let scorer = FactorizedScorer::compile(&set, &model, "sale_id").unwrap();
        let scores = scorer.score_batch(&keys).unwrap();
        assert_eq!(scores.len(), reference.len(), "{who}: length");
        for (i, (r, s)) in reference.iter().zip(&scores).enumerate() {
            assert_eq!(
                r.map(f64::to_bits),
                s.map(f64::to_bits),
                "{who}: key {} diverged ({r:?} vs {s:?})",
                keys[i]
            );
        }
    };

    check(&EngineBackend::in_memory(), "engine factorized");
    for shards in [1usize, 4] {
        let sharded = ShardedBackend::new(shards, EngineConfig::duckdb_mem(), "sales", "items_id");
        check(&sharded, &format!("sharded x{shards} factorized"));
        if shards > 1 {
            assert!(
                sharded.stats().fanout_selects > 0,
                "factorized scoring must fan out to the shards"
            );
        }
    }
    {
        let server = ShardServerProc::spawn();
        let remote = RemoteBackend::builder(server.addr).connect().unwrap();
        check(&remote, "remote factorized");
    }
}

/// Dimension chains over partitions: in the TPC-DS snowflake,
/// `date_dim → holiday_dim` and `customer → demographics` reach the
/// sharded `store_sales` fact only through a replicated middle dimension.
/// The target is made to depend on both chain tails, so the model splits
/// on them, and the engine and 1- and 4-shard backends must train the same
/// bits.
#[test]
fn tpcds_snowflake_chains_train_bit_identical_gbms_when_sharded() {
    let gen = tpcds(&TpcConfig {
        scale_factor: 1.0,
        base_fact_rows: 2_000,
        seed: 3,
    });
    let column = |table: &str, col: &str| {
        let (_, t) = gen.tables.iter().find(|(n, _)| n == table).unwrap();
        t.column(None, col).unwrap().to_f64_vec().unwrap()
    };
    // Dimension keys are 0..rows, so a key is also its row index.
    let (holiday_of, f_holiday) = (
        column("date_dim", "holiday_id"),
        column("holiday_dim", "f_holiday"),
    );
    let (demo_of, f_demo) = (
        column("customer", "demo_id"),
        column("demographics", "f_demo"),
    );
    let (date_id, customer_id) = (
        column("store_sales", "date_id"),
        column("store_sales", "customer_id"),
    );
    let y = column("store_sales", "net_paid");
    // On the 1/8 grid, so every sum the trainer takes is exact.
    let target: Vec<f64> = (0..y.len())
        .map(|i| {
            let holiday = f_holiday[holiday_of[date_id[i] as usize] as usize];
            let demo = f_demo[demo_of[customer_id[i] as usize] as usize];
            let y = y[i]
                + 4000.0 * f64::from(u8::from(holiday > 500.0))
                + 2000.0 * f64::from(u8::from(demo > 500.0));
            (y * 8.0).floor() / 8.0
        })
        .collect();
    let mut tables = gen.tables.clone();
    let (_, fact) = tables.iter_mut().find(|(n, _)| n == "store_sales").unwrap();
    let y_idx = fact.resolve(None, "net_paid").unwrap();
    fact.columns[y_idx] = Column::float(target);

    let train = |backend: &dyn SqlBackend| -> GbmModel {
        for (name, t) in &tables {
            backend.create_table(name, t.clone()).unwrap();
        }
        let set = Dataset::new(backend, gen.graph.clone(), "store_sales", "net_paid").unwrap();
        let params = TrainParams {
            num_iterations: 3,
            learning_rate: 0.5,
            leaf_quantization: (2.0f64).powi(-10),
            ..Default::default()
        };
        train_gbm(&set, &params).unwrap()
    };
    let reference = train(&EngineBackend::in_memory());
    for tail in ["holiday_dim", "demographics"] {
        assert!(
            reference
                .trees
                .iter()
                .flat_map(|t| &t.nodes)
                .any(|n| n.split.as_ref().is_some_and(|s| s.relation == tail)),
            "the model must split on the chain tail {tail}"
        );
    }
    for shards in [1usize, 4] {
        let sharded =
            ShardedBackend::new(shards, EngineConfig::duckdb_mem(), "store_sales", "date_id");
        let model = train(&sharded);
        assert_bit_identical(&reference, &model, &format!("tpcds sharded x{shards}"));
        if shards > 1 {
            assert!(sharded.stats().rows_shipped > 0, "merging must move rows");
        }
    }
}

#[test]
fn histogram_binned_training_is_bit_identical_across_backends() {
    // Binned absorbs (`GROUP BY FLOOR(..)` with `MAX(f)` as the split
    // value) now fan out over sharded facts: the bin key rides in the
    // output and MAX/⊕ re-aggregate per bin on merge. The MAX merge is
    // exact (no arithmetic), so the dyadic recipe again forces bit
    // identity — which this test asserts against the engine path.
    let gen = workload();
    let train = |backend: &dyn SqlBackend| -> GbmModel {
        for (name, t) in &gen.tables {
            backend.create_table(name, t.clone()).unwrap();
        }
        backend
            .execute("UPDATE sales SET net_profit = FLOOR(net_profit * 8.0) / 8.0")
            .unwrap();
        let set = Dataset::new(backend, gen.graph.clone(), "sales", "net_profit").unwrap();
        let params = TrainParams {
            num_iterations: 3,
            learning_rate: 0.5,
            leaf_quantization: (2.0f64).powi(-10),
            max_bins: 12,
            ..Default::default()
        };
        train_gbm(&set, &params).unwrap()
    };
    let engine = EngineBackend::in_memory();
    let reference = train(&engine);
    assert!(reference.trees.iter().any(|t| t.num_leaves() > 1));
    for shards in [2usize, 4] {
        let sharded = ShardedBackend::new(shards, EngineConfig::duckdb_mem(), "sales", "items_id");
        sharded.set_pushdown_config(PushdownConfig {
            boundaries_per_shard: 4,
            min_rows: 0,
        });
        let model = train(&sharded);
        assert_bit_identical(&reference, &model, &format!("binned sharded x{shards}"));
    }
}

#[test]
fn sharded_backend_trains_random_forests_via_per_shard_samples() {
    // Forest row-sampling gathers only the sampled fact rows from the
    // shards that own them (`gather_rows`) instead of snapshotting whole
    // partitions — the ship-messages-not-scans path.
    let sharded = ShardedBackend::new(3, EngineConfig::duckdb_mem(), "sales", "stores_id");
    let gen = favorita(&FavoritaConfig {
        fact_rows: 600,
        dim_rows: 10,
        ..Default::default()
    });
    for (name, t) in &gen.tables {
        sharded.create_table(name, t.clone()).unwrap();
    }
    let set = Dataset::new(&sharded, gen.graph.clone(), "sales", "net_profit").unwrap();
    let before = sharded.stats().rows_shipped;
    let params = TrainParams {
        num_iterations: 3,
        bagging_fraction: 0.5,
        ..Default::default()
    };
    let model = joinboost::train_random_forest(&set, &params).unwrap();
    assert_eq!(model.trees.len(), 3);
    // 3 trees × 50 % of 600 fact rows = 900 sampled rows; the old
    // snapshot-gather path shipped the full 600 per tree *plus* the
    // sample materialization. Split-statistics shuffles still happen, so
    // just assert the sampling itself stayed proportional.
    let shipped = sharded.stats().rows_shipped - before;
    assert!(
        shipped < 3 * 600 + 2000,
        "sampling should not gather whole partitions ({shipped} rows shipped)"
    );
}
