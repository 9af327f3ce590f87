//! WAL checkpointing under crashes. A checkpoint compacts the log: it
//! writes a base (one statement creating every table, each page chain
//! imaged once) to `wal.log.tmp` and renames it over `wal.log`. So the
//! log stays bounded, and a crash at *any* byte offset — before, during,
//! or after a checkpoint — recovers exactly a committed statement prefix.
//!
//! Four attack angles:
//!
//! * **bounded log** — with a small `checkpoint_bytes` budget, a
//!   200-statement workload must never let `wal.log` grow past its base
//!   plus the budget plus one statement, and the base never outgrows the
//!   live tables' images;
//! * **arbitrary post-checkpoint tears** (proptest) — the log past the
//!   base is cut at arbitrary byte offsets and reopen must recover the
//!   base plus the longest committed prefix, never a torn half-statement;
//! * **crash windows around the rename** — a torn tmp is ignored, a stale
//!   log from before the rename replays to the same state, a directory
//!   that holds an earlier build's `checkpoint.jbc` is refused, and a
//!   damaged base is a hard error, never an empty database;
//! * **training across compactions** — a GBM on a paged engine that
//!   compacts several times trains bit-identically, survives a crash, and
//!   after each compaction rewrites the lifted fact by logging only the
//!   column it computed.

use parking_lot::Mutex;
use proptest::prelude::*;

use joinboost::backend::{BackendCapabilities, BackendResult, SqlBackend};
use joinboost::{train_gbm, Dataset, TrainParams};
use joinboost_datagen::{favorita, FavoritaConfig};
use joinboost_engine::storage::codec::{encode_stored_column, put_string, put_u32};
use joinboost_engine::storage::PAGE_CAPACITY;
use joinboost_engine::{Column, DataType, Database, EngineConfig, EngineError, Table};
use joinboost_sql::ast::Statement;

fn fresh_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("jb_ckptrec_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn seed_table() -> Table {
    Table::from_columns(vec![
        ("k", Column::int((0..64).collect())),
        (
            "v",
            Column::float((0..64).map(|i| i as f64 * 0.25).collect()),
        ),
    ])
}

fn paged_with_budget(dir: &std::path::Path, budget: Option<u64>) -> EngineConfig {
    EngineConfig {
        checkpoint_bytes: budget,
        ..EngineConfig::paged(dir)
    }
}

/// The storage image of a table: its name, then each column's name and
/// image, as a log record that images every column holds it.
fn image(name: &str, t: &Table) -> u64 {
    let mut out = Vec::new();
    put_string(&mut out, name);
    put_u32(&mut out, t.num_columns() as u32);
    for (m, c) in t.meta.iter().zip(&t.columns) {
        put_string(&mut out, &m.name);
        encode_stored_column(&mut out, c);
    }
    out.len() as u64
}

/// 200 statements against a small checkpoint budget. After every single
/// statement the log past its base stays under `budget + one statement`,
/// and the base (its size read from `checkpoint_bytes_written`) is no
/// larger than the images of the live tables. Many checkpoints must
/// actually fire, and the final recovered state must match an uncrashed
/// in-memory reference bit for bit.
#[test]
fn checkpoints_bound_the_log_across_200_statements() {
    let stmt = |i: usize| format!("UPDATE t SET v = v + {}.0 WHERE k > {}", i % 7, i % 50);

    // Measure one statement's log footprint with checkpointing disabled:
    // the workload is homogeneous UPDATEs over one table, so every
    // statement logs the same after-image size (± the predicate text).
    let probe_dir = fresh_dir("probe");
    let stmt_bytes = {
        let db = Database::new(paged_with_budget(&probe_dir, None));
        db.create_table("seed", seed_table()).unwrap();
        db.execute("CREATE TABLE t AS SELECT * FROM seed").unwrap();
        let before = db.stats().wal_bytes;
        db.execute(&stmt(0)).unwrap();
        db.stats().wal_bytes - before
    };
    let _ = std::fs::remove_dir_all(&probe_dir);
    assert!(stmt_bytes > 0, "probe statement must hit the WAL");

    // Budget: a handful of statements, so the workload checkpoints many
    // times rather than once at the end.
    let budget = stmt_bytes * 4;
    let dir = fresh_dir("bound");
    {
        let db = Database::new(paged_with_budget(&dir, Some(budget)));
        db.create_table("seed", seed_table()).unwrap();
        db.execute("CREATE TABLE t AS SELECT * FROM seed").unwrap();
        let (mut checkpoints, mut written, mut base) = (0, 0, 0);
        for i in 0..200 {
            db.execute(&stmt(i)).unwrap();
            let stats = db.stats();
            if stats.checkpoints > checkpoints {
                assert_eq!(stats.checkpoints, checkpoints + 1, "one per statement");
                base = stats.checkpoint_bytes_written - written;
                (checkpoints, written) = (stats.checkpoints, stats.checkpoint_bytes_written);
            }
            let log_len = std::fs::metadata(dir.join("wal.log")).unwrap().len();
            assert!(
                log_len - base <= budget + stmt_bytes,
                "after statement {i}: log is {log_len} bytes past a {base}-byte base, \
                 budget {budget} + statement {stmt_bytes} exceeded"
            );
            let images: u64 = ["seed", "t"]
                .iter()
                .map(|&n| image(n, &db.snapshot(n).unwrap()))
                .sum();
            assert!(
                base <= images,
                "after statement {i}: a {base}-byte base outgrew the live tables' \
                 {images}-byte images"
            );
        }
        let stats = db.stats();
        assert!(
            stats.checkpoints >= 10,
            "a 200-statement workload over a {budget}-byte budget must checkpoint \
             repeatedly, saw {}",
            stats.checkpoints
        );
        db.simulate_crash().unwrap();
    }

    let reference = Database::in_memory();
    reference.create_table("seed", seed_table()).unwrap();
    reference
        .execute("CREATE TABLE t AS SELECT * FROM seed")
        .unwrap();
    for i in 0..200 {
        reference.execute(&stmt(i)).unwrap();
    }
    let recovered = Database::new(paged_with_budget(&dir, Some(budget)));
    for name in ["seed", "t"] {
        assert_eq!(
            recovered.snapshot(name).unwrap(),
            reference.snapshot(name).unwrap(),
            "{name} diverged after crash recovery through checkpoints"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Build a directory whose state is: seed + `pre` statements,
/// checkpointed, then `post` statements in the WAL past the base.
/// Returns the log's bytes and the base's length so callers can tear
/// them.
fn checkpointed_dir(
    name: &str,
    pre: &[String],
    post: &[String],
) -> (std::path::PathBuf, Vec<u8>, usize) {
    let dir = fresh_dir(name);
    let base;
    {
        let db = Database::new(paged_with_budget(&dir, None));
        db.create_table("seed", seed_table()).unwrap();
        for s in pre {
            db.execute(s).unwrap();
        }
        db.checkpoint().unwrap();
        base = db.stats().checkpoint_bytes_written as usize;
        for s in post {
            db.execute(s).unwrap();
        }
    }
    let log = std::fs::read(dir.join("wal.log")).unwrap();
    (dir, log, base)
}

fn post_script() -> Vec<String> {
    vec![
        "CREATE TABLE u AS SELECT k, v * 2.0 AS w FROM t".to_string(),
        "UPDATE u SET w = w + 1.0 WHERE k < 20".to_string(),
        "UPDATE t SET v = v - 0.5 WHERE k > 30".to_string(),
        "DROP TABLE t".to_string(),
        "CREATE TABLE t AS SELECT k, w FROM u WHERE k < 48".to_string(),
    ]
}

fn pre_script() -> Vec<String> {
    vec![
        "CREATE TABLE t AS SELECT * FROM seed".to_string(),
        "UPDATE t SET v = v * 2.0".to_string(),
    ]
}

/// The uncrashed reference state after `pre` + the first `k` of `post`.
fn reference_state(k: usize) -> Database {
    let r = Database::in_memory();
    r.create_table("seed", seed_table()).unwrap();
    for s in &pre_script() {
        r.execute(s).unwrap();
    }
    for s in &post_script()[..k] {
        r.execute(s).unwrap();
    }
    r
}

fn same_state(a: &Database, b: &Database) -> bool {
    let mut an = a.table_names();
    an.sort();
    let mut bn = b.table_names();
    bn.sort();
    an == bn
        && an
            .iter()
            .all(|n| a.snapshot(n).unwrap() == b.snapshot(n).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Cut the log past its base at an arbitrary byte offset (mid-record,
    /// mid-commit, anywhere) and reopen: recovery must land exactly on the
    /// base plus some committed prefix of what followed it — never before
    /// the checkpoint, never a torn statement.
    #[test]
    fn any_crash_offset_after_a_checkpoint_recovers_a_committed_prefix(frac in 0.0f64..=1.0) {
        let (dir, log, base) = checkpointed_dir("prop", &pre_script(), &post_script());
        let cut = base + (((log.len() - base) as f64) * frac) as usize;
        std::fs::write(dir.join("wal.log"), &log[..cut.min(log.len())]).unwrap();
        let recovered = Database::new(paged_with_budget(&dir, None));
        let matched = (0..=post_script().len())
            .map(reference_state)
            .position(|r| same_state(&recovered, &r));
        prop_assert!(
            matched.is_some(),
            "cut at byte {cut}/{}: recovered state matches no committed prefix",
            log.len()
        );
        if cut == log.len() {
            prop_assert_eq!(matched.unwrap(), post_script().len(), "full suffix must replay fully");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Crash while the compacted log was being written: the torn tmp is
/// ignored (and cleared), and the log it would have replaced recovers
/// everything committed.
#[test]
fn torn_checkpoint_tmp_is_ignored_and_the_previous_state_recovers() {
    let (dir, ..) = checkpointed_dir("torntmp", &pre_script(), &post_script());
    std::fs::write(dir.join("wal.log.tmp"), b"half a base, torn").unwrap();
    let recovered = Database::new(paged_with_budget(&dir, None));
    assert!(
        same_state(&recovered, &reference_state(post_script().len())),
        "torn tmp must not affect recovery"
    );
    assert!(
        !dir.join("wal.log.tmp").exists(),
        "open must clear the torn tmp"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A log captured just before a checkpoint and put back over the
/// compacted one replays, on its own, to the state it recorded: the
/// checkpoint's state exactly.
#[test]
fn crash_between_snapshot_install_and_wal_truncation_is_idempotent() {
    let dir = fresh_dir("window");
    let stale_wal;
    {
        let db = Database::new(paged_with_budget(&dir, None));
        db.create_table("seed", seed_table()).unwrap();
        for s in &pre_script() {
            db.execute(s).unwrap();
        }
        for s in &post_script() {
            db.execute(s).unwrap();
        }
        // Capture the log as it stood the instant before the checkpoint …
        stale_wal = std::fs::read(dir.join("wal.log")).unwrap();
        db.checkpoint().unwrap();
    }
    // … and put it back: open replays that log alone.
    std::fs::write(dir.join("wal.log"), &stale_wal).unwrap();
    let recovered = Database::new(paged_with_budget(&dir, None));
    assert!(
        same_state(&recovered, &reference_state(post_script().len())),
        "stale-WAL replay over the fresh snapshot must be idempotent"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same when the log put back itself began at an earlier checkpoint:
/// its statements read tables that checkpoint's base holds, and later
/// ones rewrite or drop them. It replays from its own base to the state
/// it recorded.
#[test]
fn crash_window_replay_over_a_log_that_read_checkpointed_tables() {
    let post = [
        "CREATE TABLE u AS SELECT * FROM t",
        "UPDATE t SET v = v + 1.0",
        "CREATE TABLE w AS SELECT k FROM seed",
        "DROP TABLE seed",
    ];
    let dir = fresh_dir("window_refs");
    let stale_wal;
    {
        let db = Database::new(paged_with_budget(&dir, None));
        db.create_table("seed", seed_table()).unwrap();
        for s in &pre_script() {
            db.execute(s).unwrap();
        }
        db.checkpoint().unwrap();
        for s in post {
            db.execute(s).unwrap();
        }
        stale_wal = std::fs::read(dir.join("wal.log")).unwrap();
        db.checkpoint().unwrap();
    }
    std::fs::write(dir.join("wal.log"), &stale_wal).unwrap();
    let recovered = Database::new(paged_with_budget(&dir, None));
    let reference = reference_state(0);
    for s in post {
        reference.execute(s).unwrap();
    }
    assert!(
        same_state(&recovered, &reference),
        "stale-WAL replay diverged"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writes after a checkpoint-recovery cycle survive their own crash:
/// checkpoint → crash → recover → write → crash → recover again.
#[test]
fn post_checkpoint_recovery_writes_survive_the_next_crash() {
    let (dir, ..) = checkpointed_dir("again", &pre_script(), &post_script()[..2]);
    {
        let db = Database::new(paged_with_budget(&dir, None));
        db.execute("CREATE TABLE extra AS SELECT k FROM u WHERE k < 7")
            .unwrap();
        db.simulate_crash().unwrap();
    }
    let db = Database::new(paged_with_budget(&dir, None));
    assert_eq!(db.row_count("extra").unwrap(), 7);
    assert_eq!(
        db.snapshot("u").unwrap(),
        reference_state(2).snapshot("u").unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A table and its `SELECT *` copy share every page chain, and the base
/// images each chain once: the copy's columns are references. They
/// share the chains again after a crash and reopen.
#[test]
fn a_select_star_copy_images_its_shared_chains_once() {
    let dir = fresh_dir("copy");
    let a = Table::from_columns(vec![
        (
            "k",
            Column::int((0..2000).map(|i| i * 7919 % 100_003).collect()),
        ),
        (
            "v",
            Column::float((0..2000).map(|i| i as f64 / 3.0).collect()),
        ),
    ]);
    let written = {
        let db = Database::new(paged_with_budget(&dir, None));
        db.create_table("a", a.clone()).unwrap();
        db.execute("CREATE TABLE b AS SELECT * FROM a").unwrap();
        db.checkpoint().unwrap();
        let written = db.stats().checkpoint_bytes_written;
        let images = image("a", &a) + image("b", &a);
        assert!(
            written < images,
            "a {written}-byte base for two tables whose images total {images} bytes"
        );
        db.simulate_crash().unwrap();
        written
    };
    // Replay gives `b` the columns of `a`, so the reopened store writes
    // each chain once, for both tables, and the next base is the same.
    let db = Database::new(paged_with_budget(&dir, None));
    let pages: usize = (a.columns.iter())
        .map(|c| {
            let mut bytes = Vec::new();
            encode_stored_column(&mut bytes, c);
            bytes.len().div_ceil(PAGE_CAPACITY)
        })
        .sum();
    let stats = db.bufferpool_stats().unwrap();
    assert_eq!(stats.misses, pages as u64, "a and b share each chain");
    assert_eq!(db.snapshot("a").unwrap(), a);
    assert_eq!(db.snapshot("b").unwrap(), a);
    db.checkpoint().unwrap();
    assert_eq!(db.stats().checkpoint_bytes_written, written);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The budget counts bytes past the base. With a budget smaller than the
/// database's image, and smaller than one column's, statements that pass
/// that column through log only a reference to it, also right after a
/// checkpoint, so the log does not compact after every statement.
#[test]
fn a_budget_below_the_database_image_does_not_checkpoint_every_statement() {
    let dir = fresh_dir("small_budget");
    let seed = Table::from_columns(vec![
        ("k", Column::int((0..4000).map(|i| i << 30 | i).collect())),
        ("v", Column::float((0..4000).map(|i| i as f64).collect())),
    ]);
    let mut k_image = Vec::new();
    encode_stored_column(&mut k_image, &seed.columns[0]);
    let budget = k_image.len() as u64 / 2;
    let db = Database::new(paged_with_budget(&dir, Some(budget)));
    db.create_table("seed", seed).unwrap();
    assert_eq!(
        db.stats().checkpoints,
        1,
        "the bulk load crossed the budget"
    );
    for _ in 0..20 {
        db.execute("CREATE OR REPLACE TABLE c AS SELECT k FROM seed")
            .unwrap();
    }
    let stats = db.stats();
    assert_eq!(
        stats.checkpoints, 1,
        "20 references are far below the budget"
    );
    assert!(
        stats.wal_bytes < budget,
        "{} bytes past the base",
        stats.wal_bytes
    );
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The base is renamed into place only once it is durable, so damage
/// inside it is corruption: open fails with `Corrupt` and leaves the log
/// as it found it, rather than opening the empty database an unreadable
/// log would otherwise replay to.
#[test]
fn a_flipped_byte_in_the_base_is_corrupt_never_an_empty_database() {
    let (dir, log, base) = checkpointed_dir("flip", &pre_script(), &[]);
    assert_eq!(log.len(), base, "nothing past the base");
    // The base record: a kind byte and a u64 length (bytes 0..9). Then
    // `seed`'s `CreateTable`: a 9-byte header, the name (4 + 4), a column
    // count (4), the first column's name (4 + 1), then its image: a data
    // tag and a u64 row count.
    let tag = 9 + 9 + 8 + 4 + 5;
    let flipped = [0, 8, tag, tag + 8].map(|at| {
        let mut flipped = log.clone();
        flipped[at] ^= 0x80;
        (format!("byte {at}"), flipped)
    });
    let garbage = ("garbage".to_string(), b"JBxx not a checkpoint".to_vec());
    for (what, damaged) in flipped.into_iter().chain([garbage]) {
        std::fs::write(dir.join("wal.log"), &damaged).unwrap();
        match Database::open(paged_with_budget(&dir, None)) {
            Err(EngineError::Corrupt(_)) => {}
            Err(e) => panic!("{what}: {e}"),
            Ok(db) => panic!("{what}: opened with tables {:?}", db.table_names()),
        }
        assert_eq!(
            std::fs::read(dir.join("wal.log")).unwrap(),
            damaged,
            "{what}: open must not cut the log"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Earlier builds checkpointed to a `checkpoint.jbc` snapshot and kept
/// only the statements past it in the log. Open refuses a directory that
/// holds one, naming the file, and leaves both files as it found them:
/// replaying the log alone would drop every table the snapshot held.
#[test]
fn a_directory_with_a_legacy_checkpoint_is_refused_by_name() {
    let (dir, log, _) = checkpointed_dir("legacy", &pre_script(), &post_script()[..2]);
    let snapshot = b"JBCP: a snapshot of an earlier build".to_vec();
    std::fs::write(dir.join("checkpoint.jbc"), &snapshot).unwrap();
    match Database::open(paged_with_budget(&dir, None)) {
        Err(EngineError::Corrupt(m)) => assert!(m.contains("checkpoint.jbc"), "{m}"),
        Err(e) => panic!("{e}"),
        Ok(db) => panic!("opened with tables {:?}", db.table_names()),
    }
    assert_eq!(std::fs::read(dir.join("wal.log")).unwrap(), log);
    assert_eq!(std::fs::read(dir.join("checkpoint.jbc")).unwrap(), snapshot);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The engine as a training backend that records, for every `CREATE OR
/// REPLACE TABLE` (the trainer's residual rewrite), the checkpoints taken
/// before it, whether it took one itself, and the WAL bytes it logged.
struct Watched<'a> {
    db: &'a Database,
    rewrites: Mutex<Vec<Rewrite>>,
}

struct Rewrite {
    table: String,
    checkpoints: u64,
    compacted: bool,
    logged: u64,
}

impl SqlBackend for Watched<'_> {
    fn name(&self) -> &str {
        "watched"
    }

    fn capabilities(&self) -> BackendCapabilities {
        BackendCapabilities::of_engine(self.db.config())
    }

    fn execute(&self, sql: &str) -> BackendResult {
        self.db.execute(sql)
    }

    fn execute_ast(&self, stmt: &Statement) -> BackendResult {
        let before = self.db.stats();
        let out = self.db.execute_statement(stmt)?;
        if let Statement::CreateTableAs {
            name,
            or_replace: true,
            ..
        } = stmt
        {
            let after = self.db.stats();
            self.rewrites.lock().push(Rewrite {
                table: name.clone(),
                checkpoints: before.checkpoints,
                compacted: after.checkpoints != before.checkpoints,
                logged: after.wal_bytes.wrapping_sub(before.wal_bytes),
            });
        }
        Ok(out)
    }

    fn create_table(&self, name: &str, table: Table) -> BackendResult<()> {
        self.db.create_table(name, table)
    }

    fn snapshot(&self, name: &str) -> BackendResult<Table> {
        self.db.snapshot(name)
    }

    fn column_names(&self, table: &str) -> BackendResult<Vec<String>> {
        self.db.column_names(table)
    }

    fn column_dtype(&self, table: &str, column: &str) -> BackendResult<DataType> {
        self.db.column_dtype(table, column)
    }

    fn has_table(&self, name: &str) -> bool {
        self.db.has_table(name)
    }

    fn row_count(&self, name: &str) -> BackendResult<usize> {
        self.db.row_count(name)
    }
}

/// A GBM trained on a paged engine whose budget compacts the log several
/// times during training: the model is bit-identical to `duckdb_mem`'s,
/// the lifted fact survives a crash, and the first residual rewrite after
/// each compaction logs less than one image of the columns it passes
/// through, because the base's tables can be referenced.
#[test]
fn gbm_across_compactions_is_bit_identical_and_rewrites_log_one_column() {
    let gen = favorita(&FavoritaConfig {
        fact_rows: 2500,
        dim_rows: 25,
        noise: 1.0,
        ..Default::default()
    });
    let params = TrainParams {
        num_iterations: 8,
        ..Default::default()
    };
    let reference = {
        let db = Database::new(EngineConfig::duckdb_mem());
        gen.load_into(&db).unwrap();
        let set = Dataset::new(&db, gen.graph.clone(), "sales", "net_profit").unwrap();
        train_gbm(&set, &params).unwrap()
    };

    let dir = fresh_dir("gbm");
    let config = paged_with_budget(&dir, Some(48 << 10));
    let db = Database::new(config.clone());
    gen.load_into(&db).unwrap();
    let watched = Watched {
        db: &db,
        rewrites: Mutex::new(Vec::new()),
    };
    let start = db.stats().checkpoints;
    let mut set = Dataset::new(&watched, gen.graph.clone(), "sales", "net_profit").unwrap();
    let model = train_gbm(&set, &params).unwrap();
    set.keep_temp_tables = true;
    drop(set);
    assert_eq!(reference.trees, model.trees, "compaction changed the model");
    assert_eq!(reference.init_score.to_bits(), model.init_score.to_bits());
    let rewrites = watched.rewrites.into_inner();
    let lifted = rewrites
        .last()
        .expect("the trainer rewrote the fact")
        .table
        .clone();
    assert!(
        db.stats().checkpoints >= start + 3,
        "training must compact several times, took {}",
        db.stats().checkpoints - start
    );

    // Every column but the residual passes through each rewrite.
    let before_crash = db.snapshot(&lifted).unwrap();
    let pass_through: u64 = (before_crash.meta.iter().zip(&before_crash.columns))
        .filter(|(m, _)| !m.name.eq_ignore_ascii_case("jb_s"))
        .map(|(_, c)| {
            let mut out = Vec::new();
            encode_stored_column(&mut out, c);
            out.len() as u64
        })
        .sum();
    let mut checked = 0;
    for (i, r) in rewrites.iter().enumerate() {
        let first_after =
            r.checkpoints > start && (i == 0 || rewrites[i - 1].checkpoints < r.checkpoints);
        if !first_after {
            continue;
        }
        assert!(
            !r.compacted && r.logged < pass_through,
            "rewrite {i} after checkpoint {}: logged {} bytes (compacted: {}), the \
             pass-through columns' image is {pass_through}",
            r.checkpoints,
            r.logged,
            r.compacted
        );
        checked += 1;
    }
    assert!(
        checked >= 2,
        "only {checked} rewrites followed a compaction"
    );

    db.simulate_crash().unwrap();
    drop(db);
    let reopened = Database::new(config);
    assert_eq!(reopened.snapshot(&lifted).unwrap(), before_crash);
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}
