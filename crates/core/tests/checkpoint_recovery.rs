//! WAL checkpointing under crashes: the log stays bounded, and a crash
//! at *any* byte offset — before, during, or after a checkpoint —
//! recovers exactly a committed statement prefix.
//!
//! Three attack angles:
//!
//! * **bounded log** — with a small `checkpoint_bytes` budget, a
//!   200-statement workload must never let `wal.log` grow past the
//!   budget plus one statement;
//! * **arbitrary post-checkpoint tears** (proptest) — the WAL suffix
//!   written after a checkpoint is cut at arbitrary byte offsets and
//!   reopen must recover the checkpoint plus the longest committed
//!   suffix prefix, never a torn half-statement;
//! * **crash windows inside the checkpoint itself** — a torn tmp
//!   snapshot is ignored, and the rename-installed-but-WAL-not-yet-
//!   truncated window replays the stale log idempotently onto the new
//!   snapshot.

use proptest::prelude::*;

use joinboost_engine::{Column, Database, EngineConfig, Table};

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

/// 200 statements against a small checkpoint budget: the log file must
/// stay under `budget + one statement` after every single statement, at
/// least one checkpoint must actually fire, and the final recovered
/// state must match an uncrashed in-memory reference bit for bit.
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
        for i in 0..200 {
            db.execute(&stmt(i)).unwrap();
            let log_len = std::fs::metadata(dir.join("wal.log")).unwrap().len();
            assert!(
                log_len <= budget + stmt_bytes,
                "after statement {i}: log is {log_len} bytes, budget {budget} + \
                 statement {stmt_bytes} exceeded"
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
/// checkpointed, then `post` statements in the WAL suffix. Returns the
/// suffix bytes so callers can tear them.
fn checkpointed_dir(name: &str, pre: &[String], post: &[String]) -> (std::path::PathBuf, Vec<u8>) {
    let dir = fresh_dir(name);
    {
        let db = Database::new(paged_with_budget(&dir, None));
        db.create_table("seed", seed_table()).unwrap();
        for s in pre {
            db.execute(s).unwrap();
        }
        db.checkpoint().unwrap();
        for s in post {
            db.execute(s).unwrap();
        }
    }
    let suffix = std::fs::read(dir.join("wal.log")).unwrap();
    (dir, suffix)
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

    /// Cut the post-checkpoint WAL suffix at an arbitrary byte offset
    /// (mid-record, mid-commit, anywhere) and reopen: recovery must land
    /// exactly on the checkpoint plus some committed prefix of the
    /// suffix — never before the checkpoint, never a torn statement.
    #[test]
    fn any_crash_offset_after_a_checkpoint_recovers_a_committed_prefix(frac in 0.0f64..=1.0) {
        let (dir, suffix) = checkpointed_dir("prop", &pre_script(), &post_script());
        let cut = ((suffix.len() as f64) * frac) as usize;
        std::fs::write(dir.join("wal.log"), &suffix[..cut.min(suffix.len())]).unwrap();
        let recovered = Database::new(paged_with_budget(&dir, None));
        let matched = (0..=post_script().len())
            .map(reference_state)
            .position(|r| same_state(&recovered, &r));
        prop_assert!(
            matched.is_some(),
            "cut at byte {cut}/{}: recovered state matches no committed prefix",
            suffix.len()
        );
        if cut == suffix.len() {
            prop_assert_eq!(matched.unwrap(), post_script().len(), "full suffix must replay fully");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Crash while the snapshot tmp file was being written: the torn tmp is
/// ignored (and cleared), and the previous checkpoint + full WAL recover
/// everything committed.
#[test]
fn torn_checkpoint_tmp_is_ignored_and_the_previous_state_recovers() {
    let (dir, _) = checkpointed_dir("torntmp", &pre_script(), &post_script());
    std::fs::write(dir.join("checkpoint.jbc.tmp"), b"half a snapshot, torn").unwrap();
    let recovered = Database::new(paged_with_budget(&dir, None));
    assert!(
        same_state(&recovered, &reference_state(post_script().len())),
        "torn tmp must not affect recovery"
    );
    assert!(
        !dir.join("checkpoint.jbc.tmp").exists(),
        "open must clear the torn tmp"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash *between* installing the new snapshot and truncating the WAL:
/// the stale log replays on top of the fresh checkpoint. After-images,
/// and references only to tables the log itself re-creates first, make
/// that idempotent, so the recovered state equals the checkpoint state
/// exactly.
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
        // Capture the log as it stood the instant before truncation …
        stale_wal = std::fs::read(dir.join("wal.log")).unwrap();
        db.checkpoint().unwrap();
    }
    // … and put it back: this is byte-for-byte the on-disk state of a
    // crash after the snapshot rename but before `truncate_to_empty`.
    std::fs::write(dir.join("wal.log"), &stale_wal).unwrap();
    let recovered = Database::new(paged_with_budget(&dir, None));
    assert!(
        same_state(&recovered, &reference_state(post_script().len())),
        "stale-WAL replay over the fresh snapshot must be idempotent"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The same window when the stale log itself began at an earlier
/// checkpoint: its statements read tables that checkpoint restored, and
/// later ones rewrite or drop them. A column passed through from such a
/// table is logged as an image, never as a reference: replayed over the
/// newer snapshot, a reference would name the table's final state, or a
/// table that is gone.
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
    let (dir, _) = checkpointed_dir("again", &pre_script(), &post_script()[..2]);
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
