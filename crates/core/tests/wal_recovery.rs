//! Crash safety of the paged engine, attacked at three granularities:
//!
//! * **statement-level crashes** — a scripted statement sequence is cut
//!   at every point, the process "dies" ([`Database::simulate_crash`]
//!   discards unsynced WAL bytes exactly as a power loss would), and the
//!   reopened database must hold *bit-for-bit* the tables an uncrashed
//!   in-memory engine holds after the same prefix;
//! * **torn WAL tails** — the log file is truncated at arbitrary byte
//!   offsets (mid-record, mid-commit) and reopen must still succeed,
//!   recovering exactly the longest committed prefix;
//! * **end to end** — a GBM trained on a crashed-and-recovered paged
//!   database matches the uncrashed in-memory reference bit for bit.
//!
//! This is also the regression test for the paged configuration's
//! durability default: commits fsync (`Wal::sync` on), so work finished
//! before a crash is never lost — which `statement_level_crashes` would
//! catch immediately if the default regressed.

use joinboost::backend::{EngineBackend, SqlBackend};
use joinboost::{train_gbm, Dataset, GbmModel, TrainParams};
use joinboost_datagen::{favorita, FavoritaConfig};
use joinboost_engine::{Database, EngineConfig};

fn fresh_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("jb_walrec_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A deterministic mixed write script over small tables. A column that
/// a `CREATE TABLE AS` passes through is logged as a reference to the
/// table it came from, so the script also covers references: to a table
/// a later statement drops (`u.k` from `t`, `p.w` from `c`), a
/// self-replace (`u`), and a copy (`c`) whose column a later `UPDATE`
/// stops sharing with its source.
fn script() -> Vec<String> {
    let mut s: Vec<String> = [
        "CREATE TABLE t AS SELECT * FROM seed",
        "UPDATE t SET v = v * 2.0",
        "CREATE TABLE u AS SELECT k, v * 0.5 AS w FROM t",
        "UPDATE u SET w = w + 1.0 WHERE k < 40",
        "DROP TABLE t",
        "CREATE TABLE t AS SELECT k, w FROM u WHERE k < 70",
        "UPDATE t SET w = FLOOR(w * 8.0) / 8.0",
        "CREATE OR REPLACE TABLE u AS SELECT k, w + 1.0 AS w FROM u",
        "CREATE TABLE c AS SELECT * FROM u",
        "UPDATE c SET w = w * 3.0 WHERE k > 50",
        "CREATE TABLE p AS SELECT w, k FROM c",
        "DROP TABLE c",
    ]
    .map(String::from)
    .to_vec();
    for i in 0..4 {
        s.push(format!("UPDATE u SET w = w + {i}.0 WHERE k > {}", i * 17));
    }
    s
}

fn seed_table() -> joinboost_engine::Table {
    joinboost_engine::Table::from_columns(vec![
        ("k", joinboost_engine::Column::int((0..100).collect())),
        (
            "v",
            joinboost_engine::Column::float((0..100).map(|i| i as f64 * 0.125).collect()),
        ),
    ])
}

/// Cheap deterministic PRNG for crash points (no `rand` in this list of
/// dev-deps; splitmix64 is plenty).
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

fn assert_same_tables(recovered: &Database, reference: &Database, who: &str) {
    let mut names = recovered.table_names();
    names.sort();
    let mut expect = reference.table_names();
    expect.sort();
    assert_eq!(names, expect, "{who}: catalog diverged");
    for name in &names {
        let a = recovered.snapshot(name).unwrap();
        let b = reference.snapshot(name).unwrap();
        assert_eq!(a.num_rows(), b.num_rows(), "{who}: {name} rows");
        assert_eq!(a.meta, b.meta, "{who}: {name} schema");
        for (ca, cb) in a.columns.iter().zip(&b.columns) {
            assert_eq!(ca, cb, "{who}: {name} column diverged");
        }
    }
}

/// Crash after every statement prefix: the recovered database must be
/// bit-identical to an in-memory engine that executed the same prefix.
#[test]
fn statement_level_crashes_lose_nothing_committed() {
    let script = script();
    for crash_at in 0..=script.len() {
        let dir = fresh_dir(&format!("stmt{crash_at}"));
        {
            let db = Database::new(EngineConfig::paged(&dir));
            db.create_table("seed", seed_table()).unwrap();
            for stmt in &script[..crash_at] {
                db.execute(stmt).unwrap();
            }
            // Die without any flush/close path.
            db.simulate_crash().unwrap();
        }
        let reference = Database::in_memory();
        reference.create_table("seed", seed_table()).unwrap();
        for stmt in &script[..crash_at] {
            reference.execute(stmt).unwrap();
        }
        let recovered = Database::new(EngineConfig::paged(&dir));
        assert_same_tables(&recovered, &reference, &format!("crash after {crash_at}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Truncate the WAL at randomized byte offsets — including mid-record
/// and mid-commit — and reopen. Every cut must (a) open cleanly and
/// (b) recover a state an uncrashed engine reaches after some statement
/// prefix (never a torn half-statement).
#[test]
fn torn_wal_tails_recover_a_committed_prefix() {
    let script = script();
    let dir = fresh_dir("torn_src");
    {
        let db = Database::new(EngineConfig::paged(&dir));
        db.create_table("seed", seed_table()).unwrap();
        for stmt in &script {
            db.execute(stmt).unwrap();
        }
    }
    let wal_bytes = std::fs::read(dir.join("wal.log")).unwrap();
    assert!(wal_bytes.len() > 100, "script must produce a real log");

    // Every reachable state: empty (cut before the seed load committed),
    // then the seed plus each statement prefix.
    let mut states: Vec<Database> = vec![Database::in_memory()];
    states.extend((0..=script.len()).map(|k| {
        let r = Database::in_memory();
        r.create_table("seed", seed_table()).unwrap();
        for stmt in &script[..k] {
            r.execute(stmt).unwrap();
        }
        r
    }));

    let mut rng = Rng(0x5EED);
    let mut cuts: Vec<usize> = (0..24)
        .map(|_| (rng.next() as usize) % wal_bytes.len())
        .collect();
    cuts.push(0);
    cuts.push(wal_bytes.len());
    cuts.push(wal_bytes.len() - 1); // tear the final commit record
    for (i, &cut) in cuts.iter().enumerate() {
        let d = fresh_dir(&format!("torn{i}"));
        std::fs::create_dir_all(&d).unwrap();
        std::fs::write(d.join("wal.log"), &wal_bytes[..cut]).unwrap();
        let recovered = Database::new(EngineConfig::paged(&d));
        let matched = states.iter().enumerate().find(|(_, r)| {
            let mut a = recovered.table_names();
            a.sort();
            let mut b = r.table_names();
            b.sort();
            if a != b {
                return false;
            }
            a.iter().all(|n| {
                let (x, y) = (recovered.snapshot(n).unwrap(), r.snapshot(n).unwrap());
                x == y
            })
        });
        let (k, matched_ref) = matched
            .unwrap_or_else(|| panic!("cut at byte {cut}: state matches no statement prefix"));
        assert_same_tables(&recovered, matched_ref, &format!("cut {cut} (prefix {k})"));
        // A full-length log must recover everything.
        if cut == wal_bytes.len() {
            assert_eq!(k, states.len() - 1, "full log must replay fully");
        }
        let _ = std::fs::remove_dir_all(&d);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// After the log is torn and recovered, the WAL must *resume* cleanly:
/// new statements land after the surviving prefix and survive their own
/// crash in turn.
#[test]
fn writes_after_recovery_survive_the_next_crash() {
    let dir = fresh_dir("resume");
    {
        let db = Database::new(EngineConfig::paged(&dir));
        db.create_table("seed", seed_table()).unwrap();
        db.execute("CREATE TABLE t AS SELECT * FROM seed").unwrap();
        db.simulate_crash().unwrap();
    }
    // Tear the log mid-tail, recover, write more, crash again.
    let wal_path = dir.join("wal.log");
    let bytes = std::fs::read(&wal_path).unwrap();
    std::fs::write(&wal_path, &bytes[..bytes.len() - 3]).unwrap();
    {
        let db = Database::new(EngineConfig::paged(&dir));
        assert!(db.has_table("seed"), "committed seed must survive the tear");
        db.execute("CREATE TABLE again AS SELECT k FROM seed WHERE k < 5")
            .unwrap();
        // A copy of a table replay rebuilt is logged as references to it.
        db.execute("CREATE TABLE copy AS SELECT * FROM seed")
            .unwrap();
        db.simulate_crash().unwrap();
    }
    let db = Database::new(EngineConfig::paged(&dir));
    assert!(db.has_table("seed"));
    assert!(db.has_table("again"), "post-recovery write was committed");
    assert_eq!(db.row_count("again").unwrap(), 5);
    assert_eq!(db.snapshot("copy").unwrap(), seed_table());
    let _ = std::fs::remove_dir_all(&dir);
}

/// End to end: load + quantize on a paged engine, crash, reopen the same
/// directory, then train — the model must match an uncrashed in-memory
/// reference bit for bit.
#[test]
fn post_recovery_training_matches_the_uncrashed_reference() {
    let gen = favorita(&FavoritaConfig {
        fact_rows: 3000,
        dim_rows: 30,
        noise: 1.0,
        ..Default::default()
    });
    let params = TrainParams {
        num_iterations: 4,
        learning_rate: 0.5,
        leaf_quantization: (2.0f64).powi(-10),
        ..Default::default()
    };
    let train = |backend: &EngineBackend| -> GbmModel {
        let set = Dataset::new(backend, gen.graph.clone(), "sales", "net_profit").unwrap();
        train_gbm(&set, &params).unwrap()
    };
    let load = |backend: &EngineBackend| {
        for (name, t) in &gen.tables {
            backend.create_table(name, t.clone()).unwrap();
        }
        backend
            .execute("UPDATE sales SET net_profit = FLOOR(net_profit * 8.0) / 8.0")
            .unwrap();
    };

    let reference = {
        let mem = EngineBackend::in_memory();
        load(&mem);
        train(&mem)
    };

    let dir = fresh_dir("e2e");
    {
        let victim = EngineBackend::new(EngineConfig::paged(&dir));
        load(&victim);
        victim.database().simulate_crash().unwrap();
    }
    let recovered = EngineBackend::new(EngineConfig::paged(&dir));
    assert_eq!(
        recovered.database().row_count("sales").unwrap(),
        3000,
        "fact survived the crash"
    );
    let model = train(&recovered);
    assert_eq!(
        reference.init_score.to_bits(),
        model.init_score.to_bits(),
        "init score diverged after recovery"
    );
    assert_eq!(reference.trees.len(), model.trees.len());
    for (i, (a, b)) in reference.trees.iter().zip(&model.trees).enumerate() {
        assert_eq!(a.nodes.len(), b.nodes.len(), "tree {i} shape");
        for (na, nb) in a.nodes.iter().zip(&b.nodes) {
            assert_eq!(na.split, nb.split, "tree {i} split");
            assert_eq!(na.value.to_bits(), nb.value.to_bits(), "tree {i} value");
            assert_eq!(na.weight.to_bits(), nb.weight.to_bits(), "tree {i} weight");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
