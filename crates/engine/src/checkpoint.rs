//! Catalog checkpoints: the WAL-truncation story of the paged engine.
//!
//! Without a checkpoint the WAL is the *only* durable representation of
//! the database, so it grows without bound and `Database::open` replays
//! the entire history. A checkpoint snapshots the whole catalog (every
//! table's schema and column images, via the same checked codec as the
//! WAL and the page store) into a sidecar file `checkpoint.jbc`, after
//! which the log can be truncated to empty.
//!
//! Crash safety is by *atomic replacement*: the snapshot is written to
//! `checkpoint.jbc.tmp`, fsynced, renamed over `checkpoint.jbc`, and the
//! directory is fsynced — only then is the WAL truncated. Recovery loads
//! the checkpoint (if any) and replays the *whole* current WAL on top;
//! because WAL records are after-images, and a record references only a
//! table that a record of the same log created (see [`crate::wal`]),
//! replaying records that predate the checkpoint is idempotent. Every
//! crash window is covered:
//!
//! * crash while writing the tmp file — the torn tmp is ignored (and
//!   deleted at the next open); the previous checkpoint + full WAL
//!   recover the committed state;
//! * crash after the rename but before the WAL truncation — the new
//!   checkpoint + the full (now partly redundant) WAL replay to the
//!   same state;
//! * crash after the truncation — the new checkpoint alone is the
//!   committed state.
//!
//! A *corrupt* `checkpoint.jbc` (torn rename target) is impossible under
//! POSIX rename atomicity, so decode failures are reported as hard
//! errors rather than silently opening an empty database.

use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use crate::error::Result;
use crate::storage::codec::{self, ByteReader};
use crate::table::Table;

/// File name of the current checkpoint inside a paged database directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.jbc";
/// Scratch name the snapshot is written under before the atomic rename.
pub const CHECKPOINT_TMP: &str = "checkpoint.jbc.tmp";

const MAGIC: u32 = 0x4A42_4350; // "JBCP"
const VERSION: u32 = 1;

/// Streaming writer for a checkpoint snapshot: tables are appended one at
/// a time (so peak memory is one materialized table, not the catalog),
/// then [`CheckpointWriter::finish`] makes the snapshot durable and
/// atomically installs it.
pub struct CheckpointWriter {
    out: BufWriter<File>,
    tmp: PathBuf,
    dest: PathBuf,
    dir: PathBuf,
    bytes: u64,
    declared: u32,
    written: u32,
}

impl CheckpointWriter {
    /// Start a snapshot of `num_tables` tables in database directory `dir`.
    pub fn create(dir: &Path, num_tables: u32) -> Result<CheckpointWriter> {
        let tmp = dir.join(CHECKPOINT_TMP);
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp)?;
        let mut out = BufWriter::new(file);
        let mut header = Vec::with_capacity(12);
        header.extend_from_slice(&MAGIC.to_le_bytes());
        header.extend_from_slice(&VERSION.to_le_bytes());
        header.extend_from_slice(&num_tables.to_le_bytes());
        out.write_all(&header)?;
        Ok(CheckpointWriter {
            out,
            tmp,
            dest: dir.join(CHECKPOINT_FILE),
            dir: dir.to_path_buf(),
            bytes: header.len() as u64,
            declared: num_tables,
            written: 0,
        })
    }

    /// Append one table (name + schema + full column images).
    pub fn add_table(&mut self, name: &str, table: &Table) -> Result<()> {
        let mut buf = Vec::with_capacity(table.byte_size() + 64);
        codec::encode_named_table(&mut buf, name, table);
        self.out.write_all(&buf)?;
        self.bytes += buf.len() as u64;
        self.written += 1;
        Ok(())
    }

    /// fsync the snapshot, atomically rename it into place, and fsync the
    /// directory so the rename itself is durable. Only after this returns
    /// may the caller truncate the WAL. Returns the snapshot size.
    pub fn finish(mut self) -> Result<u64> {
        if self.written != self.declared {
            return Err(codec::corrupt("checkpoint table count mismatch"));
        }
        self.out.flush()?;
        self.out.get_ref().sync_data()?;
        fs::rename(&self.tmp, &self.dest)?;
        // Durability of the rename needs the directory entry flushed too;
        // without this, a crash could resurrect the *old* checkpoint after
        // the WAL was truncated — real data loss.
        sync_dir(&self.dir)?;
        Ok(self.bytes)
    }
}

/// fsync a directory (making renames/creates inside it durable).
fn sync_dir(dir: &Path) -> Result<()> {
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// Load the checkpoint in `dir`, if one exists. Also clears any torn
/// tmp file left by a crash mid-checkpoint. Returns the snapshot tables
/// in file order, or `None` when no checkpoint has ever completed.
/// Decode failures are hard errors (see module docs).
pub fn load(dir: &Path) -> Result<Option<Vec<(String, Table)>>> {
    let _ = fs::remove_file(dir.join(CHECKPOINT_TMP));
    let path = dir.join(CHECKPOINT_FILE);
    if !path.exists() {
        return Ok(None);
    }
    let mut bytes = Vec::new();
    File::open(&path)?.read_to_end(&mut bytes)?;
    let mut r = ByteReader::new(&bytes);
    if r.u32()? != MAGIC {
        return Err(codec::corrupt("checkpoint magic mismatch"));
    }
    if r.u32()? != VERSION {
        return Err(codec::corrupt("unsupported checkpoint version"));
    }
    let n = r.u32()? as usize;
    let mut tables = Vec::with_capacity(n);
    for _ in 0..n {
        tables.push(codec::decode_named_table(&mut r)?);
    }
    r.done()?;
    Ok(Some(tables))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("jb_ckpt_{}_{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn two_tables() -> Vec<(String, Table)> {
        vec![
            (
                "alpha".to_string(),
                Table::from_columns(vec![
                    ("k", Column::int(vec![1, 2, 3])),
                    ("v", Column::float(vec![0.5, -0.0, f64::MIN_POSITIVE / 2.0])),
                ]),
            ),
            (
                "beta".to_string(),
                Table::from_columns(vec![("s", Column::str(vec!["a".into(), "bb".into()]))]),
            ),
        ]
    }

    #[test]
    fn roundtrips_bit_exactly() {
        let dir = tmp_dir("roundtrip");
        let tables = two_tables();
        let mut w = CheckpointWriter::create(&dir, tables.len() as u32).unwrap();
        for (name, t) in &tables {
            w.add_table(name, t).unwrap();
        }
        w.finish().unwrap();
        let back = load(&dir).unwrap().expect("checkpoint exists");
        assert_eq!(back.len(), 2);
        for ((n0, t0), (n1, t1)) in tables.iter().zip(&back) {
            assert_eq!(n0, n1);
            assert_eq!(t0, t1, "bit-exact through the checkpoint");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_create_record_and_checkpoint_entry_are_the_same_bytes() {
        let dir = tmp_dir("same_framing");
        let table = Table::from_columns(vec![
            ("k", Column::int(vec![7, 8])),
            ("s", Column::str(vec!["x".into(), "yz".into()])),
            ("v", Column::float(vec![-0.0, 1.5])),
        ]);
        let wal_path = dir.join("wal.log");
        let mut wal = crate::wal::Wal::open(&wal_path).unwrap();
        wal.log_create_table("t", &table, &[]).unwrap();
        wal.flush().unwrap();
        let mut w = CheckpointWriter::create(&dir, 1).unwrap();
        w.add_table("t", &table).unwrap();
        w.finish().unwrap();
        // A WAL record is a kind byte and a u64 length ahead of its
        // payload; a checkpoint is a 12-byte header ahead of its entries.
        let wal_bytes = fs::read(&wal_path).unwrap();
        let ckpt_bytes = fs::read(dir.join(CHECKPOINT_FILE)).unwrap();
        assert_eq!(&wal_bytes[9..], &ckpt_bytes[12..]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_checkpoint_is_none_and_torn_tmp_is_cleared() {
        let dir = tmp_dir("none");
        fs::write(dir.join(CHECKPOINT_TMP), b"half a snapsho").unwrap();
        assert!(load(&dir).unwrap().is_none());
        assert!(!dir.join(CHECKPOINT_TMP).exists(), "torn tmp cleared");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unfinished_writer_installs_nothing() {
        let dir = tmp_dir("unfinished");
        let tables = two_tables();
        let mut w = CheckpointWriter::create(&dir, 2).unwrap();
        w.add_table("alpha", &tables[0].1).unwrap();
        drop(w); // crash before finish(): only the tmp file exists
        assert!(load(&dir).unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_checkpoint_is_a_hard_error() {
        let dir = tmp_dir("corrupt");
        fs::write(dir.join(CHECKPOINT_FILE), b"JBxx not a checkpoint").unwrap();
        assert!(load(&dir).is_err(), "silent empty open would be data loss");
        fs::remove_dir_all(&dir).unwrap();
    }
}
