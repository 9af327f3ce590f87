//! Write-ahead log.
//!
//! Disk-backed engine configurations log every write (full after-images:
//! column images for updates, whole-table images for created tables)
//! before applying it — the paper calls WAL out as one of the fundamental
//! DBMS mechanisms that make residual updates slow. The log format is a
//! simple length-prefixed record stream; column payloads are the shared
//! checked codec's storage image ([`crate::storage::codec`]), the same
//! bytes the page store and checkpoints write.
//!
//! The paged (out-of-core) engine additionally makes the log *the*
//! durability story: every write statement ends with a [`RecordKind::Commit`]
//! record, and a paged engine fsyncs on commit (`sync = true` — the
//! non-paged disk configurations keep the paper's lowest recovery level
//! and never fsync). On open, [`replay`] decodes the committed prefix of
//! an existing log — tolerating a torn tail from a crash — and the engine
//! rebuilds every committed table from it (see `Database::open`).

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::column::Column;
use crate::error::Result;
use crate::storage::codec::{self, ByteReader};
use crate::table::Table;

/// Record kinds in the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RecordKind {
    /// Full-column after-image of an `UPDATE`.
    UpdateColumn = 1,
    /// `CREATE TABLE` with its initial contents (column names + images).
    CreateTable = 2,
    /// `DROP TABLE`.
    DropTable = 3,
    /// Statement boundary: everything logged since the previous commit is
    /// durable as a unit. Replay discards an uncommitted tail.
    Commit = 4,
}

/// One decoded log record (the unit [`replay`] returns).
#[derive(Debug, Clone)]
pub enum WalRecord {
    /// Full-column after-image of an `UPDATE`.
    UpdateColumn {
        /// Table name as logged.
        table: String,
        /// Column name as logged.
        column: String,
        /// The after-image.
        after: Column,
    },
    /// A created table with its full contents.
    CreateTable {
        /// Table name as logged.
        name: String,
        /// The table image (column names + data).
        table: Table,
    },
    /// A dropped table.
    DropTable {
        /// Table name as logged.
        name: String,
    },
    /// Statement boundary.
    Commit,
}

/// The write-ahead log. When constructed without a path it still encodes
/// every record (so the CPU cost of logging is paid) but discards the
/// bytes — this models a `minimum logging` configuration.
pub struct Wal {
    writer: Option<BufWriter<File>>,
    /// fsync after every commit record (off by default; the paper sets
    /// recovery to the lowest level — the paged engine turns this on).
    pub sync: bool,
    /// Total bytes encoded (whether or not they hit disk).
    pub bytes_logged: u64,
    /// Number of records logged.
    pub records: u64,
    /// Bytes known durable (through the last fsync). Crash simulation
    /// truncates the file back to this offset.
    synced_bytes: u64,
}

impl Wal {
    /// In-memory (encode-only) log.
    pub fn disabled() -> Wal {
        Wal {
            writer: None,
            sync: false,
            bytes_logged: 0,
            records: 0,
            synced_bytes: 0,
        }
    }

    /// Log to a file at `path` (truncates any existing log).
    pub fn open(path: &Path) -> Result<Wal> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        Ok(Wal {
            writer: Some(BufWriter::new(file)),
            sync: false,
            bytes_logged: 0,
            records: 0,
            synced_bytes: 0,
        })
    }

    /// Reopen an existing log for appending, first truncating it to
    /// `committed_len` (the durable prefix [`replay`] identified) so a
    /// torn tail never precedes fresh records. `records` seeds the
    /// record counter with the replayed count.
    pub fn open_append(path: &Path, committed_len: u64, records: u64) -> Result<Wal> {
        // Not `truncate(true)`: the committed prefix must survive; only
        // the torn tail past `committed_len` is cut by `set_len`.
        let file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(path)?;
        file.set_len(committed_len)?;
        let mut file = file;
        file.seek(SeekFrom::Start(committed_len))?;
        Ok(Wal {
            writer: Some(BufWriter::new(file)),
            sync: false,
            bytes_logged: committed_len,
            records,
            synced_bytes: committed_len,
        })
    }

    fn write_record(&mut self, kind: RecordKind, payload: &[u8]) -> Result<()> {
        self.bytes_logged += payload.len() as u64 + 9;
        self.records += 1;
        if let Some(w) = &mut self.writer {
            w.write_all(&[kind as u8])?;
            w.write_all(&(payload.len() as u64).to_le_bytes())?;
            w.write_all(payload)?;
            if self.sync && kind == RecordKind::Commit {
                w.flush()?;
                w.get_ref().sync_data()?;
                self.synced_bytes = self.bytes_logged;
            }
        }
        Ok(())
    }

    /// Log a full-column update (before-image is handled by the undo log;
    /// the WAL carries the after-image, as in redo logging).
    pub fn log_update_column(&mut self, table: &str, column: &str, after: &Column) -> Result<()> {
        let mut buf = Vec::with_capacity(after.byte_size() + 64);
        codec::put_string(&mut buf, table);
        codec::put_string(&mut buf, column);
        codec::encode_stored_column(&mut buf, after);
        self.write_record(RecordKind::UpdateColumn, &buf)
    }

    /// Log the creation of a table (column names + full images, so replay
    /// can rebuild the table without any other source of schema).
    pub fn log_create_table(&mut self, name: &str, table: &Table) -> Result<()> {
        let mut buf = Vec::with_capacity(table.byte_size() + 64);
        codec::encode_named_table(&mut buf, name, table);
        self.write_record(RecordKind::CreateTable, &buf)
    }

    /// Log a table drop.
    pub fn log_drop_table(&mut self, table: &str) -> Result<()> {
        let mut buf = Vec::new();
        codec::put_string(&mut buf, table);
        self.write_record(RecordKind::DropTable, &buf)
    }

    /// Log a statement boundary (fsyncs when `sync` is set).
    pub fn log_commit(&mut self) -> Result<()> {
        self.write_record(RecordKind::Commit, &[])
    }

    /// After a checkpoint has made the log's contents redundant, cut the
    /// log back to empty and reset all counters. fsyncs the truncation so
    /// a subsequent crash cannot resurrect pre-checkpoint records on top
    /// of the new snapshot.
    pub fn truncate_to_empty(&mut self) -> Result<()> {
        if let Some(w) = &mut self.writer {
            w.flush()?;
            let file = w.get_mut();
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.sync_data()?;
        }
        self.bytes_logged = 0;
        self.records = 0;
        self.synced_bytes = 0;
        Ok(())
    }

    /// Flush any buffered bytes to the OS.
    pub fn flush(&mut self) -> Result<()> {
        if let Some(w) = &mut self.writer {
            w.flush()?;
        }
        Ok(())
    }

    /// Test hook: model a process crash. Buffered (never-flushed) bytes
    /// are dropped on the floor and the file is truncated back to the
    /// last fsync — exactly the state a real crash can leave behind. The
    /// log is unusable afterwards (further appends are discarded).
    pub fn simulate_crash(&mut self) -> Result<()> {
        if let Some(w) = self.writer.take() {
            let (file, _lost_buffer) = w.into_parts();
            file.set_len(self.synced_bytes)?;
            file.sync_data()?;
        }
        Ok(())
    }
}

/// Decode the committed prefix of a log file. Returns the committed
/// records in order (uncommitted or torn trailing records are discarded,
/// never an error — that is the crash contract) plus the byte offset of
/// the durable prefix and the number of records in it.
pub fn replay(path: &Path) -> Result<(Vec<WalRecord>, u64, u64)> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let mut committed: Vec<WalRecord> = Vec::new();
    let mut pending: Vec<WalRecord> = Vec::new();
    let mut committed_len = 0u64;
    let mut committed_records = 0u64;
    let mut pending_records = 0u64;
    let mut pos = 0usize;
    loop {
        // Record header: kind u8, payload_len u64 LE.
        if bytes.len() - pos < 9 {
            break;
        }
        let kind = bytes[pos];
        let len = u64::from_le_bytes(bytes[pos + 1..pos + 9].try_into().expect("8 bytes")) as usize;
        if bytes.len() - pos - 9 < len {
            break; // torn record
        }
        let payload = &bytes[pos + 9..pos + 9 + len];
        let Ok(record) = decode_record(kind, payload) else {
            break; // corrupt record: everything from here on is suspect
        };
        pos += 9 + len;
        pending_records += 1;
        let is_commit = matches!(record, WalRecord::Commit);
        pending.push(record);
        if is_commit {
            committed.append(&mut pending);
            committed_len = pos as u64;
            committed_records += pending_records;
            pending_records = 0;
        }
    }
    Ok((committed, committed_len, committed_records))
}

fn decode_record(kind: u8, payload: &[u8]) -> Result<WalRecord> {
    let mut r = ByteReader::new(payload);
    let record = match kind {
        k if k == RecordKind::UpdateColumn as u8 => WalRecord::UpdateColumn {
            table: r.string()?,
            column: r.string()?,
            after: codec::decode_column(&mut r)?,
        },
        k if k == RecordKind::CreateTable as u8 => {
            let (name, table) = codec::decode_named_table(&mut r)?;
            WalRecord::CreateTable { name, table }
        }
        k if k == RecordKind::DropTable as u8 => WalRecord::DropTable { name: r.string()? },
        k if k == RecordKind::Commit as u8 => WalRecord::Commit,
        _ => return Err(codec::corrupt("unknown WAL record kind")),
    };
    r.done()?;
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("jb_wal_test_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn disabled_wal_counts_bytes() {
        let mut wal = Wal::disabled();
        wal.log_update_column("f", "s", &Column::float(vec![1.0; 100]))
            .unwrap();
        assert!(wal.bytes_logged > 800);
        assert_eq!(wal.records, 1);
    }

    #[test]
    fn file_wal_writes() {
        let dir = tmp_dir("writes");
        let path = dir.join("wal.log");
        let mut wal = Wal::open(&path).unwrap();
        wal.log_create_table(
            "t",
            &Table::from_columns(vec![("a", Column::int(vec![1, 2, 3]))]),
        )
        .unwrap();
        wal.log_drop_table("t").unwrap();
        wal.flush().unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        assert!(len > 0);
        assert_eq!(len, wal.bytes_logged);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn logs_string_columns() {
        let mut wal = Wal::disabled();
        wal.log_update_column("t", "c", &Column::str(vec!["abc".into(), "de".into()]))
            .unwrap();
        assert!(wal.bytes_logged > 0);
    }

    #[test]
    fn replay_returns_only_the_committed_prefix() {
        let dir = tmp_dir("prefix");
        let path = dir.join("wal.log");
        let table = Table::from_columns(vec![("a", Column::int(vec![7, 8]))]);
        let mut wal = Wal::open(&path).unwrap();
        wal.log_create_table("t1", &table).unwrap();
        wal.log_commit().unwrap();
        wal.log_create_table("t2", &table).unwrap();
        // No commit for t2 — and the process "crashes".
        wal.flush().unwrap();
        drop(wal);
        let (records, committed_len, committed_records) = replay(&path).unwrap();
        assert_eq!(committed_records, 2, "create + commit");
        assert!(committed_len < std::fs::metadata(&path).unwrap().len());
        assert!(matches!(
            &records[0],
            WalRecord::CreateTable { name, table: t } if name == "t1" && t.num_rows() == 2
        ));
        assert!(matches!(&records[1], WalRecord::Commit));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_tolerates_a_torn_tail_and_append_resumes_cleanly() {
        let dir = tmp_dir("torn");
        let path = dir.join("wal.log");
        let table = Table::from_columns(vec![("a", Column::float(vec![1.5, -0.0]))]);
        let mut wal = Wal::open(&path).unwrap();
        wal.log_create_table("t", &table).unwrap();
        wal.log_commit().unwrap();
        wal.flush().unwrap();
        drop(wal);
        let committed = std::fs::metadata(&path).unwrap().len();
        // Append garbage: half a record header, as a crash mid-write would.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[1, 0xFF, 0xFF]).unwrap();
        drop(f);
        let (records, committed_len, committed_records) = replay(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(committed_len, committed);
        // Reopen for append: the torn tail is cut off, new records land
        // right after the durable prefix and replay cleanly.
        let mut wal = Wal::open_append(&path, committed_len, committed_records).unwrap();
        wal.log_drop_table("t").unwrap();
        wal.log_commit().unwrap();
        wal.flush().unwrap();
        drop(wal);
        let (records, _, _) = replay(&path).unwrap();
        assert_eq!(records.len(), 4);
        assert!(matches!(&records[2], WalRecord::DropTable { name } if name == "t"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn simulate_crash_discards_unsynced_bytes() {
        let dir = tmp_dir("crash");
        let path = dir.join("wal.log");
        let table = Table::from_columns(vec![("a", Column::int(vec![1]))]);
        let mut wal = Wal::open(&path).unwrap();
        wal.sync = true;
        wal.log_create_table("durable", &table).unwrap();
        wal.log_commit().unwrap(); // fsyncs
        wal.log_create_table("lost", &table).unwrap(); // buffered only
        wal.simulate_crash().unwrap();
        let (records, _, _) = replay(&path).unwrap();
        assert_eq!(records.len(), 2, "only the fsynced statement survives");
        assert!(matches!(&records[0], WalRecord::CreateTable { name, .. } if name == "durable"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
