//! Write-ahead log.
//!
//! Disk-backed engine configurations log every write (after-images:
//! column images for updates, whole-table images for created tables)
//! before applying it — the paper calls WAL out as one of the fundamental
//! DBMS mechanisms that make residual updates slow. The log format is a
//! simple length-prefixed record stream; column payloads are the shared
//! checked codec's storage image ([`crate::storage::codec`]), the same
//! bytes the page store writes.
//!
//! The paged (out-of-core) engine additionally makes the log *the*
//! durability story: every write statement ends with a [`RecordKind::Commit`]
//! record, and a paged engine fsyncs on commit (`sync = true` — the
//! non-paged disk configurations keep the paper's lowest recovery level
//! and never fsync). On open, [`replay`] applies the committed prefix of
//! an existing log statement by statement — tolerating a torn tail from
//! a crash — and the engine stores every table it rebuilt (see
//! `Database::open`).
//!
//! A paged engine's `CreateTable` record logs a column whose page chain
//! another table already holds as a [`ColumnRef`] — "column *i* of table
//! *t*, as the log stands here" — instead of its image, so a `CREATE
//! TABLE AS` that passes columns through logs only the columns it
//! computed.
//!
//! A checkpoint compacts the log ([`Wal::compact`]): a new log opens
//! with one statement, a [`RecordKind::Base`] record and a `CreateTable`
//! per live table, and is renamed over the old one. A committed base
//! replaces whatever state replay started from, so that rename is the
//! only switch; a base that does not replay to its commit, or a first
//! record a tear cannot produce, is corruption, never an empty database.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::column::Column;
use crate::error::{EngineError, Result};
use crate::storage::codec::{self, ByteReader};
use crate::table::{ColumnMeta, Table};

/// File name of the log inside a paged database directory.
pub const LOG_FILE: &str = "wal.log";
/// Name a compacted log is written under until it is renamed over
/// [`LOG_FILE`]; [`recover`] deletes one a crash left behind.
const BASE_TMP: &str = "wal.log.tmp";
/// The snapshot file earlier builds checkpointed to, beside a log of the
/// statements past it.
pub const LEGACY_CHECKPOINT: &str = "checkpoint.jbc";

/// Record kinds in the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum RecordKind {
    /// Full-column after-image of an `UPDATE`.
    UpdateColumn = 1,
    /// `CREATE TABLE` with its initial contents: column names, and each
    /// column's image or a [`ColumnRef`].
    CreateTable = 2,
    /// `DROP TABLE`.
    DropTable = 3,
    /// Statement boundary: everything logged since the previous commit is
    /// durable as a unit. Replay discards an uncommitted tail.
    Commit = 4,
    /// First record of a compacted log: the statement it opens holds every
    /// table, so replay drops the tables it held before.
    Base = 5,
}

/// The first byte of a column logged as a [`ColumnRef`]. A column image
/// starts with a codec data tag, and every data tag is below it.
const COLUMN_REF: u8 = 0xFF;

/// A logged column that is column `index` of table `table` (lower-case),
/// as the log stands at the record that names it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnRef {
    /// The referenced table's catalog key.
    pub table: String,
    /// The column's position in that table.
    pub index: u32,
}

/// A `CreateTable` column as logged.
#[derive(Debug)]
pub enum LoggedColumn {
    /// The column's storage image.
    Image(Column),
    /// A column of a table the log holds where the record stands.
    Ref(ColumnRef),
}

/// One decoded log record.
#[derive(Debug)]
enum WalRecord {
    UpdateColumn {
        table: String,
        column: String,
        after: Column,
    },
    CreateTable {
        name: String,
        columns: Vec<(String, LoggedColumn)>,
    },
    DropTable {
        name: String,
    },
    Commit,
    Base,
}

/// The write-ahead log. When constructed without a path it still encodes
/// every record (so the CPU cost of logging is paid) but discards the
/// bytes — this models a `minimum logging` configuration.
pub struct Wal {
    writer: Option<BufWriter<File>>,
    /// fsync after every commit record (off by default; the paper sets
    /// recovery to the lowest level — the paged engine turns this on).
    pub sync: bool,
    /// Bytes encoded past the base (whether or not they hit disk).
    pub bytes_logged: u64,
    /// Records logged past the base.
    pub records: u64,
    /// File length known durable (through the last fsync). Crash
    /// simulation truncates the file back to it.
    synced_bytes: u64,
}

/// What [`replay`] found: the durable prefix and where its base ends.
#[derive(Debug, Default)]
pub struct Replayed {
    /// Byte length of the committed prefix.
    pub committed_len: u64,
    /// Byte length of the last committed base statement (0 without one).
    pub base_len: u64,
    /// Records in the committed prefix past that base.
    pub committed_records: u64,
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
            ..Wal::disabled()
        })
    }

    /// Reopen an existing log for appending, first truncating it to the
    /// committed prefix [`replay`] identified, so a torn tail never
    /// precedes fresh records. The counters continue from the replayed
    /// prefix past its base.
    pub fn open_append(path: &Path, replayed: Replayed) -> Result<Wal> {
        // Not `truncate(true)`: the committed prefix must survive; only
        // the torn tail past `committed_len` is cut by `set_len`.
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(path)?;
        file.set_len(replayed.committed_len)?;
        file.seek(SeekFrom::Start(replayed.committed_len))?;
        Ok(Wal {
            writer: Some(BufWriter::new(file)),
            bytes_logged: replayed.committed_len - replayed.base_len,
            records: replayed.committed_records,
            synced_bytes: replayed.committed_len,
            ..Wal::disabled()
        })
    }

    /// Compact the log in `dir`: write `wal.log.tmp` as a `Base` record,
    /// what `write_base` logs, and a commit; fsync it, rename it over
    /// [`LOG_FILE`] and fsync `dir`. Until the rename the old log stands,
    /// after it the new one does, and this log appends past its base,
    /// fsyncing on commit. Returns the base's length.
    pub fn compact(
        &mut self,
        dir: &Path,
        write_base: impl FnOnce(&mut Wal) -> Result<()>,
    ) -> Result<u64> {
        let tmp = dir.join(BASE_TMP);
        let mut base = Wal::open(&tmp)?;
        base.sync = true;
        base.write_record(RecordKind::Base, &[])?;
        write_base(&mut base)?;
        base.log_commit()?;
        fs::rename(&tmp, dir.join(LOG_FILE))?;
        let base_len = base.bytes_logged;
        *self = Wal {
            bytes_logged: 0,
            records: 0,
            ..base
        };
        File::open(dir)?.sync_all()?;
        Ok(base_len)
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
                self.synced_bytes = w.stream_position()?;
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

    /// Log the creation of table `name`: each column's name from `meta`
    /// and the column as `columns` logs it. Replay rebuilds the table from
    /// the log alone.
    pub fn log_create_table(
        &mut self,
        name: &str,
        meta: &[ColumnMeta],
        columns: &[LoggedColumn],
    ) -> Result<()> {
        let image_bytes: usize = (columns.iter())
            .map(|c| match c {
                LoggedColumn::Image(c) => c.byte_size(),
                LoggedColumn::Ref(_) => 0,
            })
            .sum();
        let mut buf = Vec::with_capacity(image_bytes + 64);
        codec::put_string(&mut buf, name);
        codec::put_u32(&mut buf, columns.len() as u32);
        for (m, c) in meta.iter().zip(columns) {
            codec::put_string(&mut buf, &m.name);
            match c {
                LoggedColumn::Image(c) => codec::encode_stored_column(&mut buf, c),
                LoggedColumn::Ref(r) => {
                    buf.push(COLUMN_REF);
                    codec::put_string(&mut buf, &r.table);
                    codec::put_u32(&mut buf, r.index);
                }
            }
        }
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

/// Rebuild the tables of the database directory `dir` into `tables`: a
/// compacted log that never reached its rename is deleted, and
/// [`LOG_FILE`] replays. A directory that holds [`LEGACY_CHECKPOINT`] is
/// refused: its log is only the suffix past that snapshot, and replaying
/// it alone would silently drop the tables the snapshot held.
pub fn recover(dir: &Path, tables: &mut HashMap<String, Table>) -> Result<Replayed> {
    if dir.join(LEGACY_CHECKPOINT).exists() {
        return Err(EngineError::Corrupt(format!(
            "store: {LEGACY_CHECKPOINT} is a snapshot format this build no longer reads"
        )));
    }
    let _ = fs::remove_file(dir.join(BASE_TMP));
    let path = dir.join(LOG_FILE);
    match path.exists() {
        true => replay(&path, tables),
        false => Ok(Replayed::default()),
    }
}

/// Apply the committed prefix of the log file at `path` to `tables` (by
/// lower-case name), one
/// statement at a time: a statement's records are held only until its
/// commit record is read, then applied in order. Uncommitted, torn or
/// corrupt trailing records are discarded, never an error — that is the
/// crash contract. A tear only cuts the log short, so a first record
/// header no writer produces, or a complete first record that does not
/// decode, is damage. A base is renamed into place only once it is
/// durable, so a base that does not reach its commit is damage too, and
/// so are a committed reference to a column that is not there and a
/// committed column of the wrong length: each is an
/// [`EngineError::Corrupt`] error, never an empty database.
pub fn replay(path: &Path, tables: &mut HashMap<String, Table>) -> Result<Replayed> {
    let file = File::open(path)?;
    let len = file.metadata()?.len();
    let mut reader = BufReader::new(file);
    let mut replayed = Replayed::default();
    let mut pending: Vec<WalRecord> = Vec::new();
    let mut pos = 0u64;
    loop {
        // Record header: kind u8, payload_len u64 LE.
        let mut header = [0u8; 9];
        if len - pos < 9 || reader.read_exact(&mut header).is_err() {
            break;
        }
        let payload_len = u64::from_le_bytes(header[1..].try_into().expect("8 bytes"));
        let written = match header[0] {
            k if k == RecordKind::Base as u8 => payload_len == 0,
            k => (RecordKind::UpdateColumn as u8..=RecordKind::Commit as u8).contains(&k),
        };
        if pos == 0 && !written {
            return Err(EngineError::Corrupt(
                "log: its first record header was never written".into(),
            ));
        }
        if len - pos - 9 < payload_len {
            break; // torn record
        }
        let mut payload = vec![0u8; payload_len as usize];
        if reader.read_exact(&mut payload).is_err() {
            break;
        }
        let record = match decode_record(header[0], &payload) {
            Ok(record) => record,
            Err(e) if pos == 0 => return Err(e),
            Err(_) => break, // corrupt record: everything from here on is suspect
        };
        pos += 9 + payload_len;
        if !matches!(record, WalRecord::Commit) {
            pending.push(record);
            continue;
        }
        replayed.committed_len = pos;
        replayed.committed_records += pending.len() as u64 + 1;
        if matches!(pending.first(), Some(WalRecord::Base)) {
            replayed.base_len = pos;
            replayed.committed_records = 0;
        }
        for record in pending.drain(..) {
            apply(record, tables)?;
        }
    }
    if matches!(pending.first(), Some(WalRecord::Base)) {
        return Err(EngineError::Corrupt(
            "log: the base does not replay to its commit".into(),
        ));
    }
    Ok(replayed)
}

/// Apply one committed record.
fn apply(record: WalRecord, tables: &mut HashMap<String, Table>) -> Result<()> {
    let ragged = |column: &str, table: &str, rows: usize, want: usize| {
        EngineError::Corrupt(format!(
            "log: column {column} of {table} has {rows} rows, not {want}"
        ))
    };
    match record {
        WalRecord::CreateTable { name, columns } => {
            let mut table = Table::new();
            for (column, logged_column) in columns {
                let col = match logged_column {
                    LoggedColumn::Image(col) => col,
                    LoggedColumn::Ref(r) => resolve(&r, tables)?,
                };
                if !table.columns.is_empty() && col.len() != table.num_rows() {
                    return Err(ragged(&column, &name, col.len(), table.num_rows()));
                }
                table.push_column(ColumnMeta::new(column), col);
            }
            tables.insert(name.to_ascii_lowercase(), table);
        }
        WalRecord::UpdateColumn {
            table,
            column,
            after,
        } => {
            if let Some(t) = tables.get_mut(&table.to_ascii_lowercase()) {
                if let Ok(i) = t.resolve(None, &column) {
                    if after.len() != t.num_rows() {
                        return Err(ragged(&column, &table, after.len(), t.num_rows()));
                    }
                    t.columns[i] = after;
                }
            }
        }
        WalRecord::DropTable { name } => {
            tables.remove(&name.to_ascii_lowercase());
        }
        WalRecord::Base => tables.clear(),
        WalRecord::Commit => {}
    }
    Ok(())
}

/// The column a committed reference names: it shares the referenced
/// column's buffers.
fn resolve(r: &ColumnRef, tables: &HashMap<String, Table>) -> Result<Column> {
    (tables.get(&r.table))
        .and_then(|t| t.columns.get(r.index as usize))
        .cloned()
        .ok_or_else(|| {
            EngineError::Corrupt(format!(
                "log: reference to column {} of {}, which the log does not hold",
                r.index, r.table
            ))
        })
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
            let name = r.string()?;
            let ncols = r.u32()? as usize;
            let mut columns = Vec::with_capacity(ncols.min(r.remaining()));
            for _ in 0..ncols {
                let column = r.string()?;
                let logged = if r.peek()? == COLUMN_REF {
                    r.u8()?;
                    LoggedColumn::Ref(ColumnRef {
                        table: r.string()?,
                        index: r.u32()?,
                    })
                } else {
                    LoggedColumn::Image(codec::decode_column(&mut r)?)
                };
                columns.push((column, logged));
            }
            WalRecord::CreateTable { name, columns }
        }
        k if k == RecordKind::DropTable as u8 => WalRecord::DropTable { name: r.string()? },
        k if k == RecordKind::Commit as u8 => WalRecord::Commit,
        k if k == RecordKind::Base as u8 => WalRecord::Base,
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

    /// Log `table` as images only.
    fn create(wal: &mut Wal, name: &str, table: &Table) {
        let images: Vec<LoggedColumn> = (table.columns.iter().cloned())
            .map(LoggedColumn::Image)
            .collect();
        wal.log_create_table(name, &table.meta, &images).unwrap();
    }

    /// Replay `path` onto no tables.
    fn replay_fresh(path: &Path) -> (HashMap<String, Table>, Replayed) {
        let mut tables = HashMap::new();
        let replayed = replay(path, &mut tables).unwrap();
        (tables, replayed)
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
        create(
            &mut wal,
            "t",
            &Table::from_columns(vec![("a", Column::int(vec![1, 2, 3]))]),
        );
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
    fn replay_applies_only_the_committed_prefix() {
        let dir = tmp_dir("prefix");
        let path = dir.join("wal.log");
        let table = Table::from_columns(vec![("a", Column::int(vec![7, 8]))]);
        let mut wal = Wal::open(&path).unwrap();
        create(&mut wal, "t1", &table);
        wal.log_commit().unwrap();
        create(&mut wal, "t2", &table);
        // No commit for t2 — and the process "crashes".
        wal.flush().unwrap();
        drop(wal);
        let (tables, replayed) = replay_fresh(&path);
        assert_eq!(replayed.committed_records, 2, "create + commit");
        assert!(replayed.committed_len < std::fs::metadata(&path).unwrap().len());
        assert_eq!(tables.len(), 1);
        assert_eq!(tables["t1"], table);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_tolerates_a_torn_tail_and_append_resumes_cleanly() {
        let dir = tmp_dir("torn");
        let path = dir.join("wal.log");
        let table = Table::from_columns(vec![("a", Column::float(vec![1.5, -0.0]))]);
        let mut wal = Wal::open(&path).unwrap();
        create(&mut wal, "t", &table);
        wal.log_commit().unwrap();
        wal.flush().unwrap();
        drop(wal);
        let committed = std::fs::metadata(&path).unwrap().len();
        // Append garbage: half a record header, as a crash mid-write would.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[1, 0xFF, 0xFF]).unwrap();
        drop(f);
        let (tables, replayed) = replay_fresh(&path);
        assert_eq!(replayed.committed_records, 2);
        assert_eq!(replayed.committed_len, committed);
        assert!(tables.contains_key("t"));
        // Reopen for append: the torn tail is cut off, new records land
        // right after the durable prefix and replay cleanly.
        let mut wal = Wal::open_append(&path, replayed).unwrap();
        wal.log_drop_table("t").unwrap();
        wal.log_commit().unwrap();
        wal.flush().unwrap();
        drop(wal);
        let (tables, replayed) = replay_fresh(&path);
        assert_eq!(replayed.committed_records, 4);
        assert!(tables.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn simulate_crash_discards_unsynced_bytes() {
        let dir = tmp_dir("crash");
        let path = dir.join("wal.log");
        let table = Table::from_columns(vec![("a", Column::int(vec![1]))]);
        let mut wal = Wal::open(&path).unwrap();
        wal.sync = true;
        create(&mut wal, "durable", &table);
        wal.log_commit().unwrap(); // fsyncs
        create(&mut wal, "lost", &table); // buffered only
        wal.simulate_crash().unwrap();
        let (tables, replayed) = replay_fresh(&path);
        assert_eq!(
            replayed.committed_records, 2,
            "only the fsynced statement survives"
        );
        assert_eq!(tables.keys().collect::<Vec<_>>(), ["durable"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn references_resolve_against_the_log_as_it_stands_there() {
        let dir = tmp_dir("refs");
        let path = dir.join("wal.log");
        let k = Column::int((0..50).collect());
        let v = |x: f64| Column::float(vec![x; 50]);
        let r = |index| {
            LoggedColumn::Ref(ColumnRef {
                table: "t".into(),
                index,
            })
        };
        let mut wal = Wal::open(&path).unwrap();
        create(
            &mut wal,
            "t",
            &Table::from_columns(vec![("k", k.clone()), ("v", v(1.0))]),
        );
        wal.log_commit().unwrap();
        // A self-replace: both references name the old `t`.
        let next = Table::from_columns(vec![("v", v(1.0)), ("k", k.clone()), ("w", v(2.0))]);
        let before = wal.bytes_logged;
        let w = LoggedColumn::Image(next.columns[2].clone());
        wal.log_create_table("T", &next.meta, &[r(1), r(0), w])
            .unwrap();
        assert!(
            wal.bytes_logged - before < 500,
            "two references and one 400-byte image"
        );
        wal.log_commit().unwrap();
        wal.flush().unwrap();
        let (tables, replayed) = replay_fresh(&path);
        assert_eq!(tables["t"], next);
        assert_eq!(replayed.committed_records, 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_committed_reference_to_a_missing_table_is_a_typed_error() {
        let dir = tmp_dir("dangling");
        let path = dir.join("wal.log");
        let t = Table::from_columns(vec![("k", Column::int(vec![1, 2]))]);
        let mut wal = Wal::open(&path).unwrap();
        create(&mut wal, "t", &t);
        wal.log_drop_table("t").unwrap();
        wal.log_commit().unwrap();
        // Forge the reference a correct engine never writes: `t` is gone.
        let r = LoggedColumn::Ref(ColumnRef {
            table: "t".into(),
            index: 0,
        });
        wal.log_create_table("u", &t.meta, &[r]).unwrap();
        // Uncommitted, it is a torn tail and replays to nothing.
        wal.flush().unwrap();
        let (tables, _) = replay_fresh(&path);
        assert!(tables.is_empty());
        // Committed, it is corruption.
        wal.log_commit().unwrap();
        wal.flush().unwrap();
        let err = replay(&path, &mut HashMap::new()).unwrap_err();
        assert!(
            matches!(&err, EngineError::Corrupt(m) if m.contains("reference")),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_committed_update_of_the_wrong_length_is_a_typed_error() {
        let dir = tmp_dir("ragged");
        let path = dir.join("wal.log");
        let t = Table::from_columns(vec![
            ("k", Column::int(vec![1, 2, 3])),
            ("v", Column::float(vec![0.5; 3])),
        ]);
        let mut wal = Wal::open(&path).unwrap();
        create(&mut wal, "t", &t);
        wal.log_commit().unwrap();
        wal.log_update_column("t", "v", &Column::float(vec![1.5; 2]))
            .unwrap();
        wal.flush().unwrap();
        let (tables, _) = replay_fresh(&path);
        assert_eq!(tables["t"], t, "uncommitted, it is a torn tail");
        wal.log_commit().unwrap();
        wal.flush().unwrap();
        let err = replay(&path, &mut HashMap::new()).unwrap_err();
        assert!(
            matches!(&err, EngineError::Corrupt(m) if m.contains("2 rows, not 3")),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_committed_base_replaces_the_state_and_a_torn_one_is_corrupt() {
        let dir = tmp_dir("base");
        let t = Table::from_columns(vec![("k", Column::int((0..40).collect()))]);
        let mut wal = Wal::disabled();
        let base = wal
            .compact(&dir, |base| {
                create(base, "t", &t);
                Ok(())
            })
            .unwrap();
        assert_eq!(
            (wal.bytes_logged, wal.records),
            (0, 0),
            "counted past the base"
        );
        wal.log_drop_table("t").unwrap();
        wal.log_commit().unwrap();
        wal.flush().unwrap();
        let logged = (wal.bytes_logged, wal.records);
        let path = dir.join(LOG_FILE);
        assert!(!dir.join(BASE_TMP).exists(), "renamed over the log");
        let stale = || HashMap::from([("old".to_string(), t.clone())]);
        // The base replaces what replay started from; the drop follows it.
        let mut tables = stale();
        let replayed = replay(&path, &mut tables).unwrap();
        assert!(tables.is_empty());
        assert_eq!(replayed.base_len, base);
        assert_eq!(replayed.committed_records, 2);
        let wal = Wal::open_append(&path, replayed).unwrap();
        assert_eq!((wal.bytes_logged, wal.records), logged);
        drop(wal);
        // A base cut anywhere past its first record, or with a flipped
        // byte in that record's header, never opens as empty.
        let bytes = std::fs::read(&path).unwrap();
        let damaged = (9..base as usize).map(|cut| bytes[..cut].to_vec());
        let flipped = (0..9).map(|at| {
            let mut b = bytes.clone();
            b[at] ^= 0x80;
            b
        });
        for log in damaged.chain(flipped) {
            std::fs::write(&path, &log).unwrap();
            let err = replay(&path, &mut stale()).unwrap_err();
            assert!(matches!(err, EngineError::Corrupt(_)), "{err}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
