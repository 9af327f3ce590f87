//! Write-ahead log.
//!
//! Disk-backed engine configurations log every write (after-images:
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
//! and never fsync). On open, [`replay`] applies the committed prefix of
//! an existing log statement by statement — tolerating a torn tail from
//! a crash — and the engine stores every table it rebuilt (see
//! `Database::open`).
//!
//! A paged engine's `CreateTable` record logs a column whose page chain
//! another table already holds as a [`ColumnRef`] — "column *i* of table
//! *t*, as the log stands here" — instead of its image, so a `CREATE
//! TABLE AS` that passes columns through logs only the columns it
//! computed. Only a table that a `CreateTable` record of this log created
//! may be referenced ([`Wal::is_logged`]): replay re-creates it before it
//! reaches the reference, whatever state replay started from, so a log
//! replayed over the checkpoint that absorbed it still resolves every
//! reference to the column it named.

use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::column::Column;
use crate::error::{EngineError, Result};
use crate::storage::codec::{self, ByteReader};
use crate::table::{ColumnMeta, Table};

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
enum LoggedColumn {
    Image(Column),
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
    /// Lower-case names of the tables a `CreateTable` record in this log
    /// created and no later record dropped.
    logged: HashSet<String>,
}

/// What [`replay`] found: the durable prefix, and the tables it created.
#[derive(Debug, Default)]
pub struct Replayed {
    /// Byte length of the committed prefix.
    pub committed_len: u64,
    /// Records in the committed prefix.
    pub committed_records: u64,
    /// Lower-case names of the tables a committed `CreateTable` record
    /// created and no later committed record dropped.
    pub logged: HashSet<String>,
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
            logged: HashSet::new(),
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
    /// precedes fresh records. The counters and the set of referenceable
    /// tables continue from the replayed prefix.
    pub fn open_append(path: &Path, replayed: Replayed) -> Result<Wal> {
        // Not `truncate(true)`: the committed prefix must survive; only
        // the torn tail past `committed_len` is cut by `set_len`.
        let file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(path)?;
        file.set_len(replayed.committed_len)?;
        let mut file = file;
        file.seek(SeekFrom::Start(replayed.committed_len))?;
        Ok(Wal {
            writer: Some(BufWriter::new(file)),
            sync: false,
            bytes_logged: replayed.committed_len,
            records: replayed.committed_records,
            synced_bytes: replayed.committed_len,
            logged: replayed.logged,
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

    /// Log the creation of a table: its name, then each column's name and
    /// either its image or, where `refs` names one, a reference to a
    /// column of a table [`Wal::is_logged`]. Replay rebuilds the table
    /// from the log alone. With no `refs`, the payload is the framing a
    /// checkpoint entry uses (`codec::encode_named_table`).
    pub fn log_create_table(
        &mut self,
        name: &str,
        table: &Table,
        refs: &[Option<ColumnRef>],
    ) -> Result<()> {
        let source = |i: usize| refs.get(i).and_then(Option::as_ref);
        let image_bytes: usize = (0..table.columns.len())
            .filter(|&i| source(i).is_none())
            .map(|i| table.columns[i].byte_size())
            .sum();
        let mut buf = Vec::with_capacity(image_bytes + 64);
        codec::put_string(&mut buf, name);
        codec::put_u32(&mut buf, table.columns.len() as u32);
        for (i, (m, c)) in table.meta.iter().zip(&table.columns).enumerate() {
            codec::put_string(&mut buf, &m.name);
            match source(i) {
                Some(r) => {
                    debug_assert!(self.is_logged(&r.table), "{} is not in the log", r.table);
                    buf.push(COLUMN_REF);
                    codec::put_string(&mut buf, &r.table);
                    codec::put_u32(&mut buf, r.index);
                }
                None => codec::encode_stored_column(&mut buf, c),
            }
        }
        self.write_record(RecordKind::CreateTable, &buf)?;
        self.logged.insert(name.to_ascii_lowercase());
        Ok(())
    }

    /// Log a table drop.
    pub fn log_drop_table(&mut self, table: &str) -> Result<()> {
        let mut buf = Vec::new();
        codec::put_string(&mut buf, table);
        self.write_record(RecordKind::DropTable, &buf)?;
        self.logged.remove(&table.to_ascii_lowercase());
        Ok(())
    }

    /// Log a statement boundary (fsyncs when `sync` is set).
    pub fn log_commit(&mut self) -> Result<()> {
        self.write_record(RecordKind::Commit, &[])
    }

    /// Did a `CreateTable` record of this log create the table now named
    /// `key` (lower-case)? Only such a table may be referenced: replay
    /// rebuilds it from this log before it reaches the reference.
    pub fn is_logged(&self, key: &str) -> bool {
        self.logged.contains(key)
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
        self.logged.clear();
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

/// Apply the committed prefix of the log file at `path` to `tables` (by
/// lower-case name; what the checkpoint held, or empty), one statement at
/// a time: a statement's records are held only until its commit record
/// is read, then applied in order. Uncommitted, torn or corrupt trailing
/// records are discarded, never an error — that is the crash contract.
/// A committed reference to a column that is not there is a
/// [`EngineError::Corrupt`] error.
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
        if len - pos - 9 < payload_len {
            break; // torn record
        }
        let mut payload = vec![0u8; payload_len as usize];
        if reader.read_exact(&mut payload).is_err() {
            break;
        }
        let Ok(record) = decode_record(header[0], &payload) else {
            break; // corrupt record: everything from here on is suspect
        };
        pos += 9 + payload_len;
        if !matches!(record, WalRecord::Commit) {
            pending.push(record);
            continue;
        }
        replayed.committed_records += pending.len() as u64 + 1;
        replayed.committed_len = pos;
        for record in pending.drain(..) {
            apply(record, tables, &mut replayed.logged)?;
        }
    }
    Ok(replayed)
}

/// Apply one committed record.
fn apply(
    record: WalRecord,
    tables: &mut HashMap<String, Table>,
    logged: &mut HashSet<String>,
) -> Result<()> {
    match record {
        WalRecord::CreateTable { name, columns } => {
            let mut table = Table::new();
            for (column, logged_column) in columns {
                let col = match logged_column {
                    LoggedColumn::Image(col) => col,
                    LoggedColumn::Ref(r) => resolve(&r, tables, logged)?,
                };
                if !table.columns.is_empty() && col.len() != table.num_rows() {
                    return Err(EngineError::Corrupt(format!(
                        "log: column {column} of {name} has {} rows, not {}",
                        col.len(),
                        table.num_rows()
                    )));
                }
                table.push_column(ColumnMeta::new(column), col);
            }
            let key = name.to_ascii_lowercase();
            logged.insert(key.clone());
            tables.insert(key, table);
        }
        WalRecord::UpdateColumn {
            table,
            column,
            after,
        } => {
            if let Some(t) = tables.get_mut(&table.to_ascii_lowercase()) {
                if let Ok(i) = t.resolve(None, &column) {
                    t.columns[i] = after;
                }
            }
        }
        WalRecord::DropTable { name } => {
            let key = name.to_ascii_lowercase();
            tables.remove(&key);
            logged.remove(&key);
        }
        WalRecord::Commit => {}
    }
    Ok(())
}

/// The column a committed reference names: it shares the referenced
/// column's buffers.
fn resolve(
    r: &ColumnRef,
    tables: &HashMap<String, Table>,
    logged: &HashSet<String>,
) -> Result<Column> {
    (tables.get(&r.table).filter(|_| logged.contains(&r.table)))
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
        wal.log_create_table(
            "t",
            &Table::from_columns(vec![("a", Column::int(vec![1, 2, 3]))]),
            &[],
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
    fn replay_applies_only_the_committed_prefix() {
        let dir = tmp_dir("prefix");
        let path = dir.join("wal.log");
        let table = Table::from_columns(vec![("a", Column::int(vec![7, 8]))]);
        let mut wal = Wal::open(&path).unwrap();
        wal.log_create_table("t1", &table, &[]).unwrap();
        wal.log_commit().unwrap();
        wal.log_create_table("t2", &table, &[]).unwrap();
        // No commit for t2 — and the process "crashes".
        wal.flush().unwrap();
        drop(wal);
        let (tables, replayed) = replay_fresh(&path);
        assert_eq!(replayed.committed_records, 2, "create + commit");
        assert!(replayed.committed_len < std::fs::metadata(&path).unwrap().len());
        assert_eq!(tables.len(), 1);
        assert_eq!(tables["t1"], table);
        assert_eq!(replayed.logged, HashSet::from(["t1".to_string()]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_tolerates_a_torn_tail_and_append_resumes_cleanly() {
        let dir = tmp_dir("torn");
        let path = dir.join("wal.log");
        let table = Table::from_columns(vec![("a", Column::float(vec![1.5, -0.0]))]);
        let mut wal = Wal::open(&path).unwrap();
        wal.log_create_table("t", &table, &[]).unwrap();
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
        assert!(wal.is_logged("t"));
        wal.log_drop_table("t").unwrap();
        wal.log_commit().unwrap();
        wal.flush().unwrap();
        drop(wal);
        let (tables, replayed) = replay_fresh(&path);
        assert_eq!(replayed.committed_records, 4);
        assert!(tables.is_empty() && replayed.logged.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn simulate_crash_discards_unsynced_bytes() {
        let dir = tmp_dir("crash");
        let path = dir.join("wal.log");
        let table = Table::from_columns(vec![("a", Column::int(vec![1]))]);
        let mut wal = Wal::open(&path).unwrap();
        wal.sync = true;
        wal.log_create_table("durable", &table, &[]).unwrap();
        wal.log_commit().unwrap(); // fsyncs
        wal.log_create_table("lost", &table, &[]).unwrap(); // buffered only
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
            Some(ColumnRef {
                table: "t".into(),
                index,
            })
        };
        let mut wal = Wal::open(&path).unwrap();
        wal.log_create_table(
            "t",
            &Table::from_columns(vec![("k", k.clone()), ("v", v(1.0))]),
            &[],
        )
        .unwrap();
        wal.log_commit().unwrap();
        // A self-replace: both references name the old `t`.
        let next = Table::from_columns(vec![("v", v(1.0)), ("k", k.clone()), ("w", v(2.0))]);
        let before = wal.bytes_logged;
        wal.log_create_table("T", &next, &[r(1), r(0), None])
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
        wal.log_create_table("t", &t, &[]).unwrap();
        wal.log_drop_table("t").unwrap();
        wal.log_commit().unwrap();
        // Forge the reference a correct engine never writes: `t` is gone.
        wal.logged.insert("t".into());
        let r = ColumnRef {
            table: "t".into(),
            index: 0,
        };
        wal.log_create_table("u", &t, &[Some(r)]).unwrap();
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
}
