//! External (dataframe-style) table storage — the `DP` backend.
//!
//! The paper's first column-swap emulation stores the fact table in a
//! Pandas dataframe: DuckDB scans it through a converting adapter (which
//! slows aggregation by ~1.6×) but residual updates become an O(1) column
//! pointer replacement. [`ExternalTable`] reproduces both properties: a
//! scan deep-copies every column it reads into the engine
//! ([`ExternalTable::copy_in_columns`]) — a real copy, where a scan of
//! the engine's own storage shares its buffers — while
//! [`ExternalTable::replace_column`] moves the new column in, O(1).

use parking_lot::RwLock;

use crate::column::Column;
use crate::error::{EngineError, Result};
use crate::table::{ColumnMeta, Table};

/// A table held outside the engine in plain uncompressed arrays.
pub struct ExternalTable {
    names: Vec<String>,
    columns: RwLock<Vec<Column>>,
}

impl ExternalTable {
    /// Deep-copy an engine table into external array storage.
    pub fn from_table(t: &Table) -> ExternalTable {
        ExternalTable {
            names: t.meta.iter().map(|m| m.name.clone()).collect(),
            columns: RwLock::new(t.columns.iter().map(Column::deep_copy).collect()),
        }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.columns.read().first().map_or(0, |c| c.len())
    }

    /// Column names, in storage order.
    pub fn column_names(&self) -> &[String] {
        &self.names
    }

    /// Deep-copy the arrays at the given storage positions into an engine
    /// table — the interop cost a scan that reads those columns pays — as
    /// of one moment (no column replacement lands between two of them).
    /// Returns the table and the number of bytes copied.
    pub fn copy_in_columns(&self, positions: &[usize]) -> (Table, usize) {
        let cols = self.columns.read();
        let mut t = Table::new();
        for &i in positions {
            t.push_column(ColumnMeta::new(self.names[i].clone()), cols[i].deep_copy());
        }
        let bytes = t.byte_size();
        (t, bytes)
    }

    /// Size of the external arrays in bytes (nothing is copied).
    pub fn byte_size(&self) -> usize {
        self.columns.read().iter().map(|c| c.byte_size()).sum()
    }

    /// O(1) column replacement: swap in a freshly computed column (a
    /// "new NumPy array" in the paper's terms) without touching the rest.
    pub fn replace_column(&self, name: &str, col: Column) -> Result<()> {
        let idx = self.index(name)?;
        let mut cols = self.columns.write();
        if col.len() != cols[idx].len() {
            return Err(EngineError::Other(format!(
                "replacement column length {} != table length {}",
                col.len(),
                cols[idx].len()
            )));
        }
        cols[idx] = col;
        Ok(())
    }

    /// One column, sharing the external arrays (O(1); used by swap).
    pub fn column(&self, name: &str) -> Result<Column> {
        Ok(self.columns.read()[self.index(name)?].clone())
    }

    /// Storage position of the column `name` (case-insensitive).
    fn index(&self, name: &str) -> Result<usize> {
        (self.names.iter())
            .position(|n| n.eq_ignore_ascii_case(name))
            .ok_or_else(|| EngineError::UnknownColumn(name.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_in_roundtrips() {
        let t = Table::from_columns(vec![
            ("a", Column::int(vec![1, 2])),
            ("s", Column::float(vec![0.5, 1.5])),
        ]);
        let ext = ExternalTable::from_table(&t);
        let (back, bytes) = ext.copy_in_columns(&[0, 1]);
        assert_eq!(back, t);
        assert!(bytes >= 32);
    }

    #[test]
    fn replace_column_is_visible() {
        let t = Table::from_columns(vec![("s", Column::float(vec![1.0, 2.0]))]);
        let ext = ExternalTable::from_table(&t);
        ext.replace_column("s", Column::float(vec![9.0, 8.0]))
            .unwrap();
        let (back, _) = ext.copy_in_columns(&[0]);
        assert_eq!(back.columns[0], Column::float(vec![9.0, 8.0]));
    }

    #[test]
    fn replace_column_checks_length() {
        let t = Table::from_columns(vec![("s", Column::float(vec![1.0, 2.0]))]);
        let ext = ExternalTable::from_table(&t);
        assert!(ext.replace_column("s", Column::float(vec![1.0])).is_err());
        assert!(ext
            .replace_column("zzz", Column::float(vec![1.0, 2.0]))
            .is_err());
    }
}
