//! Tables: named, optionally-qualified columns.

use crate::column::Column;
use crate::datum::Datum;
use crate::error::{EngineError, Result};

/// Metadata for one column of a table: an optional qualifier (the binding
/// name of the relation it came from — used for resolving `t.c`) and the
/// column name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnMeta {
    /// Binding name of the relation the column came from.
    pub qualifier: Option<String>,
    /// The column name.
    pub name: String,
}

impl ColumnMeta {
    /// Metadata with no qualifier.
    pub fn new(name: impl Into<String>) -> Self {
        ColumnMeta {
            qualifier: None,
            name: name.into(),
        }
    }

    /// Metadata qualified by a relation binding name.
    pub fn qualified(qualifier: impl Into<String>, name: impl Into<String>) -> Self {
        ColumnMeta {
            qualifier: Some(qualifier.into()),
            name: name.into(),
        }
    }

    /// Is this column among the names a pruned read asks for (`None`:
    /// every column is)? By name alone, case-insensitively: pruning is
    /// conservative about same-named columns of different relations.
    pub fn named_in(&self, names: Option<&[&str]>) -> bool {
        names.is_none_or(|ns| ns.iter().any(|n| n.eq_ignore_ascii_case(&self.name)))
    }

    fn matches(&self, qualifier: Option<&str>, name: &str) -> bool {
        if !self.name.eq_ignore_ascii_case(name) {
            return false;
        }
        match qualifier {
            None => true,
            Some(q) => self
                .qualifier
                .as_deref()
                .is_some_and(|mine| mine.eq_ignore_ascii_case(q)),
        }
    }
}

/// A materialized table (base table or intermediate result).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Table {
    /// Per-column metadata, parallel to `columns`.
    pub meta: Vec<ColumnMeta>,
    /// The column data.
    pub columns: Vec<Column>,
}

impl Table {
    /// An empty table (no columns, no rows).
    pub fn new() -> Table {
        Table::default()
    }

    /// Build a table from `(name, column)` pairs; all columns must have the
    /// same length.
    pub fn from_columns(cols: Vec<(&str, Column)>) -> Table {
        let mut t = Table::new();
        for (name, col) in cols {
            t.push_column(ColumnMeta::new(name), col);
        }
        debug_assert!(t.columns.windows(2).all(|w| w[0].len() == w[1].len()));
        t
    }

    /// Append a column (must match the existing row count).
    pub fn push_column(&mut self, meta: ColumnMeta, col: Column) {
        self.meta.push(meta);
        self.columns.push(col);
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Column names, in storage order.
    pub fn column_names(&self) -> Vec<&str> {
        self.meta.iter().map(|m| m.name.as_str()).collect()
    }

    /// Resolve a (possibly qualified) column reference to its index.
    /// Unqualified names must be unambiguous; qualified lookups that miss
    /// fall back to an unqualified lookup (subqueries flatten qualifiers).
    pub fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<usize> {
        let mut found: Option<usize> = None;
        for (i, m) in self.meta.iter().enumerate() {
            if m.matches(qualifier, name) {
                if let Some(prev) = found {
                    // Ambiguity between identical (qualifier, name) pairs:
                    // prefer the first occurrence for join keys merged via
                    // USING, but reject genuinely ambiguous unqualified refs
                    // with distinct qualifiers.
                    if self.meta[prev].qualifier == m.qualifier {
                        continue;
                    }
                    return Err(EngineError::UnknownColumn(format!(
                        "ambiguous column {name}"
                    )));
                }
                found = Some(i);
            }
        }
        if found.is_none() && qualifier.is_some() {
            // Fall back: subquery aliases re-qualify columns.
            return self.resolve(None, name);
        }
        found.ok_or_else(|| {
            EngineError::UnknownColumn(match qualifier {
                Some(q) => format!("{q}.{name}"),
                None => name.to_string(),
            })
        })
    }

    /// Resolve and return one column.
    pub fn column(&self, qualifier: Option<&str>, name: &str) -> Result<&Column> {
        Ok(&self.columns[self.resolve(qualifier, name)?])
    }

    /// Gather rows by index into a new table.
    pub fn take(&self, indices: &[u32]) -> Table {
        Table {
            meta: self.meta.clone(),
            columns: self.columns.iter().map(|c| c.take(indices)).collect(),
        }
    }

    /// First `n` rows (`LIMIT` without `ORDER BY`): prefix truncation,
    /// cheaper than materializing a `(0..n)` index vector for `take`.
    pub fn head(&self, n: usize) -> Table {
        Table {
            meta: self.meta.clone(),
            columns: self.columns.iter().map(|c| c.head(n)).collect(),
        }
    }

    /// Keep rows where the mask is true.
    pub fn filter(&self, mask: &[bool]) -> Table {
        Table {
            meta: self.meta.clone(),
            columns: self.columns.iter().map(|c| c.filter(mask)).collect(),
        }
    }

    /// Row view for debugging / row-mode execution.
    pub fn row(&self, i: usize) -> Vec<Datum> {
        self.columns.iter().map(|c| c.get(i)).collect()
    }

    /// Re-qualify every column with the given binding name (applied when a
    /// base table or subquery gets an alias).
    pub fn with_qualifier(mut self, q: &str) -> Table {
        for m in &mut self.meta {
            m.qualifier = Some(q.to_string());
        }
        self
    }

    /// Strip qualifiers (result of a projection).
    pub fn unqualified(mut self) -> Table {
        for m in &mut self.meta {
            m.qualifier = None;
        }
        self
    }

    /// Rough heap size in bytes.
    pub fn byte_size(&self) -> usize {
        self.columns.iter().map(Column::byte_size).sum()
    }

    /// Single-cell convenience accessor for scalar query results.
    pub fn scalar(&self) -> Result<Datum> {
        if self.num_rows() == 1 && self.num_columns() == 1 {
            Ok(self.columns[0].get(0))
        } else {
            Err(EngineError::Other(format!(
                "expected 1x1 result, got {}x{}",
                self.num_rows(),
                self.num_columns()
            )))
        }
    }

    /// f64 convenience accessor on a single-row result by column name.
    pub fn scalar_f64(&self, name: &str) -> Result<f64> {
        let c = self.column(None, name)?;
        if c.len() != 1 {
            return Err(EngineError::Other(format!(
                "expected single row for scalar {name}, got {}",
                c.len()
            )));
        }
        c.f64_at(0).ok_or_else(|| {
            EngineError::TypeMismatch(format!("scalar {name} is NULL or non-numeric"))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new();
        t.push_column(ColumnMeta::qualified("r", "a"), Column::int(vec![1, 2]));
        t.push_column(ColumnMeta::qualified("s", "b"), Column::int(vec![3, 4]));
        t
    }

    #[test]
    fn resolves_qualified_and_unqualified() {
        let t = sample();
        assert_eq!(t.resolve(Some("r"), "a").unwrap(), 0);
        assert_eq!(t.resolve(None, "b").unwrap(), 1);
        assert!(t.resolve(None, "zzz").is_err());
    }

    #[test]
    fn detects_ambiguity() {
        let mut t = sample();
        t.push_column(ColumnMeta::qualified("t", "a"), Column::int(vec![5, 6]));
        assert!(t.resolve(None, "a").is_err());
        assert_eq!(t.resolve(Some("t"), "a").unwrap(), 2);
    }

    #[test]
    fn qualified_falls_back_to_unqualified() {
        let mut t = Table::new();
        t.push_column(ColumnMeta::new("a"), Column::int(vec![1]));
        // After a subquery, `sub.a` should still resolve.
        assert_eq!(t.resolve(Some("sub"), "a").unwrap(), 0);
    }

    #[test]
    fn case_insensitive_resolution() {
        let t = sample();
        assert_eq!(t.resolve(Some("R"), "A").unwrap(), 0);
    }

    #[test]
    fn take_and_filter_table() {
        let t = sample();
        let t2 = t.take(&[1]);
        assert_eq!(t2.num_rows(), 1);
        assert_eq!(t2.row(0), vec![Datum::Int(2), Datum::Int(4)]);
        let t3 = t.filter(&[true, false]);
        assert_eq!(t3.num_rows(), 1);
    }

    #[test]
    fn scalar_accessors() {
        let t = Table::from_columns(vec![("x", Column::float(vec![4.5]))]);
        assert_eq!(t.scalar().unwrap(), Datum::Float(4.5));
        assert_eq!(t.scalar_f64("x").unwrap(), 4.5);
    }
}
