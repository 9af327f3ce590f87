//! Lightweight run-length columnar compression, chosen per column.
//!
//! The paper identifies columnar compression as one of the reasons residual
//! updates are slow on DBMSes: an `UPDATE` of a compressed column must
//! decompress, modify and recompress it, and `CREATE TABLE` pays the
//! compression cost for every copied column it encodes. Like DuckDB's
//! per-segment analyze pass, `StoredColumn::new` encodes a column only
//! when its run-length form is smaller than the plain one; a column that
//! does not compress is stored as is and costs no encoding on the way in
//! and no decoding on the way out. The encoding is real (if simple), so
//! those costs arise from genuine work where they arise at all.

use std::sync::Arc;

use crate::column::{Column, ColumnData};
use crate::datum::DataType;

/// A run-length-encoded column. Values are stored as `(bits, run_len)`
/// pairs; `bits` is the i64 value, the f64 bit pattern, or the dictionary
/// code depending on `dtype`.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedColumn {
    /// Logical data type of the column.
    pub dtype: DataType,
    /// Logical (uncompressed) row count.
    pub len: usize,
    /// `(bits, run_len)` pairs in row order.
    pub runs: Vec<(u64, u32)>,
    /// Dictionary for string columns (shared with the plain column's).
    pub dict: Option<Arc<Vec<String>>>,
    /// RLE of the validity mask, if the column has NULLs.
    pub validity_runs: Option<Vec<(bool, u32)>>,
}

/// A column as the catalog holds it: in whichever encoding is smaller.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum StoredColumn {
    /// Stored as is: run-length encoding would not shrink it.
    Plain(Column),
    /// Run-length encoded.
    Rle(CompressedColumn),
}

impl StoredColumn {
    /// Store `col`, run-length encoding it when `rle` allows and the
    /// encoded form's [`CompressedColumn::byte_size`] is smaller than
    /// [`Column::byte_size`]. The runs are counted in one pass without
    /// allocating; a column kept plain is moved in with its buffers,
    /// which stay shared with any table or result that holds them.
    pub fn new(col: Column, rle: bool) -> StoredColumn {
        if rle && rle_byte_size(&col) < col.byte_size() {
            StoredColumn::Rle(compress(&col))
        } else {
            StoredColumn::Plain(col)
        }
    }

    /// The column as plain values: the stored buffers, shared (O(1)), or
    /// a decode.
    pub fn to_column(&self) -> Column {
        match self {
            StoredColumn::Plain(c) => c.clone(),
            StoredColumn::Rle(cc) => decompress(cc),
        }
    }

    /// Stored size in bytes.
    pub fn byte_size(&self) -> usize {
        match self {
            StoredColumn::Plain(c) => c.byte_size(),
            StoredColumn::Rle(cc) => cc.byte_size(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        match self {
            StoredColumn::Plain(c) => c.len(),
            StoredColumn::Rle(cc) => cc.len,
        }
    }

    /// The column's data type.
    pub fn dtype(&self) -> DataType {
        match self {
            StoredColumn::Plain(c) => c.dtype(),
            StoredColumn::Rle(cc) => cc.dtype,
        }
    }
}

/// `(value, run_len)` pairs in row order; a run stops at `u32::MAX`.
fn rle<T: Copy + PartialEq>(values: impl Iterator<Item = T>) -> Vec<(T, u32)> {
    let mut runs: Vec<(T, u32)> = Vec::new();
    for v in values {
        match runs.last_mut() {
            Some((last, n)) if *last == v && *n < u32::MAX => *n += 1,
            _ => runs.push((v, 1)),
        }
    }
    runs
}

/// How many pairs [`rle`] would emit, without building them.
fn run_count<T: Copy + PartialEq>(values: impl Iterator<Item = T>) -> usize {
    let mut runs = 0;
    let mut last: Option<(T, u32)> = None;
    for v in values {
        match &mut last {
            Some((l, n)) if *l == v && *n < u32::MAX => *n += 1,
            _ => {
                last = Some((v, 1));
                runs += 1;
            }
        }
    }
    runs
}

/// [`CompressedColumn::byte_size`] of `compress(col)`.
fn rle_byte_size(col: &Column) -> usize {
    let (runs, dict) = match &col.data {
        ColumnData::Int(v) => (run_count(v.iter().copied()), None),
        ColumnData::Float(v) => (run_count(v.iter().map(|x| x.to_bits())), None),
        ColumnData::Str { dict, codes } => (run_count(codes.iter().copied()), Some(&dict[..])),
    };
    let validity_runs = (col.validity.as_ref()).map(|v| run_count(v.iter().copied()));
    encoded_bytes(runs, dict, validity_runs)
}

fn encoded_bytes(runs: usize, dict: Option<&[String]>, validity_runs: Option<usize>) -> usize {
    runs * 12
        + dict.map_or(0, |d| d.iter().map(|s| s.len() + 24).sum())
        + validity_runs.map_or(0, |n| n * 5)
}

/// Compress a column.
pub fn compress(col: &Column) -> CompressedColumn {
    let (runs, dict) = match &col.data {
        ColumnData::Int(v) => (rle(v.iter().map(|&x| x as u64)), None),
        ColumnData::Float(v) => (rle(v.iter().map(|&x| x.to_bits())), None),
        ColumnData::Str { dict, codes } => {
            (rle(codes.iter().map(|&c| c as u64)), Some(dict.clone()))
        }
    };
    CompressedColumn {
        dtype: col.dtype(),
        len: col.len(),
        runs,
        dict,
        validity_runs: col.validity.as_ref().map(|v| rle(v.iter().copied())),
    }
}

/// Decompress back into a plain column.
pub fn decompress(cc: &CompressedColumn) -> Column {
    let data = match cc.dtype {
        DataType::Int => ColumnData::Int(expand(&cc.runs, cc.len, |b| b as i64)),
        DataType::Float => ColumnData::Float(expand(&cc.runs, cc.len, f64::from_bits)),
        DataType::Str => ColumnData::Str {
            dict: cc.dict.clone().unwrap_or_default(),
            codes: expand(&cc.runs, cc.len, |b| b as u32),
        },
    };
    let validity = (cc.validity_runs.as_ref()).map(|runs| expand(runs, cc.len, |b| b));
    Column { data, validity }
}

/// The `len` values `runs` encode, each mapped through `f`.
fn expand<S: Copy, T: Clone>(runs: &[(S, u32)], len: usize, f: impl Fn(S) -> T) -> Arc<Vec<T>> {
    let mut v = Vec::with_capacity(len);
    for &(x, n) in runs {
        v.extend(std::iter::repeat_n(f(x), n as usize));
    }
    Arc::new(v)
}

impl CompressedColumn {
    /// Compressed size in bytes (for stats / compression-ratio reporting).
    pub fn byte_size(&self) -> usize {
        encoded_bytes(
            self.runs.len(),
            self.dict.as_deref().map(|d| &d[..]),
            self.validity_runs.as_ref().map(Vec::len),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datum::Datum;

    #[test]
    fn roundtrip_int() {
        let c = Column::int(vec![1, 1, 1, 2, 2, 3]);
        let cc = compress(&c);
        assert_eq!(cc.runs.len(), 3);
        assert_eq!(decompress(&cc), c);
    }

    #[test]
    fn roundtrip_float_and_str() {
        let c = Column::float(vec![0.5, 0.5, -1.0]);
        assert_eq!(decompress(&compress(&c)), c);
        let c = Column::str(vec!["x".into(), "x".into(), "y".into()]);
        assert_eq!(decompress(&compress(&c)), c);
    }

    #[test]
    fn roundtrip_with_nulls() {
        let c = Column::from_datums(&[Datum::Int(1), Datum::Null, Datum::Null, Datum::Int(1)]);
        let cc = compress(&c);
        let back = decompress(&cc);
        assert_eq!(back.get(1), Datum::Null);
        assert_eq!(back.get(3), Datum::Int(1));
    }

    #[test]
    fn compresses_constant_column_well() {
        let c = Column::int(vec![7; 10_000]);
        let cc = compress(&c);
        assert_eq!(cc.runs.len(), 1);
        assert!(cc.byte_size() < c.byte_size() / 100);
    }

    #[test]
    fn empty_column() {
        let c = Column::int(vec![]);
        let cc = compress(&c);
        assert_eq!(decompress(&cc).len(), 0);
    }
}
