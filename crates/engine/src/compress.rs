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
    /// [`Column::byte_size`]. The runs are counted without allocating,
    /// as inequalities of neighbouring values over the column's typed
    /// slices (the count equals the pairs [`compress`] would emit); a
    /// column kept plain is moved in with its buffers, which stay shared
    /// with any table or result that holds them.
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

/// How many pairs [`rle`] would emit over `v`, its values compared
/// through `key`: the first row, plus each row whose key differs from
/// the row before: neighbours compared with no branch per row. Row
/// ids are `u32`, so no run reaches the `u32::MAX` at which [`rle`]
/// would split it.
fn run_count<T: Copy, K: PartialEq>(v: &[T], key: impl Fn(T) -> K) -> usize {
    debug_assert!(v.len() < u32::MAX as usize);
    let changes: usize = (v.iter().zip(v.iter().skip(1)))
        .map(|(&a, &b)| usize::from(key(a) != key(b)))
        .sum();
    usize::from(!v.is_empty()) + changes
}

/// [`CompressedColumn::byte_size`] of `compress(col)`, from run counts
/// over the column's slices: values (Float by bit pattern), Str codes
/// and validity.
fn rle_byte_size(col: &Column) -> usize {
    let (runs, dict) = match &col.data {
        ColumnData::Int(v) => (run_count(v, |x| x), None),
        ColumnData::Float(v) => (run_count(v, f64::to_bits), None),
        ColumnData::Str { dict, codes } => (run_count(codes, |c| c), Some(&dict[..])),
    };
    let validity_runs = (col.validity.as_ref()).map(|v| run_count(v, |b| b));
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

    /// How many `(bits, run_len)` pairs `compress` emits over `v`.
    fn pairs<T: Copy, K: Copy + PartialEq>(v: &[T], key: impl Fn(T) -> K) -> usize {
        rle(v.iter().map(|&x| key(x))).len()
    }

    #[test]
    fn run_counts_equal_the_pairs_rle_emits_and_pick_the_same_encoding() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut random = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        // Empty, one row, constant, alternating, runs of two, random.
        let shapes: Vec<Vec<u64>> = vec![
            vec![],
            vec![3],
            vec![5; 1000],
            (0..1000).map(|i| i % 2).collect(),
            (0..1000).map(|i| i / 2 % 3).collect(),
            (0..1000).map(|_| random(4)).collect(),
            (0..1000).map(|_| random(1 << 40)).collect(),
        ];
        // Two NaN payloads, and `-0.0` beside `0.0`: distinct bit patterns.
        let other_nan = f64::from_bits(f64::NAN.to_bits() | 1);
        let floats = [0.0, -0.0, f64::NAN, other_nan, 1.5];
        let mut columns = Vec::new();
        for shape in shapes {
            let ints: Vec<i64> = shape.iter().map(|&x| x as i64 - 2).collect();
            let fl: Vec<f64> = shape.iter().map(|&x| floats[x as usize % 5]).collect();
            let codes: Vec<u32> = shape.iter().map(|&x| x as u32 % 7).collect();
            let valid: Vec<bool> = shape.iter().map(|&x| x % 3 != 0).collect();
            assert_eq!(run_count(&ints, |x| x), pairs(&ints, |x| x));
            assert_eq!(run_count(&fl, f64::to_bits), pairs(&fl, f64::to_bits));
            assert_eq!(run_count(&codes, |c| c), pairs(&codes, |c| c));
            assert_eq!(run_count(&valid, |b| b), pairs(&valid, |b| b));
            let dict: Vec<String> = (0..7).map(|i| format!("s{i}")).collect();
            let strs = Column::str(codes.iter().map(|&c| dict[c as usize].clone()).collect());
            let nullable = Column {
                validity: Some(Arc::new(valid)),
                ..Column::int(ints.clone())
            };
            columns.extend([Column::int(ints), Column::float(fl), strs, nullable]);
        }
        // Runs of `0.0, -0.0` and of one NaN payload: by value the first
        // would compress and the second would not; by bits it is the
        // other way round.
        columns.push(Column::float((0..500).map(|i| floats[i % 2]).collect()));
        columns.push(Column::float(vec![f64::NAN; 500]));
        let mut encodings = [0, 0];
        for col in columns {
            let cc = compress(&col);
            assert_eq!(rle_byte_size(&col), cc.byte_size(), "{col:?}");
            let want_rle = cc.byte_size() < col.byte_size();
            match StoredColumn::new(col.clone(), true) {
                StoredColumn::Rle(stored) => {
                    assert!(want_rle);
                    assert_eq!(stored, cc);
                    encodings[1] += 1;
                }
                StoredColumn::Plain(_) => {
                    assert!(!want_rle);
                    encodings[0] += 1;
                }
            }
        }
        assert!(encodings.iter().all(|&k| k > 0), "both encodings chosen");
    }

    #[test]
    fn empty_column() {
        let c = Column::int(vec![]);
        let cc = compress(&c);
        assert_eq!(decompress(&cc).len(), 0);
    }
}
