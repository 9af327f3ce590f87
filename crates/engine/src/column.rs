//! Columnar storage: typed vectors with optional validity bitmaps and
//! per-column string dictionaries.
//!
//! Every buffer is immutable once built and reference-counted, so cloning
//! a [`Column`] costs O(1) and shares its buffers: a scan of a stored
//! column, a column reference in an expression and a `CREATE TABLE AS`
//! that keeps a column all hand on the one stored buffer. Writers build a
//! fresh `Vec` and wrap it; code that edits a column in place goes
//! through `Arc::make_mut` or `Arc::unwrap_or_clone`, which copy a buffer
//! that is shared before writing to it.

use std::sync::Arc;

use crate::datum::{DataType, Datum};
use crate::error::EngineError;

/// Physical column data. Strings are dictionary-encoded: `codes[i]` indexes
/// into `dict`.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// 64-bit signed integers.
    Int(Arc<Vec<i64>>),
    /// 64-bit floats.
    Float(Arc<Vec<f64>>),
    /// Dictionary-encoded strings.
    Str {
        /// Distinct values, in first-appearance order.
        dict: Arc<Vec<String>>,
        /// Per-row indexes into `dict`.
        codes: Arc<Vec<u32>>,
    },
}

/// A column: data plus an optional validity mask (`None` = no NULLs).
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// The typed values.
    pub data: ColumnData,
    /// Per-row validity mask (`None` = no NULLs).
    pub validity: Option<Arc<Vec<bool>>>,
}

/// f64 bit pattern with `-0.0` canonicalized to `0.0` — the single
/// equality rule shared by the encoded-key paths in `keys` and row-mode
/// hashing, so they can never diverge.
pub(crate) fn canonical_f64_bits(v: f64) -> u64 {
    if v == 0.0 {
        0.0f64.to_bits()
    } else {
        v.to_bits()
    }
}

impl Column {
    /// An integer column with no NULLs.
    pub fn int(values: Vec<i64>) -> Column {
        Column {
            data: ColumnData::Int(Arc::new(values)),
            validity: None,
        }
    }

    /// A float column with no NULLs.
    pub fn float(values: Vec<f64>) -> Column {
        Column {
            data: ColumnData::Float(Arc::new(values)),
            validity: None,
        }
    }

    /// A dictionary-encoded string column with no NULLs.
    pub fn str(values: Vec<String>) -> Column {
        let mut dict: Vec<String> = Vec::new();
        let mut index: std::collections::HashMap<String, u32> = std::collections::HashMap::new();
        let mut codes = Vec::with_capacity(values.len());
        for v in values {
            let code = *index.entry(v.clone()).or_insert_with(|| {
                dict.push(v);
                (dict.len() - 1) as u32
            });
            codes.push(code);
        }
        Column {
            data: ColumnData::Str {
                dict: Arc::new(dict),
                codes: Arc::new(codes),
            },
            validity: None,
        }
    }

    /// Build a column of type `dtype` from row values: an `Int` value
    /// widens into a `Float` column, and any other value of another type
    /// than `dtype` is a [`EngineError::TypeMismatch`]. A NULL row holds
    /// 0 / 0.0 / code 0, and the column has validity only if a row is NULL.
    pub fn from_datums(dtype: DataType, values: &[Datum]) -> Result<Column, EngineError> {
        /// `f` of every value, `null` for NULL; a value `f` refuses is a
        /// type error.
        fn each<'v, T: Copy>(
            values: &'v [Datum],
            dtype: DataType,
            null: T,
            f: fn(&'v Datum) -> Option<T>,
        ) -> Result<Vec<T>, EngineError> {
            let mut out = Vec::with_capacity(values.len());
            for d in values {
                out.push(match d {
                    Datum::Null => null,
                    d => f(d).ok_or_else(|| {
                        EngineError::TypeMismatch(format!("{d} in a {dtype} column"))
                    })?,
                });
            }
            Ok(out)
        }
        let mut col = match dtype {
            DataType::Int => Column::int(each(values, dtype, 0, |d| match d {
                Datum::Int(x) => Some(*x),
                _ => None,
            })?),
            DataType::Float => Column::float(each(values, dtype, 0.0, Datum::as_f64)?),
            // A NULL row takes the first string's code, 0, as in `concat`.
            DataType::Str => {
                let first = values.iter().find_map(Datum::as_str).unwrap_or_default();
                let strs = each(values, dtype, first, Datum::as_str)?;
                Column::str(strs.into_iter().map(str::to_string).collect())
            }
        };
        col.validity = (values.iter().any(Datum::is_null))
            .then(|| Arc::new(values.iter().map(|v| !v.is_null()).collect()));
        Ok(col)
    }

    /// Vertically concatenate `parts`, which must all have one type: an
    /// empty or all-NULL part cannot turn an Int or Str column into
    /// Float, and parts of different types (or no parts) are a
    /// [`EngineError::TypeMismatch`]. Str parts merge their dictionaries
    /// in first-appearance order, and the result has a validity mask only
    /// if some row is NULL.
    pub fn concat(parts: &[&Column]) -> Result<Column, EngineError> {
        let dtype = match parts.first() {
            Some(c) if parts.iter().all(|p| p.dtype() == c.dtype()) => c.dtype(),
            _ => {
                let types: Vec<DataType> = parts.iter().map(|c| c.dtype()).collect();
                let msg = format!("cannot concatenate columns of types {types:?}");
                return Err(EngineError::TypeMismatch(msg));
            }
        };
        let total = parts.iter().map(|c| c.len()).sum();
        let validity = parts.iter().any(|c| c.null_count() > 0).then(|| {
            Arc::new(
                (parts.iter())
                    .flat_map(|c| (0..c.len()).map(|i| c.is_valid(i)))
                    .collect(),
            )
        });
        // Rows under NULL hold 0 / 0.0 / code 0, as `from_datums` builds them.
        fn numeric<T: Copy + Default>(
            parts: &[&Column],
            total: usize,
            v: impl Fn(&Column) -> &[T],
        ) -> Vec<T> {
            let mut out = Vec::with_capacity(total);
            for c in parts {
                match &c.validity {
                    None => out.extend_from_slice(v(c)),
                    Some(valid) => out.extend((v(c).iter().zip(&valid[..])).map(|(&x, &ok)| {
                        if ok {
                            x
                        } else {
                            T::default()
                        }
                    })),
                }
            }
            out
        }
        let data = match dtype {
            DataType::Int => ColumnData::Int(Arc::new(numeric(parts, total, |c| match &c.data {
                ColumnData::Int(v) => v,
                _ => unreachable!("checked dtype"),
            }))),
            DataType::Float => {
                ColumnData::Float(Arc::new(numeric(parts, total, |c| match &c.data {
                    ColumnData::Float(v) => v,
                    _ => unreachable!("checked dtype"),
                })))
            }
            DataType::Str => {
                let mut dict: Vec<String> = Vec::new();
                let mut index: std::collections::HashMap<&str, u32> =
                    std::collections::HashMap::new();
                let mut out = Vec::with_capacity(total);
                for c in parts {
                    let ColumnData::Str {
                        dict: part_dict,
                        codes,
                    } = &c.data
                    else {
                        unreachable!("checked dtype")
                    };
                    let mut remap: Vec<Option<u32>> = vec![None; part_dict.len()];
                    for (i, &code) in codes.iter().enumerate() {
                        if !c.is_valid(i) {
                            out.push(0);
                            continue;
                        }
                        let slot = &mut remap[code as usize];
                        let merged = *slot.get_or_insert_with(|| {
                            let s = part_dict[code as usize].as_str();
                            *index.entry(s).or_insert_with(|| {
                                dict.push(s.to_string());
                                (dict.len() - 1) as u32
                            })
                        });
                        out.push(merged);
                    }
                }
                if dict.is_empty() {
                    dict.push(String::new());
                }
                ColumnData::Str {
                    dict: Arc::new(dict),
                    codes: Arc::new(out),
                }
            }
        };
        Ok(Column { data, validity })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match &self.data {
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Str { codes, .. } => codes.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's data type.
    pub fn dtype(&self) -> DataType {
        match &self.data {
            ColumnData::Int(_) => DataType::Int,
            ColumnData::Float(_) => DataType::Float,
            ColumnData::Str { .. } => DataType::Str,
        }
    }

    /// Is row `i` non-NULL?
    pub fn is_valid(&self, i: usize) -> bool {
        self.validity.as_ref().is_none_or(|v| v[i])
    }

    /// Number of NULL rows.
    pub fn null_count(&self) -> usize {
        self.validity
            .as_ref()
            .map_or(0, |v| v.iter().filter(|b| !**b).count())
    }

    /// Value at row `i` as a [`Datum`] (NULL-aware).
    pub fn get(&self, i: usize) -> Datum {
        if !self.is_valid(i) {
            return Datum::Null;
        }
        match &self.data {
            ColumnData::Int(v) => Datum::Int(v[i]),
            ColumnData::Float(v) => Datum::Float(v[i]),
            ColumnData::Str { dict, codes } => Datum::Str(dict[codes[i] as usize].clone()),
        }
    }

    /// Numeric value at `i` (NULL → None, strings → None).
    pub fn f64_at(&self, i: usize) -> Option<f64> {
        if !self.is_valid(i) {
            return None;
        }
        match &self.data {
            ColumnData::Int(v) => Some(v[i] as f64),
            ColumnData::Float(v) => Some(v[i]),
            ColumnData::Str { .. } => None,
        }
    }

    /// Gather rows by index, producing a new column (a string column
    /// shares its dictionary).
    pub fn take(&self, indices: &[u32]) -> Column {
        fn gather<T: Copy>(v: &[T], indices: &[u32]) -> Arc<Vec<T>> {
            Arc::new(indices.iter().map(|&i| v[i as usize]).collect())
        }
        let validity = self.validity.as_ref().map(|v| gather(v, indices));
        let data = match &self.data {
            ColumnData::Int(v) => ColumnData::Int(gather(v, indices)),
            ColumnData::Float(v) => ColumnData::Float(gather(v, indices)),
            ColumnData::Str { dict, codes } => ColumnData::Str {
                dict: Arc::clone(dict),
                codes: gather(codes, indices),
            },
        };
        Column { data, validity }
    }

    /// Gather with optional indices; `None` produces NULL (outer joins).
    pub fn take_nullable(&self, indices: &[Option<u32>]) -> Column {
        let mut validity = Vec::with_capacity(indices.len());
        for &ix in indices {
            validity.push(match ix {
                Some(i) => self.is_valid(i as usize),
                None => false,
            });
        }
        fn gather<T: Copy + Default>(v: &[T], indices: &[Option<u32>]) -> Arc<Vec<T>> {
            Arc::new(
                (indices.iter())
                    .map(|ix| ix.map_or(T::default(), |i| v[i as usize]))
                    .collect(),
            )
        }
        let data = match &self.data {
            ColumnData::Int(v) => ColumnData::Int(gather(v, indices)),
            ColumnData::Float(v) => ColumnData::Float(gather(v, indices)),
            ColumnData::Str { dict, codes } => ColumnData::Str {
                dict: Arc::clone(dict),
                codes: gather(codes, indices),
            },
        };
        Column {
            data,
            validity: Some(Arc::new(validity)),
        }
    }

    /// First `n` rows (cheap prefix truncation — no index vector or
    /// bounds-checked gather; `n` is clamped to the column length).
    pub fn head(&self, n: usize) -> Column {
        let n = n.min(self.len());
        fn prefix<T: Clone>(v: &[T], n: usize) -> Arc<Vec<T>> {
            Arc::new(v[..n].to_vec())
        }
        let validity = self.validity.as_ref().map(|v| prefix(v, n));
        let data = match &self.data {
            ColumnData::Int(v) => ColumnData::Int(prefix(v, n)),
            ColumnData::Float(v) => ColumnData::Float(prefix(v, n)),
            ColumnData::Str { dict, codes } => ColumnData::Str {
                dict: Arc::clone(dict),
                codes: prefix(codes, n),
            },
        };
        Column { data, validity }
    }

    /// A copy that shares no buffer with `self`: what a modelled copy
    /// (an external array copied in, an MVCC before-image) must pay for,
    /// where a plain [`Clone`] would share.
    pub fn deep_copy(&self) -> Column {
        fn own<T: Clone>(v: &Arc<Vec<T>>) -> Arc<Vec<T>> {
            Arc::new(v.to_vec())
        }
        let data = match &self.data {
            ColumnData::Int(v) => ColumnData::Int(own(v)),
            ColumnData::Float(v) => ColumnData::Float(own(v)),
            ColumnData::Str { dict, codes } => ColumnData::Str {
                dict: own(dict),
                codes: own(codes),
            },
        };
        Column {
            data,
            validity: self.validity.as_ref().map(own),
        }
    }

    /// Keep only rows where `mask[i]` is true.
    pub fn filter(&self, mask: &[bool]) -> Column {
        debug_assert_eq!(mask.len(), self.len());
        let mut indices = Vec::with_capacity(mask.iter().filter(|b| **b).count());
        for (i, &keep) in mask.iter().enumerate() {
            if keep {
                indices.push(i as u32);
            }
        }
        self.take(&indices)
    }

    /// Coerce to a `Vec<f64>` (NULL → NaN). Errors on string columns.
    pub fn to_f64_vec(&self) -> Result<Vec<f64>, EngineError> {
        let n = self.len();
        let mut out = Vec::with_capacity(n);
        match &self.data {
            ColumnData::Int(v) => {
                for (i, &x) in v.iter().enumerate() {
                    out.push(if self.is_valid(i) { x as f64 } else { f64::NAN });
                }
            }
            ColumnData::Float(v) => {
                for (i, &x) in v.iter().enumerate() {
                    out.push(if self.is_valid(i) { x } else { f64::NAN });
                }
            }
            ColumnData::Str { .. } => {
                return Err(EngineError::TypeMismatch(
                    "cannot coerce string column to f64".into(),
                ))
            }
        }
        Ok(out)
    }

    /// Borrow the i64 data if this is an Int column with no NULLs.
    pub fn as_i64_slice(&self) -> Option<&[i64]> {
        match (&self.data, &self.validity) {
            (ColumnData::Int(v), None) => Some(v),
            _ => None,
        }
    }

    /// Borrow the f64 data if this is a Float column with no NULLs.
    pub fn as_f64_slice(&self) -> Option<&[f64]> {
        match (&self.data, &self.validity) {
            (ColumnData::Float(v), None) => Some(v),
            _ => None,
        }
    }

    /// Rough heap size in bytes (for memory-cap simulation).
    pub fn byte_size(&self) -> usize {
        let base = match &self.data {
            ColumnData::Int(v) => v.len() * 8,
            ColumnData::Float(v) => v.len() * 8,
            ColumnData::Str { dict, codes } => {
                codes.len() * 4 + dict.iter().map(|s| s.len() + 24).sum::<usize>()
            }
        };
        base + self.validity.as_ref().map_or(0, |v| v.len())
    }
}

#[cfg(test)]
impl Column {
    /// Do `self` and `other` hold the very same buffers, data and
    /// validity alike (so equal without comparing a value)?
    pub(crate) fn shares_buffers(&self, other: &Column) -> bool {
        let data = match (&self.data, &other.data) {
            (ColumnData::Int(a), ColumnData::Int(b)) => Arc::ptr_eq(a, b),
            (ColumnData::Float(a), ColumnData::Float(b)) => Arc::ptr_eq(a, b),
            (ColumnData::Str { dict, codes }, ColumnData::Str { dict: d, codes: c }) => {
                Arc::ptr_eq(dict, d) && Arc::ptr_eq(codes, c)
            }
            _ => false,
        };
        data && match (&self.validity, &other.validity) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (a, b) => a.is_none() && b.is_none(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_dictionary_dedup() {
        let c = Column::str(vec!["a".into(), "b".into(), "a".into()]);
        match &c.data {
            ColumnData::Str { dict, codes } => {
                assert_eq!(dict.len(), 2);
                assert_eq!(**codes, vec![0, 1, 0]);
            }
            _ => panic!(),
        }
        assert_eq!(c.get(2), Datum::Str("a".into()));
    }

    #[test]
    fn from_datums_builds_the_type_it_is_given() {
        let c = Column::from_datums(DataType::Int, &[Datum::Int(1), Datum::Null]).unwrap();
        assert_eq!(
            (c.dtype(), c.null_count(), c.get(1)),
            (DataType::Int, 1, Datum::Null)
        );
        // An Int widens into a Float column; nothing else crosses types.
        let c = Column::from_datums(DataType::Float, &[Datum::Int(1), Datum::Float(0.5)]).unwrap();
        assert_eq!(c, Column::float(vec![1.0, 0.5]));
        // No values, or only NULLs: still the type asked for.
        let c = Column::from_datums(DataType::Str, &[Datum::Null]).unwrap();
        assert_eq!((c.dtype(), c.get(0)), (DataType::Str, Datum::Null));
        assert_eq!(
            Column::from_datums(DataType::Int, &[]).unwrap(),
            Column::int(vec![])
        );
        for (dtype, v) in [
            (DataType::Int, Datum::Float(2.0)),
            (DataType::Int, Datum::Str("x".into())),
            (DataType::Float, Datum::Str("x".into())),
            (DataType::Str, Datum::Int(3)),
        ] {
            let err = Column::from_datums(dtype, &[v]).unwrap_err();
            assert!(
                matches!(err, EngineError::TypeMismatch(_)),
                "{dtype}: {err}"
            );
        }
    }

    #[test]
    fn concat_keeps_the_type_of_empty_and_all_null_parts() {
        let nulls = Column::int(vec![0, 0]).take_nullable(&[None, None]);
        let c = Column::concat(&[&nulls, &Column::int(vec![])]).unwrap();
        assert_eq!(c.dtype(), DataType::Int);
        assert_eq!(c.null_count(), 2);
        let empty = Column::str(vec![]);
        let c = Column::concat(&[&empty, &empty]).unwrap();
        assert_eq!((c.dtype(), c.len()), (DataType::Str, 0));
        let c = Column::concat(&[&Column::int(vec![1]), &Column::int(vec![2, 3])]).unwrap();
        assert_eq!(c, Column::int(vec![1, 2, 3]));
    }

    #[test]
    fn concat_of_str_parts_equals_from_datums() {
        let a = Column::str(vec!["x".into(), "unused".into(), "y".into()]).take(&[2, 0]);
        let b = Column::str(vec!["z".into(), "x".into()]).take_nullable(&[Some(1), None, Some(0)]);
        let values: Vec<Datum> = (0..a.len())
            .map(|i| a.get(i))
            .chain((0..b.len()).map(|i| b.get(i)))
            .collect();
        let want = Column::from_datums(DataType::Str, &values).unwrap();
        assert_eq!(Column::concat(&[&a, &b]).unwrap(), want);
        // Parts of different types, or none, are refused.
        let seven = Column::int(vec![7]);
        for parts in [vec![&seven, &b], vec![]] {
            let err = Column::concat(&parts).unwrap_err();
            assert!(matches!(err, EngineError::TypeMismatch(_)), "{err}");
        }
    }

    #[test]
    fn take_and_filter() {
        let c = Column::int(vec![10, 20, 30, 40]);
        let t = c.take(&[3, 0]);
        assert_eq!(t.get(0), Datum::Int(40));
        assert_eq!(t.get(1), Datum::Int(10));
        let f = c.filter(&[true, false, true, false]);
        assert_eq!(f.len(), 2);
        assert_eq!(f.get(1), Datum::Int(30));
    }

    #[test]
    fn take_nullable_produces_nulls() {
        let c = Column::float(vec![1.0, 2.0]);
        let t = c.take_nullable(&[Some(1), None]);
        assert_eq!(t.get(0), Datum::Float(2.0));
        assert_eq!(t.get(1), Datum::Null);
    }

    #[test]
    fn to_f64_nulls_become_nan() {
        let c = Column::from_datums(DataType::Float, &[Datum::Float(1.0), Datum::Null]).unwrap();
        let v = c.to_f64_vec().unwrap();
        assert_eq!(v[0], 1.0);
        assert!(v[1].is_nan());
    }
}
