//! Predicate values as bitmasks. A predicate over `n` rows is one bit per
//! row for TRUE and, when some row is NULL, one bit per row for NULL — SQL's
//! three-valued logic; a row in neither is FALSE. Kernels fill 64 rows per
//! output word without a data-dependent branch, and `AND`/`OR`/`NOT` are
//! word operations.

use std::sync::Arc;

use crate::column::{Column, ColumnData};

/// Bits of `n` rows, 64 per word: row `i` is bit `i & 63` of word `i >> 6`.
pub(crate) fn pack(n: usize, mut bit: impl FnMut(usize) -> bool) -> Vec<u64> {
    let mut out = vec![0u64; n.div_ceil(64)];
    for (w, word) in out.iter_mut().enumerate() {
        let base = w << 6;
        let mut acc = 0u64;
        for j in 0..(n - base).min(64) {
            acc |= (bit(base + j) as u64) << j;
        }
        *word = acc;
    }
    out
}

/// [`pack`] of `f` over every value of `v`.
#[inline]
pub(crate) fn pack_slice<T: Copy>(v: &[T], f: impl Fn(T) -> bool) -> Vec<u64> {
    (v.chunks(64))
        .map(|c| (c.iter().enumerate()).fold(0u64, |acc, (j, &x)| acc | (f(x) as u64) << j))
        .collect()
}

/// [`pack`] of `f` over the pairs of two equally long slices.
#[inline]
pub(crate) fn pack_pair<A: Copy, B: Copy>(a: &[A], b: &[B], f: impl Fn(A, B) -> bool) -> Vec<u64> {
    (a.chunks(64).zip(b.chunks(64)))
        .map(|(ca, cb)| {
            (ca.iter().zip(cb).enumerate())
                .fold(0u64, |acc, (j, (&x, &y))| acc | (f(x, y) as u64) << j)
        })
        .collect()
}

/// The NULL rows of `c` as bits; `None` when it has none.
pub(crate) fn null_bits(c: &Column) -> Option<Vec<u64>> {
    (c.null_count() > 0).then(|| pack_slice(c.validity.as_deref().map_or(&[], |v| &v[..]), |v| !v))
}

/// The bits of the rows of the last word that exist (all of a full word).
fn tail(len: usize) -> u64 {
    match len & 63 {
        0 => u64::MAX,
        r => (1u64 << r) - 1,
    }
}

/// A predicate's value over `len` rows.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Mask {
    len: usize,
    /// Rows that are TRUE. Never set on a NULL row or past `len`.
    true_bits: Vec<u64>,
    /// Rows that are NULL; `None` when no row is.
    null_bits: Option<Vec<u64>>,
}

impl Mask {
    /// `true_bits` where not NULL; `null_bits` kept only if some row is.
    pub(crate) fn new(len: usize, mut true_bits: Vec<u64>, null_bits: Option<Vec<u64>>) -> Mask {
        debug_assert_eq!(true_bits.len(), len.div_ceil(64));
        let null_bits = null_bits.filter(|nb| nb.iter().any(|&w| w != 0));
        if let Some(nb) = &null_bits {
            for (t, &nl) in true_bits.iter_mut().zip(nb) {
                *t &= !nl;
            }
        }
        Mask {
            len,
            true_bits,
            null_bits,
        }
    }

    /// Every row TRUE (`Some(true)`), FALSE, or NULL (`None`).
    pub(crate) fn constant(len: usize, value: Option<bool>) -> Mask {
        let words = len.div_ceil(64);
        let full = || {
            let mut bits = vec![u64::MAX; words];
            if let Some(last) = bits.last_mut() {
                *last = tail(len);
            }
            bits
        };
        match value {
            Some(true) => Mask::new(len, full(), None),
            Some(false) => Mask::new(len, vec![0; words], None),
            None => Mask::new(len, vec![0; words], Some(full())),
        }
    }

    /// A value column read as a predicate: a non-zero number is TRUE
    /// (NaN too), zero and strings are FALSE, NULL is NULL.
    pub(crate) fn truthy(c: &Column) -> Mask {
        let bits = match &c.data {
            ColumnData::Int(v) => pack_slice(v, |x| x != 0),
            ColumnData::Float(v) => pack_slice(v, |x| x != 0.0),
            ColumnData::Str { .. } => vec![0; c.len().div_ceil(64)],
        };
        Mask::new(c.len(), bits, null_bits(c))
    }

    /// The TRUE rows.
    pub(crate) fn true_bits(&self) -> &[u64] {
        &self.true_bits
    }

    /// The NULL rows, if any.
    pub(crate) fn null_bits(&self) -> Option<&[u64]> {
        self.null_bits.as_deref()
    }

    /// Is row `i` TRUE?
    pub(crate) fn is_true(&self, i: usize) -> bool {
        self.true_bits[i >> 6] >> (i & 63) & 1 == 1
    }

    /// Is row `i` NULL?
    pub(crate) fn is_null(&self, i: usize) -> bool {
        (self.null_bits.as_ref()).is_some_and(|nb| nb[i >> 6] >> (i & 63) & 1 == 1)
    }

    /// `NOT`: TRUE and FALSE swap, NULL stays NULL.
    pub(crate) fn not(mut self) -> Mask {
        let nulls = self.null_bits.as_deref();
        for (w, t) in self.true_bits.iter_mut().enumerate() {
            *t = !*t & !nulls.map_or(0, |nb| nb[w]);
        }
        if let Some(last) = self.true_bits.last_mut() {
            *last &= tail(self.len);
        }
        self
    }

    /// `AND`: FALSE if either side is, else NULL if either side is.
    pub(crate) fn and(mut self, other: &Mask) -> Mask {
        debug_assert_eq!(self.len, other.len);
        let null_bits = match (&self.null_bits, &other.null_bits) {
            (None, None) => None,
            (a, b) => Some(
                (0..self.true_bits.len())
                    .map(|w| {
                        let (ta, tb) = (self.true_bits[w], other.true_bits[w]);
                        let (na, nb) = (
                            a.as_ref().map_or(0, |a| a[w]),
                            b.as_ref().map_or(0, |b| b[w]),
                        );
                        (na & (tb | nb)) | (nb & (ta | na))
                    })
                    .collect(),
            ),
        };
        for (t, &o) in self.true_bits.iter_mut().zip(&other.true_bits) {
            *t &= o;
        }
        Mask::new(self.len, self.true_bits, null_bits)
    }

    /// `OR`: TRUE if either side is, else NULL if either side is.
    pub(crate) fn or(mut self, other: &Mask) -> Mask {
        debug_assert_eq!(self.len, other.len);
        for (t, &o) in self.true_bits.iter_mut().zip(&other.true_bits) {
            *t |= o;
        }
        let null_bits = match (self.null_bits, &other.null_bits) {
            (None, None) => None,
            (a, b) => Some(
                (0..self.true_bits.len())
                    .map(|w| {
                        let n = a.as_ref().map_or(0, |a| a[w]) | b.as_ref().map_or(0, |b| b[w]);
                        n & !self.true_bits[w]
                    })
                    .collect(),
            ),
        };
        Mask::new(self.len, self.true_bits, null_bits)
    }

    /// The 0/1 `Int` column of the predicate, NULL where it is NULL.
    pub(crate) fn into_column(self) -> Column {
        let values = (0..self.len).map(|i| self.is_true(i) as i64).collect();
        Column {
            data: ColumnData::Int(Arc::new(values)),
            validity: (self.null_bits.as_ref())
                .map(|_| Arc::new((0..self.len).map(|i| !self.is_null(i)).collect())),
        }
    }

    /// The TRUE rows, ascending, as ids: row `i` is `sel[i]` when a
    /// selection is given (the mask is positional over it), else `i`.
    pub(crate) fn select(&self, sel: Option<&[u32]>) -> Vec<u32> {
        let count = self.true_bits.iter().map(|w| w.count_ones() as usize).sum();
        let mut out = Vec::with_capacity(count);
        match sel {
            Some(sel) => for_each_set(&self.true_bits, |i| out.push(sel[i])),
            None => for_each_set(&self.true_bits, |i| out.push(i as u32)),
        }
        out
    }
}

/// Call `f` with the index of every set bit, ascending.
#[inline]
pub(crate) fn for_each_set(bits: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in bits.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            f(w << 6 | rest.trailing_zeros() as usize);
            rest &= rest - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datum::{DataType, Datum};

    /// Row `i` of a mask as SQL's three truth values.
    fn values(m: &Mask) -> Vec<Option<bool>> {
        (0..m.len)
            .map(|i| (!m.is_null(i)).then(|| m.is_true(i)))
            .collect()
    }

    #[test]
    fn word_operations_follow_three_valued_logic() {
        let all = [Some(true), Some(false), None];
        // Every pair of truth values, 9 rows, repeated past a word edge.
        let (a, b): (Vec<_>, Vec<_>) = (0..70).map(|i| (all[i % 3], all[i / 3 % 3])).unzip();
        let mask = |v: &[Option<bool>]| {
            let datums: Vec<Datum> = (v.iter())
                .map(|x| x.map_or(Datum::Null, |b| Datum::Int(b as i64)))
                .collect();
            Mask::truthy(&Column::from_datums(DataType::Int, &datums).unwrap())
        };
        let (ma, mb) = (mask(&a), mask(&b));
        let and = |x: Option<bool>, y: Option<bool>| match (x, y) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        };
        let or = |x: Option<bool>, y: Option<bool>| match (x, y) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        };
        let zip = |f: &dyn Fn(Option<bool>, Option<bool>) -> Option<bool>| -> Vec<Option<bool>> {
            a.iter().zip(&b).map(|(&x, &y)| f(x, y)).collect()
        };
        assert_eq!(values(&ma.clone().and(&mb)), zip(&and));
        assert_eq!(values(&ma.clone().or(&mb)), zip(&or));
        let not: Vec<Option<bool>> = a.iter().map(|x| x.map(|b| !b)).collect();
        assert_eq!(values(&ma.clone().not()), not);
        // NOT leaves no bit past the last row.
        assert_eq!(ma.not().true_bits()[1] >> 6, 0);
    }

    #[test]
    fn constants_and_selection() {
        for len in [0, 1, 63, 64, 65, 130] {
            assert_eq!(Mask::constant(len, Some(true)).select(None).len(), len);
            assert!(Mask::constant(len, Some(false)).select(None).is_empty());
            let nulls = Mask::constant(len, None);
            assert!((0..len).all(|i| nulls.is_null(i) && !nulls.is_true(i)));
            assert_eq!(nulls.clone().not(), nulls);
        }
        let m = Mask::truthy(&Column::int(vec![0, 1, 1, 0, 1]));
        assert_eq!(m.select(None), vec![1, 2, 4]);
        assert_eq!(m.select(Some(&[10, 11, 12, 13, 14])), vec![11, 12, 14]);
        assert_eq!(
            m.null_bits(),
            None,
            "a NULL-free predicate has no NULL bits"
        );
    }
}
