//! Checked byte codec for columns, shared by the page store, the WAL, the
//! in-memory catalog and the wire protocol.
//!
//! [`encode_column`] writes the *plain* image, the wire's column body:
//! `f64`s travel by bit pattern (`to_bits`, little-endian), strings as a
//! dictionary plus `u32` codes, and validity as a packed LSB-first
//! bitmap. [`encode_stored_column`] writes the *storage* image that pages
//! and the WAL hold: the plain image, except that an Int column is
//! bit-packed at its value width when that is smaller.
//! One decoder, [`decode_column`], reads both, so stores written before
//! the packed image existed still open. It is fully checked: every read
//! is bounds-checked and every element count is validated against the
//! remaining bytes *before* any allocation, so truncated or bit-flipped
//! input produces an [`EngineError`] — never a panic, never an attempt to
//! allocate more than the buffer can justify.
//!
//! [`encode_rle_column`] writes the *run-length* image a compressing
//! in-memory catalog holds a column in when that is smaller (values and
//! validity as runs). Only [`decode_rle_image`] reads it: a 12-byte run
//! may stand for 2³² rows, so its allocation is bounded by the row count,
//! not the bytes. Images the catalog did not encode must never reach it;
//! the shared decoder, which the WAL and the wire feed, refuses its tag.

use std::sync::Arc;

use crate::column::{Column, ColumnData};
use crate::datum::DataType;
use crate::error::{EngineError, Result};

/// Data-type tag for integer columns.
const TAG_INT: u8 = 0;
/// Data-type tag for float columns.
const TAG_FLOAT: u8 = 1;
/// Data-type tag for dictionary-encoded string columns.
const TAG_STR: u8 = 2;
/// Data-type tag for bit-packed integer columns (storage image only).
const TAG_INT_PACKED: u8 = 3;
/// Data-type tag for run-length-encoded columns (in-memory catalog image
/// only), followed by the plain tag, which is the data type's discriminant.
const TAG_RLE: u8 = 4;
const _: () = assert!(DataType::Float as u8 == TAG_FLOAT && DataType::Str as u8 == TAG_STR);

/// Construct the uniform corrupt-input error.
pub(crate) fn corrupt(what: &str) -> EngineError {
    EngineError::Corrupt(format!("column bytes: {what}"))
}

/// Bounds-checked cursor over a byte buffer.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Start reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consume exactly `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(corrupt("truncated"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next byte, not consumed.
    pub fn peek(&self) -> Result<u8> {
        (self.buf.get(self.pos).copied()).ok_or_else(|| corrupt("truncated"))
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(self.u64()? as i64)
    }

    /// Read an element count and validate it against the remaining bytes
    /// (each element occupies at least `elem_size` bytes), so a corrupted
    /// length can never drive an oversized allocation.
    pub fn count(&mut self, elem_size: usize, what: &str) -> Result<usize> {
        let n = self.u64()?;
        let max = (self.remaining() / elem_size.max(1)) as u64;
        if n > max {
            return Err(corrupt(what));
        }
        Ok(n as usize)
    }

    /// Read a `u32`-length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("string utf-8"))
    }

    /// Assert the buffer was consumed exactly.
    pub fn done(&self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(corrupt("trailing bytes"));
        }
        Ok(())
    }
}

/// Append a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, x: u32) {
    out.extend_from_slice(&x.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

/// Append a `u32`-length-prefixed string.
pub fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Serialize one column's storage image: an Int column whose values span
/// less than 2^63 is written bit-packed when that is smaller than its
/// plain image — the tag, the row count `n`, `base` (the minimum), a
/// width `bits` in 1..=63, then `⌈n·bits/64⌉` little-endian `u64` words
/// holding each `value − base` LSB-first, then the validity block of
/// [`encode_column`]. Every other column is its plain image.
pub fn encode_stored_column(out: &mut Vec<u8>, col: &Column) {
    let packing = match &col.data {
        ColumnData::Int(v) => packing(v).map(|p| (v, p)),
        _ => None,
    };
    let Some((v, (base, bits))) = packing else {
        return encode_column(out, col);
    };
    out.push(TAG_INT_PACKED);
    put_u64(out, v.len() as u64);
    out.extend_from_slice(&base.to_le_bytes());
    out.push(bits as u8);
    let (mut acc, mut fill) = (0u64, 0u32);
    for &x in v.iter() {
        let d = x.wrapping_sub(base) as u64;
        acc |= d << fill;
        fill += bits;
        if fill >= 64 {
            put_u64(out, acc);
            fill -= 64;
            // The high `fill` bits of `d` did not fit; `fill < bits`.
            acc = d >> (bits - fill);
        }
    }
    if fill > 0 {
        put_u64(out, acc);
    }
    encode_validity(out, col);
}

/// `base` (the minimum of `v`) and the width `bits` (at least 1) its span
/// needs, when the packed image is smaller than the plain one; `None` for
/// an empty `v`, a span of 2^63 or more, or no saving.
fn packing(v: &[i64]) -> Option<(i64, u32)> {
    let (&first, rest) = v.split_first()?;
    let (min, max) = rest
        .iter()
        .fold((first, first), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    let span = max.wrapping_sub(min) as u64;
    if span >= 1 << 63 {
        return None;
    }
    let bits = (64 - span.leading_zeros()).max(1);
    let words = (v.len() * bits as usize).div_ceil(64);
    // Tag, n, base and bits ahead of the words; tag and n ahead of the values.
    (1 + 8 + 8 + 1 + 8 * words < 1 + 8 + 8 * v.len()).then_some((min, bits))
}

/// Serialize one column's plain image: data tag, row/element counts,
/// values (floats by bit pattern), then a validity tag (`0` = no NULLs,
/// `1` = packed bitmap, LSB-first within each byte).
pub fn encode_column(out: &mut Vec<u8>, col: &Column) {
    match &col.data {
        ColumnData::Int(v) => {
            out.push(TAG_INT);
            put_u64(out, v.len() as u64);
            for &x in v.iter() {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
        ColumnData::Float(v) => {
            out.push(TAG_FLOAT);
            put_u64(out, v.len() as u64);
            for &x in v.iter() {
                put_u64(out, x.to_bits());
            }
        }
        ColumnData::Str { dict, codes } => {
            out.push(TAG_STR);
            put_dict(out, dict);
            put_u64(out, codes.len() as u64);
            for &c in codes.iter() {
                put_u32(out, c);
            }
        }
    }
    encode_validity(out, col);
}

/// Append a dictionary: its `u64` entry count, then each entry.
fn put_dict(out: &mut Vec<u8>, dict: &[String]) {
    put_u64(out, dict.len() as u64);
    for s in dict {
        put_string(out, s);
    }
}

/// Read a dictionary written by [`put_dict`].
fn decode_dict(r: &mut ByteReader<'_>) -> Result<Vec<String>> {
    let n = r.count(4, "dict entries")?;
    let mut dict = Vec::with_capacity(n);
    for _ in 0..n {
        dict.push(r.string()?);
    }
    Ok(dict)
}

/// Append the validity block every column image but the RLE one ends
/// with.
fn encode_validity(out: &mut Vec<u8>, col: &Column) {
    match &col.validity {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            let mut packed = vec![0u8; v.len().div_ceil(8)];
            for (i, &b) in v.iter().enumerate() {
                if b {
                    packed[i / 8] |= 1 << (i % 8);
                }
            }
            out.extend_from_slice(&packed);
        }
    }
}

/// Decode one column written by [`encode_column`] or
/// [`encode_stored_column`], bit-exactly. A plain Int, Float or Str-code
/// image is validated by its count, taken in one checked
/// [`ByteReader::take`] of `n·width` bytes and read chunk by chunk; Str
/// codes are then checked against the dictionary.
pub fn decode_column(r: &mut ByteReader<'_>) -> Result<Column> {
    let tag = r.u8()?;
    let data = match tag {
        TAG_INT => {
            let n = r.count(8, "int rows")?;
            ColumnData::Int(Arc::new(le_values(r.take(n * 8)?, i64::from_le_bytes)))
        }
        TAG_INT_PACKED => ColumnData::Int(Arc::new(decode_packed(r)?)),
        TAG_FLOAT => {
            let n = r.count(8, "float rows")?;
            let bits = |b| f64::from_bits(u64::from_le_bytes(b));
            ColumnData::Float(Arc::new(le_values(r.take(n * 8)?, bits)))
        }
        TAG_STR => {
            let dict = decode_dict(r)?;
            let cn = r.count(4, "string codes")?;
            let codes = le_values(r.take(cn * 4)?, u32::from_le_bytes);
            if codes.iter().any(|&c| c as usize >= dict.len()) {
                return Err(corrupt("string code out of dictionary range"));
            }
            ColumnData::Str {
                dict: Arc::new(dict),
                codes: Arc::new(codes),
            }
        }
        _ => return Err(corrupt("unknown data tag")),
    };
    let rows = match &data {
        ColumnData::Int(v) => v.len(),
        ColumnData::Float(v) => v.len(),
        ColumnData::Str { codes, .. } => codes.len(),
    };
    let validity = match r.u8()? {
        0 => None,
        1 => {
            let packed = r.take(rows.div_ceil(8))?;
            Some(Arc::new(
                (0..rows)
                    .map(|i| packed[i / 8] & (1 << (i % 8)) != 0)
                    .collect(),
            ))
        }
        _ => return Err(corrupt("unknown validity tag")),
    };
    Ok(Column { data, validity })
}

/// Decode the one column `bytes` hold, with no bytes after it.
pub fn decode_image(bytes: &[u8]) -> Result<Column> {
    let mut r = ByteReader::new(bytes);
    let col = decode_column(&mut r)?;
    r.done()?;
    Ok(col)
}

/// The little-endian `W`-byte values of `bytes` (whose length
/// [`ByteReader::count`] has checked and [`ByteReader::take`] has
/// taken), each read by `f`: one pass over fixed-size chunks, with no
/// bounds check per value.
fn le_values<const W: usize, T>(bytes: &[u8], f: impl Fn([u8; W]) -> T) -> Vec<T> {
    (bytes.chunks_exact(W))
        .map(|b| f(b.try_into().expect("chunks are W bytes")))
        .collect()
}

/// The values of a [`TAG_INT_PACKED`] image, read after its tag.
fn decode_packed(r: &mut ByteReader<'_>) -> Result<Vec<i64>> {
    let n = r.u64()?;
    let base = r.i64()?;
    let bits = u32::from(r.u8()?);
    if !(1..64).contains(&bits) {
        return Err(corrupt("packed width"));
    }
    let words = (u128::from(n) * u128::from(bits)).div_ceil(64);
    if words > (r.remaining() / 8) as u128 {
        return Err(corrupt("packed words"));
    }
    let words = r.take(words as usize * 8)?;
    // `n ≤ 64·words`, and the words are in the buffer: bounded by input.
    let n = usize::try_from(n).map_err(|_| corrupt("packed rows"))?;
    let mask = (1u64 << bits) - 1;
    let mut next = words
        .chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes")));
    let mut v = Vec::with_capacity(n);
    let (mut acc, mut avail) = (0u64, 0u32);
    for _ in 0..n {
        let d = if avail >= bits {
            let d = acc & mask;
            acc >>= bits;
            avail -= bits;
            d
        } else {
            let w = next.next().expect("⌈n·bits/64⌉ words cover n values");
            let d = (acc | w << avail) & mask;
            acc = w >> (bits - avail);
            avail += 64 - bits;
            d
        };
        v.push(base.wrapping_add(d as i64));
    }
    if acc != 0 {
        return Err(corrupt("packed tail bits"));
    }
    Ok(v)
}

/// Serialize one column's run-length image: its tag, the plain data
/// tag, the row count, the value runs (a `u64` count, then each run's
/// `u64` value, bit pattern or code and its `u32` length), a Str column's
/// dictionary, then `0` without NULLs, or `1` and the validity runs (a
/// `u8` bit and a `u32` length each). [`rle_len`] sizes it without
/// encoding.
pub fn encode_rle_column(out: &mut Vec<u8>, col: &Column) {
    out.extend([TAG_RLE, col.dtype() as u8]);
    put_u64(out, col.len() as u64);
    match &col.data {
        ColumnData::Int(v) => put_runs(out, v, |x| x as u64, put_u64),
        ColumnData::Float(v) => put_runs(out, v, f64::to_bits, put_u64),
        ColumnData::Str { dict, codes } => {
            put_runs(out, codes, u64::from, put_u64);
            put_dict(out, dict);
        }
    }
    out.push(u8::from(col.validity.is_some()));
    if let Some(v) = &col.validity {
        put_runs(out, v, |b| b, |out, b| out.push(u8::from(b)));
    }
}

/// Append the runs of `v`, its values compared through `key`: the run
/// count, then each run's key, written by `put`, and its `u32` length.
fn put_runs<T: Copy, K: Copy + PartialEq>(
    out: &mut Vec<u8>,
    v: &[T],
    key: impl Fn(T) -> K,
    put: impl Fn(&mut Vec<u8>, K),
) {
    put_u64(out, run_count(v, &key) as u64);
    for run in v.chunk_by(|&a, &b| key(a) == key(b)) {
        put(out, key(run[0]));
        put_u32(out, run.len() as u32);
    }
}

/// How many runs [`put_runs`] writes for `v`: the first row, plus each row
/// whose key differs from the row before, neighbours compared with no
/// branch per row. Row ids are `u32`, so every run length fits a `u32`.
fn run_count<T: Copy, K: PartialEq>(v: &[T], key: impl Fn(T) -> K) -> usize {
    debug_assert!(v.len() < u32::MAX as usize);
    let changes: usize = (v.iter().zip(v.iter().skip(1)))
        .map(|(&a, &b)| usize::from(key(a) != key(b)))
        .sum();
    usize::from(!v.is_empty()) + changes
}

/// The length of [`encode_rle_column`]'s image of `col`, from run counts
/// over its slices: values (Float by bit pattern), Str codes and validity.
pub fn rle_len(col: &Column) -> usize {
    let (runs, dict) = match &col.data {
        ColumnData::Int(v) => (run_count(v, |x| x), 0),
        ColumnData::Float(v) => (run_count(v, f64::to_bits), 0),
        ColumnData::Str { dict, codes } => {
            let entries: usize = dict.iter().map(|s| 4 + s.len()).sum();
            (run_count(codes, |c| c), 8 + entries)
        }
    };
    let validity = (col.validity.as_ref()).map_or(0, |v| 8 + 5 * run_count(v, |b| b));
    2 + 8 + dict + 8 + 12 * runs + 1 + validity
}

/// The column of the [`encode_rle_column`] image `bytes`, with no bytes
/// after it. Every run is read and checked before the rows are
/// allocated: non-empty runs that cover exactly the row count, a Str code
/// inside the dictionary and a validity bit of 0 or 1.
pub fn decode_rle_image(bytes: &[u8]) -> Result<Column> {
    let r = &mut ByteReader::new(bytes);
    if r.u8()? != TAG_RLE {
        return Err(corrupt("not a run-length image"));
    }
    let (tag, rows) = (r.u8()?, r.u64()?);
    let runs = read_runs(r, rows, 8, ByteReader::u64)?;
    let dict = (tag == TAG_STR).then(|| decode_dict(r)).transpose()?;
    let validity = match r.u8()? {
        0 => None,
        1 => Some(read_runs(r, rows, 1, ByteReader::u8)?),
        _ => return Err(corrupt("unknown validity tag")),
    };
    let outside = |d: &Vec<String>| runs.iter().any(|&(c, _)| c >= d.len() as u64);
    if dict.as_ref().is_some_and(outside) || validity.iter().flatten().any(|&(b, _)| b > 1) {
        return Err(corrupt("run value out of range"));
    }
    r.done()?;
    let n = rows as usize;
    let data = match (tag, dict) {
        (TAG_INT, _) => ColumnData::Int(expand(&runs, n, |b| b as i64)),
        (TAG_FLOAT, _) => ColumnData::Float(expand(&runs, n, f64::from_bits)),
        (_, Some(dict)) => ColumnData::Str {
            dict: Arc::new(dict),
            codes: expand(&runs, n, |c| c as u32),
        },
        _ => return Err(corrupt("unknown run-length data tag")),
    };
    let validity = validity.map(|runs| expand(&runs, n, |b| b == 1));
    Ok(Column { data, validity })
}

/// Runs of (key, `u32` length) as [`put_runs`] writes them, each key
/// `key_len` bytes read by `key`: the count is checked against the bytes
/// left, and the runs must be non-empty and cover exactly `rows` rows.
fn read_runs<'a, K>(
    r: &mut ByteReader<'a>,
    rows: u64,
    key_len: usize,
    key: impl Fn(&mut ByteReader<'a>) -> Result<K>,
) -> Result<Vec<(K, u32)>> {
    let n = r.count(key_len + 4, "runs")?;
    let runs = (0..n)
        .map(|_| Ok((key(r)?, r.u32()?)))
        .collect::<Result<Vec<_>>>()?;
    let covered: u128 = runs.iter().map(|&(_, len)| u128::from(len)).sum();
    if runs.iter().any(|&(_, len)| len == 0) || covered != u128::from(rows) {
        return Err(corrupt("runs that are empty or miss the row count"));
    }
    Ok(runs)
}

/// The `rows` values `runs` cover, each mapped through `f`.
fn expand<K: Copy, T: Clone>(runs: &[(K, u32)], rows: usize, f: impl Fn(K) -> T) -> Arc<Vec<T>> {
    let mut v = Vec::with_capacity(rows);
    for &(k, n) in runs {
        v.extend(std::iter::repeat_n(f(k), n as usize));
    }
    Arc::new(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datum::Datum;

    fn roundtrip(col: &Column) -> Column {
        let mut buf = Vec::new();
        encode_column(&mut buf, col);
        let mut r = ByteReader::new(&buf);
        let back = decode_column(&mut r).unwrap();
        r.done().unwrap();
        back
    }

    #[test]
    fn roundtrips_every_dtype() {
        let cols = [
            Column::int(vec![i64::MIN, -1, 0, i64::MAX]),
            Column::float(vec![0.0, -0.0, f64::NAN, f64::INFINITY, 1.5e-300]),
            Column::str(vec!["a".into(), "".into(), "a".into(), "日本".into()]),
            Column::from_datums(&[Datum::Null, Datum::Int(7), Datum::Null]),
            Column::int(vec![]),
        ];
        for col in &cols {
            let back = roundtrip(col);
            assert_eq!(back.len(), col.len());
            let mut a = Vec::new();
            let mut b = Vec::new();
            encode_column(&mut a, col);
            encode_column(&mut b, &back);
            assert_eq!(a, b, "re-encoding must be byte-identical");
        }
    }

    #[test]
    fn truncation_errors_at_every_cut() {
        let mut buf = Vec::new();
        encode_column(
            &mut buf,
            &Column::from_datums(&[Datum::Str("xy".into()), Datum::Null, Datum::Str("z".into())]),
        );
        for cut in 0..buf.len() {
            let mut r = ByteReader::new(&buf[..cut]);
            let res = decode_column(&mut r).and_then(|_| r.done());
            assert!(res.is_err(), "cut at {cut} must not decode");
        }
    }

    #[test]
    fn oversized_count_is_rejected_before_allocating() {
        // Tag says "int column with u64::MAX rows" over a 9-byte buffer.
        let mut buf = vec![TAG_INT];
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        let mut r = ByteReader::new(&buf);
        assert!(decode_column(&mut r).is_err());
    }

    /// The storage image of `col` and its decode.
    fn stored(col: &Column) -> (Vec<u8>, Column) {
        let mut buf = Vec::new();
        encode_stored_column(&mut buf, col);
        let mut r = ByteReader::new(&buf);
        let back = decode_column(&mut r).unwrap();
        r.done().unwrap();
        (buf, back)
    }

    /// A packed header for `n` rows at `bits`, base 0, then `words`.
    fn packed_header(n: u64, bits: u8, words: &[u64]) -> Vec<u8> {
        let mut buf = vec![TAG_INT_PACKED];
        put_u64(&mut buf, n);
        put_u64(&mut buf, 0);
        buf.push(bits);
        for &w in words {
            put_u64(&mut buf, w);
        }
        buf.push(0);
        buf
    }

    #[test]
    fn narrow_int_columns_pack_and_roundtrip_bit_exactly() {
        let cases = [
            (Column::int((0..1000).map(|i| i % 100).collect()), 7),
            (Column::int(vec![42; 300]), 1),
            (Column::int((0..200).map(|i| i64::MIN + i % 3).collect()), 2),
            (Column::int((0..200).map(|i| i64::MAX - i % 5).collect()), 3),
            (Column::int((0..200).map(|i| -(i << 40)).collect()), 48),
            (Column::int((0..130).map(|i| (i % 2) << 62).collect()), 63),
            (
                Column::from_datums(
                    &(0..500)
                        .map(|i| match i % 7 {
                            0 => Datum::Null,
                            _ => Datum::Int(-3 + i % 11),
                        })
                        .collect::<Vec<_>>(),
                ),
                4,
            ),
        ];
        for (col, bits) in &cases {
            let (buf, back) = stored(col);
            assert_eq!(buf[0], TAG_INT_PACKED);
            assert_eq!(u32::from(buf[17]), *bits);
            let (mut plain, mut again) = (Vec::new(), Vec::new());
            encode_column(&mut plain, col);
            encode_column(&mut again, &back);
            assert_eq!(again, plain, "decode is bit-exact, validity included");
            assert!(buf.len() < plain.len());
        }
    }

    #[test]
    fn wide_short_and_non_int_columns_stay_plain() {
        for col in [
            Column::int(vec![i64::MIN, i64::MAX]),
            Column::int(
                (0..100)
                    .map(|i| if i % 2 == 0 { i64::MIN } else { -1 })
                    .collect(),
            ),
            Column::int(vec![5]),
            Column::int(vec![]),
            Column::float(vec![1.0; 100]),
        ] {
            let (buf, back) = stored(&col);
            let mut plain = Vec::new();
            encode_column(&mut plain, &col);
            assert_eq!(buf, plain);
            assert_eq!(back, col);
        }
    }

    #[test]
    fn packed_width_outside_1_to_63_is_rejected() {
        for bits in [0, 64, 255] {
            let buf = packed_header(1, bits, &[0]);
            assert!(decode_column(&mut ByteReader::new(&buf)).is_err(), "{bits}");
        }
        let buf = packed_header(1, 63, &[0]);
        assert!(decode_column(&mut ByteReader::new(&buf)).is_ok());
    }

    #[test]
    fn oversized_packed_count_is_rejected_before_allocating() {
        let buf = packed_header(u64::MAX, 1, &[0]);
        assert!(decode_column(&mut ByteReader::new(&buf)).is_err());
    }

    #[test]
    fn non_zero_bits_past_the_packed_values_are_rejected() {
        // Three 7-bit values use bits 0..21 of the one word.
        let buf = packed_header(3, 7, &[1 << 21]);
        assert!(decode_column(&mut ByteReader::new(&buf)).is_err());
        let buf = packed_header(3, 7, &[(1 << 21) - 1]);
        let col = decode_column(&mut ByteReader::new(&buf)).unwrap();
        assert_eq!(col, Column::int(vec![127; 3]));
    }

    #[test]
    fn out_of_range_string_code_is_rejected() {
        let mut buf = Vec::new();
        encode_column(&mut buf, &Column::str(vec!["a".into(), "b".into()]));
        // Flip a code (last 5 bytes are: code u32, validity tag) far out of
        // the 2-entry dictionary's range.
        let n = buf.len();
        buf[n - 3] = 0xFF;
        let mut r = ByteReader::new(&buf);
        assert!(decode_column(&mut r).is_err());
    }

    /// The RLE image of `col`, checked to decode back to `col`'s plain
    /// image byte for byte.
    fn rle_image(col: &Column) -> Vec<u8> {
        let mut image = Vec::new();
        encode_rle_column(&mut image, col);
        let (mut plain, mut again) = (Vec::new(), Vec::new());
        encode_column(&mut plain, col);
        encode_column(&mut again, &decode_rle_image(&image).unwrap());
        assert_eq!(again, plain, "{col:?}");
        image
    }

    /// How many runs a run-length encoding of `v` by `key` holds, counted
    /// the obvious way.
    fn pairs<T: Copy, K: PartialEq>(v: &[T], key: impl Fn(T) -> K) -> usize {
        v.chunk_by(|&a, &b| key(a) == key(b)).count()
    }

    #[test]
    fn run_counts_equal_the_pairs_rle_emits_and_pick_the_same_encoding() {
        use crate::storage::StoredColumn;
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
            let image = rle_image(&col);
            assert_eq!(rle_len(&col), image.len(), "{col:?}");
            // The byte-size model the catalog sized runs by before the
            // image existed: 12 B per value run, 5 B per validity run,
            // 24 B plus the bytes per dictionary entry.
            let (runs, entries, dict) = match &col.data {
                ColumnData::Int(v) => (pairs(v, |x| x), 0, 0),
                ColumnData::Float(v) => (pairs(v, f64::to_bits), 0, 0),
                ColumnData::Str { dict, codes } => (
                    pairs(codes, |c| c),
                    dict.len(),
                    dict.iter().map(|s| s.len() + 24).sum(),
                ),
            };
            let validity = col.validity.as_ref().map_or(0, |v| pairs(v, |b| b));
            let model = 12 * runs + dict + 5 * validity;
            assert!(image.len() <= model + 32, "{} > {model} + 32", image.len());
            // The image is chosen when it is smaller with its dictionary
            // charged as the model charges it: never where the model alone
            // would not have been, and never larger than the plain column.
            let want_rle = image.len() + 20 * entries < col.byte_size();
            assert!(!want_rle || (model < col.byte_size() && image.len() < col.byte_size()));
            match StoredColumn::store(&col, true, None).unwrap() {
                StoredColumn::Rle { image: stored, .. } => {
                    assert!(want_rle);
                    assert_eq!(&stored[..], &image[..]);
                    encodings[1] += 1;
                }
                StoredColumn::Plain(_) => {
                    assert!(!want_rle);
                    encodings[0] += 1;
                }
                StoredColumn::Paged(_) => unreachable!("no paged store"),
            }
        }
        assert!(encodings.iter().all(|&k| k > 0), "both encodings chosen");
    }

    /// An RLE image of `rows` rows of `tag` (a Str one over `dict`) with
    /// the value runs `runs` and no NULLs.
    fn rle_header(tag: u8, rows: u64, dict: &[&str], runs: &[(u64, u32)]) -> Vec<u8> {
        let mut buf = vec![TAG_RLE, tag];
        put_u64(&mut buf, rows);
        put_u64(&mut buf, runs.len() as u64);
        for &(bits, len) in runs {
            put_u64(&mut buf, bits);
            put_u32(&mut buf, len);
        }
        if tag == TAG_STR {
            let dict: Vec<String> = dict.iter().map(|s| s.to_string()).collect();
            put_dict(&mut buf, &dict);
        }
        buf.push(0);
        buf
    }

    #[test]
    fn rle_runs_that_miss_the_row_count_or_the_dictionary_are_corrupt() {
        let ok = rle_header(TAG_INT, 5, &[], &[(7, 2), (9, 3)]);
        assert_eq!(
            decode_rle_image(&ok).unwrap(),
            Column::int(vec![7, 7, 9, 9, 9])
        );
        let ok = rle_header(TAG_STR, 3, &["a", "b"], &[(1, 3)]);
        let strs = decode_rle_image(&ok).unwrap();
        assert!((0..3).all(|i| strs.get(i) == Datum::Str("b".into())));
        for (what, bad) in [
            ("short", rle_header(TAG_INT, 6, &[], &[(7, 2), (9, 3)])),
            ("long", rle_header(TAG_FLOAT, 4, &[], &[(7, 2), (9, 3)])),
            (
                "wrapping",
                rle_header(TAG_INT, 2, &[], &[(1, u32::MAX), (2, 3)]),
            ),
            (
                "empty run",
                rle_header(TAG_INT, 5, &[], &[(7, 2), (8, 0), (9, 3)]),
            ),
            (
                "code",
                rle_header(TAG_STR, 3, &["a", "b"], &[(0, 1), (2, 2)]),
            ),
            ("huge code", rle_header(TAG_STR, 1, &["a"], &[(1 << 32, 1)])),
        ] {
            let err = decode_rle_image(&bad).unwrap_err();
            assert!(matches!(err, EngineError::Corrupt(_)), "{what}: {err}");
        }
        // Validity runs obey the row count and carry only 0 or 1.
        let mut nulls = rle_header(TAG_INT, 2, &[], &[(7, 2)]);
        nulls.pop();
        nulls.push(1);
        put_u64(&mut nulls, 1);
        nulls.push(1);
        for (len, bad) in [(2, false), (3, true)] {
            let mut image = nulls.clone();
            put_u32(&mut image, len);
            assert_eq!(decode_rle_image(&image).is_err(), bad, "{len}");
        }
        let mut image = nulls.clone();
        *image.last_mut().unwrap() = 2;
        put_u32(&mut image, 2);
        assert!(decode_rle_image(&image).is_err(), "a validity bit of 2");
    }

    #[test]
    fn the_shared_decoder_refuses_run_length_images() {
        // One 12-byte run standing for 2³²−1 rows: the image is 35 bytes,
        // the rows it stands for 34 GB. The WAL and the wire read through
        // `decode_column`, which must refuse the tag before reading on.
        let huge = rle_header(TAG_INT, u64::from(u32::MAX), &[], &[(7, u32::MAX)]);
        let small = rle_image(&Column::int(vec![7; 100]));
        for image in [&huge, &small] {
            let err = decode_column(&mut ByteReader::new(image)).unwrap_err();
            assert!(matches!(err, EngineError::Corrupt(_)), "{err}");
            assert!(matches!(decode_image(image), Err(EngineError::Corrupt(_))));
        }
        // And the run-length reader refuses every other image.
        let mut plain = Vec::new();
        encode_column(&mut plain, &Column::int(vec![7; 100]));
        assert!(matches!(
            decode_rle_image(&plain),
            Err(EngineError::Corrupt(_))
        ));
    }
}
