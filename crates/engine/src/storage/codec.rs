//! Checked byte codec for columns, shared by the page store, the WAL and
//! the wire protocol.
//!
//! [`encode_column`] writes the *plain* image, the wire's column body:
//! `f64`s travel by bit pattern (`to_bits`, little-endian), strings as a
//! dictionary plus `u32` codes, and validity as a packed LSB-first
//! bitmap. [`encode_stored_column`] writes the *storage* image that pages
//! and the WAL hold: the plain image, except that an Int
//! column is bit-packed at its value width when that is smaller. One
//! decoder, [`decode_column`], reads both, so stores written before the
//! packed image existed still open. The decoder is fully
//! checked: every read is bounds-checked and every element count is
//! validated against the remaining bytes *before* any allocation, so
//! truncated or bit-flipped input produces an [`EngineError`] — never a
//! panic, never an attempt to allocate more than the buffer can justify.

use std::sync::Arc;

use crate::column::{Column, ColumnData};
use crate::error::{EngineError, Result};
use crate::table::{ColumnMeta, Table};

/// Data-type tag for integer columns.
const TAG_INT: u8 = 0;
/// Data-type tag for float columns.
const TAG_FLOAT: u8 = 1;
/// Data-type tag for dictionary-encoded string columns.
const TAG_STR: u8 = 2;
/// Data-type tag for bit-packed integer columns (storage image only).
const TAG_INT_PACKED: u8 = 3;

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
        let b = self.take(8)?;
        Ok(i64::from_le_bytes(b.try_into().expect("8 bytes")))
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
        if n > self.remaining() {
            return Err(corrupt("string length"));
        }
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

/// Serialize a named table: its name, a `u32` column count, then each
/// column's name and [`encode_stored_column`] image — the payload of a
/// WAL `CreateTable` record that images every column, and an entry of
/// the `checkpoint.jbc` snapshot earlier builds wrote.
pub fn encode_named_table(out: &mut Vec<u8>, name: &str, table: &Table) {
    put_string(out, name);
    put_u32(out, table.columns.len() as u32);
    for (m, c) in table.meta.iter().zip(&table.columns) {
        put_string(out, &m.name);
        encode_stored_column(out, c);
    }
}

/// Decode one table written by [`encode_named_table`].
pub fn decode_named_table(r: &mut ByteReader<'_>) -> Result<(String, Table)> {
    let name = r.string()?;
    let ncols = r.u32()? as usize;
    let mut table = Table::new();
    for _ in 0..ncols {
        let col_name = r.string()?;
        let col = decode_column(r)?;
        table.push_column(ColumnMeta::new(col_name), col);
    }
    Ok((name, table))
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
            put_u64(out, dict.len() as u64);
            for s in dict.iter() {
                put_string(out, s);
            }
            put_u64(out, codes.len() as u64);
            for &c in codes.iter() {
                put_u32(out, c);
            }
        }
    }
    encode_validity(out, col);
}

/// Append the validity block every column image ends with.
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
            let dn = r.count(4, "dict entries")?;
            let mut dict = Vec::with_capacity(dn);
            for _ in 0..dn {
                dict.push(r.string()?);
            }
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
}
