//! Checked byte codec for columns, shared by the page store, the WAL,
//! checkpoints and the wire protocol.
//!
//! [`encode_column`] / [`decode_column`] are the wire's column body, so
//! every serialized form of a column in the system agrees: `f64`s travel
//! by bit pattern (`to_bits`, little-endian), strings as a dictionary plus
//! `u32` codes, and validity as a packed LSB-first bitmap. The decoder is fully
//! checked: every read is bounds-checked and every element count is
//! validated against the remaining bytes *before* any allocation, so
//! truncated or bit-flipped input produces an [`EngineError`] — never a
//! panic, never an attempt to allocate more than the buffer can justify.

use crate::column::{Column, ColumnData};
use crate::error::{EngineError, Result};
use crate::table::{ColumnMeta, Table};

/// Data-type tag for integer columns.
const TAG_INT: u8 = 0;
/// Data-type tag for float columns.
const TAG_FLOAT: u8 = 1;
/// Data-type tag for dictionary-encoded string columns.
const TAG_STR: u8 = 2;

/// Construct the uniform corrupt-input error.
pub(crate) fn corrupt(what: &str) -> EngineError {
    EngineError::Other(format!("corrupt column bytes: {what}"))
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
/// column's name and [`encode_column`] image — the framing a WAL
/// `CreateTable` record and a checkpoint entry share byte for byte.
pub fn encode_named_table(out: &mut Vec<u8>, name: &str, table: &Table) {
    put_string(out, name);
    put_u32(out, table.columns.len() as u32);
    for (m, c) in table.meta.iter().zip(&table.columns) {
        put_string(out, &m.name);
        encode_column(out, c);
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

/// Serialize one column: data tag, row/element counts, values (floats by
/// bit pattern), then a validity tag (`0` = no NULLs, `1` = packed bitmap,
/// LSB-first within each byte).
pub fn encode_column(out: &mut Vec<u8>, col: &Column) {
    match &col.data {
        ColumnData::Int(v) => {
            out.push(TAG_INT);
            put_u64(out, v.len() as u64);
            for &x in v {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
        ColumnData::Float(v) => {
            out.push(TAG_FLOAT);
            put_u64(out, v.len() as u64);
            for &x in v {
                put_u64(out, x.to_bits());
            }
        }
        ColumnData::Str { dict, codes } => {
            out.push(TAG_STR);
            put_u64(out, dict.len() as u64);
            for s in dict {
                put_string(out, s);
            }
            put_u64(out, codes.len() as u64);
            for &c in codes {
                put_u32(out, c);
            }
        }
    }
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

/// Decode one column written by [`encode_column`], bit-exactly.
pub fn decode_column(r: &mut ByteReader<'_>) -> Result<Column> {
    let tag = r.u8()?;
    let data = match tag {
        TAG_INT => {
            let n = r.count(8, "int rows")?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(r.i64()?);
            }
            ColumnData::Int(v)
        }
        TAG_FLOAT => {
            let n = r.count(8, "float rows")?;
            let mut v = Vec::with_capacity(n);
            for _ in 0..n {
                v.push(f64::from_bits(r.u64()?));
            }
            ColumnData::Float(v)
        }
        TAG_STR => {
            let dn = r.count(4, "dict entries")?;
            let mut dict = Vec::with_capacity(dn);
            for _ in 0..dn {
                dict.push(r.string()?);
            }
            let cn = r.count(4, "string codes")?;
            let mut codes = Vec::with_capacity(cn);
            for _ in 0..cn {
                let c = r.u32()?;
                if c as usize >= dict.len() {
                    return Err(corrupt("string code out of dictionary range"));
                }
                codes.push(c);
            }
            ColumnData::Str { dict, codes }
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
            Some(
                (0..rows)
                    .map(|i| packed[i / 8] & (1 << (i % 8)) != 0)
                    .collect(),
            )
        }
        _ => return Err(corrupt("unknown validity tag")),
    };
    Ok(Column { data, validity })
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
