//! Allocation-free key encoding and vectorized grouping, joining and
//! ordering.
//!
//! The split-evaluation queries JoinBoost emits are SPJA group-bys whose
//! cost is dominated by per-row key handling. A [`KeyCodec`] packs the key
//! columns of a row into either
//!
//! * a single `u64` (fast path — all key columns are int- or
//!   dictionary-coded and their value ranges fit in 64 bits together), or
//! * a byte-packed slice of one flat scratch buffer (fallback — floats,
//!   wide ranges, or join keys whose dictionaries differ per side).
//!
//! On top of the encoding sit four operators: [`group_rows`] (hash
//! grouping to dense group ids), [`JoinIndex`] (build/probe hash join),
//! [`KeySet`] (key membership: `SEMI JOIN` and `IN`), and [`SortKeys`]
//! (comparable sort keys extracted once, with a bounded top-k selection
//! for `ORDER BY .. LIMIT k`).

use std::cmp::Ordering;
use std::sync::Arc;

use crate::column::{canonical_f64_bits, Column, ColumnData};
use crate::mask::{null_bits, pack, pack_slice};

// ---------------------------------------------------------------------------
// Hashing (fxhash-style multiply + murmur finalizer; no external deps).
// ---------------------------------------------------------------------------

#[inline]
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

#[inline]
fn hash_u64(k: u64) -> u64 {
    fmix64(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

#[inline]
fn hash_bytes(b: &[u8]) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    let mut chunks = b.chunks_exact(8);
    for c in &mut chunks {
        h = fmix64(h ^ u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut buf = [0u8; 8];
        buf[..rem.len()].copy_from_slice(rem);
        h = fmix64(h ^ u64::from_le_bytes(buf) ^ ((rem.len() as u64) << 56));
    }
    h
}

// ---------------------------------------------------------------------------
// Key encoding
// ---------------------------------------------------------------------------

/// Per-field packing recipe for the `u64` fast path.
enum PackedField {
    /// Int column: code = value - min + 1 (0 is the NULL code); `span` is
    /// max - min, the largest offset that has a code.
    Int { min: i64, span: u64, shift: u32 },
    /// Dictionary-coded string column: code = dict code + 1 (0 = NULL).
    Dict { shift: u32 },
}

/// How a fixed set of key columns is encoded.
enum Plan {
    /// All fields pack into one u64; `width` is the total bit width.
    Packed {
        fields: Vec<PackedField>,
        width: u32,
    },
    Bytes,
}

/// Encodes the key columns of a row into a comparable, hashable form.
/// Built once per operator; encoding a table is a single pass that fills
/// flat buffers (no per-row allocation).
pub struct KeyCodec {
    plan: Plan,
}

/// Encoded keys for all rows of one table side.
pub enum EncodedKeys {
    /// Every row's key packed into one `u64`.
    U64 {
        /// Packed key per row.
        keys: Vec<u64>,
        /// `nulls[i]` — row i has at least one NULL key component
        /// (joins skip these rows; grouping keeps them).
        nulls: Option<Vec<bool>>,
    },
    /// Variable-width keys byte-packed into one flat buffer.
    Bytes {
        /// Concatenated encoded keys.
        buf: Vec<u8>,
        /// `n + 1` offsets into `buf`.
        offsets: Vec<usize>,
        /// `nulls[i]` — row i has at least one NULL key component.
        nulls: Option<Vec<bool>>,
    },
}

impl EncodedKeys {
    #[inline]
    fn is_null_row(&self, i: usize) -> bool {
        match self {
            EncodedKeys::U64 { nulls, .. } | EncodedKeys::Bytes { nulls, .. } => {
                nulls.as_ref().is_some_and(|v| v[i])
            }
        }
    }

    #[inline]
    fn byte_key(&self, i: usize) -> &[u8] {
        match self {
            EncodedKeys::Bytes { buf, offsets, .. } => &buf[offsets[i]..offsets[i + 1]],
            EncodedKeys::U64 { .. } => unreachable!("byte_key on packed keys"),
        }
    }

    #[inline]
    fn hash_row(&self, i: usize) -> u64 {
        match self {
            EncodedKeys::U64 { keys, .. } => hash_u64(keys[i]),
            EncodedKeys::Bytes { .. } => hash_bytes(self.byte_key(i)),
        }
    }

    #[inline]
    fn rows_equal(&self, a: usize, other: &EncodedKeys, b: usize) -> bool {
        match (self, other) {
            (EncodedKeys::U64 { keys: ka, .. }, EncodedKeys::U64 { keys: kb, .. }) => {
                ka[a] == kb[b]
            }
            (EncodedKeys::Bytes { .. }, EncodedKeys::Bytes { .. }) => {
                self.byte_key(a) == other.byte_key(b)
            }
            _ => unreachable!("mixed key encodings"),
        }
    }
}

/// Bits needed to store codes `0..=max_code`.
fn bits_for(max_code: u128) -> u32 {
    (128 - max_code.leading_zeros()).max(1)
}

/// `true` if every dictionary entry is distinct (dictionaries built by this
/// engine always are, but packed dict codes are only sound if so).
fn dict_is_unique(dict: &[String]) -> bool {
    let mut seen = std::collections::HashSet::with_capacity(dict.len());
    dict.iter().all(|s| seen.insert(s.as_str()))
}

/// Joint min/max over the Int data of several columns (validity ignored:
/// invalid slots hold real i64s and only widen the range).
fn int_range(cols: &[&Column]) -> Option<(i64, i64)> {
    let mut lo = i64::MAX;
    let mut hi = i64::MIN;
    let mut any = false;
    for c in cols {
        if let ColumnData::Int(v) = &c.data {
            for &x in v.iter() {
                lo = lo.min(x);
                hi = hi.max(x);
                any = true;
            }
        } else {
            return None;
        }
    }
    if any {
        Some((lo, hi))
    } else {
        Some((0, 0))
    }
}

impl KeyCodec {
    /// Codec for grouping a single table by `cols`. Dictionary codes are
    /// packable because all rows share one dictionary per column.
    pub fn for_grouping(cols: &[&Column]) -> KeyCodec {
        let mut fields = Vec::with_capacity(cols.len());
        let mut shift = 0u32;
        for c in cols {
            let (field, width) = match &c.data {
                ColumnData::Int(_) => match int_range(&[c]) {
                    Some((lo, hi)) => {
                        let span = (hi as i128 - lo as i128) as u128;
                        let field = PackedField::Int {
                            min: lo,
                            span: span as u64,
                            shift,
                        };
                        (field, bits_for(span + 1))
                    }
                    None => return KeyCodec { plan: Plan::Bytes },
                },
                ColumnData::Str { dict, .. } if dict_is_unique(dict) => {
                    (PackedField::Dict { shift }, bits_for(dict.len() as u128))
                }
                _ => return KeyCodec { plan: Plan::Bytes },
            };
            shift += width;
            if shift > 64 {
                return KeyCodec { plan: Plan::Bytes };
            }
            fields.push(field);
        }
        KeyCodec {
            plan: Plan::Packed {
                fields,
                width: shift,
            },
        }
    }

    /// Codec shared by both sides of a join on positionally-matched key
    /// columns. Only all-Int keys pack (string dictionaries differ per
    /// side); everything else uses the canonical byte encoding, whose
    /// per-field type tags preserve the engine's rule that values of
    /// different types never join.
    pub fn for_join(left: &[&Column], right: &[&Column]) -> KeyCodec {
        debug_assert_eq!(left.len(), right.len());
        Self::pack_int_ranges(left.iter().zip(right).map(|(l, r)| int_range(&[l, r])))
    }

    /// Codec of a [`KeySet`]: chosen from the member side alone, so the
    /// probe side is never scanned before the first probe. Equality is
    /// the join's — all-Int keys pack, anything else byte-encodes.
    fn for_set(cols: &[&Column]) -> KeyCodec {
        Self::pack_int_ranges(cols.iter().map(|c| int_range(&[c])))
    }

    /// Pack Int key fields given each field's value range; the byte
    /// encoding when a field is not Int (`None`) or the codes outgrow 64
    /// bits together.
    fn pack_int_ranges(ranges: impl Iterator<Item = Option<(i64, i64)>>) -> KeyCodec {
        let mut fields = Vec::new();
        let mut shift = 0u32;
        for range in ranges {
            let Some((lo, hi)) = range else {
                return KeyCodec { plan: Plan::Bytes };
            };
            let span = (hi as i128 - lo as i128) as u128;
            fields.push(PackedField::Int {
                min: lo,
                span: span as u64,
                shift,
            });
            shift += bits_for(span + 1);
            if shift > 64 {
                return KeyCodec { plan: Plan::Bytes };
            }
        }
        KeyCodec {
            plan: Plan::Packed {
                fields,
                width: shift,
            },
        }
    }

    /// Encode every row of `cols` (one table side) into flat buffers.
    /// `track_nulls` populates the per-row any-NULL vector — joins need
    /// it (NULL keys never match); grouping does not (NULLs group via
    /// their reserved code), so it skips the extra scan.
    pub fn encode(&self, cols: &[&Column], n: usize, track_nulls: bool) -> EncodedKeys {
        let nulls = if track_nulls && cols.iter().any(|c| c.validity.is_some()) {
            let mut v = vec![false; n];
            for c in cols {
                if let Some(val) = &c.validity {
                    for (slot, ok) in v.iter_mut().zip(val.iter()) {
                        *slot |= !ok;
                    }
                }
            }
            Some(v)
        } else {
            None
        };
        match &self.plan {
            Plan::Packed { fields, .. } => {
                let mut keys = vec![0u64; n];
                for (c, f) in cols.iter().zip(fields) {
                    match (f, &c.data) {
                        (PackedField::Int { min, shift, .. }, ColumnData::Int(v)) => {
                            match &c.validity {
                                None => {
                                    for (k, &x) in keys.iter_mut().zip(v.iter()) {
                                        *k |= ((x.wrapping_sub(*min) as u64) + 1) << shift;
                                    }
                                }
                                Some(val) => {
                                    for ((k, &x), &ok) in
                                        keys.iter_mut().zip(v.iter()).zip(val.iter())
                                    {
                                        if ok {
                                            *k |= ((x.wrapping_sub(*min) as u64) + 1) << shift;
                                        }
                                    }
                                }
                            }
                        }
                        (PackedField::Dict { shift }, ColumnData::Str { codes, .. }) => {
                            match &c.validity {
                                None => {
                                    for (k, &code) in keys.iter_mut().zip(codes.iter()) {
                                        *k |= (code as u64 + 1) << shift;
                                    }
                                }
                                Some(val) => {
                                    for ((k, &code), &ok) in
                                        keys.iter_mut().zip(codes.iter()).zip(val.iter())
                                    {
                                        if ok {
                                            *k |= (code as u64 + 1) << shift;
                                        }
                                    }
                                }
                            }
                        }
                        _ => unreachable!("codec plan does not match column layout"),
                    }
                }
                EncodedKeys::U64 { keys, nulls }
            }
            Plan::Bytes => {
                // Rough per-row size: 1 tag + 8 payload bytes per column.
                let mut buf = Vec::with_capacity(n * cols.len() * 9);
                let mut offsets = Vec::with_capacity(n + 1);
                offsets.push(0);
                for i in 0..n {
                    encode_row_bytes(cols, i, &mut buf);
                    offsets.push(buf.len());
                }
                EncodedKeys::Bytes {
                    buf,
                    offsets,
                    nulls,
                }
            }
        }
    }
}

/// Append the canonical byte encoding of row `i`'s key: a type tag per
/// field (0 = NULL), then the value.
fn encode_row_bytes(cols: &[&Column], i: usize, buf: &mut Vec<u8>) {
    for c in cols {
        if !c.is_valid(i) {
            buf.push(0u8);
            continue;
        }
        match &c.data {
            ColumnData::Int(v) => {
                buf.push(1u8);
                buf.extend_from_slice(&v[i].to_le_bytes());
            }
            ColumnData::Float(v) => {
                buf.push(2u8);
                buf.extend_from_slice(&canonical_f64_bits(v[i]).to_le_bytes());
            }
            ColumnData::Str { dict, codes } => {
                let s = dict[codes[i] as usize].as_bytes();
                buf.push(3u8);
                buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
                buf.extend_from_slice(s);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Open-addressing key table (shared by grouping, join build/probe and sets)
// ---------------------------------------------------------------------------

/// Linear-probing table mapping hashed keys to dense ids. Buckets store
/// `id + 1` (`0` = empty); key storage and equality live with the caller.
struct KeyTable {
    buckets: Vec<u32>,
    hashes: Vec<u64>,
    mask: usize,
}

impl KeyTable {
    fn with_capacity(n: usize) -> KeyTable {
        let cap = (n * 2).next_power_of_two().max(16);
        KeyTable {
            buckets: vec![0; cap],
            hashes: vec![0; cap],
            mask: cap - 1,
        }
    }

    /// Find the id for `hash`, using `eq(candidate_id)` to confirm, or
    /// insert `next_id`. Returns `(id, inserted)`.
    #[inline]
    fn insert_or_get(
        &mut self,
        hash: u64,
        next_id: u32,
        mut eq: impl FnMut(u32) -> bool,
    ) -> (u32, bool) {
        let mut pos = (hash as usize) & self.mask;
        loop {
            let b = self.buckets[pos];
            if b == 0 {
                self.buckets[pos] = next_id + 1;
                self.hashes[pos] = hash;
                return (next_id, true);
            }
            if self.hashes[pos] == hash && eq(b - 1) {
                return (b - 1, false);
            }
            pos = (pos + 1) & self.mask;
        }
    }

    /// Read-only lookup.
    #[inline]
    fn get(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        let mut pos = (hash as usize) & self.mask;
        loop {
            let b = self.buckets[pos];
            if b == 0 {
                return None;
            }
            if self.hashes[pos] == hash && eq(b - 1) {
                return Some(b - 1);
            }
            pos = (pos + 1) & self.mask;
        }
    }
}

// ---------------------------------------------------------------------------
// Grouping
// ---------------------------------------------------------------------------

/// Dense group assignment for a table grouped by `cols`.
pub struct Grouping {
    /// Group id per row, numbered in first-occurrence order.
    pub gids: Vec<u32>,
    /// Number of distinct groups.
    pub num_groups: usize,
    /// Representative (first) row per group.
    pub reps: Vec<u32>,
    /// Rows per group (free by-product of the grouping pass; lets
    /// `COUNT(*)` skip its accumulation pass entirely).
    pub sizes: Vec<u32>,
}

/// Widest packed key that uses a direct-address table (2^16 slots, 256 KiB)
/// instead of a hash table.
const DIRECT_MAX_BITS: u32 = 16;

/// Assign dense group ids to rows keyed by `cols`. NULL key components
/// group together (SQL `GROUP BY` semantics).
pub fn group_rows(cols: &[&Column], n: usize) -> Grouping {
    let codec = KeyCodec::for_grouping(cols);
    // Perfect-hash fast path: narrow packed keys index a direct-address
    // table — one array access per row, no hashing or probing. Gated on
    // the row count so tiny inputs don't pay for zeroing a slot array
    // much larger than themselves.
    if let Plan::Packed { width, .. } = &codec.plan {
        if *width <= DIRECT_MAX_BITS && (1usize << *width) <= n.saturating_mul(4).max(1024) {
            let keys = codec.encode(cols, n, false);
            let EncodedKeys::U64 { keys, .. } = &keys else {
                unreachable!("packed plan encodes to u64 keys")
            };
            let mut slots = vec![0u32; 1usize << width]; // gid + 1; 0 = empty
            let mut gids = Vec::with_capacity(n);
            let mut reps: Vec<u32> = Vec::new();
            let mut sizes: Vec<u32> = Vec::new();
            for (i, &k) in keys.iter().enumerate() {
                let slot = &mut slots[k as usize];
                if *slot == 0 {
                    *slot = reps.len() as u32 + 1;
                    reps.push(i as u32);
                    sizes.push(0);
                }
                let gid = *slot - 1;
                sizes[gid as usize] += 1;
                gids.push(gid);
            }
            return Grouping {
                gids,
                num_groups: reps.len(),
                reps,
                sizes,
            };
        }
    }
    let keys = codec.encode(cols, n, false);
    let mut table = KeyTable::with_capacity(n);
    let mut gids = Vec::with_capacity(n);
    let mut reps: Vec<u32> = Vec::new();
    let mut sizes: Vec<u32> = Vec::new();
    for i in 0..n {
        let h = keys.hash_row(i);
        let (gid, inserted) = table.insert_or_get(h, reps.len() as u32, |cand| {
            keys.rows_equal(reps[cand as usize] as usize, &keys, i)
        });
        if inserted {
            reps.push(i as u32);
            sizes.push(0);
        }
        sizes[gid as usize] += 1;
        gids.push(gid);
    }
    Grouping {
        gids,
        num_groups: reps.len(),
        reps,
        sizes,
    }
}

// ---------------------------------------------------------------------------
// Join index
// ---------------------------------------------------------------------------

/// Hash join index: built over the right side's key columns, probed with
/// left rows. Rows with NULL key components never match (on either side).
/// Hash join index: CSR row lists per encoded right-side key.
pub struct JoinIndex {
    table: KeyTable,
    right_keys: EncodedKeys,
    left_keys: EncodedKeys,
    /// Representative right row per key id.
    reps: Vec<u32>,
    /// CSR layout: right rows of key id `g` are `rows[starts[g]..starts[g+1]]`.
    starts: Vec<u32>,
    rows: Vec<u32>,
}

impl JoinIndex {
    /// Build a hash index over the right side's encoded keys (the codec is
    /// chosen jointly so both sides encode identically).
    pub fn build(left_cols: &[&Column], right_cols: &[&Column], ln: usize, rn: usize) -> JoinIndex {
        let codec = KeyCodec::for_join(left_cols, right_cols);
        let right_keys = codec.encode(right_cols, rn, true);
        let left_keys = codec.encode(left_cols, ln, true);
        let mut table = KeyTable::with_capacity(rn);
        let mut reps: Vec<u32> = Vec::new();
        let mut rgids: Vec<(u32, u32)> = Vec::with_capacity(rn); // (row, key id)
        for i in 0..rn {
            if right_keys.is_null_row(i) {
                continue; // NULL keys never match
            }
            let h = right_keys.hash_row(i);
            let (gid, inserted) = table.insert_or_get(h, reps.len() as u32, |cand| {
                right_keys.rows_equal(reps[cand as usize] as usize, &right_keys, i)
            });
            if inserted {
                reps.push(i as u32);
            }
            rgids.push((i as u32, gid));
        }
        // Bucket right rows per key id (CSR; preserves row order per key,
        // matching the previous Vec-push build).
        let g = reps.len();
        let mut counts = vec![0u32; g + 1];
        for &(_, gid) in &rgids {
            counts[gid as usize + 1] += 1;
        }
        for i in 1..=g {
            counts[i] += counts[i - 1];
        }
        let starts = counts.clone();
        let mut rows = vec![0u32; rgids.len()];
        let mut cursor = counts;
        for &(row, gid) in &rgids {
            rows[cursor[gid as usize] as usize] = row;
            cursor[gid as usize] += 1;
        }
        JoinIndex {
            table,
            right_keys,
            left_keys,
            reps,
            starts,
            rows,
        }
    }

    /// Matching right rows for left row `i` (`None` — no match or NULL key).
    #[inline]
    pub fn probe(&self, i: usize) -> Option<&[u32]> {
        if self.left_keys.is_null_row(i) {
            return None;
        }
        let h = self.left_keys.hash_row(i);
        let gid = self.table.get(h, |cand| {
            self.right_keys
                .rows_equal(self.reps[cand as usize] as usize, &self.left_keys, i)
        })?;
        let (s, e) = (
            self.starts[gid as usize] as usize,
            self.starts[gid as usize + 1] as usize,
        );
        Some(&self.rows[s..e])
    }
}

// ---------------------------------------------------------------------------
// Key sets
// ---------------------------------------------------------------------------

/// The set of keys one table side holds, for `SEMI JOIN` and `IN`: only
/// membership is asked, so no row lists are kept. Equality is the join's
/// (values of different types never match, `-0.0 == 0.0`) and a key with
/// a NULL component is neither a member nor ever found.
pub struct KeySet {
    codec: KeyCodec,
    members: Members,
}

enum Members {
    /// Packed keys at most [`DIRECT_MAX_BITS`] wide (every dimension key
    /// and `jb_*_semi_*` table JoinBoost emits): bit `code` is set iff
    /// the key packing to `code` is a member. At most 8 KiB.
    Direct(Vec<u64>),
    /// Everything else: the distinct member rows in a hash table.
    Hashed {
        table: KeyTable,
        keys: EncodedKeys,
        /// Representative member row per table id.
        reps: Vec<u32>,
    },
}

impl KeySet {
    /// The keys of the `n` rows of `cols` (one column per key field).
    pub fn build(cols: &[&Column], n: usize) -> KeySet {
        let codec = KeyCodec::for_set(cols);
        let keys = codec.encode(cols, n, true);
        if let (Plan::Packed { width, .. }, EncodedKeys::U64 { keys: codes, .. }) =
            (&codec.plan, &keys)
        {
            if *width <= DIRECT_MAX_BITS {
                let mut bits = vec![0u64; (1usize << width).div_ceil(64)];
                for (i, &code) in codes.iter().enumerate() {
                    if !keys.is_null_row(i) {
                        bits[(code >> 6) as usize] |= 1 << (code & 63);
                    }
                }
                return KeySet {
                    codec,
                    members: Members::Direct(bits),
                };
            }
        }
        let mut table = KeyTable::with_capacity(n);
        let mut reps: Vec<u32> = Vec::new();
        for i in 0..n {
            if keys.is_null_row(i) {
                continue;
            }
            let (_, inserted) = table.insert_or_get(keys.hash_row(i), reps.len() as u32, |cand| {
                keys.rows_equal(reps[cand as usize] as usize, &keys, i)
            });
            if inserted {
                reps.push(i as u32);
            }
        }
        KeySet {
            codec,
            members: Members::Hashed { table, keys, reps },
        }
    }

    /// Bind the probe side's key columns (positionally matched to the
    /// member side's). Probing reads only the rows it is asked about.
    pub fn probe<'a>(&'a self, cols: &'a [&'a Column]) -> KeyProbe<'a> {
        let direct_int = match cols {
            [col] if col.validity.is_none() => self.direct_int(col),
            _ => None,
        };
        KeyProbe {
            set: self,
            cols,
            direct_int,
            scratch: Vec::new(),
        }
    }

    /// A one-column Int set held as a bitmap, probed by an Int column:
    /// `DirectInt` over the column's values, whatever its validity.
    fn direct_int<'a>(&'a self, col: &'a Column) -> Option<DirectInt<'a>> {
        match (&self.members, &self.codec.plan, &col.data) {
            (Members::Direct(bits), Plan::Packed { fields, .. }, ColumnData::Int(vals)) => {
                match &fields[..] {
                    [PackedField::Int { min, span, .. }] => Some(DirectInt {
                        vals,
                        min: *min,
                        span: *span,
                        bits,
                    }),
                    _ => None,
                }
            }
            _ => None,
        }
    }

    /// Membership of every row of the one-column key `col`, one bit per
    /// row: set where the row's key is a member (a NULL key never is).
    pub(crate) fn member_bits(&self, col: &Column) -> Vec<u64> {
        let Some(direct) = self.direct_int(col) else {
            let cols = [col];
            let mut p = self.probe(&cols);
            return pack(col.len(), |i| p.contains(i));
        };
        let mut bits = pack_slice(direct.vals, |x| direct.contains(x));
        if let Some(nulls) = null_bits(col) {
            for (b, nl) in bits.iter_mut().zip(nulls) {
                *b &= !nl;
            }
        }
        bits
    }
}

/// One Int key column probing a bitmap set — the shape of every probe
/// JoinBoost's own statements make.
#[derive(Clone, Copy)]
struct DirectInt<'a> {
    vals: &'a [i64],
    min: i64,
    span: u64,
    bits: &'a [u64],
}

impl DirectInt<'_> {
    /// Is `x` a member? A value outside the members' range reads the
    /// NULL code 0, which is never set, so no row takes a branch.
    #[inline]
    fn contains(self, x: i64) -> bool {
        let off = x.wrapping_sub(self.min) as u64;
        let code = if off <= self.span { off + 1 } else { 0 };
        bit_is_set(self.bits, code)
    }
}

/// A [`KeySet`] bound to the columns it is probed with.
pub struct KeyProbe<'a> {
    set: &'a KeySet,
    cols: &'a [&'a Column],
    /// One NULL-free Int column against the bitmap.
    direct_int: Option<DirectInt<'a>>,
    /// Byte-encoded probe key (byte-plan sets only).
    scratch: Vec<u8>,
}

impl KeyProbe<'_> {
    /// Is the key of probe row `row` a member?
    #[inline]
    pub fn contains(&mut self, row: usize) -> bool {
        if let Some(direct) = self.direct_int {
            return direct.contains(direct.vals[row]);
        }
        self.contains_general(row)
    }

    /// The rows of `sel` (`None`: all `n` rows) whose key is a member, in
    /// order. The probe kind is chosen once, not per row: one compaction
    /// loop is instantiated for the `DirectInt` bitmap (every `SEMI JOIN`
    /// of a node message) and one for the general probe. Compacts without
    /// a data-dependent branch: at the ~50 % selectivity of a tree split a
    /// branch per row would mispredict every other one.
    pub fn select(&mut self, sel: Option<&[u32]>, n: usize) -> Vec<u32> {
        match self.direct_int {
            Some(d) => compact(sel, n, |row| d.contains(d.vals[row as usize])),
            None => compact(sel, n, |row| self.contains_general(row as usize)),
        }
    }

    fn contains_general(&mut self, row: usize) -> bool {
        let set = self.set;
        match &set.codec.plan {
            Plan::Packed { fields, .. } => {
                let Some(code) = pack_probe_row(fields, self.cols, row) else {
                    return false;
                };
                match &set.members {
                    Members::Direct(bits) => bit_is_set(bits, code),
                    Members::Hashed { table, keys, reps } => {
                        let EncodedKeys::U64 { keys: codes, .. } = keys else {
                            unreachable!("packed plan encodes to u64 keys")
                        };
                        table
                            .get(hash_u64(code), |cand| {
                                codes[reps[cand as usize] as usize] == code
                            })
                            .is_some()
                    }
                }
            }
            Plan::Bytes => {
                let Members::Hashed { table, keys, reps } = &set.members else {
                    unreachable!("byte keys are always hashed")
                };
                if self.cols.iter().any(|c| !c.is_valid(row)) {
                    return false;
                }
                self.scratch.clear();
                encode_row_bytes(self.cols, row, &mut self.scratch);
                let probe = &self.scratch[..];
                table
                    .get(hash_bytes(probe), |cand| {
                        keys.byte_key(reps[cand as usize] as usize) == probe
                    })
                    .is_some()
            }
        }
    }
}

/// The rows of `sel` (`None`: `0..n`) for which `keep` holds, in order:
/// each row is written to the next free slot, which only a kept row
/// claims.
#[inline(always)]
fn compact(sel: Option<&[u32]>, n: usize, mut keep: impl FnMut(u32) -> bool) -> Vec<u32> {
    let mut kept = vec![0u32; sel.map_or(n, <[u32]>::len)];
    let mut len = 0;
    let mut visit = |row: u32| {
        kept[len] = row;
        len += keep(row) as usize;
    };
    match sel {
        Some(sel) => sel.iter().copied().for_each(&mut visit),
        None => (0..n as u32).for_each(&mut visit),
    }
    kept.truncate(len);
    kept
}

#[inline]
fn bit_is_set(bits: &[u64], code: u64) -> bool {
    bits[(code >> 6) as usize] >> (code & 63) & 1 == 1
}

/// The packed code of a probe row under the member side's packing, or
/// `None` when the row cannot be a member: a NULL component, a non-Int
/// column (types never cross-match) or a value outside the members' range.
fn pack_probe_row(fields: &[PackedField], cols: &[&Column], row: usize) -> Option<u64> {
    let mut code = 0u64;
    for (f, c) in fields.iter().zip(cols) {
        let (PackedField::Int { min, span, shift }, ColumnData::Int(v)) = (f, &c.data) else {
            return None;
        };
        let off = v[row].wrapping_sub(*min) as u64;
        if !c.is_valid(row) || off > *span {
            return None;
        }
        code |= (off + 1) << shift;
    }
    Some(code)
}

// ---------------------------------------------------------------------------
// Sort keys + top-k selection
// ---------------------------------------------------------------------------

enum SortField {
    /// Numeric values (ints widened to f64, matching `Datum::sql_cmp`).
    Num(Arc<Vec<f64>>),
    /// Per-row dictionary ranks: rank order == lexicographic string order.
    StrRank(Vec<u32>),
}

struct SortCol {
    field: SortField,
    valid: Option<Arc<Vec<bool>>>,
    desc: bool,
}

/// Comparable sort keys extracted once per `ORDER BY` (no `Datum`
/// materialization or `String` clone per comparison).
pub struct SortKeys {
    cols: Vec<SortCol>,
}

impl SortKeys {
    /// Consumes the sort columns so the Float fast path shares its data
    /// instead of copying (callers build them solely for this).
    pub fn new(cols: Vec<Column>, descs: &[bool]) -> SortKeys {
        let cols = cols
            .into_iter()
            .zip(descs)
            .map(|(c, &desc)| {
                let valid = c.validity;
                let field = match c.data {
                    ColumnData::Int(v) => {
                        SortField::Num(Arc::new(v.iter().map(|&x| x as f64).collect()))
                    }
                    ColumnData::Float(v) => SortField::Num(v),
                    ColumnData::Str { dict, codes } => {
                        // Rank dictionary entries; equal strings (duplicate
                        // dict entries) share a rank.
                        let mut order: Vec<u32> = (0..dict.len() as u32).collect();
                        order.sort_by(|&a, &b| dict[a as usize].cmp(&dict[b as usize]));
                        let mut rank_of_code = vec![0u32; dict.len()];
                        let mut rank = 0u32;
                        for (i, &code) in order.iter().enumerate() {
                            if i > 0 && dict[code as usize] != dict[order[i - 1] as usize] {
                                rank += 1;
                            }
                            rank_of_code[code as usize] = rank;
                        }
                        SortField::StrRank(
                            codes.iter().map(|&c| rank_of_code[c as usize]).collect(),
                        )
                    }
                };
                SortCol { field, valid, desc }
            })
            .collect();
        SortKeys { cols }
    }

    /// SQL ordering of rows `a` and `b`: NULLs last regardless of
    /// direction, NaNs compare equal (as `Datum::sql_cmp` does).
    #[inline]
    pub fn cmp(&self, a: usize, b: usize) -> Ordering {
        for col in &self.cols {
            let (an, bn) = match &col.valid {
                Some(v) => (!v[a], !v[b]),
                None => (false, false),
            };
            let ord = match (an, bn) {
                (true, true) => Ordering::Equal,
                (true, false) => Ordering::Greater,
                (false, true) => Ordering::Less,
                (false, false) => {
                    let o = match &col.field {
                        SortField::Num(v) => v[a].partial_cmp(&v[b]).unwrap_or(Ordering::Equal),
                        SortField::StrRank(r) => r[a].cmp(&r[b]),
                    };
                    if col.desc {
                        o.reverse()
                    } else {
                        o
                    }
                }
            };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }

    /// Total order used for selection: key order, ties broken by original
    /// row index (== the prefix of a stable sort).
    #[inline]
    fn cmp_total(&self, a: usize, b: usize) -> Ordering {
        self.cmp(a, b).then_with(|| a.cmp(&b))
    }

    /// Stable full-sort permutation.
    pub fn sort_permutation(&self, n: usize) -> Vec<u32> {
        let mut perm: Vec<u32> = (0..n as u32).collect();
        perm.sort_by(|&a, &b| self.cmp(a as usize, b as usize));
        perm
    }

    /// The `k` first rows of the stable sort, without sorting all `n` rows:
    /// a bounded insertion set gives O(n log k) comparisons + O(k) moves
    /// per improving row (`k` is 1 for every split query sqlgen emits).
    pub fn top_k(&self, n: usize, k: usize) -> Vec<u32> {
        let mut winners: Vec<u32> = Vec::with_capacity(k.min(n));
        if k == 0 {
            return winners;
        }
        for i in 0..n {
            if winners.len() == k {
                let worst = *winners.last().expect("non-empty") as usize;
                if self.cmp_total(i, worst) != Ordering::Less {
                    continue;
                }
                winners.pop();
            }
            let pos = winners.partition_point(|&w| self.cmp_total(w as usize, i) == Ordering::Less);
            winners.insert(pos, i as u32);
        }
        winners
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datum::{DataType, Datum};

    #[test]
    fn grouping_matches_first_occurrence_order() {
        let k1 = Column::int(vec![2, 1, 2, 3, 1]);
        let g = group_rows(&[&k1], 5);
        assert_eq!(g.gids, vec![0, 1, 0, 2, 1]);
        assert_eq!(g.num_groups, 3);
        assert_eq!(g.reps, vec![0, 1, 3]);
    }

    #[test]
    fn grouping_nulls_group_together() {
        let c = Column::from_datums(
            DataType::Int,
            &[Datum::Int(1), Datum::Null, Datum::Int(1), Datum::Null],
        )
        .unwrap();
        let g = group_rows(&[&c], 4);
        assert_eq!(g.gids, vec![0, 1, 0, 1]);
    }

    #[test]
    fn grouping_multi_column_mixed_types() {
        let a = Column::int(vec![1, 1, 2, 1]);
        let b = Column::str(vec!["x".into(), "y".into(), "x".into(), "x".into()]);
        let g = group_rows(&[&a, &b], 4);
        assert_eq!(g.gids, vec![0, 1, 2, 0]);
        assert_eq!(g.num_groups, 3);
    }

    #[test]
    fn grouping_float_negative_zero_canonicalized() {
        let c = Column::float(vec![0.0, -0.0, 1.0]);
        let g = group_rows(&[&c], 3);
        assert_eq!(g.gids[0], g.gids[1]);
        assert_ne!(g.gids[0], g.gids[2]);
    }

    #[test]
    fn grouping_wide_int_range_falls_back_to_bytes() {
        let c = Column::int(vec![i64::MIN, i64::MAX, 0, i64::MIN]);
        let g = group_rows(&[&c], 4);
        assert_eq!(g.gids, vec![0, 1, 2, 0]);
    }

    #[test]
    fn join_index_basic_and_null_keys() {
        let l = Column::from_datums(DataType::Int, &[Datum::Int(1), Datum::Null, Datum::Int(3)])
            .unwrap();
        let r = Column::from_datums(
            DataType::Int,
            &[Datum::Int(3), Datum::Int(1), Datum::Int(1), Datum::Null],
        )
        .unwrap();
        let idx = JoinIndex::build(&[&l], &[&r], 3, 4);
        assert_eq!(idx.probe(0), Some(&[1u32, 2][..]));
        assert_eq!(idx.probe(1), None, "NULL left key matches nothing");
        assert_eq!(idx.probe(2), Some(&[0u32][..]));
    }

    #[test]
    fn join_index_cross_type_never_matches() {
        // Int 5 and Float 5.0 are different keys: the byte encoding's
        // type tags keep them apart.
        let l = Column::int(vec![5]);
        let r = Column::float(vec![5.0]);
        let idx = JoinIndex::build(&[&l], &[&r], 1, 1);
        assert_eq!(idx.probe(0), None);
    }

    #[test]
    fn join_index_string_keys_across_dicts() {
        let l = Column::str(vec!["b".into(), "a".into()]);
        let r = Column::str(vec!["a".into(), "b".into(), "b".into()]);
        let idx = JoinIndex::build(&[&l], &[&r], 2, 3);
        assert_eq!(idx.probe(0), Some(&[1u32, 2][..]));
        assert_eq!(idx.probe(1), Some(&[0u32][..]));
    }

    /// Probe every row of `probe` against the keys of `members`.
    fn members_of(members: &[&Column], probe: &[&Column]) -> Vec<bool> {
        let set = KeySet::build(members, members[0].len());
        let mut p = set.probe(probe);
        let n = probe[0].len();
        let found: Vec<bool> = (0..n).map(|i| p.contains(i)).collect();
        // `select` keeps exactly the rows `contains` finds, over all rows
        // and over a selection of them.
        let odd_rows: Vec<u32> = (1..n as u32).step_by(2).collect();
        let hits = |rows: &[u32]| -> Vec<u32> {
            rows.iter()
                .copied()
                .filter(|&r| found[r as usize])
                .collect()
        };
        assert_eq!(p.select(None, n), hits(&(0..n as u32).collect::<Vec<_>>()));
        assert_eq!(p.select(Some(&odd_rows), n), hits(&odd_rows));
        if let [col] = probe {
            // The bits `IN` reads say the same, row for row.
            let bits = set.member_bits(col);
            let from_bits: Vec<bool> = (0..col.len())
                .map(|i| bits[i >> 6] >> (i & 63) & 1 == 1)
                .collect();
            assert_eq!(from_bits, found);
        }
        found
    }

    fn is_direct(members: &[&Column]) -> bool {
        matches!(
            KeySet::build(members, members[0].len()).members,
            Members::Direct(_)
        )
    }

    #[test]
    fn key_set_answers_the_same_either_side_of_the_direct_boundary() {
        // span + 1 codes plus the NULL code must fit DIRECT_MAX_BITS bits.
        let widest_direct = (1i64 << DIRECT_MAX_BITS) - 2;
        for (span, direct) in [
            (0, true),
            (widest_direct, true),
            (widest_direct + 1, false),
            (1 << 40, false),
        ] {
            let lo = -7i64;
            let members = Column::int(vec![lo + span, lo, lo + span / 2, lo]);
            assert_eq!(is_direct(&[&members]), direct, "span {span}");
            let probe = Column::int(vec![
                lo,
                lo + span,
                lo + span / 2,
                lo - 1,
                lo + span + 1,
                i64::MIN,
                i64::MAX,
            ]);
            assert_eq!(
                members_of(&[&members], &[&probe]),
                [true, true, true, false, false, false, false],
                "span {span}"
            );
            if span >= 4 {
                // Inside the range, but not a member.
                assert!(!members_of(&[&members], &[&Column::int(vec![lo + 1])])[0]);
            }
        }
    }

    #[test]
    fn key_set_nulls_match_nothing_on_either_side() {
        let members =
            Column::from_datums(DataType::Int, &[Datum::Int(1), Datum::Null, Datum::Int(3)])
                .unwrap();
        let probe = Column::from_datums(
            DataType::Int,
            &[Datum::Null, Datum::Int(3), Datum::Int(0), Datum::Int(1)],
        )
        .unwrap();
        assert_eq!(
            members_of(&[&members], &[&probe]),
            [false, true, false, true]
        );
        // Only NULLs: an empty set, and so is no rows at all.
        let nulls = Column::from_datums(DataType::Float, &[Datum::Null, Datum::Null]).unwrap();
        assert_eq!(members_of(&[&nulls], &[&Column::float(vec![0.0])]), [false]);
        let set = KeySet::build(&[&Column::int(vec![])], 0);
        assert!(!set.probe(&[&Column::int(vec![0])]).contains(0));
    }

    #[test]
    fn key_set_types_never_cross_match() {
        let ints = Column::int(vec![5, 6]);
        let floats = Column::float(vec![5.0, -0.0]);
        let strs = Column::str(vec!["5".into(), "b".into()]);
        assert_eq!(members_of(&[&ints], &[&floats]), [false, false]);
        assert_eq!(members_of(&[&floats], &[&ints]), [false, false]);
        assert_eq!(members_of(&[&strs], &[&ints]), [false, false]);
        // Same types do, by value: across dictionaries, and 0.0 == -0.0.
        let other_dict = Column::str(vec!["b".into(), "x".into(), "5".into()]);
        assert_eq!(members_of(&[&strs], &[&other_dict]), [true, false, true]);
        assert_eq!(
            members_of(&[&floats], &[&Column::float(vec![0.0, 5.0, 5.5])]),
            [true, true, false]
        );
    }

    #[test]
    fn key_set_multi_column_keys_direct_hashed_and_bytes() {
        let probe_a = Column::from_datums(
            DataType::Int,
            &[Datum::Int(1), Datum::Int(2), Datum::Int(1), Datum::Null],
        )
        .unwrap();
        for scale in [1i64, 1 << 20] {
            // (1, s), (2, 2s) are members; (1, 2s) is each field in range
            // but not the pair.
            let a = Column::int(vec![1, 2]);
            let b = Column::int(vec![scale, 2 * scale]);
            assert_eq!(is_direct(&[&a, &b]), scale == 1);
            let probe_b = Column::int(vec![scale, 2 * scale, 2 * scale, scale]);
            assert_eq!(
                members_of(&[&a, &b], &[&probe_a, &probe_b]),
                [true, true, false, false]
            );
        }
        let a = Column::int(vec![1, 2]);
        let s = Column::str(vec!["x".into(), "y".into()]);
        let probe_s = Column::str(vec!["x".into(), "y".into(), "y".into(), "x".into()]);
        assert_eq!(
            members_of(&[&a, &s], &[&probe_a, &probe_s]),
            [true, true, false, false]
        );
    }

    #[test]
    fn sort_keys_match_datum_sql_cmp() {
        let c = Column::from_datums(
            DataType::Float,
            &[
                Datum::Float(2.0),
                Datum::Null,
                Datum::Float(-1.0),
                Datum::Float(2.0),
            ],
        )
        .unwrap();
        let keys = SortKeys::new(vec![c], &[false]);
        let perm = keys.sort_permutation(4);
        assert_eq!(perm, vec![2, 0, 3, 1], "NULL last, stable on ties");
        // DESC still sorts NULL last.
        let c2 = Column::from_datums(
            DataType::Float,
            &[Datum::Float(2.0), Datum::Null, Datum::Float(-1.0)],
        )
        .unwrap();
        let keys = SortKeys::new(vec![c2], &[true]);
        assert_eq!(keys.sort_permutation(3), vec![0, 2, 1]);
    }

    #[test]
    fn top_k_equals_sort_prefix() {
        let c = Column::float(vec![5.0, 1.0, 3.0, 1.0, 4.0, 2.0]);
        let keys = SortKeys::new(vec![c], &[false]);
        let full = keys.sort_permutation(6);
        for k in 0..=6 {
            assert_eq!(keys.top_k(6, k), full[..k], "k = {k}");
        }
    }

    #[test]
    fn top_k_string_ranks() {
        let c = Column::str(vec!["pear".into(), "apple".into(), "fig".into()]);
        let keys = SortKeys::new(vec![c], &[false]);
        assert_eq!(keys.top_k(3, 2), vec![1, 2]);
    }
}
