//! Fixed-size pages: the unit of disk I/O and buffer-pool residency.
//!
//! [`super::PagedStore`] serializes a column with the shared checked
//! codec ([`super::codec`]) into a flat byte string and splits it across
//! fixed-size pages. Each page carries an 8-byte header — magic, flags
//! (bit 0 marks the first page of a chain), and the payload length — so
//! a reader can validate a chain page by page without trusting catalog
//! metadata. Decoding is fully checked end to end: header validation
//! here, then the codec's bounds/count checks, so truncated or
//! bit-flipped pages error instead of panicking or over-allocating.

use crate::error::Result;

use super::codec;

/// Page size in bytes (header included). 4 KiB matches the common DBMS
/// and filesystem block size.
pub const PAGE_SIZE: usize = 4096;

/// Header bytes at the start of every page:
/// `magic u16 LE | flags u8 | reserved u8 | payload_len u32 LE`.
pub const PAGE_HEADER_BYTES: usize = 8;

/// Payload bytes a page can carry.
pub const PAGE_CAPACITY: usize = PAGE_SIZE - PAGE_HEADER_BYTES;

/// `"JP"` — JoinBoost page.
const PAGE_MAGIC: u16 = 0x4A50;

/// Flag bit: this page starts a column chain.
const FLAG_FIRST: u8 = 1;

/// One page-sized buffer.
pub type PageBuf = [u8; PAGE_SIZE];

/// Write a page header in place (zero-fills nothing else).
pub fn write_header(page: &mut PageBuf, first: bool, payload_len: usize) {
    debug_assert!(payload_len <= PAGE_CAPACITY);
    page[0..2].copy_from_slice(&PAGE_MAGIC.to_le_bytes());
    page[2] = if first { FLAG_FIRST } else { 0 };
    page[3] = 0;
    page[4..8].copy_from_slice(&(payload_len as u32).to_le_bytes());
}

/// Validate a page header and return the payload length. `expect_first`
/// asserts the chain-position flag, so a chain stitched from the wrong
/// pages (or a corrupted header) is rejected.
pub fn read_header(page: &PageBuf, expect_first: bool) -> Result<usize> {
    let magic = u16::from_le_bytes(page[0..2].try_into().expect("2 bytes"));
    if magic != PAGE_MAGIC {
        return Err(codec::corrupt("bad page magic"));
    }
    let first = page[2] & FLAG_FIRST != 0;
    if first != expect_first {
        return Err(codec::corrupt("page chain order"));
    }
    let len = u32::from_le_bytes(page[4..8].try_into().expect("4 bytes")) as usize;
    if len > PAGE_CAPACITY {
        return Err(codec::corrupt("page payload length"));
    }
    Ok(len)
}
