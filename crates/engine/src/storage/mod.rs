//! Disk-backed paged storage: the out-of-core engine.
//!
//! Architecture (one database = one directory):
//!
//! * [`page`] — fixed-size pages; a column's storage image (see
//!   [`codec`]) is split into a chain of them.
//! * [`disk_manager`] — page-granular read/write over one data file per
//!   database, with a free list.
//! * [`buffer_pool`] — capacity-bounded pin/unpin frames with dirty
//!   tracking and Clock replacement.
//! * [`PagedStore`] — ties them together: a column persists as a page
//!   chain ([`PagedColumn`]), and every scan pins pages through the pool
//!   one at a time, so a database much larger than the pool still scans
//!   with bounded memory.
//!
//! A catalog table holds each column as a `StoredColumn`: plain shared
//! buffers, a run-length [`codec`] image in memory, or a page chain.
//!
//! Page chains are shared. A [`PageChain`] is written once and never
//! changed; every table and in-flight scan that holds the column holds
//! the chain by `Arc`, and the chain's pages return to the free list when
//! the last holder lets go. A statement that passes a column through
//! takes its `StoredColumn`, so the new table holds the same chain.
//!
//! Durability is WAL-first: committed state is always recoverable by
//! replaying the write-ahead log, which a checkpoint compacts into a base
//! that images each chain once (see [`crate::wal`]), so the page file is
//! ephemeral working storage, recreated at open. Because the page
//! codec is bit-exact (floats round-trip by bit pattern) and paging
//! changes only *where* column bytes live — never the order any scan
//! folds rows — results on a paged engine are bit-identical to the
//! in-memory engine at any pool size.

pub mod buffer_pool;
pub mod codec;
pub mod disk_manager;
pub mod page;

use std::fmt;
use std::ops::Deref;
use std::path::Path;
use std::sync::Arc;

use crate::column::{Column, ColumnData};
use crate::datum::DataType;
use crate::error::Result;

pub use buffer_pool::{BufferPool, BufferPoolStats, PageGuard};
pub use disk_manager::{DiskManager, PageId};
pub use page::{PAGE_CAPACITY, PAGE_HEADER_BYTES, PAGE_SIZE};

use page::PageBuf;

/// The pages of one stored column, in order. Immutable once written;
/// dropping the last `Arc` to it returns its pages to the free list.
pub struct PageChain {
    pages: Vec<PageId>,
    /// The pool the pages are freed through.
    pool: Arc<BufferPool>,
}

impl Deref for PageChain {
    type Target = [PageId];

    fn deref(&self) -> &[PageId] {
        &self.pages
    }
}

impl fmt::Debug for PageChain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(&self.pages).finish()
    }
}

impl Drop for PageChain {
    fn drop(&mut self) {
        for &pid in &self.pages {
            // Every pin is taken by a holder of the chain, so a pinned page
            // here would be an engine bug; leaking it is still correct.
            let _ = self.pool.free_page(pid);
        }
    }
}

/// A column stored as a chain of pages (metadata only — the bytes live
/// in the page file / buffer pool). Cloning shares the chain.
#[derive(Debug, Clone)]
pub struct PagedColumn {
    /// The page chain, shared by every table that holds this column.
    pub pages: Arc<PageChain>,
    /// Exact encoded byte length across the chain.
    pub bytes: u64,
    /// Row count (schema lookups without I/O).
    pub rows: usize,
    /// Data type (schema lookups without I/O).
    pub dtype: DataType,
}

/// A catalog table's column, in the form its table holds it. Cloning is
/// O(1): every form shares its bytes.
#[derive(Debug, Clone)]
pub(crate) enum StoredColumn {
    /// Plain values, their buffers shared with every holder.
    Plain(Column),
    /// The column's run-length codec image, held in memory.
    Rle {
        rows: usize,
        dtype: DataType,
        image: Arc<[u8]>,
    },
    /// A page chain of the paged store.
    Paged(PagedColumn),
}

impl StoredColumn {
    /// Store `col`: as a page chain when `pages` is the database's paged
    /// store (see [`PagedStore::store_column`]); else as its run-length
    /// image when `rle` allows and that is smaller than `col`'s
    /// [`Column::byte_size`]; else plain, sharing `col`'s buffers. The
    /// dictionary both forms hold counts at that model's 24 B per entry on
    /// both sides, so only runs decide.
    pub(crate) fn store(col: &Column, rle: bool, pages: Option<&PagedStore>) -> Result<Self> {
        if let Some(store) = pages {
            return store.store_column(col).map(StoredColumn::Paged);
        }
        let dict = match &col.data {
            ColumnData::Str { dict, .. } => 20 * dict.len(),
            _ => 0,
        };
        if !rle || codec::rle_len(col) + dict >= col.byte_size() {
            return Ok(StoredColumn::Plain(col.clone()));
        }
        let mut image = Vec::with_capacity(codec::rle_len(col));
        codec::encode_rle_column(&mut image, col);
        Ok(StoredColumn::Rle {
            rows: col.len(),
            dtype: col.dtype(),
            image: image.into(),
        })
    }

    /// The column as plain values: the buffers, shared (O(1)); the image,
    /// decoded; or the chain's pages, pinned through `pages`' pool.
    pub(crate) fn load(&self, pages: Option<&PagedStore>) -> Result<Column> {
        match self {
            StoredColumn::Plain(c) => Ok(c.clone()),
            StoredColumn::Rle { image, .. } => codec::decode_rle_image(image),
            StoredColumn::Paged(pc) => pages
                .expect("a page chain without its paged store")
                .load_column(pc),
        }
    }

    /// Row count and data type, read without I/O.
    pub(crate) fn shape(&self) -> (usize, DataType) {
        match self {
            StoredColumn::Plain(c) => (c.len(), c.dtype()),
            StoredColumn::Rle { rows, dtype, .. } => (*rows, *dtype),
            StoredColumn::Paged(pc) => (pc.rows, pc.dtype),
        }
    }

    /// Stored size in bytes: the plain model's, the image's, or the
    /// chain's pages (a chain another table shares counts in both).
    pub(crate) fn byte_size(&self) -> usize {
        match self {
            StoredColumn::Plain(c) => c.byte_size(),
            StoredColumn::Rle { image, .. } => image.len(),
            StoredColumn::Paged(pc) => pc.pages.len() * PAGE_SIZE,
        }
    }
}

/// The per-database paged storage engine: disk manager + buffer pool.
pub struct PagedStore {
    disk: Arc<DiskManager>,
    pool: Arc<BufferPool>,
}

impl PagedStore {
    /// Open the store rooted at directory `dir` (created if missing; the
    /// page file `data.jbp` inside is truncated — committed state comes
    /// from WAL replay, not from stale pages).
    pub fn open(dir: &Path, pool_pages: usize) -> Result<PagedStore> {
        std::fs::create_dir_all(dir)?;
        let disk = Arc::new(DiskManager::create(&dir.join("data.jbp"))?);
        let pool = Arc::new(BufferPool::new(Arc::clone(&disk), pool_pages));
        Ok(PagedStore { disk, pool })
    }

    /// The buffer pool (stats, capacity).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// The disk manager (allocation stats).
    pub fn disk(&self) -> &DiskManager {
        &self.disk
    }

    /// Store one column as a fresh chain. Only one page is pinned at a
    /// time, so this works at any pool size.
    pub fn store_column(&self, col: &Column) -> Result<PagedColumn> {
        let mut bytes = Vec::with_capacity(col.byte_size() + 64);
        codec::encode_stored_column(&mut bytes, col);
        let chunks: Vec<&[u8]> = if bytes.is_empty() {
            vec![&[]]
        } else {
            bytes.chunks(PAGE_CAPACITY).collect()
        };
        // Built as it goes, so an error part-way frees what was written.
        let mut chain = PageChain {
            pages: Vec::with_capacity(chunks.len()),
            pool: Arc::clone(&self.pool),
        };
        for (i, chunk) in chunks.iter().enumerate() {
            let (pid, guard) = self.pool.new_page()?;
            chain.pages.push(pid);
            guard.write(|p| {
                page::write_header(p, i == 0, chunk.len());
                p[PAGE_HEADER_BYTES..PAGE_HEADER_BYTES + chunk.len()].copy_from_slice(chunk);
            });
        }
        Ok(PagedColumn {
            pages: Arc::new(chain),
            bytes: bytes.len() as u64,
            rows: col.len(),
            dtype: col.dtype(),
        })
    }

    /// Read one column back, pinning its pages through the pool one at a
    /// time and decoding with the checked codec. Only the first page may
    /// carry the first-page flag and every page but the last must be
    /// full, so a missing or reordered page that changes where the short
    /// last page or the first page sits is an error, not another column.
    pub fn load_column(&self, pc: &PagedColumn) -> Result<Column> {
        let mut bytes = Vec::with_capacity(pc.bytes as usize);
        for (i, &pid) in pc.pages.iter().enumerate() {
            let guard = self.pool.fetch(pid)?;
            guard.read(|p: &PageBuf| -> Result<()> {
                let len = page::read_header(p, i == 0)?;
                if i + 1 < pc.pages.len() && len != PAGE_CAPACITY {
                    return Err(codec::corrupt("short interior page"));
                }
                bytes.extend_from_slice(&p[PAGE_HEADER_BYTES..PAGE_HEADER_BYTES + len]);
                Ok(())
            })?;
        }
        if bytes.len() as u64 != pc.bytes {
            return Err(codec::corrupt("page chain length mismatch"));
        }
        let col = codec::decode_image(&bytes)?;
        if col.len() != pc.rows {
            return Err(codec::corrupt("row count mismatch"));
        }
        Ok(col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datum::{DataType, Datum};

    fn store(name: &str, pool_pages: usize) -> PagedStore {
        let dir = std::env::temp_dir().join(format!("jb_store_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        PagedStore::open(&dir, pool_pages).unwrap()
    }

    /// A 3,000-row Float column stored as six pages, the last one short.
    fn six_page_column(s: &PagedStore) -> PagedColumn {
        let col = Column::float((0..3000).map(f64::from).collect());
        let pc = s.store_column(&col).unwrap();
        assert_eq!(pc.pages.len(), 6);
        pc
    }

    #[test]
    fn multi_page_roundtrip() {
        let s = store("multi", 8);
        // ~24 KB of floats spans several pages.
        let col = Column::float((0..3000).map(|i| i as f64 * 0.1).collect());
        let pc = s.store_column(&col).unwrap();
        assert!(pc.pages.len() > 1, "must actually span pages");
        assert_eq!(s.load_column(&pc).unwrap(), col);
    }

    /// `pc` with its page list edited by `edit`: a damaged chain, leaked
    /// so that it never frees the pages `pc` owns.
    fn damaged(pc: &PagedColumn, edit: impl FnOnce(&mut Vec<PageId>)) -> PagedColumn {
        let mut pages = pc.pages.to_vec();
        edit(&mut pages);
        let pool = Arc::clone(&pc.pages.pool);
        let chain = Arc::new(PageChain { pages, pool });
        std::mem::forget(Arc::clone(&chain));
        PagedColumn {
            pages: chain,
            ..pc.clone()
        }
    }

    #[test]
    fn missing_interior_page_is_rejected() {
        let s = store("missing", 8);
        let pc = six_page_column(&s);
        assert!(s
            .load_column(&damaged(&pc, |p| {
                p.remove(1);
            }))
            .is_err());
    }

    #[test]
    fn reordered_chain_is_rejected() {
        let s = store("reordered", 8);
        let pc = six_page_column(&s);
        assert!(s.load_column(&damaged(&pc, |p| p.swap(0, 1))).is_err());
    }

    #[test]
    fn short_last_page_moved_into_the_chain_is_rejected() {
        let s = store("short_last", 8);
        let pc = six_page_column(&s);
        let moved = damaged(&pc, |p| p.swap(1, 5));
        assert!(s.load_column(&moved).is_err(), "loaded a different column");
    }

    #[test]
    fn table_roundtrip_through_a_tiny_pool() {
        let s = store("tiny", 2);
        let columns = [
            Column::int((0..5000).collect()),
            Column::float((0..5000).map(|i| i as f64 * 0.25).collect()),
            Column::str((0..5000).map(|i| format!("v{}", i % 7)).collect()),
        ];
        let chains: Vec<PagedColumn> = (columns.iter())
            .map(|c| s.store_column(c).unwrap())
            .collect();
        let pages: usize = chains.iter().map(|pc| pc.pages.len()).sum();
        assert!(pages > 2 * s.pool().capacity(), "must not fit");
        for (col, pc) in columns.iter().zip(&chains) {
            assert_eq!(&s.load_column(pc).unwrap(), col, "bit-exact, 2-page pool");
        }
        assert!(s.pool().stats().evictions > 0, "the pool actually thrashed");
    }

    #[test]
    fn free_reclaims_pages() {
        let s = store("reclaim", 8);
        let col = Column::int((0..4000).collect());
        let pc = s.store_column(&col).unwrap();
        let hw = s.disk().pages_allocated();
        let scan = pc.clone();
        drop(pc);
        assert_eq!(s.disk().pages_free(), 0, "a scan still holds the chain");
        drop(scan);
        assert_eq!(s.disk().pages_free() as u64, hw);
        let again = s.store_column(&col).unwrap();
        assert_eq!(
            s.disk().pages_allocated(),
            hw,
            "the second column reuses the freed pages"
        );
        assert_eq!(s.load_column(&again).unwrap(), col);
    }

    #[test]
    fn null_heavy_columns_roundtrip() {
        let s = store("nulls", 3);
        let col = Column::from_datums(
            DataType::Float,
            &(0..3000)
                .map(|i| {
                    if i % 3 == 0 {
                        Datum::Null
                    } else {
                        Datum::Float(i as f64)
                    }
                })
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let pc = s.store_column(&col).unwrap();
        assert_eq!(s.load_column(&pc).unwrap(), col);
    }
}
