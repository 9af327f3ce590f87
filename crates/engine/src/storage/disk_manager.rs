//! Page-granular file I/O: one data file per database.
//!
//! The disk manager owns the database's single page file and hands out
//! page-sized reads and writes at `PageId * PAGE_SIZE` offsets, plus a
//! free list so dropped tables' pages are reused instead of growing the
//! file forever. All I/O goes through the buffer pool — nothing above
//! [`super::buffer_pool`] touches this directly.

use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use parking_lot::Mutex;

use crate::error::{EngineError, Result};

use super::page::{PageBuf, PAGE_SIZE};

/// Identifier of one fixed-size page in the database's page file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

struct DiskInner {
    /// High-water mark: pages `0..next` have been allocated at least once.
    next: u64,
    /// Allocated-then-freed pages, reused LIFO.
    free: Vec<PageId>,
}

/// Page-granular read/write over one file per database. Page I/O is
/// positioned (`pread`/`pwrite`), so it shares no file cursor and holds
/// the allocation lock only to check the page id.
pub struct DiskManager {
    file: File,
    inner: Mutex<DiskInner>,
    path: PathBuf,
}

impl DiskManager {
    /// Create (truncating any previous contents) the page file at `path`.
    /// The file is ephemeral working storage: committed state is always
    /// recoverable from the WAL, so open always starts from a clean file.
    pub fn create(path: &Path) -> Result<DiskManager> {
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        Ok(DiskManager {
            file,
            inner: Mutex::new(DiskInner {
                next: 0,
                free: Vec::new(),
            }),
            path: path.to_path_buf(),
        })
    }

    /// Path of the page file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Allocate a page id (reusing freed pages first).
    pub fn allocate(&self) -> PageId {
        let mut inner = self.inner.lock();
        if let Some(pid) = inner.free.pop() {
            return pid;
        }
        let pid = PageId(inner.next);
        inner.next += 1;
        pid
    }

    /// Return a page to the free list.
    pub fn free(&self, pid: PageId) {
        self.inner.lock().free.push(pid);
    }

    /// Read one page into `buf`. A page allocated but never written reads
    /// back as zeros (the file may simply be shorter than its offset).
    pub fn read_page(&self, pid: PageId, buf: &mut PageBuf) -> Result<()> {
        let offset = self.offset(pid, "read")?;
        let mut filled = 0;
        while filled < PAGE_SIZE {
            match self
                .file
                .read_at(&mut buf[filled..], offset + filled as u64)?
            {
                0 => break, // hole past EOF: rest stays zero
                n => filled += n,
            }
        }
        buf[filled..].fill(0);
        Ok(())
    }

    /// Write one page.
    pub fn write_page(&self, pid: PageId, buf: &PageBuf) -> Result<()> {
        let offset = self.offset(pid, "write")?;
        self.file.write_all_at(buf, offset)?;
        Ok(())
    }

    /// The byte offset of an allocated page; `op` names the access an
    /// unallocated page refuses.
    fn offset(&self, pid: PageId, op: &str) -> Result<u64> {
        if pid.0 >= self.inner.lock().next {
            return Err(EngineError::Other(format!(
                "{op} of unallocated page {}",
                pid.0
            )));
        }
        Ok(pid.0 * PAGE_SIZE as u64)
    }

    /// Pages ever allocated (high-water mark).
    pub fn pages_allocated(&self) -> u64 {
        self.inner.lock().next
    }

    /// Pages currently on the free list.
    pub fn pages_free(&self) -> usize {
        self.inner.lock().free.len()
    }

    /// Bytes the page file addresses (high-water mark × page size).
    pub fn bytes_on_disk(&self) -> u64 {
        self.pages_allocated() * PAGE_SIZE as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("jb_disk_{}_{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("data.jbp")
    }

    #[test]
    fn write_read_roundtrip_and_reuse() {
        let dm = DiskManager::create(&tmp("rt")).unwrap();
        let a = dm.allocate();
        let b = dm.allocate();
        assert_ne!(a, b);
        let mut page = [0u8; PAGE_SIZE];
        page[0] = 0xAB;
        page[PAGE_SIZE - 1] = 0xCD;
        dm.write_page(b, &page).unwrap();
        let mut back = [1u8; PAGE_SIZE];
        dm.read_page(b, &mut back).unwrap();
        assert_eq!(back[0], 0xAB);
        assert_eq!(back[PAGE_SIZE - 1], 0xCD);
        // Page `a` was never written: reads back as zeros. So does `c`,
        // which lies past the end of the file.
        let c = dm.allocate();
        for pid in [a, c] {
            back.fill(1);
            dm.read_page(pid, &mut back).unwrap();
            assert!(back.iter().all(|&x| x == 0));
        }
        // Freed pages are reused before the file grows.
        dm.free(a);
        assert_eq!(dm.allocate(), a);
        assert_eq!(dm.pages_allocated(), 3);
        std::fs::remove_dir_all(dm.path().parent().unwrap()).unwrap();
    }

    #[test]
    fn unallocated_access_is_rejected() {
        let dm = DiskManager::create(&tmp("bounds")).unwrap();
        let mut buf = [0u8; PAGE_SIZE];
        assert!(dm.read_page(PageId(0), &mut buf).is_err());
        assert!(dm.write_page(PageId(5), &buf).is_err());
        std::fs::remove_dir_all(dm.path().parent().unwrap()).unwrap();
    }
}
