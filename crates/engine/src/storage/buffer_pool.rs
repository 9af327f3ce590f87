//! Capacity-bounded buffer pool: pinned frames over the disk manager.
//!
//! Every page access goes through [`BufferPool::fetch`], which pins the
//! page into one of a fixed number of frames (reading it from disk on a
//! miss, evicting an unpinned victim when full) and returns a
//! [`PageGuard`] that unpins on drop. Pinned frames are never evicted;
//! dirty frames are written back before their frame is reused.
//! Replacement is Clock (second chance): near-LRU at O(1) per hit.
//!
//! Lock discipline: the pool's metadata (frame table, page map,
//! replacement state, stats) lives under one mutex; each frame's byte
//! buffer has its own mutex. The pool mutex is never acquired while a
//! frame buffer is held, and a frame buffer is only locked either under
//! the pool mutex (load/evict, pin count zero — uncontended) or through
//! a guard whose pin keeps the frame from being recycled.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::{EngineError, Result};

use super::disk_manager::{DiskManager, PageId};
use super::page::{PageBuf, PAGE_SIZE};

/// Observable pool counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferPoolStats {
    /// Fetches answered from a resident frame.
    pub hits: u64,
    /// Fetches (and fresh-page allocations) that were not resident.
    pub misses: u64,
    /// Resident pages displaced to make room.
    pub evictions: u64,
    /// Bytes of dirty pages written back to the data file (eviction
    /// write-backs and explicit flushes — the pool's measure of spill I/O).
    pub spilled_bytes: u64,
}

#[derive(Clone, Copy)]
struct FrameMeta {
    page: Option<PageId>,
    pins: u32,
    dirty: bool,
    /// Clock reference bit.
    referenced: bool,
}

const EMPTY_FRAME: FrameMeta = FrameMeta {
    page: None,
    pins: 0,
    dirty: false,
    referenced: false,
};

struct PoolInner {
    frames: Vec<FrameMeta>,
    map: HashMap<PageId, usize>,
    hand: usize,
    stats: BufferPoolStats,
}

/// Pin/unpin buffer pool over a [`DiskManager`].
pub struct BufferPool {
    disk: Arc<DiskManager>,
    /// Frame payloads; the Vec itself is immutable after construction so
    /// guards can hold an `Arc` to their frame's buffer without touching
    /// the pool mutex.
    data: Vec<Arc<Mutex<Box<PageBuf>>>>,
    inner: Mutex<PoolInner>,
}

impl BufferPool {
    /// A pool of `capacity` frames (minimum 1) over `disk`.
    pub fn new(disk: Arc<DiskManager>, capacity: usize) -> BufferPool {
        let capacity = capacity.max(1);
        BufferPool {
            disk,
            data: (0..capacity)
                .map(|_| Arc::new(Mutex::new(Box::new([0u8; PAGE_SIZE]))))
                .collect(),
            inner: Mutex::new(PoolInner {
                frames: vec![EMPTY_FRAME; capacity],
                map: HashMap::new(),
                hand: 0,
                stats: BufferPoolStats::default(),
            }),
        }
    }

    /// Number of frames.
    pub fn capacity(&self) -> usize {
        self.data.len()
    }

    /// Pages currently resident.
    pub fn resident(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> BufferPoolStats {
        self.inner.lock().stats
    }

    /// Pin `pid` into a frame (reading from disk on a miss) and return
    /// its guard. Errors if every frame is pinned.
    pub fn fetch(&self, pid: PageId) -> Result<PageGuard<'_>> {
        let mut inner = self.inner.lock();
        if let Some(&slot) = inner.map.get(&pid) {
            let f = &mut inner.frames[slot];
            f.pins += 1;
            f.referenced = true;
            inner.stats.hits += 1;
            return Ok(self.guard(slot));
        }
        inner.stats.misses += 1;
        let slot = self.take_slot(&mut inner)?;
        {
            // Pin count is zero and the page is unmapped, so this lock is
            // uncontended (only guards lock frame buffers otherwise).
            let mut buf = self.data[slot].lock();
            self.disk.read_page(pid, &mut buf)?;
        }
        inner.map.insert(pid, slot);
        inner.frames[slot] = FrameMeta {
            page: Some(pid),
            pins: 1,
            dirty: false,
            referenced: true,
        };
        Ok(self.guard(slot))
    }

    /// Allocate a fresh page on disk and pin it, zero-filled and dirty
    /// (it will be written back on eviction or flush). Counts as a miss.
    pub fn new_page(&self) -> Result<(PageId, PageGuard<'_>)> {
        let pid = self.disk.allocate();
        let mut inner = self.inner.lock();
        inner.stats.misses += 1;
        let slot = match self.take_slot(&mut inner) {
            Ok(s) => s,
            Err(e) => {
                self.disk.free(pid);
                return Err(e);
            }
        };
        self.data[slot].lock().fill(0);
        inner.map.insert(pid, slot);
        inner.frames[slot] = FrameMeta {
            page: Some(pid),
            pins: 1,
            dirty: true,
            referenced: true,
        };
        Ok((pid, self.guard(slot)))
    }

    /// Drop `pid` from the pool (it must be unpinned) and return it to
    /// the disk manager's free list. Freed pages are never written back.
    pub fn free_page(&self, pid: PageId) -> Result<()> {
        let mut inner = self.inner.lock();
        if let Some(slot) = inner.map.remove(&pid) {
            if inner.frames[slot].pins > 0 {
                inner.map.insert(pid, slot);
                return Err(EngineError::Other(format!(
                    "cannot free pinned page {}",
                    pid.0
                )));
            }
            inner.frames[slot] = EMPTY_FRAME;
        }
        self.disk.free(pid);
        Ok(())
    }

    /// Write every dirty frame back and fsync the page file.
    pub fn flush_all(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        for slot in 0..self.data.len() {
            let f = inner.frames[slot];
            if let (Some(pid), true) = (f.page, f.dirty) {
                let buf = self.data[slot].lock();
                self.disk.write_page(pid, &buf)?;
                drop(buf);
                inner.frames[slot].dirty = false;
                inner.stats.spilled_bytes += PAGE_SIZE as u64;
            }
        }
        drop(inner);
        self.disk.sync()
    }

    fn guard(&self, slot: usize) -> PageGuard<'_> {
        PageGuard {
            pool: self,
            slot,
            data: Arc::clone(&self.data[slot]),
        }
    }

    /// Find a frame to (re)use: an empty one, else evict an unpinned
    /// victim by the Clock sweep, writing it back if dirty.
    fn take_slot(&self, inner: &mut PoolInner) -> Result<usize> {
        if let Some(slot) = inner.frames.iter().position(|f| f.page.is_none()) {
            return Ok(slot);
        }
        let Some(slot) = self.clock_victim(inner) else {
            return Err(EngineError::Other(format!(
                "buffer pool exhausted: all {} frames pinned",
                self.data.len()
            )));
        };
        let f = inner.frames[slot];
        let pid = f.page.expect("victim frame is occupied");
        if f.dirty {
            let buf = self.data[slot].lock();
            self.disk.write_page(pid, &buf)?;
            drop(buf);
            inner.stats.spilled_bytes += PAGE_SIZE as u64;
        }
        inner.map.remove(&pid);
        inner.frames[slot] = EMPTY_FRAME;
        inner.stats.evictions += 1;
        Ok(slot)
    }

    /// Clock sweep: skip pinned frames, give referenced frames a second
    /// chance, evict the first unreferenced unpinned frame.
    fn clock_victim(&self, inner: &mut PoolInner) -> Option<usize> {
        let n = self.data.len();
        for _ in 0..2 * n {
            let slot = inner.hand;
            inner.hand = (inner.hand + 1) % n;
            let f = &mut inner.frames[slot];
            if f.pins > 0 {
                continue;
            }
            if f.referenced {
                f.referenced = false;
                continue;
            }
            return Some(slot);
        }
        None
    }
}

/// A pinned page. Dropping the guard unpins the frame; reads and writes
/// go through closures so the frame buffer's lock is scoped.
pub struct PageGuard<'a> {
    pool: &'a BufferPool,
    slot: usize,
    data: Arc<Mutex<Box<PageBuf>>>,
}

impl PageGuard<'_> {
    /// Read the page bytes.
    pub fn read<R>(&self, f: impl FnOnce(&PageBuf) -> R) -> R {
        let buf = self.data.lock();
        f(&buf)
    }

    /// Mutate the page bytes, marking the frame dirty.
    pub fn write<R>(&self, f: impl FnOnce(&mut PageBuf) -> R) -> R {
        self.pool.inner.lock().frames[self.slot].dirty = true;
        let mut buf = self.data.lock();
        f(&mut buf)
    }
}

impl Drop for PageGuard<'_> {
    fn drop(&mut self) {
        let f = &mut self.pool.inner.lock().frames[self.slot];
        debug_assert!(f.pins > 0, "unpin without pin");
        f.pins = f.pins.saturating_sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(name: &str, capacity: usize) -> BufferPool {
        let dir = std::env::temp_dir().join(format!("jb_pool_{}_{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let disk = Arc::new(DiskManager::create(&dir.join("data.jbp")).unwrap());
        BufferPool::new(disk, capacity)
    }

    /// Allocate `n` pages, each stamped with its index, and unpin them.
    fn seed_pages(pool: &BufferPool, n: usize) -> Vec<PageId> {
        (0..n)
            .map(|i| {
                let (pid, g) = pool.new_page().unwrap();
                g.write(|p| p[0] = i as u8);
                pid
            })
            .collect()
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let pool = pool("cap", 4);
        let pids = seed_pages(&pool, 16);
        assert!(pool.resident() <= 4);
        for (i, &pid) in pids.iter().enumerate() {
            let g = pool.fetch(pid).unwrap();
            assert_eq!(g.read(|p| p[0]), i as u8, "page {i} content survived");
            drop(g);
            assert!(pool.resident() <= 4, "after fetch {i}");
        }
    }

    #[test]
    fn pinned_pages_are_never_evicted() {
        let pool = pool("pin", 2);
        let pids = seed_pages(&pool, 2);
        let g0 = pool.fetch(pids[0]).unwrap();
        let g1 = pool.fetch(pids[1]).unwrap();
        // Both frames pinned: making room must refuse, not evict.
        let err = match pool.new_page() {
            Err(e) => e,
            Ok(_) => panic!("new_page succeeded with every frame pinned"),
        };
        assert!(err.to_string().contains("pinned"), "{err}");
        assert_eq!(pool.stats().evictions, 0);
        assert_eq!(g0.read(|p| p[0]), 0);
        assert_eq!(g1.read(|p| p[0]), 1);
        drop(g1);
        // One frame unpinned now; the still-pinned page must survive the
        // eviction that makes room.
        let (_, g2) = pool.new_page().unwrap();
        g2.write(|p| p[0] = 9);
        assert_eq!(pool.stats().evictions, 1, "exactly the unpinned frame");
        assert_eq!(g0.read(|p| p[0]), 0, "pinned page untouched");
        drop(g2);
        let s = pool.stats();
        let g1 = pool.fetch(pids[1]).unwrap();
        assert_eq!(
            pool.stats().misses,
            s.misses + 1,
            "unpinned page was victim"
        );
        assert_eq!(g1.read(|p| p[0]), 1, "evicted dirty page reloads intact");
    }

    #[test]
    fn clock_gives_second_chances_in_hand_order() {
        let pool = pool("clock", 3);
        let pids = seed_pages(&pool, 3); // slots 0,1,2, all referenced
                                         // First eviction sweeps: clears all three reference bits, then
                                         // takes slot 0 on the second pass.
        let extra = seed_pages(&pool, 1);
        assert_eq!(pool.stats().evictions, 1);
        {
            let mut s = pool.stats();
            let _ = pool.fetch(pids[1]).unwrap(); // still resident
            let _ = pool.fetch(pids[2]).unwrap(); // still resident
            assert_eq!(pool.stats().hits, s.hits + 2, "pages 1,2 survived");
            s = pool.stats();
            let _ = pool.fetch(pids[0]).unwrap(); // the victim
            assert_eq!(pool.stats().misses, s.misses + 1, "page 0 was evicted");
        }
        // The reload's own eviction swept every reference bit again, so
        // the next eviction takes the first unreferenced frame after the
        // hand — not the extra page, whose bit the sweep just cleared but
        // which the hand has already passed.
        let _ = seed_pages(&pool, 1);
        let s = pool.stats();
        let _ = pool.fetch(extra[0]).unwrap();
        assert_eq!(pool.stats().hits, s.hits + 1, "extra page survived");
    }

    #[test]
    fn stats_match_scripted_access_pattern() {
        let pool = pool("stats", 2);
        // new_page a, b: two misses, no eviction (empty frames).
        let pids = seed_pages(&pool, 2);
        assert_eq!(
            pool.stats(),
            BufferPoolStats {
                hits: 0,
                misses: 2,
                evictions: 0,
                spilled_bytes: 0
            }
        );
        // new_page c: miss; evicts a dirty page — one write-back.
        let c = seed_pages(&pool, 1)[0];
        assert_eq!(
            pool.stats(),
            BufferPoolStats {
                hits: 0,
                misses: 3,
                evictions: 1,
                spilled_bytes: PAGE_SIZE as u64
            }
        );
        // fetch c: hit. fetch a: miss, evicts another dirty page.
        let _ = pool.fetch(c).unwrap();
        let _ = pool.fetch(pids[0]).unwrap();
        assert_eq!(
            pool.stats(),
            BufferPoolStats {
                hits: 1,
                misses: 4,
                evictions: 2,
                spilled_bytes: 2 * PAGE_SIZE as u64
            }
        );
        // fetch a again: hit. Clean page: a future eviction of it spills
        // nothing further.
        let _ = pool.fetch(pids[0]).unwrap();
        let st = pool.stats();
        assert_eq!((st.hits, st.misses), (2, 4));
        // flush_all writes the remaining dirty frame (c) exactly once.
        pool.flush_all().unwrap();
        assert_eq!(pool.stats().spilled_bytes, 3 * PAGE_SIZE as u64);
        pool.flush_all().unwrap();
        assert_eq!(
            pool.stats().spilled_bytes,
            3 * PAGE_SIZE as u64,
            "second flush finds nothing dirty"
        );
    }

    #[test]
    fn freed_pages_leave_the_pool_and_reuse_their_id() {
        let pool = pool("free", 4);
        let pids = seed_pages(&pool, 2);
        let g = pool.fetch(pids[0]).unwrap();
        assert!(pool.free_page(pids[0]).is_err(), "pinned page cannot free");
        drop(g);
        pool.free_page(pids[0]).unwrap();
        assert_eq!(pool.resident(), 1);
        let (reused, g) = pool.new_page().unwrap();
        assert_eq!(reused, pids[0], "free list reuses the id");
        assert_eq!(g.read(|p| p[0]), 0, "fresh page is zeroed");
    }
}
