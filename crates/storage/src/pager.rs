//! The buffer manager: per-file frame pools, eviction policies, and page
//! access accounting.
//!
//! The paper's methodology is specific about buffering: "we counted only
//! disk accesses to user relations, and allocated only 1 buffer for each
//! user relation so that a page resides in main memory only until another
//! page from the same relation is brought in." [`Pager`] reproduces that
//! as its *default* configuration — one LRU frame per file — and
//! generalizes it into a policy-driven buffer manager:
//!
//! * [`BufferConfig`] selects a global frames-per-file default, an
//!   [`EvictionPolicy`] (LRU or Clock), and optional per-file caps; the
//!   same knobs are reachable per file at runtime through
//!   [`Pager::set_buffer_frames`].
//! * Every pool — eagerly created by [`Pager::create_file`] or lazily on
//!   first access to a file restored from a persisted catalog — is built
//!   by one helper that honors the configured caps, so a relation buffers
//!   identically however its file came into view.
//! * A pool costs O(1) per hit and per eviction at any cap: frames stay
//!   in fixed slots, a direct-mapped **page table** (page number → slot;
//!   page numbers are dense per file) finds a page without a search,
//!   and LRU order is an intrusive doubly-linked **list** over the slots,
//!   so a hit relinks one slot and an eviction reuses the victim's slot.
//!   Clock sweeps the same slots with a hand. The victims are those of
//!   a linear-scan, move-to-front list, page for page.
//! * Frames are **pinned** for the duration of a `read`/`write` callback:
//!   the eviction scan skips pinned frames, so a multi-page operation
//!   (ISAM directory descent, overflow-chain walk, a heap scan feeding a
//!   temporary) can never have the page it is looking at stolen from
//!   under it, at any cap.
//!
//! A buffer hit costs nothing, a miss fetches from the [`DiskManager`]
//! and bumps the file's read counter, and dirty frames are written back
//! on eviction or flush (bumping the write counter). [`IoStats`]
//! additionally classifies every buffered access as hit or miss and
//! counts capacity evictions, maintaining `hits + misses == accesses`.
//!
//! The pager is `Send + Sync`: every method takes `&self`, with the frame
//! tables, overlay, and disk handle behind one pager-wide `RwLock`. Page
//! accesses take the write lock and hold it across the user callback —
//! the frame stays pinned and the accounting stays exactly the
//! single-threaded sequence, so a one-thread run is bit-identical to the
//! old `&mut` pager — while pure introspection (page counts, config
//! getters, staged-page listings) shares the read lock.

use crate::bloom::Bloom;
use crate::checksum::ChecksumSet;
use crate::disk::{DiskManager, FileId, MemDisk};
use crate::iostats::IoStats;
use crate::page::{Page, PageKind};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{
    Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use tdbms_kernel::{Error, Result};

/// Default bounded retry budget for transient disk-read failures. Safe to
/// leave on: a healthy disk never errors, so the retry path costs nothing
/// until the first failure.
pub const DEFAULT_READ_RETRIES: u32 = 2;

/// Which frame a full pool gives up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EvictionPolicy {
    /// Evict the least-recently-used frame (the paper's implied policy;
    /// with one frame per file every replacement policy degenerates to
    /// this).
    #[default]
    Lru,
    /// Second-chance clock: a sweeping hand clears reference bits and
    /// evicts the first frame found unreferenced.
    Clock,
}

impl std::fmt::Display for EvictionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvictionPolicy::Lru => write!(f, "lru"),
            EvictionPolicy::Clock => write!(f, "clock"),
        }
    }
}

/// Buffer-manager configuration, threaded from the database layer down to
/// the [`Pager`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferConfig {
    /// Frames allotted to each file unless overridden (minimum 1).
    pub default_frames: usize,
    /// Replacement policy for every pool.
    pub policy: EvictionPolicy,
    /// Per-file frame caps, applied whenever that file's pool is created
    /// (before or after the file itself exists).
    pub per_file: Vec<(FileId, usize)>,
}

impl Default for BufferConfig {
    fn default() -> Self {
        BufferConfig::paper()
    }
}

impl BufferConfig {
    /// The paper's configuration: one LRU frame per file.
    pub fn paper() -> Self {
        BufferConfig {
            default_frames: 1,
            policy: EvictionPolicy::Lru,
            per_file: Vec::new(),
        }
    }

    /// A uniform configuration: `frames` per file under `policy`.
    pub fn uniform(frames: usize, policy: EvictionPolicy) -> Self {
        BufferConfig {
            default_frames: frames,
            policy,
            per_file: Vec::new(),
        }
    }
}

/// A file's buffer pool vanished while the file is still referenced —
/// in-memory bookkeeping no longer matches the catalog. Reported as
/// media corruption (repairable by `tdbms-check --repair`) rather than
/// panicking the process.
fn missing_pool(file: FileId) -> Error {
    Error::Corruption {
        file: Some(file.0),
        page: None,
        detail: "buffer pool missing for a live file \
                 (catalog references a dropped file?)"
            .into(),
    }
}

/// A just-installed frame is gone from its pool — same corrupt-state
/// family as [`missing_pool`], located to the page.
fn missing_frame(file: FileId, page_no: u32) -> Error {
    Error::Corruption {
        file: Some(file.0),
        page: Some(page_no),
        detail: "buffer frame missing after fault-in".into(),
    }
}

struct Frame {
    page_no: u32,
    page: Page,
    dirty: bool,
    /// Held by an in-flight `read`/`write` callback; never a victim.
    pinned: bool,
    /// Second-chance bit (Clock policy only).
    referenced: bool,
}

/// "No slot" in the page table and "no neighbour" in the LRU list.
const NIL: u32 = u32::MAX;

/// One file's frames, laid out so that a hit and an eviction each cost
/// O(1) whatever the cap:
///
/// * **Stable slots.** A frame stays in its slot of `frames` until it
///   is evicted; an eviction swaps the incoming frame into the victim's
///   slot, so a miss at capacity allocates nothing.
/// * **Page table.** `table[page_no]` is the page's slot, or [`NIL`].
///   Page numbers are dense per file, so a direct-mapped `Vec` needs no
///   hashing; it grows to the highest page number ever resident.
/// * **LRU list.** An intrusive doubly-linked list over slot indices
///   (`prev`/`next`, MRU at `head`). An LRU hit relinks its slot to the
///   front; the victim is the first unpinned slot walking from `tail`.
/// * **Clock** sweeps `frames` in slot order with `hand`. Under Clock
///   the list is kept in slot order (new frames go to the back, a
///   victim's slot is reused in place), so write-back order and a later
///   switch to LRU follow the sweep order.
///
/// Victims, write-back order and every counter are exactly those of a
/// single `Vec` of frames searched linearly — MRU-first with
/// move-to-front under LRU, a swept slot array under Clock — which is
/// the reference model of this module's differential test. Only rare
/// paths (shrinking the cap, removing one page, switching to Clock)
/// rebuild the layout, in O(frames).
struct FilePool {
    cap: usize,
    frames: Vec<Frame>,
    table: Vec<u32>,
    prev: Vec<u32>,
    next: Vec<u32>,
    head: u32,
    tail: u32,
    /// Frames with `pinned` set, so Clock's all-pinned check is O(1).
    pinned: usize,
    /// Clock hand: index of the next frame the sweep inspects.
    hand: usize,
}

impl FilePool {
    fn new(cap: usize) -> Self {
        FilePool {
            cap: cap.max(1),
            frames: Vec::new(),
            table: Vec::new(),
            prev: Vec::new(),
            next: Vec::new(),
            head: NIL,
            tail: NIL,
            pinned: 0,
            hand: 0,
        }
    }

    /// The slot holding `page_no`, if resident.
    fn slot_of(&self, page_no: u32) -> Option<usize> {
        match self.table.get(page_no as usize) {
            Some(&s) if s != NIL => Some(s as usize),
            _ => None,
        }
    }

    fn map(&mut self, page_no: u32, slot: usize) {
        let i = page_no as usize;
        if i >= self.table.len() {
            self.table.resize(i + 1, NIL);
        }
        debug_assert_eq!(
            self.table[i], NIL,
            "page {page_no} resident twice"
        );
        self.table[i] = slot as u32;
    }

    fn unmap(&mut self, page_no: u32) {
        self.table[page_no as usize] = NIL;
    }

    fn unlink(&mut self, s: usize) {
        let (p, n) = (self.prev[s], self.next[s]);
        match p {
            NIL => self.head = n,
            p => self.next[p as usize] = n,
        }
        match n {
            NIL => self.tail = p,
            n => self.prev[n as usize] = p,
        }
    }

    fn link_front(&mut self, s: usize) {
        self.prev[s] = NIL;
        self.next[s] = self.head;
        match self.head {
            NIL => self.tail = s as u32,
            h => self.prev[h as usize] = s as u32,
        }
        self.head = s as u32;
    }

    fn link_back(&mut self, s: usize) {
        self.next[s] = NIL;
        self.prev[s] = self.tail;
        match self.tail {
            NIL => self.head = s as u32,
            t => self.next[t as usize] = s as u32,
        }
        self.tail = s as u32;
    }

    /// Record an access to a resident slot.
    fn touch(&mut self, s: usize, policy: EvictionPolicy) {
        match policy {
            EvictionPolicy::Lru => {
                if self.head != s as u32 {
                    self.unlink(s);
                    self.link_front(s);
                }
            }
            EvictionPolicy::Clock => self.frames[s].referenced = true,
        }
    }

    /// Put `frame` in a new slot, at the front of the list (an LRU
    /// install) or at the back (Clock installs; readahead under either
    /// policy), and return the slot.
    fn push(&mut self, frame: Frame, front: bool) -> usize {
        let s = self.frames.len();
        self.map(frame.page_no, s);
        self.pinned += usize::from(frame.pinned);
        self.frames.push(frame);
        self.prev.push(NIL);
        self.next.push(NIL);
        if front {
            self.link_front(s);
        } else {
            self.link_back(s);
        }
        s
    }

    /// Install `frame` in the victim's slot `s`, returning the victim.
    /// Under LRU the slot becomes MRU; under Clock it keeps its place in
    /// the sweep.
    fn replace(
        &mut self,
        s: usize,
        frame: Frame,
        policy: EvictionPolicy,
    ) -> Frame {
        self.pinned += usize::from(frame.pinned);
        let old = std::mem::replace(&mut self.frames[s], frame);
        self.pinned -= usize::from(old.pinned);
        self.unmap(old.page_no);
        self.map(self.frames[s].page_no, s);
        if policy == EvictionPolicy::Lru {
            self.touch(s, policy);
        }
        old
    }

    /// Mark slot `s` held by a callback, returning its frame (`None`
    /// for a slot that does not exist).
    fn pin(&mut self, s: usize) -> Option<&mut Frame> {
        let frame = self.frames.get_mut(s)?;
        if !frame.pinned {
            frame.pinned = true;
            self.pinned += 1;
        }
        Some(frame)
    }

    fn unpin(&mut self, s: usize) {
        if let Some(frame) = self.frames.get_mut(s) {
            if frame.pinned {
                frame.pinned = false;
                self.pinned -= 1;
            }
        }
    }

    /// Pick the slot the policy sacrifices, skipping pinned frames.
    /// `None` only when every frame is pinned.
    fn evict_slot(&mut self, policy: EvictionPolicy) -> Option<usize> {
        match policy {
            EvictionPolicy::Lru => {
                let mut s = self.tail;
                while s != NIL && self.frames[s as usize].pinned {
                    s = self.prev[s as usize];
                }
                (s != NIL).then_some(s as usize)
            }
            EvictionPolicy::Clock => {
                let n = self.frames.len();
                if n == 0 || self.pinned == n {
                    return None;
                }
                // At most two sweeps: the first clears reference bits,
                // the second must find an unreferenced, unpinned frame.
                for _ in 0..2 * n {
                    let i = self.hand % n;
                    self.hand = (i + 1) % n;
                    let frame = &mut self.frames[i];
                    if frame.pinned {
                        continue;
                    }
                    if frame.referenced {
                        frame.referenced = false;
                        continue;
                    }
                    return Some(i);
                }
                unreachable!("an unpinned frame loses its reference bit")
            }
        }
    }

    /// Empty the pool, returning its frames in list order (MRU-first
    /// under LRU, slot order under Clock). The hand is left alone.
    fn take_ordered(&mut self) -> Vec<Frame> {
        let mut slots: Vec<Option<Frame>> =
            std::mem::take(&mut self.frames)
                .into_iter()
                .map(Some)
                .collect();
        let mut out = Vec::with_capacity(slots.len());
        let mut s = self.head;
        while s != NIL {
            let frame =
                slots[s as usize].take().expect("each slot is listed once");
            self.unmap(frame.page_no);
            s = self.next[s as usize];
            out.push(frame);
        }
        self.prev.clear();
        self.next.clear();
        self.head = NIL;
        self.tail = NIL;
        self.pinned = 0;
        out
    }

    /// Take every frame out, in the order the policy writes them back,
    /// and rewind the hand.
    fn drain(&mut self) -> Vec<Frame> {
        let frames = self.take_ordered();
        self.hand = 0;
        frames
    }

    /// Drop every frame without write-back and rewind the hand.
    fn clear(&mut self) {
        self.drain();
    }

    /// Lay the frames out again with slots in list order (rare paths).
    fn rebuild(&mut self, frames: Vec<Frame>) {
        for frame in frames {
            self.push(frame, false);
        }
    }

    /// Remove slot `s`, keeping the other frames' list order; under
    /// Clock (list order == slot order) the slots after `s` shift down
    /// by one, as a `Vec::remove` of the sweep array would.
    fn remove(&mut self, s: usize) -> Frame {
        let mut at = 0;
        let mut cur = self.head;
        while cur != s as u32 {
            cur = self.next[cur as usize];
            at += 1;
        }
        let mut frames = self.take_ordered();
        let frame = frames.remove(at);
        self.rebuild(frames);
        frame
    }

    /// Make slot order equal list order, so Clock sweeps the frames in
    /// the LRU list's MRU-first order (a switch from LRU to Clock).
    fn relayout(&mut self) {
        let frames = self.take_ordered();
        self.rebuild(frames);
    }
}

/// Statement-scoped undo (staging mode only): first-touch snapshots of
/// everything a statement may disturb, captured lazily as the statement
/// runs so [`Pager::rollback_statement`] can put the pager back exactly
/// as it was at [`Pager::begin_statement_undo`]. Uncommitted page
/// *content* never reaches disk under staging, so the in-memory restore
/// (overlay, staged set, resize/drop bookkeeping) is infallible; only
/// file-shape changes (appended placeholder tails, in-statement
/// truncates, created files) need physical repair, which may itself hit
/// the full disk and is then deferred (see [`Deferred`]).
#[derive(Default)]
struct UndoLog {
    /// Per page key: `(prior overlay image, was staged)` at first touch.
    touched: BTreeMap<(FileId, u32), (Option<Page>, bool)>,
    /// Files first entering `resized` during the statement.
    resized_added: BTreeSet<FileId>,
    /// `pending_drops` length at statement start.
    drops_len: usize,
    /// Disk length per file at its first in-statement length change.
    lengths: BTreeMap<FileId, u32>,
    /// Pre-truncate disk images (an in-statement physical truncate
    /// destroys checkpointed pages; rollback re-appends these).
    truncated: BTreeMap<FileId, Vec<Page>>,
    /// Files created during the statement (physically dropped on
    /// rollback).
    created: Vec<FileId>,
    /// Per-file cap overrides removed by an in-statement drop.
    overrides: BTreeMap<FileId, Option<usize>>,
}

/// A physical rollback step that failed (the disk is still exhausted)
/// and waits for [`Pager::retry_deferred`]. In-memory state is already
/// rolled back; until the fix lands, the named file's on-disk shape
/// disagrees with the committed state — which is why the engine stays
/// read-only-degraded until the deferred list drains.
#[derive(Debug, Clone)]
enum Deferred {
    /// Trim the file back to `len` pages (placeholder tail from
    /// rolled-back appends).
    Shrink(FileId, u32),
    /// Re-append saved images after an in-statement physical truncate.
    Restore(FileId, Vec<Page>),
    /// Physically drop a file the rolled-back statement created.
    Drop(FileId),
}

/// Everything the pager-wide lock guards: the disk handle, the frame
/// tables, the buffering config, and the WAL staging overlay. The stats
/// ledger lives *outside* (it is internally atomic), so counter reads
/// never contend with page traffic.
struct PagerState {
    disk: Box<dyn DiskManager>,
    pools: std::collections::HashMap<FileId, FilePool>,
    default_cap: usize,
    policy: EvictionPolicy,
    /// Per-file caps that outlive the pools they configure (a pool can be
    /// created lazily long after the cap was requested).
    overrides: std::collections::HashMap<FileId, usize>,
    /// WAL staging mode: write-backs land in `overlay`, not on disk.
    staging: bool,
    /// Staged after-images shadowing the disk (staging mode only).
    overlay: BTreeMap<(FileId, u32), Page>,
    /// Pages dirtied since the last commit (keys into `overlay`).
    staged: BTreeSet<(FileId, u32)>,
    /// Files whose length changed since the last commit.
    resized: BTreeSet<FileId>,
    /// Files dropped while staging; physically dropped after commit.
    pending_drops: Vec<FileId>,
    /// Sidecar page checksums, verified on fault-in and refreshed on every
    /// real disk write. `None` (the paper default) skips both sides.
    checksums: Option<ChecksumSet>,
    /// Transient-read retry budget: a failing disk read is reissued up to
    /// this many times before the error surfaces.
    read_retries: u32,
    /// Statement undo, present between `begin_statement_undo` and
    /// `discard_statement_undo`/`rollback_statement`.
    undo: Option<UndoLog>,
    /// Physical rollback steps awaiting a recovered disk.
    deferred: Vec<Deferred>,
}

/// Buffer-managing page store over a [`DiskManager`], shareable across
/// threads.
pub struct Pager {
    state: RwLock<PagerState>,
    stats: IoStats,
    /// Per-file Bloom filters over "keys with versions on overflow
    /// pages" (see [`Bloom`]). Kept beside the state lock, not inside
    /// it: a filter probe must not contend with page traffic, and the
    /// access methods consult it *before* deciding whether to fault
    /// overflow pages in. Files without an entry (fresh catalogs
    /// reloaded from disk, heap files) simply have no guard and every
    /// chain is walked — the pre-filter behaviour.
    blooms: RwLock<std::collections::HashMap<FileId, Arc<Bloom>>>,
    /// Bloom-guard master switch. Off by default: a skipped chain walk
    /// changes a query's input-page count, and the paper benchmarks'
    /// golden figures assume every probe walks its chain. The scale
    /// workload and anything else living past the paper turns it on
    /// *before* building (filters are installed at rebuild time).
    bloom_on: AtomicBool,
    /// Batched-readahead master switch. Off by default so the paper
    /// benchmarks (and their pinned per-file I/O counts) see the
    /// one-page-at-a-time pager; the scale driver and the
    /// reorganization daemon turn it on.
    readahead_on: AtomicBool,
}

impl PagerState {
    /// Refresh a recorded checksum after the bytes were written outside
    /// the pager's own write path (no-op when verification is off).
    fn note_written(&mut self, file: FileId, page_no: u32, page: &Page) {
        if let Some(sums) = &mut self.checksums {
            sums.record(file, page_no, page);
        }
    }

    /// Fetch a page from disk with bounded retry (transient I/O and
    /// checksum failures are reissued; [`Error::NoSuchPage`] is not — a
    /// missing page will not appear on a second look) and verify it
    /// against the sidecar, adopting the sum when none is recorded.
    fn fetch_from_disk(
        &mut self,
        stats: &IoStats,
        file: FileId,
        page_no: u32,
    ) -> Result<Page> {
        let mut attempt: u32 = 0;
        loop {
            let fetched =
                self.disk.read_page(file, page_no).and_then(|p| {
                    if let Some(sums) = &self.checksums {
                        sums.verify(file, page_no, &p)?;
                    }
                    Ok(p)
                });
            match fetched {
                Ok(page) => {
                    if let Some(sums) = &mut self.checksums {
                        if sums.get(file, page_no).is_none() {
                            sums.record(file, page_no, &page);
                        }
                    }
                    return Ok(page);
                }
                Err(e @ Error::NoSuchPage(_)) => return Err(e),
                Err(e) => {
                    if attempt >= self.read_retries {
                        return Err(e);
                    }
                    attempt += 1;
                    stats.record_retry(file);
                    // Deterministic backoff: a counted spin, doubling per
                    // attempt. No wall-clock, so fault-injection tests
                    // replay identically.
                    let mut spins = 1u64 << attempt.min(10);
                    while spins > 0 {
                        spins -= 1;
                        std::hint::spin_loop();
                    }
                }
            }
        }
    }

    /// The one place pools are created: every path — eager
    /// [`Pager::create_file`], lazy fault-in or append on a file restored
    /// from a persisted catalog, a cap request for a not-yet-buffered
    /// file — resolves the cap the same way (per-file override, else the
    /// default).
    fn pool_mut(&mut self, file: FileId) -> &mut FilePool {
        let cap = self
            .overrides
            .get(&file)
            .copied()
            .unwrap_or(self.default_cap);
        self.pools.entry(file).or_insert_with(|| FilePool::new(cap))
    }

    /// The buffer pool for `file`, or [`Error::Corruption`] when it is
    /// missing. The pager creates pools on demand, so a vanished pool
    /// means the in-memory state no longer matches the catalog (e.g. a
    /// corrupt catalog still references a dropped file); that is a
    /// repairable condition for `tdbms-check --repair`, not a reason to
    /// abort the process.
    fn pool_of(&mut self, file: FileId) -> Result<&mut FilePool> {
        self.pools.get_mut(&file).ok_or_else(|| missing_pool(file))
    }

    /// Record a page key's prior overlay/staged state at first touch
    /// (no-op without an active statement undo).
    fn undo_touch(&mut self, key: (FileId, u32)) {
        if self.undo.is_none() {
            return;
        }
        let img = self.overlay.get(&key).cloned();
        let was = self.staged.contains(&key);
        let u = self.undo.as_mut().expect("checked above");
        u.touched.entry(key).or_insert((img, was));
    }

    /// Record a file's disk length and `resized` membership before its
    /// first in-statement length change.
    fn undo_resize(&mut self, file: FileId) -> Result<()> {
        if self.undo.is_none() {
            return Ok(());
        }
        let created = self
            .undo
            .as_ref()
            .expect("checked above")
            .created
            .contains(&file);
        let known = self
            .undo
            .as_ref()
            .expect("checked above")
            .lengths
            .contains_key(&file);
        let len = if known || created {
            None
        } else {
            Some(self.disk.page_count(file)?)
        };
        let was_resized = self.resized.contains(&file);
        let u = self.undo.as_mut().expect("checked above");
        if !was_resized {
            u.resized_added.insert(file);
        }
        if let Some(l) = len {
            u.lengths.insert(file, l);
        }
        Ok(())
    }

    /// Apply one deferred physical rollback step. Idempotent: every
    /// branch re-checks the disk before acting, so a step that half
    /// completed (or already completed) can be reissued safely.
    fn apply_fix(&mut self, fix: &Deferred) -> Result<()> {
        match fix {
            Deferred::Drop(f) => {
                if self.disk.page_count(*f).is_ok() {
                    self.disk.drop_file(*f)?;
                }
                if let Some(sums) = &mut self.checksums {
                    sums.drop_file(*f);
                }
                Ok(())
            }
            Deferred::Shrink(f, len) => {
                let Ok(cur) = self.disk.page_count(*f) else {
                    return Ok(());
                };
                if cur <= *len {
                    return Ok(());
                }
                let keep: Vec<Page> = (0..*len)
                    .map(|p| self.disk.read_page(*f, p))
                    .collect::<Result<_>>()?;
                self.restore_file(*f, &keep)
            }
            Deferred::Restore(f, pages) => self.restore_file(*f, pages),
        }
    }

    /// Truncate `file` and re-append `pages` (the trait only truncates
    /// to zero), refreshing the checksum sidecar as it goes.
    fn restore_file(&mut self, file: FileId, pages: &[Page]) -> Result<()> {
        if self.disk.page_count(file).is_err() {
            return Ok(());
        }
        self.disk.truncate(file)?;
        if let Some(sums) = &mut self.checksums {
            sums.truncate(file, 0);
        }
        for (i, p) in pages.iter().enumerate() {
            self.disk.append_page(file, p)?;
            self.note_written(file, i as u32, p);
        }
        Ok(())
    }

    fn write_back(
        &mut self,
        stats: &IoStats,
        file: FileId,
        frame: Frame,
    ) -> Result<()> {
        if frame.dirty {
            if self.staging {
                self.undo_touch((file, frame.page_no));
                self.overlay.insert((file, frame.page_no), frame.page);
                self.staged.insert((file, frame.page_no));
            } else {
                self.disk.write_page(file, frame.page_no, &frame.page)?;
                self.note_written(file, frame.page_no, &frame.page);
            }
            stats.record_write(file);
        }
        Ok(())
    }

    /// Make room in `file`'s pool (evicting by policy, with accounting)
    /// and install `frame`, returning its slot.
    fn install_frame(
        &mut self,
        stats: &IoStats,
        file: FileId,
        frame: Frame,
    ) -> Result<usize> {
        let policy = self.policy;
        let pool = self.pool_mut(file);
        if pool.frames.len() < pool.cap {
            return Ok(pool.push(frame, policy == EvictionPolicy::Lru));
        }
        let slot = pool.evict_slot(policy).ok_or_else(|| {
            Error::Internal(
                "buffer pool exhausted: every frame is pinned".into(),
            )
        })?;
        let victim = pool.replace(slot, frame, policy);
        stats.record_eviction(file);
        self.write_back(stats, file, victim)?;
        Ok(slot)
    }

    /// Find or fetch the frame for (`file`, `page_no`) and return its
    /// slot. Every *successful* call is one buffered page access — a hit
    /// or a miss — recorded together with its hit/read half so the
    /// ledger identity `hits + reads == accesses` survives a fetch that
    /// errors out (stale snapshot reads against a concurrently
    /// reorganized file do that in normal operation).
    fn fault_in(
        &mut self,
        stats: &IoStats,
        file: FileId,
        page_no: u32,
    ) -> Result<usize> {
        let policy = self.policy;
        let pool = self.pool_mut(file);
        if let Some(slot) = pool.slot_of(page_no) {
            pool.touch(slot, policy);
            stats.record_access_hit(file);
            return Ok(slot);
        }
        // Miss: fetch (the staging overlay shadows the disk; disk reads
        // are checksum-verified with bounded retry), then install
        // (evicting as needed).
        let page = match self.overlay.get(&(file, page_no)) {
            Some(p) => p.clone(),
            None => self.fetch_from_disk(stats, file, page_no)?,
        };
        let slot = self.install_frame(
            stats,
            file,
            Frame {
                page_no,
                page,
                dirty: false,
                pinned: false,
                referenced: false,
            },
        )?;
        stats.record_access_read(file);
        Ok(slot)
    }
}

impl Pager {
    /// A pager over the given disk with the paper's 1-frame-per-file LRU
    /// buffering.
    pub fn new(disk: Box<dyn DiskManager>) -> Self {
        Pager::with_config(disk, BufferConfig::paper())
    }

    /// A pager with an explicit buffer configuration.
    pub fn with_config(
        disk: Box<dyn DiskManager>,
        config: BufferConfig,
    ) -> Self {
        Pager {
            state: RwLock::new(PagerState {
                disk,
                pools: std::collections::HashMap::new(),
                default_cap: config.default_frames.max(1),
                policy: config.policy,
                overrides: config
                    .per_file
                    .into_iter()
                    .map(|(f, cap)| (f, cap.max(1)))
                    .collect(),
                staging: false,
                overlay: BTreeMap::new(),
                staged: BTreeSet::new(),
                resized: BTreeSet::new(),
                pending_drops: Vec::new(),
                checksums: None,
                read_retries: DEFAULT_READ_RETRIES,
                undo: None,
                deferred: Vec::new(),
            }),
            stats: IoStats::new(),
            blooms: RwLock::new(std::collections::HashMap::new()),
            bloom_on: AtomicBool::new(false),
            readahead_on: AtomicBool::new(false),
        }
    }

    /// In-memory pager (the benchmark configuration).
    pub fn in_memory() -> Self {
        Pager::new(Box::new(MemDisk::new()))
    }

    /// In-memory pager with an explicit buffer configuration.
    pub fn in_memory_with_config(config: BufferConfig) -> Self {
        Pager::with_config(Box::new(MemDisk::new()), config)
    }

    /// The exclusive guard over the pager state, tolerant of panics in
    /// earlier page callbacks (the state is a consistent snapshot at
    /// every await-free suspension point; poisoning adds nothing here).
    fn st(&self) -> RwLockWriteGuard<'_, PagerState> {
        self.state.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The shared guard, for pure introspection.
    fn st_read(&self) -> RwLockReadGuard<'_, PagerState> {
        self.state.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Change the default buffer frames allotted to files without a
    /// per-file override. Applies to pools created from now on; existing
    /// pools keep their caps (use [`Pager::set_buffer_frames`] to resize
    /// one).
    pub fn set_default_buffer_frames(&self, cap: usize) {
        self.st().default_cap = cap.max(1);
    }

    /// The default frames-per-file cap.
    pub fn default_buffer_frames(&self) -> usize {
        self.st_read().default_cap
    }

    /// Change the eviction policy for every pool. Reference bits and the
    /// clock hand carry over untouched, and Clock starts sweeping the
    /// frames in their LRU order, MRU first; with the paper's
    /// single-frame pools the policies are indistinguishable.
    pub fn set_eviction_policy(&self, policy: EvictionPolicy) {
        let st = &mut *self.st();
        if st.policy == EvictionPolicy::Lru
            && policy == EvictionPolicy::Clock
        {
            st.pools.values_mut().for_each(FilePool::relayout);
        }
        st.policy = policy;
    }

    /// The active eviction policy.
    pub fn eviction_policy(&self) -> EvictionPolicy {
        self.st_read().policy
    }

    /// Change the buffer frames allotted to one file, evicting (with
    /// write-back accounting) as needed. The cap survives pool
    /// destruction and re-creation.
    pub fn set_buffer_frames(
        &self,
        file: FileId,
        cap: usize,
    ) -> Result<()> {
        let cap = cap.max(1);
        let st = &mut *self.st();
        st.overrides.insert(file, cap);
        let policy = st.policy;
        st.pool_mut(file).cap = cap;
        // Shed overflowing frames through the normal eviction path.
        loop {
            let pool = st.pool_of(file)?;
            if pool.frames.len() <= cap {
                break;
            }
            let slot = pool.evict_slot(policy).ok_or_else(|| {
                Error::Internal(
                    "cannot shrink pool: all frames pinned".into(),
                )
            })?;
            let frame = pool.remove(slot);
            self.stats.record_eviction(file);
            st.write_back(&self.stats, file, frame)?;
        }
        Ok(())
    }

    /// The access counters. Recording and reading are both `&self`; the
    /// ledger is internally atomic.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// Open a named accounting phase (see [`IoStats::begin_phase`]).
    pub fn begin_phase(&self, name: &str) {
        self.stats.begin_phase(name);
    }

    /// Close the open accounting phase, if any.
    pub fn end_phase(&self) {
        self.stats.end_phase();
    }

    /// Zero the access counters (done by the harness before each query).
    pub fn reset_stats(&self) {
        self.stats.reset();
    }

    // --- Overflow-chain Bloom guards ------------------------------------

    fn bloom_map(
        &self,
    ) -> RwLockWriteGuard<'_, std::collections::HashMap<FileId, Arc<Bloom>>>
    {
        self.blooms.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enable/disable the overflow-chain Bloom guards (off by default —
    /// a skipped chain walk changes input-page counts, and paper mode
    /// pins those). Installation happens at file rebuild time, so
    /// enable *before* building; turning the switch off leaves
    /// installed filters dormant ([`Pager::bloom_check`] answers
    /// `None`) and turning it back on revives them.
    pub fn set_bloom_guards(&self, on: bool) {
        self.bloom_on.store(on, Ordering::Relaxed);
    }

    /// Are the overflow-chain Bloom guards enabled?
    pub fn bloom_guards_enabled(&self) -> bool {
        self.bloom_on.load(Ordering::Relaxed)
    }

    /// Install (or replace) the overflow-chain guard for `file`. The
    /// access methods install one at build time seeded with the keys
    /// that spilled during the bulk load. A no-op while the guards are
    /// disabled (paper mode pays neither the memory nor the hashing).
    pub fn bloom_install(&self, file: FileId, bloom: Bloom) {
        if !self.bloom_guards_enabled() {
            return;
        }
        self.bloom_map().insert(file, Arc::new(bloom));
    }

    /// Remove `file`'s guard (dropped/truncated files; also the reload
    /// path, where a fresh process has no filter until the next
    /// rebuild). Without a guard every chain is walked.
    pub fn bloom_drop(&self, file: FileId) {
        self.bloom_map().remove(&file);
    }

    /// Does `file` have an overflow-chain guard installed?
    pub fn bloom_active(&self, file: FileId) -> bool {
        self.blooms
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .contains_key(&file)
    }

    /// Record that a version of `key_bytes` was placed on an overflow
    /// page of `file`. No-op when the file has no guard.
    pub fn bloom_note_overflow(&self, file: FileId, key_bytes: &[u8]) {
        let guard = self
            .blooms
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&file)
            .cloned();
        if let Some(b) = guard {
            b.add(key_bytes);
        }
    }

    /// Consult `file`'s guard before walking its overflow chain.
    /// `Some(false)` is a definite miss — the chain holds no version of
    /// the key and the walk can be skipped (counted as a bloom skip);
    /// `Some(true)` means maybe (counted as a bloom hit, walk as
    /// usual); `None` means no guard is installed or the switch is off
    /// (walk, uncounted).
    pub fn bloom_check(
        &self,
        file: FileId,
        key_bytes: &[u8],
    ) -> Option<bool> {
        if !self.bloom_guards_enabled() {
            return None;
        }
        let guard = self
            .blooms
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&file)
            .cloned()?;
        let maybe = guard.maybe_contains(key_bytes);
        if maybe {
            self.stats.record_bloom_hit();
        } else {
            self.stats.record_bloom_skip();
        }
        Some(maybe)
    }

    // --- Batched readahead ----------------------------------------------

    /// Enable/disable batched readahead (off by default; see
    /// [`Pager::readahead`]).
    pub fn set_readahead(&self, on: bool) {
        self.readahead_on.store(on, Ordering::Relaxed);
    }

    /// Is batched readahead enabled?
    pub fn readahead_enabled(&self) -> bool {
        self.readahead_on.load(Ordering::Relaxed)
    }

    /// Prefetch `pages` of `file` into free buffer frames, returning how
    /// many were actually fetched. A no-op (returning 0) when readahead
    /// is disabled. Prefetching is strictly opportunistic: it fills only
    /// *free* capacity — it never evicts a resident frame — so with the
    /// paper's one-frame pools it does nothing and the pinned per-file
    /// I/O counts are untouched. Each fetched page is accounted as one
    /// access + one read (a later real access of it is then a buffer
    /// hit, preserving both the ledger identity and the total read
    /// count), plus the monotone readahead counter.
    pub fn readahead(&self, file: FileId, pages: &[u32]) -> Result<u32> {
        if !self.readahead_enabled() {
            return Ok(0);
        }
        let st = &mut *self.st();
        let mut fetched = 0u32;
        for &page_no in pages {
            let pool = st.pool_mut(file);
            if pool.frames.len() >= pool.cap {
                break;
            }
            if pool.slot_of(page_no).is_some() {
                continue;
            }
            let page = match st.overlay.get(&(file, page_no)) {
                Some(p) => p.clone(),
                None => {
                    match st.fetch_from_disk(&self.stats, file, page_no) {
                        Ok(p) => p,
                        // A page that vanished mid-batch (concurrent
                        // truncate) ends the prefetch; the demand path
                        // will surface any real error.
                        Err(_) => break,
                    }
                }
            };
            self.stats.record_access_read(file);
            st.pool_mut(file).push(
                Frame {
                    page_no,
                    page,
                    dirty: false,
                    pinned: false,
                    referenced: false,
                },
                false,
            );
            fetched += 1;
        }
        if fetched > 0 {
            self.stats.record_readahead(u64::from(fetched));
        }
        Ok(fetched)
    }

    // --- Corruption defense ---------------------------------------------

    /// Install a checksum sidecar (or `None` to turn verification off,
    /// the paper default). Pages with no recorded sum are adopted on
    /// first read, so enabling with an empty [`ChecksumSet`] over an
    /// existing database is safe.
    pub fn set_checksums(&self, sums: Option<ChecksumSet>) {
        self.st().checksums = sums;
    }

    /// Turn on checksum verification with an empty sidecar
    /// (adopt-on-first-read over whatever is already on disk).
    pub fn enable_checksums(&self) {
        let mut st = self.st();
        if st.checksums.is_none() {
            st.checksums = Some(ChecksumSet::new());
        }
    }

    /// Is checksum verification on?
    pub fn checksums_enabled(&self) -> bool {
        self.st_read().checksums.is_some()
    }

    /// A snapshot of the live checksum sidecar, if verification is on.
    pub fn checksums_snapshot(&self) -> Option<ChecksumSet> {
        self.st_read().checksums.clone()
    }

    /// Set the transient-read retry budget (0 disables retries).
    pub fn set_read_retries(&self, budget: u32) {
        self.st().read_retries = budget;
    }

    /// The transient-read retry budget.
    pub fn read_retries(&self) -> u32 {
        self.st_read().read_retries
    }

    /// Read a page straight from the disk: no buffer, no checksum
    /// verification, no retry. This is the scrubber's view — it must be
    /// able to look at a page the verified path would refuse to return.
    /// Counted as one access + one read so scrub I/O is visible in the
    /// ledger without breaking its `hits + reads == accesses` identity.
    pub fn read_page_raw(
        &self,
        file: FileId,
        page_no: u32,
    ) -> Result<Page> {
        let page = self.st().disk.read_page(file, page_no)?;
        self.stats.record_access_read(file);
        Ok(page)
    }

    /// Write a page image straight to disk, refreshing its sidecar sum
    /// and discarding any stale buffered frame (the raw image is now the
    /// truth). This is the repair path: salvage installs a WAL image or a
    /// reinitialized page wholesale.
    pub fn write_page_raw(
        &self,
        file: FileId,
        page_no: u32,
        page: &Page,
    ) -> Result<()> {
        let st = &mut *self.st();
        st.disk.write_page(file, page_no, page)?;
        self.stats.record_write(file);
        st.note_written(file, page_no, page);
        st.overlay.remove(&(file, page_no));
        st.staged.remove(&(file, page_no));
        if let Some(pool) = st.pools.get_mut(&file) {
            if let Some(slot) = pool.slot_of(page_no) {
                pool.remove(slot);
            }
            pool.hand = 0;
        }
        Ok(())
    }

    /// Drop every buffered frame (writing dirty ones back) so the next
    /// access of each page is a cold read. The harness calls this between
    /// queries so each query starts with cold buffers, as a fresh query
    /// would in the prototype. Flushes are not evictions: the eviction
    /// counter is untouched.
    pub fn invalidate_buffers(&self) -> Result<()> {
        let st = &mut *self.st();
        let files: Vec<FileId> = st.pools.keys().copied().collect();
        for f in files {
            let frames = st.pool_of(f)?.drain();
            for frame in frames {
                st.write_back(&self.stats, f, frame)?;
            }
        }
        Ok(())
    }

    /// Create a new empty file.
    pub fn create_file(&self) -> Result<FileId> {
        let st = &mut *self.st();
        let id = st.disk.create_file()?;
        st.pool_mut(id);
        if let Some(u) = st.undo.as_mut() {
            u.created.push(id);
        }
        Ok(id)
    }

    /// Delete a file, its pages, its buffers, and its cap override. Like
    /// [`Pager::truncate`], pending (dirty) writes are intentionally
    /// discarded without write-back accounting — the data they would have
    /// persisted is being destroyed.
    pub fn drop_file(&self, file: FileId) -> Result<()> {
        self.bloom_drop(file);
        let st = &mut *self.st();
        if st.staging && st.undo.is_some() {
            // Capture before anything is removed: the prior cap
            // override and every overlay/staged entry this drop purges.
            let keys: Vec<(FileId, u32)> = st
                .overlay
                .keys()
                .filter(|(f, _)| *f == file)
                .copied()
                .collect();
            for key in keys {
                st.undo_touch(key);
            }
            let prior = st.overrides.get(&file).copied();
            let u = st.undo.as_mut().expect("checked above");
            u.overrides.entry(file).or_insert(prior);
        }
        st.pools.remove(&file);
        st.overrides.remove(&file);
        if let Some(sums) = &mut st.checksums {
            sums.drop_file(file);
        }
        if st.staging {
            // Defer the physical drop until the commit that logs it is
            // durable: a crash in between must not have destroyed pages
            // a committed state still references.
            st.overlay.retain(|(f, _), _| *f != file);
            st.staged.retain(|(f, _)| *f != file);
            st.resized.remove(&file);
            st.pending_drops.push(file);
            return Ok(());
        }
        st.disk.drop_file(file)
    }

    /// Truncate a file to zero pages. The pool (and any configured cap)
    /// survives, but its frames are discarded: pending dirty writes are
    /// intentionally dropped *without* write-back accounting, exactly as
    /// [`Pager::drop_file`] drops them — pages that no longer exist cost
    /// no output. Neither counts evictions.
    pub fn truncate(&self, file: FileId) -> Result<()> {
        self.bloom_drop(file);
        let st = &mut *self.st();
        if st.staging && st.undo.is_some() {
            // A physical truncate destroys checkpointed pages, so undo
            // must save the on-disk images (the only destructive disk
            // write a staged statement can make) plus every overlay
            // entry about to be purged. Capture happens before any
            // mutation: a failed capture leaves the file untouched.
            st.undo_resize(file)?;
            if !st
                .undo
                .as_ref()
                .expect("checked above")
                .truncated
                .contains_key(&file)
            {
                let n = st.disk.page_count(file)?;
                let pages: Vec<Page> = (0..n)
                    .map(|p| st.disk.read_page(file, p))
                    .collect::<Result<_>>()?;
                st.undo
                    .as_mut()
                    .expect("checked above")
                    .truncated
                    .insert(file, pages);
            }
            let keys: Vec<(FileId, u32)> = st
                .overlay
                .keys()
                .filter(|(f, _)| *f == file)
                .copied()
                .collect();
            for key in keys {
                st.undo_touch(key);
            }
        }
        if let Some(pool) = st.pools.get_mut(&file) {
            pool.clear();
        }
        if let Some(sums) = &mut st.checksums {
            sums.truncate(file, 0);
        }
        if st.staging {
            st.overlay.retain(|(f, _), _| *f != file);
            st.staged.retain(|(f, _)| *f != file);
            st.resized.insert(file);
        }
        st.disk.truncate(file)
    }

    /// Number of pages in `file`.
    pub fn page_count(&self, file: FileId) -> Result<u32> {
        self.st_read().disk.page_count(file)
    }

    /// Read access to a page through the buffer. The frame is pinned (and
    /// the pager lock held) for the duration of the callback.
    pub fn read<R>(
        &self,
        file: FileId,
        page_no: u32,
        f: impl FnOnce(&Page) -> R,
    ) -> Result<R> {
        let st = &mut *self.st();
        let slot = st.fault_in(&self.stats, file, page_no)?;
        let pool = st.pool_of(file)?;
        let frame =
            pool.pin(slot).ok_or_else(|| missing_frame(file, page_no))?;
        let r = f(&frame.page);
        pool.unpin(slot);
        Ok(r)
    }

    /// Write access to a page through the buffer; marks the frame dirty.
    /// The frame is pinned (and the pager lock held) for the duration of
    /// the callback.
    pub fn write<R>(
        &self,
        file: FileId,
        page_no: u32,
        f: impl FnOnce(&mut Page) -> R,
    ) -> Result<R> {
        let st = &mut *self.st();
        let slot = st.fault_in(&self.stats, file, page_no)?;
        let pool = st.pool_of(file)?;
        let frame =
            pool.pin(slot).ok_or_else(|| missing_frame(file, page_no))?;
        frame.dirty = true;
        let r = f(&mut frame.page);
        pool.unpin(slot);
        Ok(r)
    }

    /// Append a fresh page of the given kind to `file`, placing it in the
    /// buffer dirty. The write is counted once, when the frame is evicted
    /// or flushed — so bulk-loading a page counts one output page, exactly
    /// as the paper's output-cost accounting expects. Materializing a new
    /// page is not a buffered page access (no hit, no miss).
    pub fn append_page(&self, file: FileId, kind: PageKind) -> Result<u32> {
        let st = &mut *self.st();
        let page = Page::new(kind);
        // Capture the pre-append disk length first: rollback trims the
        // placeholder tail back to it.
        st.undo_resize(file)?;
        let page_no = st.disk.append_page(file, &page)?;
        st.note_written(file, page_no, &page);
        if st.staging {
            // The file grows on disk immediately, but only with this
            // empty page: the content arrives through the buffer, whose
            // dirty frame (installed below) stages an after-image. The
            // commit logs the new length so recovery can trim an
            // uncommitted tail.
            st.resized.insert(file);
        }
        st.install_frame(
            &self.stats,
            file,
            Frame {
                page_no,
                page,
                dirty: true,
                pinned: false,
                referenced: false,
            },
        )?;
        Ok(page_no)
    }

    /// Write all dirty frames of `file` back to disk.
    pub fn flush_file(&self, file: FileId) -> Result<()> {
        let st = &mut *self.st();
        if let Some(pool) = st.pools.get_mut(&file) {
            // List order: MRU-first under LRU, slot order under Clock.
            let mut dirty = Vec::new();
            let mut slot = pool.head;
            while slot != NIL {
                let frame = &mut pool.frames[slot as usize];
                if frame.dirty {
                    frame.dirty = false;
                    dirty.push((frame.page_no, frame.page.clone()));
                }
                slot = pool.next[slot as usize];
            }
            for (page_no, page) in dirty {
                if st.staging {
                    st.undo_touch((file, page_no));
                    st.overlay.insert((file, page_no), page);
                    st.staged.insert((file, page_no));
                } else {
                    st.disk.write_page(file, page_no, &page)?;
                    st.note_written(file, page_no, &page);
                }
                self.stats.record_write(file);
            }
        }
        Ok(())
    }

    /// Write all dirty frames of all files back to disk.
    pub fn flush_all(&self) -> Result<()> {
        let files: Vec<FileId> =
            self.st_read().pools.keys().copied().collect();
        for f in files {
            self.flush_file(f)?;
        }
        Ok(())
    }

    // --- WAL staging ----------------------------------------------------
    //
    // In staging mode the pager never writes data-page *content* to disk
    // on its own: every dirty write-back (eviction or flush) lands in an
    // in-memory overlay that shadows the disk for subsequent reads,
    // accumulating the transaction's after-images. The WAL commits by
    // logging those images; a checkpoint later writes the overlay
    // through. Appends and truncations still size the file on disk
    // immediately — only ever with empty pages, content arrives through
    // buffered writes — so `page_count` stays truthful, and the commit
    // logs each changed length so recovery can trim uncommitted tails.

    /// Switch staging mode (see above). Turn it on at open, before any
    /// writes; it is not meant to be toggled mid-transaction.
    pub fn set_staging(&self, on: bool) {
        self.st().staging = on;
    }

    /// Is the pager staging write-backs in the overlay?
    pub fn staging(&self) -> bool {
        self.st_read().staging
    }

    /// The `(file, page)` pairs dirtied since the last
    /// [`Pager::clear_staged`], sorted. After a `flush_all` each has its
    /// after-image in the overlay, ready to be logged.
    pub fn staged_pages(&self) -> Vec<(FileId, u32)> {
        self.st_read().staged.iter().copied().collect()
    }

    /// Forget the staged-page set (the commit that logged it is durable).
    pub fn clear_staged(&self) {
        self.st().staged.clear();
    }

    /// Stamp `lsn` into the overlay image of (`file`, `page_no`) — and
    /// into any resident frame of the same page — returning a copy of the
    /// stamped image for the log. Errors if the page is not staged
    /// (commit must flush first).
    pub fn stamp_overlay_lsn(
        &self,
        file: FileId,
        page_no: u32,
        lsn: u32,
    ) -> Result<Page> {
        let st = &mut *self.st();
        let page =
            st.overlay.get_mut(&(file, page_no)).ok_or_else(|| {
                Error::Internal(format!(
                    "page {page_no} of {file:?} is not staged"
                ))
            })?;
        page.set_lsn(lsn);
        let copy = page.clone();
        if let Some(pool) = st.pools.get_mut(&file) {
            if let Some(slot) = pool.slot_of(page_no) {
                pool.frames[slot].page.set_lsn(lsn);
            }
        }
        Ok(copy)
    }

    /// Drain the files whose length changed since the last call, paired
    /// with their current length (the commit's file-length records).
    pub fn take_resized(&self) -> Result<Vec<(FileId, u32)>> {
        let st = &mut *self.st();
        let files = std::mem::take(&mut st.resized);
        files
            .into_iter()
            .map(|f| Ok((f, st.disk.page_count(f)?)))
            .collect()
    }

    /// Drain the files whose drop was deferred by staging mode, to be
    /// physically dropped once the commit that logs them is durable.
    pub fn take_pending_drops(&self) -> Vec<FileId> {
        std::mem::take(&mut self.st().pending_drops)
    }

    /// Physically drop a file whose drop was deferred by staging mode.
    /// Idempotent: a file already gone (a retried drop after a partial
    /// failure) is success, not an error.
    pub fn execute_drop(&self, file: FileId) -> Result<()> {
        let st = &mut *self.st();
        if st.disk.page_count(file).is_err() {
            return Ok(());
        }
        st.disk.drop_file(file)
    }

    /// Park a physical drop that the disk refused (out of space, device
    /// error) so `retry_deferred` completes it once the disk recovers.
    /// The drop is already logged as committed, so it must eventually
    /// happen — but nothing reads the file meanwhile, so deferring is
    /// safe.
    pub fn defer_drop(&self, file: FileId) {
        self.st().deferred.push(Deferred::Drop(file));
    }

    /// Write every overlay page through to the disk (counting one write
    /// per page — attribute it to a phase if it should be visible as
    /// checkpoint cost) and clear the overlay. Returns the files touched,
    /// sorted, so the caller can sync them.
    pub fn materialize_overlay(&self) -> Result<Vec<FileId>> {
        let st = &mut *self.st();
        // Iterate without consuming: a mid-loop failure (disk full
        // during a checkpoint) must not lose the committed images not
        // yet written. The overlay is cleared only once every page
        // landed; page writes are idempotent, so a retried checkpoint
        // simply re-writes them all.
        let PagerState {
            disk,
            overlay,
            checksums,
            ..
        } = &mut *st;
        let mut files: Vec<FileId> = Vec::new();
        for ((file, page_no), page) in overlay.iter() {
            disk.write_page(*file, *page_no, page)?;
            if let Some(sums) = checksums {
                sums.record(*file, *page_no, page);
            }
            self.stats.record_write(*file);
            if files.last() != Some(file) {
                files.push(*file);
            }
        }
        st.overlay.clear();
        Ok(files)
    }

    // --- Statement undo -------------------------------------------------
    //
    // Staging mode keeps uncommitted page *content* off the disk, so a
    // statement that dies mid-flight (disk full, fsync failure) has
    // polluted only in-memory state — plus, at worst, a file's *shape*
    // (appended placeholder tails, an in-statement truncate, a created
    // file). `begin_statement_undo` arms lazy first-touch capture of
    // both; `rollback_statement` restores the in-memory state exactly
    // (infallible) and repairs the shapes, deferring any repair the
    // still-exhausted disk refuses until `retry_deferred` succeeds.

    /// Arm statement undo: from now until `discard_statement_undo` or
    /// `rollback_statement`, every overlay/staged/resize/drop mutation
    /// snapshots its prior state at first touch.
    pub fn begin_statement_undo(&self) {
        let st = &mut *self.st();
        let drops_len = st.pending_drops.len();
        st.undo = Some(UndoLog {
            drops_len,
            ..UndoLog::default()
        });
    }

    /// The statement committed: forget the captured undo state.
    pub fn discard_statement_undo(&self) {
        self.st().undo = None;
    }

    /// Put the pager back as it was at `begin_statement_undo` (no-op
    /// without one armed). The in-memory restore cannot fail; physical
    /// repairs that the disk refuses (it may still be full) are parked
    /// on the deferred list — see [`Pager::retry_deferred`] — and the
    /// caller must hold writes until the list drains.
    ///
    /// Runs under the pager-wide lock in one critical section, so
    /// concurrent snapshot readers never observe a half-rolled-back
    /// pager.
    pub fn rollback_statement(&self) {
        let st = &mut *self.st();
        let Some(u) = st.undo.take() else { return };
        // Discard the buffered frames of every file the statement
        // touched WITHOUT write-back: dirty frames hold the dead
        // statement's content and must not re-pollute the overlay.
        // Pools of untouched files cache only committed pages — the
        // warm cache stays.
        let mut polluted: BTreeSet<FileId> = BTreeSet::new();
        polluted.extend(u.touched.keys().map(|(f, _)| *f));
        polluted.extend(u.resized_added.iter().copied());
        polluted.extend(u.lengths.keys().copied());
        polluted.extend(u.truncated.keys().copied());
        polluted.extend(u.created.iter().copied());
        for f in &polluted {
            if let Some(pool) = st.pools.get_mut(f) {
                pool.clear();
            }
        }
        for (key, (img, was_staged)) in &u.touched {
            match img {
                Some(p) => {
                    st.overlay.insert(*key, p.clone());
                }
                None => {
                    st.overlay.remove(key);
                }
            }
            if *was_staged {
                st.staged.insert(*key);
            } else {
                st.staged.remove(key);
            }
        }
        for f in &u.resized_added {
            st.resized.remove(f);
        }
        st.pending_drops.truncate(u.drops_len);
        for (f, prior) in &u.overrides {
            match prior {
                Some(cap) => {
                    st.overrides.insert(*f, *cap);
                }
                None => {
                    st.overrides.remove(f);
                }
            }
        }
        // Physical shape repairs, most destructive wins per file:
        // created files are dropped outright; truncated files get
        // their saved images back (trimmed to the pre-statement
        // length — the tail of the capture may be this statement's
        // own placeholders); grown files are trimmed.
        let mut fixes: Vec<Deferred> = Vec::new();
        for f in &u.created {
            fixes.push(Deferred::Drop(*f));
        }
        for (f, pages) in u.truncated {
            if u.created.contains(&f) {
                continue;
            }
            let keep = u
                .lengths
                .get(&f)
                .map(|l| *l as usize)
                .unwrap_or(pages.len())
                .min(pages.len());
            let mut pages = pages;
            pages.truncate(keep);
            fixes.push(Deferred::Restore(f, pages));
        }
        for (f, len) in &u.lengths {
            if u.created.contains(f)
                || fixes
                    .iter()
                    .any(|x| matches!(x, Deferred::Restore(g, _) if g == f))
            {
                continue;
            }
            fixes.push(Deferred::Shrink(*f, *len));
        }
        for fix in fixes {
            if st.apply_fix(&fix).is_err() {
                st.deferred.push(fix);
            }
        }
    }

    /// Re-attempt every deferred physical rollback step, stopping at
    /// the first that still fails (steps are idempotent, so a partial
    /// pass is safe to repeat). Empty list == on-disk shapes agree
    /// with the committed state again.
    pub fn retry_deferred(&self) -> Result<()> {
        let st = &mut *self.st();
        while let Some(fix) = st.deferred.first().cloned() {
            st.apply_fix(&fix)?;
            st.deferred.remove(0);
        }
        Ok(())
    }

    /// Are physical rollback repairs still outstanding?
    pub fn has_deferred(&self) -> bool {
        !self.st_read().deferred.is_empty()
    }

    /// Force one file's pages to stable storage.
    pub fn sync_file(&self, file: FileId) -> Result<()> {
        self.st().disk.sync(file)
    }

    /// Force every live file's pages to stable storage.
    pub fn sync_all(&self) -> Result<()> {
        let st = &mut *self.st();
        for f in st.disk.files() {
            st.disk.sync(f)?;
        }
        Ok(())
    }

    /// Current length of every live disk file, sorted (the checkpoint's
    /// file-length snapshot).
    pub fn file_lengths(&self) -> Result<Vec<(FileId, u32)>> {
        let st = self.st_read();
        st.disk
            .files()
            .into_iter()
            .map(|f| Ok((f, st.disk.page_count(f)?)))
            .collect()
    }

    /// Test hook: force a frame's pin bit, bypassing the callback
    /// discipline, to exercise the all-pinned eviction guard.
    #[cfg(test)]
    fn force_pin(&self, file: FileId, slot: usize, on: bool) {
        if let Some(pool) = self.st().pools.get_mut(&file) {
            if on {
                pool.pin(slot);
            } else {
                pool.unpin(slot);
            }
        }
    }

    /// Test hook: remove a file's buffer pool behind the pager's back,
    /// simulating the corrupt-catalog state where in-memory bookkeeping
    /// no longer covers a file the catalog still references.
    #[cfg(test)]
    fn corrupt_drop_pool(&self, file: FileId) {
        self.st().pools.remove(&file);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole point of the interior-locking rewrite.
    #[test]
    fn pager_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Pager>();
        assert_send_sync::<IoStats>();
    }

    fn two_page_file(pager: &Pager) -> FileId {
        let f = pager.create_file().unwrap();
        pager.append_page(f, PageKind::Data).unwrap();
        pager.append_page(f, PageKind::Data).unwrap();
        pager.flush_file(f).unwrap();
        pager.invalidate_buffers().unwrap();
        pager.reset_stats();
        f
    }

    #[test]
    fn vanished_pool_is_corruption_not_a_panic() {
        let pager = Pager::in_memory();
        let f = two_page_file(&pager);
        pager.read(f, 0, |_| ()).unwrap();
        // Corrupt the in-memory bookkeeping: the pool disappears while
        // the file (and its buffered frame) is still live.
        pager.corrupt_drop_pool(f);
        let err = match pager.st().pool_of(f) {
            Err(e) => e,
            Ok(_) => panic!("pool_of found a pool we just removed"),
        };
        assert!(
            matches!(err, Error::Corruption { file: Some(id), .. }
                if id == f.0),
            "want located corruption, got {err}"
        );
        // Public entry points recover by recreating the pool on demand
        // instead of aborting the process.
        pager.read(f, 0, |_| ()).unwrap();
        pager.set_buffer_frames(f, 2).unwrap();
        pager.invalidate_buffers().unwrap();
    }

    #[test]
    fn repeated_access_to_resident_page_is_free() {
        let pager = Pager::in_memory();
        let f = two_page_file(&pager);
        for _ in 0..10 {
            pager.read(f, 0, |_| ()).unwrap();
        }
        assert_eq!(pager.stats().of(f).reads, 1);
        assert_eq!(pager.stats().of(f).hits, 9);
        assert_eq!(pager.stats().of(f).accesses, 10);
        assert!(pager.stats().is_consistent());
    }

    #[test]
    fn single_frame_alternation_thrashes() {
        // With 1 buffer per file, alternating between two pages costs one
        // read per access — the degradation the paper's setup makes visible.
        let pager = Pager::in_memory();
        let f = two_page_file(&pager);
        for _ in 0..5 {
            pager.read(f, 0, |_| ()).unwrap();
            pager.read(f, 1, |_| ()).unwrap();
        }
        assert_eq!(pager.stats().of(f).reads, 10);
        assert_eq!(pager.stats().of(f).hits, 0);
        // Every miss after the first evicts the resident page.
        assert_eq!(pager.stats().of(f).evictions, 9);
    }

    #[test]
    fn two_frames_stop_the_thrash() {
        let pager = Pager::in_memory();
        let f = two_page_file(&pager);
        pager.set_buffer_frames(f, 2).unwrap();
        for _ in 0..5 {
            pager.read(f, 0, |_| ()).unwrap();
            pager.read(f, 1, |_| ()).unwrap();
        }
        assert_eq!(pager.stats().of(f).reads, 2);
        assert_eq!(pager.stats().of(f).hits, 8);
        assert_eq!(pager.stats().of(f).evictions, 0);
    }

    #[test]
    fn files_have_independent_buffers() {
        let pager = Pager::in_memory();
        let f = two_page_file(&pager);
        let g = two_page_file(&pager);
        pager.reset_stats();
        for _ in 0..5 {
            pager.read(f, 0, |_| ()).unwrap();
            pager.read(g, 0, |_| ()).unwrap();
        }
        assert_eq!(pager.stats().of(f).reads, 1);
        assert_eq!(pager.stats().of(g).reads, 1);
    }

    #[test]
    fn dirty_eviction_writes_back_once() {
        let pager = Pager::in_memory();
        let f = two_page_file(&pager);
        pager
            .write(f, 0, |p| p.push_row(4, &[1, 2, 3, 4]).unwrap())
            .unwrap();
        // Evict page 0 by touching page 1.
        pager.read(f, 1, |_| ()).unwrap();
        assert_eq!(pager.stats().of(f).writes, 1);
        assert_eq!(pager.stats().of(f).evictions, 1);
        // The mutation survived the round trip.
        pager
            .read(f, 0, |p| assert_eq!(p.row(4, 0).unwrap(), &[1, 2, 3, 4]))
            .unwrap();
    }

    #[test]
    fn appended_page_counts_one_write_when_flushed() {
        let pager = Pager::in_memory();
        let f = pager.create_file().unwrap();
        pager.reset_stats();
        let p = pager.append_page(f, PageKind::Data).unwrap();
        pager
            .write(f, p, |pg| pg.push_row(4, &[0; 4]).unwrap())
            .unwrap();
        pager
            .write(f, p, |pg| pg.push_row(4, &[1; 4]).unwrap())
            .unwrap();
        pager.flush_file(f).unwrap();
        assert_eq!(pager.stats().of(f).writes, 1);
        assert_eq!(pager.stats().of(f).reads, 0);
        // Appending is not a buffered access; the two writes both hit.
        assert_eq!(pager.stats().of(f).accesses, 2);
        assert_eq!(pager.stats().of(f).hits, 2);
        assert!(pager.stats().is_consistent());
    }

    #[test]
    fn truncate_clears_buffers_and_pages() {
        let pager = Pager::in_memory();
        let f = two_page_file(&pager);
        pager.read(f, 1, |_| ()).unwrap();
        pager.truncate(f).unwrap();
        assert_eq!(pager.page_count(f).unwrap(), 0);
        assert!(pager.read(f, 0, |_| ()).is_err());
    }

    #[test]
    fn truncate_and_drop_discard_pending_writes_identically() {
        // Satellite bugfix 2: truncation intentionally drops dirty frames
        // with no write-back accounting, matching drop_file, and the
        // hit/miss/access ledger stays consistent through both.
        let pager = Pager::in_memory();
        let f = two_page_file(&pager);
        let g = two_page_file(&pager);
        pager.reset_stats();
        pager
            .write(f, 0, |p| p.push_row(4, &[9; 4]).unwrap())
            .unwrap();
        pager
            .write(g, 0, |p| p.push_row(4, &[9; 4]).unwrap())
            .unwrap();
        pager.truncate(f).unwrap();
        pager.drop_file(g).unwrap();
        assert_eq!(
            pager.stats().of(f).writes,
            0,
            "truncate drops the write"
        );
        assert_eq!(
            pager.stats().of(g).writes,
            0,
            "drop_file drops the write"
        );
        assert_eq!(pager.stats().of(f).evictions, 0);
        assert_eq!(pager.stats().of(g).evictions, 0);
        assert!(pager.stats().is_consistent());
        assert_eq!(pager.page_count(f).unwrap(), 0);
        // The truncated file's pool (and any cap) survives for reuse.
        pager.append_page(f, PageKind::Data).unwrap();
        pager.read(f, 0, |_| ()).unwrap();
    }

    #[test]
    fn invalidate_buffers_forces_cold_reads() {
        let pager = Pager::in_memory();
        let f = two_page_file(&pager);
        pager.read(f, 0, |_| ()).unwrap();
        pager.invalidate_buffers().unwrap();
        pager.reset_stats();
        pager.read(f, 0, |_| ()).unwrap();
        assert_eq!(pager.stats().of(f).reads, 1);
    }

    #[test]
    fn lazy_pools_honor_the_configured_default() {
        // Satellite bugfix 1: a file opened from a persisted catalog (so
        // never passed through create_file on this pager) must still get
        // the configured default frames when its pool is created lazily by
        // a fault-in or an append.
        let dir = tdbms_kernel::tmpdir::fresh_dir("pager-lazycap");
        let f;
        {
            let pager = Pager::new(Box::new(
                crate::disk::FileDisk::open(&dir).unwrap(),
            ));
            f = two_page_file(&pager);
            pager.flush_all().unwrap();
        }
        // Reopen: the pager has never seen `f`; its pool will be created
        // lazily by the first read.
        let pager = Pager::new(Box::new(
            crate::disk::FileDisk::open(&dir).unwrap(),
        ));
        pager.set_default_buffer_frames(2);
        for _ in 0..5 {
            pager.read(f, 0, |_| ()).unwrap();
            pager.read(f, 1, |_| ()).unwrap();
        }
        // With the bug (lazy pools hard-wired to cap 1) this thrashes: 10
        // reads. With 2 frames both pages stay resident.
        assert_eq!(pager.stats().of(f).reads, 2);
        // The lazy append path resolves the cap the same way.
        pager.append_page(f, PageKind::Data).unwrap();
        pager.read(f, 0, |_| ()).unwrap();
        assert_eq!(
            pager.stats().of(f).reads,
            3,
            "page 0 was evicted by the \
             append only because the pool is at its configured cap of 2"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn per_file_config_overrides_the_default() {
        let pager = Pager::in_memory_with_config(BufferConfig {
            default_frames: 1,
            policy: EvictionPolicy::Lru,
            // MemDisk hands out FileId(0) first.
            per_file: vec![(FileId(0), 2)],
        });
        let f = two_page_file(&pager);
        assert_eq!(f, FileId(0));
        let g = two_page_file(&pager);
        pager.reset_stats();
        for _ in 0..5 {
            pager.read(f, 0, |_| ()).unwrap();
            pager.read(f, 1, |_| ()).unwrap();
            pager.read(g, 0, |_| ()).unwrap();
            pager.read(g, 1, |_| ()).unwrap();
        }
        assert_eq!(pager.stats().of(f).reads, 2, "override: 2 frames");
        assert_eq!(pager.stats().of(g).reads, 10, "default: 1 frame");
    }

    #[test]
    fn clock_policy_gives_second_chances() {
        let pager = Pager::in_memory_with_config(BufferConfig::uniform(
            2,
            EvictionPolicy::Clock,
        ));
        let f = pager.create_file().unwrap();
        for _ in 0..3 {
            pager.append_page(f, PageKind::Data).unwrap();
        }
        pager.flush_file(f).unwrap();
        pager.invalidate_buffers().unwrap();
        pager.reset_stats();

        pager.read(f, 0, |_| ()).unwrap(); // miss: [0]
        pager.read(f, 0, |_| ()).unwrap(); // hit, reference bit set
        pager.read(f, 1, |_| ()).unwrap(); // miss: [0, 1]
                                           // Miss at capacity: the hand clears 0's reference bit, then evicts
                                           // 1 (unreferenced) — the recently re-read page 0 survives.
        pager.read(f, 2, |_| ()).unwrap();
        pager.read(f, 0, |_| ()).unwrap(); // still resident: hit
        let io = pager.stats().of(f);
        assert_eq!(io.reads, 3);
        assert_eq!(io.hits, 2);
        assert_eq!(io.evictions, 1);
        assert!(pager.stats().is_consistent());
    }

    #[test]
    fn pinned_frames_are_never_victims() {
        // The eviction scan must skip pinned frames; with every frame
        // pinned, faulting another page is an error rather than a stolen
        // frame (the situation cannot arise through the closure API, which
        // unpins on return — this exercises the guard directly).
        let pager = Pager::in_memory();
        let f = two_page_file(&pager);
        pager.read(f, 0, |_| ()).unwrap();
        pager.force_pin(f, 0, true);
        assert!(
            pager.read(f, 1, |_| ()).is_err(),
            "sole frame is pinned: nothing to evict"
        );
        pager.force_pin(f, 0, false);
        pager.read(f, 1, |_| ()).unwrap();
    }

    #[test]
    fn staging_holds_writes_in_the_overlay() {
        let pager = Pager::in_memory();
        pager.set_staging(true);
        let f = pager.create_file().unwrap();
        let p = pager.append_page(f, PageKind::Data).unwrap();
        pager
            .write(f, p, |pg| pg.push_row(4, &[7; 4]).unwrap())
            .unwrap();
        pager.flush_all().unwrap();
        assert_eq!(pager.staged_pages(), vec![(f, p)]);
        // The overlay shadows the (still empty) on-disk page for reads.
        pager.invalidate_buffers().unwrap();
        pager
            .read(f, p, |pg| assert_eq!(pg.row(4, 0).unwrap(), &[7; 4]))
            .unwrap();
        // Commit stamps the LSN into the image; checkpoint materializes.
        let img = pager.stamp_overlay_lsn(f, p, 42).unwrap();
        assert_eq!(img.lsn(), 42);
        pager.clear_staged();
        assert!(pager.staged_pages().is_empty());
        assert_eq!(pager.materialize_overlay().unwrap(), vec![f]);
        pager.invalidate_buffers().unwrap();
        pager
            .read(f, p, |pg| {
                assert_eq!(pg.lsn(), 42);
                assert_eq!(pg.row(4, 0).unwrap(), &[7; 4]);
            })
            .unwrap();
    }

    #[test]
    fn staging_defers_drops_and_tracks_lengths() {
        let pager = Pager::in_memory();
        pager.set_staging(true);
        let f = pager.create_file().unwrap();
        pager.append_page(f, PageKind::Data).unwrap();
        pager.append_page(f, PageKind::Data).unwrap();
        assert_eq!(pager.take_resized().unwrap(), vec![(f, 2)]);
        assert!(pager.take_resized().unwrap().is_empty(), "drained");
        pager.drop_file(f).unwrap();
        // Still on disk until the commit executes the deferred drop.
        assert_eq!(pager.page_count(f).unwrap(), 2);
        assert_eq!(pager.take_pending_drops(), vec![f]);
        pager.execute_drop(f).unwrap();
        assert!(pager.page_count(f).is_err());
    }

    #[test]
    fn corruption_error_round_trips_through_the_pager() {
        // Satellite 1: flip a byte under the pager's feet; the verified
        // read path must surface Error::Corruption locating the page —
        // and a clean page on the same file must still read fine.
        use crate::fault::SharedMemDisk;
        let shared = SharedMemDisk::new();
        let pager = Pager::new(Box::new(shared.clone()));
        pager.enable_checksums();
        let f = two_page_file(&pager);
        pager
            .write(f, 0, |p| p.push_row(4, &[7; 4]).unwrap())
            .unwrap();
        pager.flush_file(f).unwrap();
        pager.invalidate_buffers().unwrap();
        // Corrupt page 0 behind the pager's back.
        let mut raw = shared.clone();
        use crate::disk::DiskManager;
        let mut bytes = Box::new(*raw.read_page(f, 0).unwrap().as_bytes());
        bytes[500] ^= 0x01;
        raw.write_page(f, 0, &Page::from_bytes(bytes)).unwrap();
        let err = pager.read(f, 0, |_| ()).unwrap_err();
        match err {
            Error::Corruption { file, page, .. } => {
                assert_eq!(file, Some(f.0));
                assert_eq!(page, Some(0));
            }
            other => panic!("expected Corruption, got {other:?}"),
        }
        // The retry budget was spent on the (persistent) mismatch.
        assert_eq!(
            pager.stats().of(f).retries,
            DEFAULT_READ_RETRIES as u64
        );
        // Page 1 is untouched and still readable.
        pager.read(f, 1, |_| ()).unwrap();
    }

    #[test]
    fn transient_read_failures_are_retried_within_budget() {
        use crate::fault::{FaultDisk, FaultPlan};
        let mut inner = MemDisk::new();
        let f = inner.create_file().unwrap();
        let mut page = Page::new(PageKind::Data);
        page.push_row(4, &[3; 4]).unwrap();
        inner.append_page(f, &page).unwrap();
        let mut fault =
            FaultDisk::new(Box::new(inner), FaultPlan::new(None));
        // Read ops 1 and 2 fail once each: the budget of 2 covers both.
        fault.set_transient_reads([1, 2]);
        let pager = Pager::new(Box::new(fault));
        pager
            .read(f, 0, |p| assert_eq!(p.row(4, 0).unwrap(), &[3; 4]))
            .unwrap();
        assert_eq!(pager.stats().of(f).retries, 2);
        assert_eq!(pager.stats().of(f).reads, 1, "one page read, retried");
        assert_eq!(pager.stats().total_retries(), 2);
        assert!(pager.stats().is_consistent());
    }

    #[test]
    fn transient_failures_beyond_the_budget_surface() {
        use crate::fault::{FaultDisk, FaultPlan};
        let mut inner = MemDisk::new();
        let f = inner.create_file().unwrap();
        inner.append_page(f, &Page::new(PageKind::Data)).unwrap();
        let mut fault =
            FaultDisk::new(Box::new(inner), FaultPlan::new(None));
        fault.set_transient_reads([1, 2, 3]);
        let pager = Pager::new(Box::new(fault));
        pager.set_read_retries(2);
        assert!(
            pager.read(f, 0, |_| ()).is_err(),
            "3 consecutive failures exceed a budget of 2"
        );
        assert_eq!(pager.stats().of(f).retries, 2, "budget fully spent");
        // The media has recovered by now; the next access succeeds.
        pager.read(f, 0, |_| ()).unwrap();
    }

    #[test]
    fn raw_write_repairs_a_checksum_failure() {
        use crate::fault::SharedMemDisk;
        let shared = SharedMemDisk::new();
        let pager = Pager::new(Box::new(shared.clone()));
        pager.enable_checksums();
        pager.set_read_retries(0);
        let f = two_page_file(&pager);
        pager
            .write(f, 0, |p| p.push_row(4, &[9; 4]).unwrap())
            .unwrap();
        pager.flush_file(f).unwrap();
        pager.invalidate_buffers().unwrap();
        let good = pager.read_page_raw(f, 0).unwrap();
        // Corrupt, observe the failure, repair with the saved image.
        use crate::disk::DiskManager;
        let mut raw = shared.clone();
        let mut bytes = Box::new(*good.as_bytes());
        bytes[13] ^= 0xff;
        raw.write_page(f, 0, &Page::from_bytes(bytes)).unwrap();
        assert!(pager.read(f, 0, |_| ()).is_err());
        pager.write_page_raw(f, 0, &good).unwrap();
        pager
            .read(f, 0, |p| assert_eq!(p.row(4, 0).unwrap(), &[9; 4]))
            .unwrap();
    }

    #[test]
    fn policies_agree_at_cap_one() {
        // The paper's configuration is policy-independent: a single frame
        // leaves nothing for a policy to choose between.
        let mut costs = Vec::new();
        for policy in [EvictionPolicy::Lru, EvictionPolicy::Clock] {
            let pager = Pager::in_memory_with_config(
                BufferConfig::uniform(1, policy),
            );
            let f = two_page_file(&pager);
            for _ in 0..4 {
                pager.read(f, 0, |_| ()).unwrap();
                pager.read(f, 1, |_| ()).unwrap();
                pager.read(f, 1, |_| ()).unwrap();
            }
            costs.push(pager.stats().of(f).reads);
        }
        assert_eq!(costs[0], costs[1]);
        assert_eq!(costs[0], 8);
    }

    /// Stage some committed state the way the durable engine does:
    /// content flushed to the overlay, then the commit drains the
    /// staged set and the resize records.
    fn committed_staging_file(pager: &Pager) -> FileId {
        let f = pager.create_file().unwrap();
        let p0 = pager.append_page(f, PageKind::Data).unwrap();
        let p1 = pager.append_page(f, PageKind::Data).unwrap();
        pager
            .write(f, p0, |pg| pg.push_row(4, &[1; 4]).unwrap())
            .unwrap();
        pager
            .write(f, p1, |pg| pg.push_row(4, &[2; 4]).unwrap())
            .unwrap();
        pager.flush_all().unwrap();
        pager.clear_staged();
        pager.take_resized().unwrap();
        f
    }

    #[test]
    fn statement_rollback_restores_overlay_and_shapes() {
        let pager = Pager::in_memory();
        pager.set_staging(true);
        let f = committed_staging_file(&pager);

        pager.begin_statement_undo();
        // The doomed statement: overwrite a committed page, grow the
        // file, and create a whole new file with content.
        pager
            .write(f, 0, |pg| pg.push_row(4, &[9; 4]).unwrap())
            .unwrap();
        let p2 = pager.append_page(f, PageKind::Data).unwrap();
        pager
            .write(f, p2, |pg| pg.push_row(4, &[9; 4]).unwrap())
            .unwrap();
        let g = pager.create_file().unwrap();
        pager.append_page(g, PageKind::Data).unwrap();
        pager.flush_all().unwrap();
        pager.rollback_statement();
        assert!(!pager.has_deferred(), "healthy disk repairs inline");

        // Committed overlay images are back, the dead statement's
        // second row is gone, and the shapes match the commit.
        pager
            .read(f, 0, |pg| {
                assert_eq!(pg.row(4, 0).unwrap(), &[1; 4]);
                assert!(pg.row(4, 1).is_err(), "statement row rolled back");
            })
            .unwrap();
        pager
            .read(f, 1, |pg| assert_eq!(pg.row(4, 0).unwrap(), &[2; 4]))
            .unwrap();
        assert_eq!(pager.page_count(f).unwrap(), 2, "tail trimmed");
        assert!(pager.page_count(g).is_err(), "created file dropped");
        assert!(pager.staged_pages().is_empty(), "staged set drained");
        assert!(pager.take_resized().unwrap().is_empty());
    }

    #[test]
    fn rollback_keeps_untouched_files_warm_cache() {
        let pager = Pager::in_memory_with_config(BufferConfig::uniform(
            4,
            EvictionPolicy::Lru,
        ));
        pager.set_staging(true);
        let f = committed_staging_file(&pager);
        let g = committed_staging_file(&pager);
        pager.materialize_overlay().unwrap();
        pager.invalidate_buffers().unwrap();
        pager.reset_stats();
        // Warm f's pool, then roll back a statement that only dirties g.
        pager.read(f, 0, |_| ()).unwrap();
        assert_eq!(pager.stats().of(f).reads, 1);

        pager.begin_statement_undo();
        pager
            .write(g, 0, |pg| pg.push_row(4, &[9; 4]).unwrap())
            .unwrap();
        pager.rollback_statement();

        // f never appeared in the undo log, so its frames survive the
        // rollback: the re-read is a buffer hit, not a disk read. Only
        // the touched file's potentially-polluted frames are discarded.
        pager.read(f, 0, |_| ()).unwrap();
        let io = pager.stats().of(f);
        assert_eq!(io.reads, 1, "untouched file's warm cache survives");
        assert_eq!(io.hits, 1);
    }

    #[test]
    fn statement_rollback_restores_a_truncated_file() {
        let pager = Pager::in_memory();
        pager.set_staging(true);
        let f = committed_staging_file(&pager);
        // Checkpoint: the committed content reaches the disk.
        pager.materialize_overlay().unwrap();

        pager.begin_statement_undo();
        pager.truncate(f).unwrap();
        let p = pager.append_page(f, PageKind::Data).unwrap();
        pager
            .write(f, p, |pg| pg.push_row(4, &[9; 4]).unwrap())
            .unwrap();
        pager.flush_all().unwrap();
        pager.rollback_statement();
        assert!(!pager.has_deferred());

        assert_eq!(pager.page_count(f).unwrap(), 2);
        pager
            .read(f, 0, |pg| assert_eq!(pg.row(4, 0).unwrap(), &[1; 4]))
            .unwrap();
        pager
            .read(f, 1, |pg| assert_eq!(pg.row(4, 0).unwrap(), &[2; 4]))
            .unwrap();
    }

    #[test]
    fn rollback_defers_repairs_until_the_disk_recovers() {
        use crate::fault::{FaultDisk, FaultPlan, SharedMemDisk};
        let shared = SharedMemDisk::new();
        let plan = FaultPlan::new(None);
        let pager = Pager::new(Box::new(FaultDisk::new(
            Box::new(shared),
            plan.clone(),
        )));
        pager.set_staging(true);
        let f = committed_staging_file(&pager);

        pager.begin_statement_undo();
        let p2 = pager.append_page(f, PageKind::Data).unwrap();
        pager
            .write(f, p2, |pg| pg.push_row(4, &[9; 4]).unwrap())
            .unwrap();
        // Disk fills up; the statement dies; rollback cannot trim the
        // placeholder tail yet.
        plan.set_enospc(true);
        pager.rollback_statement();
        assert!(pager.has_deferred(), "trim deferred: disk still full");
        assert!(pager.retry_deferred().is_err(), "still full");
        assert!(pager.has_deferred());
        // In-memory state is already rolled back: the committed images
        // are intact and readable throughout.
        pager
            .read(f, 0, |pg| assert_eq!(pg.row(4, 0).unwrap(), &[1; 4]))
            .unwrap();
        // Space recovers; the deferred trim drains and shapes agree.
        plan.set_enospc(false);
        pager.retry_deferred().unwrap();
        assert!(!pager.has_deferred());
        assert_eq!(pager.page_count(f).unwrap(), 2);
    }

    #[test]
    fn discard_keeps_the_statement_effects() {
        let pager = Pager::in_memory();
        pager.set_staging(true);
        let f = committed_staging_file(&pager);
        pager.begin_statement_undo();
        let p2 = pager.append_page(f, PageKind::Data).unwrap();
        pager
            .write(f, p2, |pg| pg.push_row(4, &[7; 4]).unwrap())
            .unwrap();
        pager.flush_all().unwrap();
        pager.discard_statement_undo();
        pager.rollback_statement(); // no-op: nothing armed
        assert_eq!(pager.page_count(f).unwrap(), 3);
        pager
            .read(f, p2, |pg| assert_eq!(pg.row(4, 0).unwrap(), &[7; 4]))
            .unwrap();
    }

    #[test]
    fn failed_materialize_keeps_the_overlay_for_retry() {
        use crate::fault::{FaultDisk, FaultPlan, SharedMemDisk};
        let shared = SharedMemDisk::new();
        let plan = FaultPlan::new(None);
        let pager = Pager::new(Box::new(FaultDisk::new(
            Box::new(shared),
            plan.clone(),
        )));
        pager.set_staging(true);
        let f = committed_staging_file(&pager);
        plan.set_enospc(true);
        assert!(pager.materialize_overlay().is_err());
        // Nothing was consumed: the same checkpoint succeeds whole once
        // space returns, and the content reads back from disk.
        plan.set_enospc(false);
        assert_eq!(pager.materialize_overlay().unwrap(), vec![f]);
        pager.invalidate_buffers().unwrap();
        pager
            .read(f, 0, |pg| assert_eq!(pg.row(4, 0).unwrap(), &[1; 4]))
            .unwrap();
    }

    /// Concurrent readers over disjoint files: every thread's accounting
    /// lands, the ledger identity holds, and nobody deadlocks.
    #[test]
    fn concurrent_reads_account_exactly() {
        use std::sync::Arc;
        let pager = Arc::new(Pager::in_memory());
        let files: Vec<FileId> =
            (0..4).map(|_| two_page_file(&pager)).collect();
        pager.reset_stats();
        std::thread::scope(|s| {
            for &f in &files {
                let pager = Arc::clone(&pager);
                s.spawn(move || {
                    for _ in 0..25 {
                        pager.read(f, 0, |_| ()).unwrap();
                        pager.read(f, 1, |_| ()).unwrap();
                    }
                });
            }
        });
        for &f in &files {
            let io = pager.stats().of(f);
            assert_eq!(io.accesses, 50);
            assert_eq!(io.hits + io.reads, 50);
        }
        assert!(pager.stats().is_consistent());
    }

    // --- Differential test against the linear-scan pool -------------------
    //
    // The reference model is the pool this module used before the page
    // table: one `Vec` of frames per file, MRU-first under LRU and a
    // slot array swept by a hand under Clock, searched linearly, with
    // every LRU hit moved to the front. It holds page numbers and flags
    // only; the pager under test holds real pages.

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct RefFrame {
        page_no: u32,
        dirty: bool,
        referenced: bool,
    }

    struct RefPool {
        cap: usize,
        frames: Vec<RefFrame>,
        hand: usize,
    }

    impl RefPool {
        fn evict_index(&mut self, policy: EvictionPolicy) -> usize {
            match policy {
                EvictionPolicy::Lru => self.frames.len() - 1,
                EvictionPolicy::Clock => {
                    let n = self.frames.len();
                    loop {
                        let i = self.hand % n;
                        self.hand = (i + 1) % n;
                        if self.frames[i].referenced {
                            self.frames[i].referenced = false;
                            continue;
                        }
                        return i;
                    }
                }
            }
        }
    }

    #[derive(Default)]
    struct RefPager {
        policy: EvictionPolicy,
        default_cap: usize,
        overrides: BTreeMap<FileId, usize>,
        pools: BTreeMap<FileId, RefPool>,
        lengths: BTreeMap<FileId, u32>,
        io: BTreeMap<FileId, crate::iostats::FileIo>,
        /// Write-backs, in order, since the last `take_writes`.
        writes: Vec<(FileId, u32)>,
    }

    impl RefPager {
        fn pool(&mut self, f: FileId) -> &mut RefPool {
            let cap = self.overrides.get(&f).copied();
            let cap = cap.unwrap_or(self.default_cap);
            self.pools.entry(f).or_insert_with(|| RefPool {
                cap,
                frames: Vec::new(),
                hand: 0,
            })
        }

        fn write_back(&mut self, f: FileId, frame: RefFrame) {
            if frame.dirty {
                self.writes.push((f, frame.page_no));
                self.io.entry(f).or_default().writes += 1;
            }
        }

        fn install(&mut self, f: FileId, frame: RefFrame) {
            let policy = self.policy;
            let pool = self.pool(f);
            let mut at = match policy {
                EvictionPolicy::Lru => 0,
                EvictionPolicy::Clock => pool.frames.len(),
            };
            if pool.frames.len() >= pool.cap {
                let idx = pool.evict_index(policy);
                if policy == EvictionPolicy::Clock {
                    at = idx;
                }
                let old = pool.frames.remove(idx);
                self.io.entry(f).or_default().evictions += 1;
                self.write_back(f, old);
            }
            self.pool(f).frames.insert(at, frame);
        }

        /// A `read` (or, with `dirty`, a `write`); true on a hit.
        fn access(&mut self, f: FileId, page_no: u32, dirty: bool) -> bool {
            let policy = self.policy;
            let pool = self.pool(f);
            let hit = pool.frames.iter().position(|x| x.page_no == page_no);
            let io = self.io.entry(f).or_default();
            io.accesses += 1;
            match hit {
                Some(_) => io.hits += 1,
                None => io.reads += 1,
            }
            let at = match hit {
                Some(pos) => {
                    let pool = self.pool(f);
                    match policy {
                        EvictionPolicy::Lru => {
                            let frame = pool.frames.remove(pos);
                            pool.frames.insert(0, frame);
                            0
                        }
                        EvictionPolicy::Clock => {
                            pool.frames[pos].referenced = true;
                            pos
                        }
                    }
                }
                None => {
                    let frame = RefFrame {
                        page_no,
                        dirty: false,
                        referenced: false,
                    };
                    self.install(f, frame);
                    let pool = self.pool(f);
                    pool.frames
                        .iter()
                        .position(|x| x.page_no == page_no)
                        .expect("just installed")
                }
            };
            self.pool(f).frames[at].dirty |= dirty;
            hit.is_some()
        }

        fn append(&mut self, f: FileId) -> u32 {
            let len = self.lengths.entry(f).or_default();
            let page_no = *len;
            *len += 1;
            let frame = RefFrame {
                page_no,
                dirty: true,
                referenced: false,
            };
            self.install(f, frame);
            page_no
        }

        fn flush_file(&mut self, f: FileId) {
            let Some(pool) = self.pools.get_mut(&f) else {
                return;
            };
            let mut dirty = Vec::new();
            for frame in &mut pool.frames {
                if frame.dirty {
                    frame.dirty = false;
                    dirty.push(*frame);
                }
            }
            for frame in dirty {
                self.write_back(
                    f,
                    RefFrame {
                        dirty: true,
                        ..frame
                    },
                );
            }
        }

        fn invalidate(&mut self) {
            let files: Vec<FileId> = self.pools.keys().copied().collect();
            for f in files {
                let pool = self.pool(f);
                pool.hand = 0;
                for frame in std::mem::take(&mut pool.frames) {
                    self.write_back(f, frame);
                }
            }
        }

        fn set_cap(&mut self, f: FileId, cap: usize) {
            let policy = self.policy;
            self.overrides.insert(f, cap);
            self.pool(f).cap = cap;
            while self.pool(f).frames.len() > cap {
                let pool = self.pool(f);
                let idx = pool.evict_index(policy);
                let frame = pool.frames.remove(idx);
                self.io.entry(f).or_default().evictions += 1;
                self.write_back(f, frame);
            }
        }

        fn readahead(&mut self, f: FileId, pages: &[u32]) -> u32 {
            let len = self.lengths.get(&f).copied().unwrap_or(0);
            let mut fetched = 0;
            for &page_no in pages {
                let pool = self.pool(f);
                if pool.frames.len() >= pool.cap {
                    break;
                }
                if pool.frames.iter().any(|x| x.page_no == page_no) {
                    continue;
                }
                if page_no >= len {
                    break;
                }
                pool.frames.push(RefFrame {
                    page_no,
                    dirty: false,
                    referenced: false,
                });
                let io = self.io.entry(f).or_default();
                io.accesses += 1;
                io.reads += 1;
                fetched += 1;
            }
            fetched
        }

        fn truncate(&mut self, f: FileId) {
            if let Some(pool) = self.pools.get_mut(&f) {
                pool.frames.clear();
                pool.hand = 0;
            }
            self.lengths.insert(f, 0);
        }

        fn drop_file(&mut self, f: FileId) {
            self.pools.remove(&f);
            self.overrides.remove(&f);
            self.lengths.remove(&f);
        }
    }

    /// A `MemDisk` that logs every page write: in non-staging mode,
    /// exactly the pager's write-backs.
    struct LoggingDisk {
        inner: MemDisk,
        log: Arc<std::sync::Mutex<Vec<(FileId, u32)>>>,
    }

    impl DiskManager for LoggingDisk {
        fn create_file(&mut self) -> Result<FileId> {
            self.inner.create_file()
        }
        fn drop_file(&mut self, file: FileId) -> Result<()> {
            self.inner.drop_file(file)
        }
        fn page_count(&self, file: FileId) -> Result<u32> {
            self.inner.page_count(file)
        }
        fn read_page(
            &mut self,
            file: FileId,
            page_no: u32,
        ) -> Result<Page> {
            self.inner.read_page(file, page_no)
        }
        fn write_page(
            &mut self,
            file: FileId,
            page_no: u32,
            page: &Page,
        ) -> Result<()> {
            self.log.lock().expect("log").push((file, page_no));
            self.inner.write_page(file, page_no, page)
        }
        fn append_page(
            &mut self,
            file: FileId,
            page: &Page,
        ) -> Result<u32> {
            self.inner.append_page(file, page)
        }
        fn truncate(&mut self, file: FileId) -> Result<()> {
            self.inner.truncate(file)
        }
        fn sync(&mut self, file: FileId) -> Result<()> {
            self.inner.sync(file)
        }
        fn files(&self) -> Vec<FileId> {
            self.inner.files()
        }
    }

    /// The pool's frames in list order, its hand and its cap, checking
    /// the page table and the list against the slots on the way.
    fn layout(pager: &Pager, f: FileId) -> (Vec<RefFrame>, usize, usize) {
        let st = pager.st_read();
        let Some(pool) = st.pools.get(&f) else {
            return (Vec::new(), 0, 0);
        };
        let mut out = Vec::new();
        let mut prev = NIL;
        let mut s = pool.head;
        while s != NIL {
            assert_eq!(pool.prev[s as usize], prev, "list links");
            let frame = &pool.frames[s as usize];
            assert_eq!(pool.slot_of(frame.page_no), Some(s as usize));
            assert!(!frame.pinned);
            out.push(RefFrame {
                page_no: frame.page_no,
                dirty: frame.dirty,
                referenced: frame.referenced,
            });
            prev = s;
            s = pool.next[s as usize];
        }
        assert_eq!(pool.tail, prev, "list tail");
        assert_eq!(out.len(), pool.frames.len(), "every slot listed");
        assert_eq!(
            pool.table.iter().filter(|&&s| s != NIL).count(),
            out.len(),
            "no stale page-table entries"
        );
        assert_eq!(pool.pinned, 0);
        (out, pool.hand, pool.cap)
    }

    fn ref_layout(
        m: &RefPager,
        f: FileId,
    ) -> (Vec<RefFrame>, usize, usize) {
        match m.pools.get(&f) {
            Some(p) => (p.frames.clone(), p.hand, p.cap),
            None => (Vec::new(), 0, 0),
        }
    }

    fn by_file(mut log: Vec<(FileId, u32)>) -> Vec<(FileId, u32)> {
        // Cross-file order follows the pager's pool map; within a file
        // the order is the policy's and must match exactly.
        log.sort_by_key(|(f, _)| *f);
        log
    }

    /// One seeded run: random operations on three files, checked against
    /// the reference model after every step.
    fn differential_run(seed: u64, cap: usize, policy: EvictionPolicy) {
        use tdbms_kernel::prng::Prng;
        const CAPS: [usize; 5] = [1, 2, 3, 8, 64];
        let ctx = format!("seed {seed} cap {cap} {policy}");
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        let pager = Pager::with_config(
            Box::new(LoggingDisk {
                inner: MemDisk::new(),
                log: Arc::clone(&log),
            }),
            BufferConfig::uniform(cap, policy),
        );
        pager.set_readahead(true);
        let mut model = RefPager {
            policy,
            default_cap: cap,
            ..RefPager::default()
        };
        // Last LSN stamped into each page: the content every read must
        // see, whether the page comes from a frame or from disk.
        let mut content: BTreeMap<(FileId, u32), u32> = BTreeMap::new();
        let mut files: Vec<FileId> = Vec::new();
        for _ in 0..3 {
            let f = pager.create_file().unwrap();
            model.pool(f);
            files.push(f);
        }
        let mut g = Prng::seed_from_u64(seed);
        let mut stamp = 0u32;
        for step in 0..3000 {
            let fi = g.random_below(files.len() as u64) as usize;
            let f = files[fi];
            let len = model.lengths.get(&f).copied().unwrap_or(0);
            // Skewed page choice, so large pools see hits too.
            let pick = |g: &mut Prng| -> u32 {
                if g.random_bool() {
                    g.random_below(u64::from(len.min(4))) as u32
                } else {
                    g.random_below(u64::from(len)) as u32
                }
            };
            let before: Vec<u32> =
                ref_layout(&model, f).0.iter().map(|x| x.page_no).collect();
            let op = g.random_below(1000);
            let what;
            match op {
                0..=299 if len > 0 => {
                    let p = pick(&mut g);
                    what = format!("read {f:?}:{p}");
                    let hits = pager.stats().of(f).hits;
                    let lsn = pager.read(f, p, |pg| pg.lsn()).unwrap();
                    let hit = model.access(f, p, false);
                    assert_eq!(
                        pager.stats().of(f).hits > hits,
                        hit,
                        "{ctx} step {step} {what}: hit/miss"
                    );
                    let want = content.get(&(f, p)).copied().unwrap_or(0);
                    assert_eq!(lsn, want, "{ctx} step {step} {what}");
                }
                300..=499 if len > 0 => {
                    let p = pick(&mut g);
                    what = format!("write {f:?}:{p}");
                    stamp += 1;
                    let hits = pager.stats().of(f).hits;
                    pager.write(f, p, |pg| pg.set_lsn(stamp)).unwrap();
                    let hit = model.access(f, p, true);
                    assert_eq!(
                        pager.stats().of(f).hits > hits,
                        hit,
                        "{ctx} step {step} {what}: hit/miss"
                    );
                    content.insert((f, p), stamp);
                }
                0..=699 => {
                    what = format!("append {f:?}");
                    let p = pager.append_page(f, PageKind::Data).unwrap();
                    assert_eq!(p, model.append(f), "{ctx} {what}");
                }
                700..=739 => {
                    what = format!("flush {f:?}");
                    pager.flush_file(f).unwrap();
                    model.flush_file(f);
                }
                740..=749 => {
                    what = "invalidate".to_string();
                    pager.invalidate_buffers().unwrap();
                    model.invalidate();
                }
                750..=769 => {
                    // Resize (a shrink, unless the run's cap is 1),
                    // compare, and go back to the run's cap.
                    let c =
                        CAPS[g.random_below(CAPS.len() as u64) as usize];
                    what = format!("cap {f:?} {c}");
                    pager.set_buffer_frames(f, c).unwrap();
                    model.set_cap(f, c);
                    assert_eq!(
                        layout(&pager, f),
                        ref_layout(&model, f),
                        "{ctx} step {step} {what}"
                    );
                    pager.set_buffer_frames(f, cap).unwrap();
                    model.set_cap(f, cap);
                }
                770..=889 => {
                    let n = g.random_below(6) as usize;
                    let pages: Vec<u32> = (0..n)
                        .map(|_| g.random_below(u64::from(len) + 2) as u32)
                        .collect();
                    what = format!("readahead {f:?} {pages:?}");
                    let got = pager.readahead(f, &pages).unwrap();
                    assert_eq!(got, model.readahead(f, &pages), "{what}");
                }
                890..=892 => {
                    what = format!("truncate {f:?}");
                    pager.truncate(f).unwrap();
                    model.truncate(f);
                    content.retain(|(g, _), _| *g != f);
                }
                893..=894 => {
                    what = format!("drop {f:?}");
                    pager.drop_file(f).unwrap();
                    model.drop_file(f);
                    content.retain(|(g, _), _| *g != f);
                    let fresh = pager.create_file().unwrap();
                    model.pool(fresh);
                    files[fi] = fresh;
                }
                895..=899 => {
                    let p = match model.policy {
                        EvictionPolicy::Lru => EvictionPolicy::Clock,
                        EvictionPolicy::Clock => EvictionPolicy::Lru,
                    };
                    what = format!("policy {p}");
                    pager.set_eviction_policy(p);
                    model.policy = p;
                }
                _ => continue,
            }
            let ctx = format!("{ctx} step {step} {what}");
            // The victim: the page this step pushed out of `f`'s pool.
            let after: Vec<u32> =
                ref_layout(&model, f).0.iter().map(|x| x.page_no).collect();
            let victims = |now: &[u32]| -> Vec<u32> {
                before
                    .iter()
                    .copied()
                    .filter(|p| !now.contains(p))
                    .collect()
            };
            let got: Vec<u32> =
                layout(&pager, f).0.iter().map(|x| x.page_no).collect();
            assert_eq!(victims(&got), victims(&after), "{ctx}: victims");
            for &h in &files {
                assert_eq!(
                    layout(&pager, h),
                    ref_layout(&model, h),
                    "{ctx}: layout of {h:?}"
                );
            }
            let written = std::mem::take(&mut *log.lock().unwrap());
            assert_eq!(
                by_file(written),
                by_file(std::mem::take(&mut model.writes)),
                "{ctx}: write-backs"
            );
        }
        for (f, want) in &model.io {
            let got = pager.stats().of(*f);
            assert_eq!(
                (got.reads, got.writes, got.hits, got.evictions),
                (want.reads, want.writes, want.hits, want.evictions),
                "{ctx}: final IoStats of {f:?}"
            );
            assert_eq!(got.accesses, want.accesses, "{ctx}: {f:?}");
        }
        assert!(pager.stats().is_consistent());
    }

    #[test]
    fn pool_matches_the_linear_scan_model() {
        for policy in [EvictionPolicy::Lru, EvictionPolicy::Clock] {
            for cap in [1, 2, 3, 8, 64] {
                for seed in 0..4 {
                    differential_run(0xB0F + seed, cap, policy);
                }
            }
        }
    }
}
