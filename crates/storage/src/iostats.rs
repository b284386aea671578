//! Page-access accounting.
//!
//! The paper's benchmark "focused solely on the number of disk accesses per
//! query at a granularity of a page", counting only accesses to *user*
//! relations. [`IoStats`] tallies, per file, the pages fetched from disk
//! (buffer misses) and pages written back, so a harness can reset the
//! counters before a query and read off exactly the paper's metric
//! afterwards.
//!
//! Version 2 widens the ledger beyond the paper's two columns: every
//! buffered page access is classified as a **hit** or a **miss** (a miss
//! is a disk fetch, i.e. a `read`), capacity-pressure **evictions** are
//! counted separately from explicit flushes, and the whole ledger can be
//! sliced into **named phases** (`begin_phase` / `end_phase`) so a query
//! processor can attribute I/O to, say, decomposition vs. tuple
//! substitution. The structural invariant `hits + misses == accesses`
//! holds per file and in total; an access and its classification are
//! separate counters bumped together through one cell
//! (`record_access_hit` / `record_access_read`), so the identity checks
//! that no access went unclassified and no reset split a pair.
//!
//! Version 3 makes the ledger shareable: per-file counters are atomics
//! behind an `RwLock`'d directory and the phase ledger sits behind a
//! `Mutex`, so recording is `&self` and `IoStats` is `Send + Sync`. A
//! counter bump is a single relaxed `fetch_add`; concurrent recorders
//! never lose increments, and the hit/miss/access identity still holds at
//! every quiescent point (each access site performs its access and
//! classification bumps before returning).

use crate::disk::FileId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// Per-file read/write page counters, safely shareable across threads.
#[derive(Debug, Default)]
pub struct IoStats {
    counters: RwLock<HashMap<FileId, Arc<FileCounters>>>,
    phases: Mutex<PhaseLedger>,
    /// Lifetime counters for the chain-guard machinery. Unlike the
    /// per-file ledger these are **monotone**: `reset` (which the
    /// benchmark harness calls before every query) does not clear them,
    /// so the server's `Stats` reply and the planner's statistics see
    /// cumulative figures. They sit outside the per-file ledger so the
    /// paper's `hits + misses == accesses` identity is untouched.
    bloom_hits: AtomicU64,
    bloom_skips: AtomicU64,
    readahead: AtomicU64,
}

/// The atomic cell behind one file's [`FileIo`] snapshot.
#[derive(Debug, Default)]
struct FileCounters {
    reads: AtomicU64,
    writes: AtomicU64,
    hits: AtomicU64,
    evictions: AtomicU64,
    accesses: AtomicU64,
    retries: AtomicU64,
}

impl FileCounters {
    fn snapshot(&self) -> FileIo {
        FileIo {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            accesses: self.accesses.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
        }
    }
}

/// Counters for one file.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FileIo {
    /// Pages fetched from disk (buffer misses).
    pub reads: u64,
    /// Pages written back to disk.
    pub writes: u64,
    /// Buffered accesses satisfied without a disk fetch.
    pub hits: u64,
    /// Frames evicted under capacity pressure (explicit flushes and
    /// invalidations are not evictions).
    pub evictions: u64,
    /// Buffered page accesses (every access is either a hit or a miss;
    /// a miss is exactly one `read`).
    pub accesses: u64,
    /// Disk reads retried after a transient failure. Retries are not
    /// extra `reads`: a fetch that succeeds on its second attempt is
    /// still one page read, with one retry on the side.
    pub retries: u64,
}

impl FileIo {
    /// Buffer misses (identical to `reads`; named for the invariant).
    pub fn misses(&self) -> u64 {
        self.reads
    }

    /// The v2 ledger invariant: every access was classified exactly once.
    pub fn is_consistent(&self) -> bool {
        self.hits + self.reads == self.accesses
    }
}

/// Counters summed over every file at one instant (statement and phase
/// baselines).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Totals {
    /// Pages fetched from disk.
    pub reads: u64,
    /// Pages written back.
    pub writes: u64,
    /// Buffer hits.
    pub hits: u64,
    /// Capacity evictions.
    pub evictions: u64,
}

/// The phase slices of the ledger, guarded as one unit.
#[derive(Debug, Default)]
struct PhaseLedger {
    closed: Vec<PhaseIo>,
    open: Option<(String, Totals)>,
}

/// The I/O attributed to one named phase of a statement.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PhaseIo {
    /// Phase name (e.g. `"decomposition"`, `"substitution"`).
    pub name: String,
    /// Pages fetched from disk during the phase.
    pub reads: u64,
    /// Pages written back during the phase.
    pub writes: u64,
    /// Buffer hits during the phase.
    pub hits: u64,
    /// Capacity evictions during the phase.
    pub evictions: u64,
}

impl IoStats {
    /// Fresh, all-zero stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared atomic cell for `file`, creating it on first touch.
    /// The common path is a read-lock lookup; only a file's very first
    /// counter bump takes the directory write lock.
    fn cell(&self, file: FileId) -> Arc<FileCounters> {
        if let Some(c) = self
            .counters
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&file)
        {
            return Arc::clone(c);
        }
        Arc::clone(
            self.counters
                .write()
                .unwrap_or_else(PoisonError::into_inner)
                .entry(file)
                .or_default(),
        )
    }

    pub(crate) fn record_write(&self, file: FileId) {
        self.cell(file).writes.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_eviction(&self, file: FileId) {
        self.cell(file).evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// One buffered access served from the buffer. Both halves of the
    /// ledger pair land in the same cell: a concurrent [`IoStats::reset`]
    /// between two separate lookups would strand one half in a fresh
    /// cell and unbalance `hits + reads == accesses`.
    pub(crate) fn record_access_hit(&self, file: FileId) {
        let c = self.cell(file);
        c.accesses.fetch_add(1, Ordering::Relaxed);
        c.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// One buffered access that read its page from disk (a miss); both
    /// halves through one cell, as in [`IoStats::record_access_hit`].
    pub(crate) fn record_access_read(&self, file: FileId) {
        let c = self.cell(file);
        c.accesses.fetch_add(1, Ordering::Relaxed);
        c.reads.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_retry(&self, file: FileId) {
        self.cell(file).retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Total transient-read retries across all files.
    pub fn total_retries(&self) -> u64 {
        self.sum(|c| c.retries)
    }

    pub(crate) fn record_bloom_hit(&self) {
        self.bloom_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_bloom_skip(&self) {
        self.bloom_skips.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_readahead(&self, n: u64) {
        self.readahead.fetch_add(n, Ordering::Relaxed);
    }

    /// Lifetime count of bloom-filter consultations that answered
    /// "maybe present" (the chain was walked as usual). Monotone —
    /// `reset` does not clear it.
    pub fn bloom_hits(&self) -> u64 {
        self.bloom_hits.load(Ordering::Relaxed)
    }

    /// Lifetime count of chain walks skipped because the filter answered
    /// "definitely absent". Monotone — `reset` does not clear it.
    pub fn bloom_skips(&self) -> u64 {
        self.bloom_skips.load(Ordering::Relaxed)
    }

    /// Lifetime count of pages prefetched by [`crate::Pager::readahead`].
    /// Monotone — `reset` does not clear it.
    pub fn readahead_pages(&self) -> u64 {
        self.readahead.load(Ordering::Relaxed)
    }

    /// Charge `n` page writes against `file` from outside the pager. The
    /// WAL uses this to account its log appends (to a pseudo file id) in
    /// the same ledger as data-page I/O, so `QueryStats` phases can show
    /// the durability cost next to the paper's metric.
    pub fn add_writes(&self, file: FileId, n: u64) {
        self.cell(file).writes.fetch_add(n, Ordering::Relaxed);
    }

    /// Counters for one file (zero if never touched).
    pub fn of(&self, file: FileId) -> FileIo {
        self.counters
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&file)
            .map(|c| c.snapshot())
            .unwrap_or_default()
    }

    fn sum(&self, pick: impl Fn(&FileIo) -> u64) -> u64 {
        self.counters
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .map(|c| pick(&c.snapshot()))
            .sum()
    }

    /// Total page reads across all files.
    pub fn total_reads(&self) -> u64 {
        self.sum(|c| c.reads)
    }

    /// Total page writes across all files.
    pub fn total_writes(&self) -> u64 {
        self.sum(|c| c.writes)
    }

    /// Total buffer hits across all files.
    pub fn total_hits(&self) -> u64 {
        self.sum(|c| c.hits)
    }

    /// Total capacity evictions across all files.
    pub fn total_evictions(&self) -> u64 {
        self.sum(|c| c.evictions)
    }

    /// Total buffered page accesses across all files.
    pub fn total_accesses(&self) -> u64 {
        self.sum(|c| c.accesses)
    }

    /// The ledger invariant over every file: `hits + misses == accesses`.
    /// Meaningful at quiescent points (no recorder mid-access).
    pub fn is_consistent(&self) -> bool {
        self.counters
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .all(|c| c.snapshot().is_consistent())
    }

    /// Total page reads across a set of files.
    pub fn reads_of(&self, files: &[FileId]) -> u64 {
        files.iter().map(|f| self.of(*f).reads).sum()
    }

    /// Total page writes across a set of files.
    pub fn writes_of(&self, files: &[FileId]) -> u64 {
        files.iter().map(|f| self.of(*f).writes).sum()
    }

    /// Zero every counter and drop all recorded phases.
    pub fn reset(&self) {
        // Take the phase lock first (same order as begin/end_phase) and
        // hold both so no recorder can slip between the two wipes.
        let mut ledger =
            self.phases.lock().unwrap_or_else(PoisonError::into_inner);
        self.counters
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        ledger.closed.clear();
        ledger.open = None;
    }

    /// Snapshot `(file, counters)` for every file that was touched.
    pub fn iter(&self) -> impl Iterator<Item = (FileId, FileIo)> {
        let mut snap: Vec<(FileId, FileIo)> = self
            .counters
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(f, c)| (*f, c.snapshot()))
            .collect();
        snap.sort_by_key(|(f, _)| *f);
        snap.into_iter()
    }

    /// Reads, writes, hits and evictions summed over every file in one
    /// walk under one read lock (the four `total_*` calls would walk four
    /// times).
    pub fn totals(&self) -> Totals {
        let counters =
            self.counters.read().unwrap_or_else(PoisonError::into_inner);
        let mut t = Totals::default();
        for c in counters.values() {
            t.reads += c.reads.load(Ordering::Relaxed);
            t.writes += c.writes.load(Ordering::Relaxed);
            t.hits += c.hits.load(Ordering::Relaxed);
            t.evictions += c.evictions.load(Ordering::Relaxed);
        }
        t
    }

    /// Open a named phase. All I/O until `end_phase` (or the next
    /// `begin_phase`, which closes the current one first) is attributed to
    /// it. Phases do not nest — the paper's decomposition pipeline is a
    /// sequence, not a tree.
    pub fn begin_phase(&self, name: &str) {
        let mut ledger =
            self.phases.lock().unwrap_or_else(PoisonError::into_inner);
        let now = self.totals();
        Self::close_open(&mut ledger, now);
        ledger.open = Some((name.to_string(), now));
    }

    /// Close the open phase, if any, recording its I/O delta.
    pub fn end_phase(&self) {
        let mut ledger =
            self.phases.lock().unwrap_or_else(PoisonError::into_inner);
        Self::close_open(&mut ledger, self.totals());
    }

    fn close_open(ledger: &mut PhaseLedger, now: Totals) {
        if let Some((name, base)) = ledger.open.take() {
            ledger.closed.push(PhaseIo {
                name,
                reads: now.reads - base.reads,
                writes: now.writes - base.writes,
                hits: now.hits - base.hits,
                evictions: now.evictions - base.evictions,
            });
        }
    }

    /// Every closed phase, in the order recorded (a snapshot).
    pub fn phases(&self) -> Vec<PhaseIo> {
        self.phases
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed
            .clone()
    }

    /// The aggregate I/O of every recorded phase named `name` (all-zero if
    /// the phase never ran).
    pub fn scoped(&self, name: &str) -> PhaseIo {
        let mut out = PhaseIo {
            name: name.to_string(),
            ..Default::default()
        };
        for p in self.phases().iter().filter(|p| p.name == name) {
            out.reads += p.reads;
            out.writes += p.writes;
            out.hits += p.hits;
            out.evictions += p.evictions;
        }
        out
    }
}

impl Clone for IoStats {
    /// A deep snapshot: the clone gets its own counters frozen at the
    /// values observed now, sharing nothing with the original.
    fn clone(&self) -> Self {
        let out = IoStats::new();
        out.bloom_hits.store(self.bloom_hits(), Ordering::Relaxed);
        out.bloom_skips.store(self.bloom_skips(), Ordering::Relaxed);
        out.readahead
            .store(self.readahead_pages(), Ordering::Relaxed);
        {
            let mut dst = out
                .counters
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            let src = self
                .counters
                .read()
                .unwrap_or_else(PoisonError::into_inner);
            for (f, c) in src.iter() {
                let s = c.snapshot();
                dst.insert(
                    *f,
                    Arc::new(FileCounters {
                        reads: AtomicU64::new(s.reads),
                        writes: AtomicU64::new(s.writes),
                        hits: AtomicU64::new(s.hits),
                        evictions: AtomicU64::new(s.evictions),
                        accesses: AtomicU64::new(s.accesses),
                        retries: AtomicU64::new(s.retries),
                    }),
                );
            }
        }
        let src =
            self.phases.lock().unwrap_or_else(PoisonError::into_inner);
        let mut dst =
            out.phases.lock().unwrap_or_else(PoisonError::into_inner);
        dst.closed = src.closed.clone();
        dst.open = src.open.clone();
        drop(dst);
        drop(src);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_resets() {
        let s = IoStats::new();
        let a = FileId(1);
        let b = FileId(2);
        s.record_access_read(a);
        s.record_access_read(a);
        s.record_write(a);
        s.record_access_read(b);
        assert_eq!(s.of(a).reads, 2);
        assert_eq!(s.of(a).writes, 1);
        assert_eq!(s.of(b).reads, 1);
        assert_eq!(s.of(FileId(99)), FileIo::default());
        assert_eq!(s.total_reads(), 3);
        assert_eq!(s.total_writes(), 1);
        assert_eq!(s.reads_of(&[a, b]), 3);
        assert_eq!(s.writes_of(&[a, b]), 1);
        assert!(s.is_consistent());
        s.reset();
        assert_eq!(s.total_reads(), 0);
    }

    #[test]
    fn chain_guard_counters_are_monotone_across_reset() {
        let s = IoStats::new();
        s.record_bloom_hit();
        s.record_bloom_skip();
        s.record_bloom_skip();
        s.record_readahead(5);
        s.reset();
        assert_eq!(s.bloom_hits(), 1);
        assert_eq!(s.bloom_skips(), 2);
        assert_eq!(s.readahead_pages(), 5);
        let snap = s.clone();
        assert_eq!(
            (
                snap.bloom_hits(),
                snap.bloom_skips(),
                snap.readahead_pages()
            ),
            (1, 2, 5)
        );
    }

    #[test]
    fn hit_miss_access_identity() {
        let s = IoStats::new();
        let f = FileId(7);
        for _ in 0..5 {
            s.record_access_hit(f);
        }
        for _ in 0..3 {
            s.record_access_read(f);
        }
        s.record_eviction(f);
        let io = s.of(f);
        assert_eq!(io.hits, 5);
        assert_eq!(io.misses(), 3);
        assert_eq!(io.accesses, 8);
        assert_eq!(io.evictions, 1);
        assert!(io.is_consistent());
        assert_eq!(s.total_hits(), 5);
        assert_eq!(s.total_accesses(), 8);
        assert_eq!(s.total_evictions(), 1);
        s.record_write(FileId(8));
        assert_eq!(
            s.totals(),
            Totals {
                reads: 3,
                writes: 1,
                hits: 5,
                evictions: 1,
            }
        );
    }

    #[test]
    fn phases_slice_the_ledger() {
        let s = IoStats::new();
        let f = FileId(3);
        s.begin_phase("decomposition");
        s.record_access_read(f);
        s.record_write(f);
        // begin_phase closes the open phase implicitly.
        s.begin_phase("substitution");
        s.record_access_hit(f);
        s.record_access_read(f);
        s.record_eviction(f);
        s.end_phase();
        // A second round of the same phase aggregates under `scoped`.
        s.begin_phase("substitution");
        s.record_access_read(f);
        s.end_phase();

        assert_eq!(s.phases().len(), 3);
        let d = s.scoped("decomposition");
        assert_eq!((d.reads, d.writes, d.hits, d.evictions), (1, 1, 0, 0));
        let sub = s.scoped("substitution");
        assert_eq!(
            (sub.reads, sub.writes, sub.hits, sub.evictions),
            (2, 0, 1, 1)
        );
        assert_eq!(
            s.scoped("never-ran"),
            PhaseIo {
                name: "never-ran".into(),
                ..Default::default()
            }
        );
        // end_phase with nothing open is a no-op.
        s.end_phase();
        assert_eq!(s.phases().len(), 3);
        s.reset();
        assert!(s.phases().is_empty());
    }

    #[test]
    fn clone_is_a_frozen_snapshot() {
        let s = IoStats::new();
        let f = FileId(4);
        s.record_access_read(f);
        let snap = s.clone();
        s.record_access_hit(f);
        assert_eq!(snap.of(f).accesses, 1);
        assert_eq!(s.of(f).accesses, 2);
        assert!(snap.is_consistent() && s.is_consistent());
    }

    /// Hammer one ledger from many threads; every increment must land
    /// and the classification identity must hold at the join point.
    #[test]
    fn concurrent_recording_loses_nothing() {
        let s = Arc::new(IoStats::new());
        let threads = 8;
        let per = 500u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let s = Arc::clone(&s);
                scope.spawn(move || {
                    let f = FileId(t % 3);
                    for i in 0..per {
                        if i % 2 == 0 {
                            s.record_access_hit(f);
                        } else {
                            s.record_access_read(f);
                        }
                        if i % 7 == 0 {
                            s.record_write(f);
                        }
                    }
                });
            }
        });
        assert_eq!(s.total_accesses(), u64::from(threads) * per);
        assert_eq!(
            s.total_hits() + s.total_reads(),
            u64::from(threads) * per
        );
        assert!(s.is_consistent());
    }
}
