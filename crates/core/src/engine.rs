//! The concurrent session engine: one shared [`Engine`] over a
//! [`Database`], many per-thread [`Session`]s.
//!
//! ## Concurrency model
//!
//! The engine wraps the database in one `Arc<RwLock<_>>` — the
//! *commit lock* — and additionally publishes a **read view**: an
//! immutable snapshot of the catalog plus the *committed watermark*
//! (the transaction clock's position after the last commit),
//! republished after every write statement. Statement classification
//! decides how a statement runs:
//!
//! * **Snapshot path** (no commit lock at all): `range` declarations
//!   over relations the view knows, and `retrieve` without `into` whose
//!   variables all carry transaction time. These execute against the
//!   published catalog snapshot and the shared pager (which has its own
//!   interior lock), filtering versions through the watermark: a row
//!   whose `transaction_start` is past the watermark belongs to a
//!   commit the view predates and is invisible, and a row being
//!   logically deleted gets a `transaction_stop` past the watermark, so
//!   it stays visible to the snapshot. Version stamps make reads
//!   race-free *by construction* — no lock, no retry loop. A
//!   multi-variable retrieve clones the view's catalog privately, so
//!   its decomposition temporaries never touch shared metadata (in
//!   durable mode this shape falls back to the exclusive path: the
//!   temporaries would be staged into concurrent writers' WAL
//!   commits).
//! * **Read path** (shared lock): retrieves the snapshot cannot serve —
//!   variables without transaction time (static/historical relations
//!   have no version stamps to filter on), `as of` times past the
//!   watermark, or a snapshot attempt that raced a concurrent DDL.
//! * **Write path** (exclusive lock, one thread at a time): everything
//!   else — DML, DDL, `copy`, and `retrieve into`. In durable mode the
//!   WAL commit happens inside the exclusive section, so commits are
//!   serialized per statement exactly as in single-threaded operation;
//!   under **group commit** (see [`Database::enable_group_commit`])
//!   only the *appends* happen under the lock — the fsync is deferred
//!   to a batching leader and acknowledged after the lock is released,
//!   which is what lets N sessions share one fsync.
//!
//! Lock order is fixed: the engine's RwLock is always taken before any
//! pager-internal lock, and never the other way around, so the pair
//! cannot deadlock.
//!
//! ## Lock poisoning
//!
//! A writer that panics mid-statement leaves the shared database in an
//! unknown state. The engine records that fact and fails **every**
//! subsequent operation with [`Error::Poisoned`] instead of silently
//! serving possibly half-applied data (which is what
//! `PoisonError::into_inner` used to do here). Reopen the database to
//! recover; in durable mode the WAL brings back the last committed
//! state.
//!
//! Each [`Session`] owns its *range table* (TQuel `range of e is emp`
//! is session state, like a cursor), so two sessions can bind the same
//! variable name to different relations. On the write path the
//! session's ranges are swapped into the database for the duration of
//! the statement, which also lets `destroy` prune only the executing
//! session's bindings.
//!
//! ## Statement statistics under concurrency
//!
//! The single-threaded [`Database`] resets the global I/O counters
//! before each statement. Readers running in parallel cannot do that
//! without clobbering each other, so the snapshot and read paths report
//! *deltas* of the (atomic, monotone) global counters instead. Within
//! one session the numbers are exact when it runs alone; while
//! neighbors run, a reader's per-statement delta may include their I/O.
//! Aggregate totals across all sessions are always exact — that
//! invariant is what the concurrency stress suite asserts.

use crate::binder::Binder;
use crate::bound::BoundRetrieve;
use crate::db::{Database, ExecOutput};
use crate::exec::{
    exec_retrieve_readonly, exec_retrieve_snapshot, QueryStats,
};
use crate::guard::QueryGuard;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{
    Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::time::Duration;
use tdbms_kernel::{Error, Result, TimeVal};
use tdbms_plan::PlanCache;
use tdbms_storage::{Catalog, FileId, Pager};
use tdbms_tquel::ast::Statement;
use tdbms_wal::{GroupCommit, LogHandle};

/// The published snapshot lock-free reads run against: the catalog as
/// of the last committed statement, and the committed watermark that
/// version-filters every row.
struct ReadView {
    catalog: Catalog,
    watermark: TimeVal,
    cold: bool,
    /// Publication counter: bumped on every republish, carried inside
    /// the view so a cached binding and the snapshot it was bound
    /// against can never be observed out of step.
    epoch: u64,
}

fn view_of(db: &Database, epoch: u64) -> ReadView {
    ReadView {
        catalog: db.catalog().clone(),
        watermark: db.clock().now(),
        cold: db.cold_statements(),
        epoch,
    }
}

/// One cached program: the parsed statements (reusable forever — parsing
/// is pure) plus, for single-statement snapshot-served retrieves, the
/// bound form stamped with the view epoch and range table it was bound
/// under, so hot server queries skip parse *and* bind.
struct CachedProgram {
    stmts: Vec<Statement>,
    bound: Mutex<Option<CachedBound>>,
}

struct CachedBound {
    /// View publication the binding is valid for; any commit republishes
    /// the view with a new epoch, invalidating this entry.
    epoch: u64,
    /// The exact range table the statement was bound under.
    ranges: Vec<(String, String)>,
    bound: BoundRetrieve,
}

/// How many distinct statement texts the engine keeps cached.
const PLAN_CACHE_CAPACITY: usize = 128;

/// Counts of commit-lock acquisitions and snapshot (lock-free) reads —
/// the proof behind "reads don't take the commit lock".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockStats {
    /// Shared (read-side) acquisitions of the commit lock.
    pub shared: u64,
    /// Exclusive (write-side) acquisitions of the commit lock.
    pub exclusive: u64,
    /// Retrieves served entirely from the published read view, without
    /// touching the commit lock.
    pub snapshot_reads: u64,
}

#[derive(Default)]
struct LockCounters {
    shared: AtomicU64,
    exclusive: AtomicU64,
    snapshot: AtomicU64,
}

/// State shared by every clone of one engine, outside the commit lock.
struct EngineInner {
    pager: Arc<Pager>,
    view: RwLock<Arc<ReadView>>,
    /// First unrecoverable failure (lock poisoning, failed group-commit
    /// fsync); sticky — every later operation fails with it.
    failed: Mutex<Option<Error>>,
    durable: bool,
    group: Option<(Arc<GroupCommit>, LogHandle)>,
    locks: LockCounters,
    /// Publication counter feeding [`ReadView::epoch`].
    epoch: AtomicU64,
    /// Statement-text-keyed cache of parsed (and, when hot, bound)
    /// programs, shared by every session of this engine.
    plans: Mutex<PlanCache<Arc<CachedProgram>>>,
}

/// A shared, thread-safe handle over one database. Clone it (cheap) and
/// hand one clone per thread; open a [`Session`] on each.
#[derive(Clone)]
pub struct Engine {
    shared: Arc<RwLock<Database>>,
    inner: Arc<EngineInner>,
}

impl Engine {
    /// Wrap a database for shared use.
    pub fn new(mut db: Database) -> Self {
        let pager = db.pager_handle();
        let group = db.group_commit();
        if group.is_some() {
            // Sessions acknowledge after releasing the commit lock so
            // the group-commit leader can batch neighbors' commits.
            db.set_defer_group_ack(true);
        }
        let inner = Arc::new(EngineInner {
            pager,
            view: RwLock::new(Arc::new(view_of(&db, 0))),
            failed: Mutex::new(None),
            durable: db.wal_enabled(),
            group,
            locks: LockCounters::default(),
            epoch: AtomicU64::new(0),
            plans: Mutex::new(PlanCache::new(PLAN_CACHE_CAPACITY)),
        });
        Engine {
            shared: Arc::new(RwLock::new(db)),
            inner,
        }
    }

    /// Open a new session (its own range table, no other state).
    pub fn session(&self) -> Session {
        Session {
            engine: self.clone(),
            ranges: HashMap::new(),
            limits: SessionLimits::default(),
            cancel: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Run `f` under the shared lock (concurrent with other readers).
    ///
    /// Panics if the engine is unusable (a writer panicked, or a
    /// group-commit fsync failed); use [`Engine::try_with_read`] to
    /// handle that as an error.
    pub fn with_read<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        self.try_with_read(f)
            .unwrap_or_else(|e| panic!("engine unusable: {e}"))
    }

    /// Fallible [`Engine::with_read`].
    pub fn try_with_read<R>(
        &self,
        f: impl FnOnce(&Database) -> R,
    ) -> Result<R> {
        let db = self.read()?;
        Ok(f(&db))
    }

    /// Run `f` under the exclusive lock, then republish the read view
    /// and (under group commit) acknowledge the commit after the lock
    /// is released.
    ///
    /// Panics if the engine is unusable (a writer panicked, or a
    /// group-commit fsync failed); use [`Engine::try_with_write`] to
    /// handle that as an error.
    pub fn with_write<R>(&self, f: impl FnOnce(&mut Database) -> R) -> R {
        self.try_with_write(f)
            .unwrap_or_else(|e| panic!("engine unusable: {e}"))
    }

    /// Fallible [`Engine::with_write`].
    pub fn try_with_write<R>(
        &self,
        f: impl FnOnce(&mut Database) -> R,
    ) -> Result<R> {
        let mut db = self.write()?;
        let r = f(&mut db);
        self.publish_view(&db);
        let pending = db.take_pending_commit();
        drop(db);
        if let Some((ticket, drops)) = pending {
            self.ack_commit(ticket, drops)?;
        }
        Ok(r)
    }

    /// Commit-lock and snapshot-read counters since the engine was
    /// built.
    pub fn lock_stats(&self) -> LockStats {
        LockStats {
            shared: self.inner.locks.shared.load(Ordering::Relaxed),
            exclusive: self.inner.locks.exclusive.load(Ordering::Relaxed),
            snapshot_reads: self
                .inner
                .locks
                .snapshot
                .load(Ordering::Relaxed),
        }
    }

    /// `(commits, fsyncs)` of the group-commit queue, when group commit
    /// is on. `commits / fsyncs > 1` is the batching win.
    pub fn group_commit_stats(&self) -> Option<(u64, u64)> {
        self.inner
            .group
            .as_ref()
            .map(|(gc, _)| (gc.commits(), gc.fsyncs()))
    }

    /// Unwrap back into the database, if this is the last handle.
    pub fn try_into_database(
        self,
    ) -> std::result::Result<Database, Engine> {
        let Engine { shared, inner } = self;
        Arc::try_unwrap(shared)
            .map(|l| {
                let mut db =
                    l.into_inner().unwrap_or_else(PoisonError::into_inner);
                // Back to single-threaded use: acknowledge inline.
                db.set_defer_group_ack(false);
                db
            })
            .map_err(|shared| Engine { shared, inner })
    }

    fn read(&self) -> Result<RwLockReadGuard<'_, Database>> {
        self.check_usable()?;
        self.inner.locks.shared.fetch_add(1, Ordering::Relaxed);
        self.shared.read().map_err(|_| self.poison())
    }

    fn write(&self) -> Result<RwLockWriteGuard<'_, Database>> {
        self.check_usable()?;
        self.inner.locks.exclusive.fetch_add(1, Ordering::Relaxed);
        self.shared.write().map_err(|_| self.poison())
    }

    /// A writer panicked while holding the commit lock: the shared
    /// database may be half-applied. Record that and refuse to serve
    /// it — the old behaviour (`PoisonError::into_inner`) silently
    /// returned the possibly-inconsistent state.
    fn poison(&self) -> Error {
        self.record_failure(Error::Poisoned);
        Error::Poisoned
    }

    fn record_failure(&self, e: Error) {
        let mut failed = self
            .inner
            .failed
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if failed.is_none() {
            *failed = Some(e);
        }
    }

    fn check_usable(&self) -> Result<()> {
        if let Some(e) = &*self
            .inner
            .failed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
        {
            return Err(e.clone());
        }
        // The snapshot path never touches the commit lock, so it must
        // ask the lock directly whether a writer died holding it —
        // otherwise lock-free reads would sail past the poisoning.
        if self.shared.is_poisoned() {
            return Err(self.poison());
        }
        Ok(())
    }

    fn view(&self) -> Arc<ReadView> {
        self.inner
            .view
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn publish_view(&self, db: &Database) {
        // fetch_add returns the previous value; +1 gives this
        // publication a number no earlier view ever carried, so any
        // binding cached under an older epoch is dead on arrival.
        let epoch = self.inner.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        let v = Arc::new(view_of(db, epoch));
        *self
            .inner
            .view
            .write()
            .unwrap_or_else(PoisonError::into_inner) = v;
    }

    /// `(hits, misses)` of the statement cache since the engine was
    /// built. A hit means the statement text skipped the parser (and,
    /// for hot snapshot retrieves, the binder too).
    pub fn plan_cache_stats(&self) -> (u64, u64) {
        self.inner
            .plans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .stats()
    }

    /// Look the program up by source text, parsing and caching on miss.
    /// Parse errors are returned without polluting the cache.
    fn cached_program(&self, src: &str) -> Result<Arc<CachedProgram>> {
        if let Some(prog) = self
            .inner
            .plans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .lookup(src)
        {
            return Ok(prog);
        }
        let stmts = tdbms_tquel::parse_program(src)?;
        if stmts.is_empty() {
            return Err(Error::Semantic("empty program".into()));
        }
        let prog = Arc::new(CachedProgram {
            stmts,
            bound: Mutex::new(None),
        });
        self.inner
            .plans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(src.to_string(), prog.clone());
        Ok(prog)
    }

    /// Wait for a group commit's ticket to become durable (possibly
    /// electing this thread the fsync leader), then execute its
    /// deferred file drops. Runs strictly outside the commit lock.
    fn ack_commit(&self, ticket: u64, drops: Vec<FileId>) -> Result<()> {
        let Some((gc, log)) = &self.inner.group else {
            return Ok(());
        };
        if let Err(e) = gc.wait_durable(ticket, || log.sync()) {
            // The log's durable prefix is unknown past the watermark.
            // Degrade, don't die: snapshot reads keep serving the last
            // published view, writes are refused with a typed error
            // until a checkpoint re-arms the queue. The drops go back
            // on the pending ticket so the re-arming checkpoint
            // retires them (a logged drop must eventually happen).
            match self.shared.write() {
                Ok(mut db) => db.repark_drops(ticket, drops),
                // Poisoned commit lock: still record the logged drops
                // on the pager's repairs list so `retry_deferred`
                // retires them instead of stranding files on disk.
                Err(_) => {
                    for file in drops {
                        self.inner.pager.defer_drop(file);
                    }
                }
            }
            // The statement's effects already stood (applied and
            // published before the batch sync ran), so its durability
            // is unknown — surface the non-retryable contract, not
            // `Degraded` (whose contract promises a rollback and
            // invites a verbatim retry).
            return Err(Error::RetryUnsafe(format!(
                "commit durability unknown: {e}"
            )));
        }
        for file in drops {
            if self.inner.pager.execute_drop(file).is_err() {
                self.inner.pager.defer_drop(file);
            }
        }
        Ok(())
    }

    /// Start the background reorganization daemon: a thread that
    /// periodically takes the commit lock like any other writer and
    /// compacts every eligible relation ([`Database::reorganize_all`]),
    /// migrating transaction-stopped versions into clustered history
    /// sidecars. Snapshot reads are never blocked — they run off the
    /// published view while the daemon holds the lock, exactly as they
    /// do against any other writer. A degraded engine makes the daemon
    /// skip the pass and retry next interval (reorganization is
    /// maintenance — it must never escalate a resource failure); an
    /// unusable engine (poisoned lock) ends the daemon.
    pub fn spawn_reorg_daemon(&self, interval: Duration) -> ReorgDaemon {
        let engine = self.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let passes = Arc::new(AtomicU64::new(0));
        let migrated = Arc::new(AtomicU64::new(0));
        let (t_stop, t_passes, t_migrated) =
            (stop.clone(), passes.clone(), migrated.clone());
        let handle = std::thread::spawn(move || {
            while !t_stop.load(Ordering::Relaxed) {
                match engine.try_with_write(|db| db.reorganize_all()) {
                    Ok(Ok(n)) => {
                        t_passes.fetch_add(1, Ordering::Relaxed);
                        t_migrated.fetch_add(n, Ordering::Relaxed);
                    }
                    // Database-level refusal (degraded mode): retry
                    // next interval, the failure is recoverable.
                    Ok(Err(_)) => {}
                    // Engine unusable: nothing left to maintain.
                    Err(_) => break,
                }
                // Sleep in slices so stop() stays responsive.
                let mut remaining = interval;
                while !t_stop.load(Ordering::Relaxed)
                    && remaining > Duration::ZERO
                {
                    let slice = remaining.min(Duration::from_millis(10));
                    std::thread::sleep(slice);
                    remaining = remaining.saturating_sub(slice);
                }
            }
        });
        ReorgDaemon {
            stop,
            handle: Some(handle),
            passes,
            migrated,
        }
    }

    fn note_snapshot_read(&self) {
        self.inner.locks.snapshot.fetch_add(1, Ordering::Relaxed);
    }

    fn pager(&self) -> &Pager {
        &self.inner.pager
    }

    fn durable(&self) -> bool {
        self.inner.durable
    }
}

/// Handle to a running background reorganization thread (see
/// [`Engine::spawn_reorg_daemon`]). Dropping it stops the daemon and
/// joins the thread.
pub struct ReorgDaemon {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
    passes: Arc<AtomicU64>,
    migrated: Arc<AtomicU64>,
}

impl ReorgDaemon {
    /// Completed compaction passes over the whole catalog.
    pub fn passes(&self) -> u64 {
        self.passes.load(Ordering::Relaxed)
    }

    /// Total versions migrated to history sidecars by this daemon.
    pub fn migrated(&self) -> u64 {
        self.migrated.load(Ordering::Relaxed)
    }

    /// Signal the daemon and wait for it to finish its current pass.
    pub fn stop(mut self) {
        self.join_inner();
    }

    fn join_inner(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            // A panicked daemon already poisoned the engine; joining
            // must not double-panic the owner.
            let _ = h.join();
        }
    }
}

impl Drop for ReorgDaemon {
    fn drop(&mut self) {
        self.join_inner();
    }
}

/// Verdict of a snapshot-read attempt: served lock-free, or which
/// locked path must handle the statement instead.
enum SnapshotAttempt {
    /// Served from the published read view, no commit lock taken.
    Served(Box<ExecOutput>),
    /// Fall back to the shared-lock read path (which may itself punt
    /// to the write path after binding).
    Locked,
    /// Known multi-variable: go straight to the exclusive path.
    Exclusive,
}

/// Per-session statement limits, applied to every statement the session
/// executes. Defaults to unlimited — the embedded single-user shape.
#[derive(Debug, Clone, Default)]
pub struct SessionLimits {
    /// Per-statement wall-clock budget; reads are interrupted mid-scan,
    /// writes are refused once the budget has already expired.
    pub timeout: Option<Duration>,
    /// Cap on rows a retrieve may produce.
    pub max_rows: Option<u64>,
    /// Refuse `copy` statements (they read/write server-local files; a
    /// network service must not offer that to remote clients).
    pub deny_copy: bool,
}

/// One thread's connection to a shared [`Engine`]. Owns the TQuel range
/// table and its guardrail state; everything else lives in the engine.
pub struct Session {
    engine: Engine,
    ranges: HashMap<String, String>,
    limits: SessionLimits,
    /// Raised by [`Session::cancel_handle`] holders (connection
    /// teardown, server shutdown); sticky until [`Session::clear_cancel`].
    cancel: Arc<AtomicBool>,
}

impl Session {
    /// The engine this session runs against.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// `(hits, misses)` of the engine's statement cache — shared by all
    /// sessions, surfaced here so per-connection stats can report it.
    pub fn plan_cache_stats(&self) -> (u64, u64) {
        self.engine.plan_cache_stats()
    }

    /// Replace this session's statement limits.
    pub fn set_limits(&mut self, limits: SessionLimits) {
        self.limits = limits;
    }

    /// The session's current statement limits.
    pub fn limits(&self) -> &SessionLimits {
        &self.limits
    }

    /// A flag another thread may raise to interrupt this session's
    /// current (and subsequent) statements with [`Error::Canceled`].
    pub fn cancel_handle(&self) -> Arc<AtomicBool> {
        self.cancel.clone()
    }

    /// Lower the cancel flag so the session can execute again.
    pub fn clear_cancel(&self) {
        self.cancel.store(false, Ordering::Relaxed);
    }

    /// The guard enforcing this session's limits on one statement. The
    /// wall-clock budget starts now, so each statement of a program
    /// gets the full per-statement budget.
    fn statement_guard(&self) -> QueryGuard {
        let mut g = QueryGuard::new().with_cancel(self.cancel.clone());
        if let Some(t) = self.limits.timeout {
            g = g.with_timeout(t);
        }
        if let Some(m) = self.limits.max_rows {
            g = g.with_max_rows(m);
        }
        g
    }

    /// Execute a TQuel program; returns the output of the **last**
    /// statement.
    pub fn execute(&mut self, src: &str) -> Result<ExecOutput> {
        let mut last = ExecOutput::default();
        for out in self.execute_all(src)? {
            last = out;
        }
        Ok(last)
    }

    /// Execute a TQuel program; returns every statement's output.
    ///
    /// Programs are looked up in the engine's statement cache by source
    /// text: a repeated program skips the parser, and a repeated
    /// single-statement snapshot retrieve also skips the binder while
    /// the published view and this session's range table are unchanged.
    pub fn execute_all(&mut self, src: &str) -> Result<Vec<ExecOutput>> {
        let prog = self.engine.cached_program(src)?;
        // The bound fast-path only applies to a lone statement: in a
        // multi-statement program an earlier statement may change what
        // a later one binds to.
        let cache = if prog.stmts.len() == 1 {
            Some(&*prog)
        } else {
            None
        };
        prog.stmts
            .iter()
            .map(|s| self.execute_statement_cached(s, cache))
            .collect()
    }

    /// Execute one parsed statement, classified onto the snapshot, read,
    /// or write path.
    pub fn execute_statement(
        &mut self,
        stmt: &Statement,
    ) -> Result<ExecOutput> {
        self.execute_statement_cached(stmt, None)
    }

    fn execute_statement_cached(
        &mut self,
        stmt: &Statement,
        cache: Option<&CachedProgram>,
    ) -> Result<ExecOutput> {
        let guard = self.statement_guard();
        guard.check_now()?;
        if self.limits.deny_copy && matches!(stmt, Statement::Copy(_)) {
            return Err(Error::NotApplicable(
                "copy is disabled on this session (server-local file \
                 access)"
                    .into(),
            ));
        }
        match stmt {
            Statement::Range { var, rel } => {
                self.engine.check_usable()?;
                if self.engine.view().catalog.id_of(rel).is_none() {
                    // Not in the published snapshot — consult the
                    // authoritative catalog under the shared lock
                    // before failing (the relation may be seconds old,
                    // or truly missing).
                    self.engine.try_with_read(|db| {
                        db.catalog().require(rel).map(|_| ())
                    })??;
                }
                self.ranges.insert(var.clone(), rel.clone());
                Ok(ExecOutput::default())
            }
            Statement::Retrieve(r) if r.into.is_none() => {
                match self.try_execute_snapshot(r, &guard, cache)? {
                    SnapshotAttempt::Served(out) => Ok(*out),
                    SnapshotAttempt::Exclusive => {
                        // Known multi-variable: decomposition
                        // materializes temporaries, so it needs the
                        // exclusive side — skip the shared-lock bind.
                        self.execute_write(stmt, &guard)
                    }
                    SnapshotAttempt::Locked => {
                        if let Some(out) =
                            self.try_execute_read(r, &guard)?
                        {
                            return Ok(out);
                        }
                        self.execute_write(stmt, &guard)
                    }
                }
            }
            _ => self.execute_write(stmt, &guard),
        }
    }

    /// Attempt a retrieve against the published read view, entirely off
    /// the commit lock. Returns a fallback verdict when the statement
    /// is not snapshot-eligible: a variable without transaction time
    /// has no version stamps to filter on, an `as of` past the
    /// watermark needs state the view predates, a multi-variable
    /// retrieve in durable mode would stage its temporaries into
    /// neighbors' WAL commits, and any binding or execution error is
    /// re-derived under the lock against the authoritative catalog (a
    /// concurrent `destroy`/`modify` can invalidate the snapshot's
    /// file pointers mid-read).
    fn try_execute_snapshot(
        &self,
        r: &tdbms_tquel::ast::Retrieve,
        guard: &QueryGuard,
        cache: Option<&CachedProgram>,
    ) -> Result<SnapshotAttempt> {
        self.engine.check_usable()?;
        let view = self.engine.view();
        // Binder output is a pure function of (catalog, watermark,
        // ranges). The epoch stands in for the first two — it travels
        // inside the view, so it can't be observed out of step with
        // them — and the range table is compared exactly.
        let cached_bound = cache.and_then(|prog| {
            let slot =
                prog.bound.lock().unwrap_or_else(PoisonError::into_inner);
            slot.as_ref()
                .filter(|cb| {
                    cb.epoch == view.epoch
                        && ranges_sorted(&self.ranges) == cb.ranges
                })
                .map(|cb| cb.bound.clone())
        });
        let fresh = cached_bound.is_none();
        let bound = match cached_bound {
            Some(b) => b,
            None => {
                let binder = Binder {
                    catalog: &view.catalog,
                    ranges: &self.ranges,
                    now: view.watermark,
                };
                match binder.bind_retrieve(r) {
                    Ok(b) => b,
                    Err(_) => return Ok(SnapshotAttempt::Locked),
                }
            }
        };
        let multi = bound.vars.len() >= 2;
        let locked = if multi {
            SnapshotAttempt::Exclusive
        } else {
            SnapshotAttempt::Locked
        };
        if !bound.vars.iter().all(|v| v.class.has_transaction_time()) {
            return Ok(locked);
        }
        match &bound.visibility {
            Some(vis) if vis.through <= view.watermark => {}
            _ if bound.vars.is_empty() => {}
            _ => return Ok(locked),
        }
        if multi && self.engine.durable() {
            return Ok(SnapshotAttempt::Exclusive);
        }
        let pager = self.engine.pager();
        if view.cold {
            pager.invalidate_buffers()?;
        }
        // No reset_stats here: counters are global and other sessions
        // may be mid-statement. Report monotone-counter deltas instead.
        let before = pager.stats().totals();
        let executed = if multi {
            let mut local = view.catalog.clone();
            exec_retrieve_snapshot(pager, &mut local, &bound, guard)
        } else {
            exec_retrieve_readonly(pager, &view.catalog, &bound, guard)
        };
        let result = match executed {
            Ok(res) => res,
            // A guard firing is final — the budget is spent, so
            // retrying under the lock would only burn more of the
            // writer's time before timing out again.
            Err(e) if QueryGuard::is_guard_error(&e) => return Err(e),
            Err(_) => return Ok(locked),
        };
        // Served successfully: remember the binding for the next run of
        // the same statement text (only worth writing when fresh).
        if fresh {
            if let Some(prog) = cache {
                *prog
                    .bound
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner) =
                    Some(CachedBound {
                        epoch: view.epoch,
                        ranges: ranges_sorted(&self.ranges),
                        bound,
                    });
            }
        }
        self.engine.note_snapshot_read();
        let after = pager.stats().totals();
        Ok(SnapshotAttempt::Served(Box::new(ExecOutput {
            affected: result.rows.len(),
            columns: result.columns,
            rows: result.rows,
            stats: QueryStats {
                input_pages: after.reads.saturating_sub(before.reads),
                output_pages: after.writes.saturating_sub(before.writes),
                buffer_hits: after.hits.saturating_sub(before.hits),
                evictions: after.evictions.saturating_sub(before.evictions),
                phases: Vec::new(),
            },
        })))
    }

    /// Attempt the statement under the shared lock. Returns `Ok(None)`
    /// when the retrieve turns out to be multi-variable and must be
    /// re-run exclusively.
    fn try_execute_read(
        &mut self,
        r: &tdbms_tquel::ast::Retrieve,
        guard: &QueryGuard,
    ) -> Result<Option<ExecOutput>> {
        let db = self.engine.read()?;
        let now = db.clock().tick();
        let bound = {
            let binder = Binder {
                catalog: db.catalog(),
                ranges: &self.ranges,
                now,
            };
            binder.bind_retrieve(r)?
        };
        if bound.vars.len() >= 2 {
            return Ok(None);
        }
        if db.cold_statements() {
            db.pager().invalidate_buffers()?;
        }
        // No reset_stats here: counters are global and other readers may
        // be mid-statement. Report monotone-counter deltas instead.
        let before = db.io_stats().totals();
        let result = exec_retrieve_readonly(
            db.pager(),
            db.catalog(),
            &bound,
            guard,
        )?;
        let after = db.io_stats().totals();
        Ok(Some(ExecOutput {
            affected: result.rows.len(),
            columns: result.columns,
            rows: result.rows,
            stats: QueryStats {
                input_pages: after.reads.saturating_sub(before.reads),
                output_pages: after.writes.saturating_sub(before.writes),
                buffer_hits: after.hits.saturating_sub(before.hits),
                evictions: after.evictions.saturating_sub(before.evictions),
                phases: Vec::new(),
            },
        }))
    }

    /// Execute under the exclusive lock via the single-threaded engine,
    /// with this session's ranges swapped in; then republish the read
    /// view and (under group commit) acknowledge off the lock.
    fn execute_write(
        &mut self,
        stmt: &Statement,
        guard: &QueryGuard,
    ) -> Result<ExecOutput> {
        let mut db = self.engine.write()?;
        std::mem::swap(db.ranges_mut(), &mut self.ranges);
        let out = db.execute_statement_guarded(stmt, guard);
        std::mem::swap(db.ranges_mut(), &mut self.ranges);
        self.engine.publish_view(&db);
        let pending = db.take_pending_commit();
        drop(db);
        let out = out?;
        if let Some((ticket, drops)) = pending {
            self.engine.ack_commit(ticket, drops)?;
        }
        Ok(out)
    }
}

/// A session's range table in canonical (sorted) order, for exact
/// comparison against a cached binding's.
fn ranges_sorted(
    ranges: &HashMap<String, String>,
) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> =
        ranges.iter().map(|(k, r)| (k.clone(), r.clone())).collect();
    v.sort();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn seeded_db() -> Database {
        let mut db = Database::in_memory();
        db.set_cold_statements(false);
        db.execute(
            "create temporal interval emp (name = c20, salary = i4)",
        )
        .unwrap();
        for i in 0..32 {
            db.execute(&format!(
                r#"append to emp (name = "e{i}", salary = {})"#,
                1000 + i
            ))
            .unwrap();
        }
        db
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Engine>();
        assert_send_sync::<Session>();
    }

    #[test]
    fn session_matches_database_results() {
        let mut db = seeded_db();
        let want = db
            .execute("range of e is emp\nretrieve (e.name, e.salary) where e.salary > 1010")
            .unwrap();
        let engine = Engine::new(seeded_db());
        let mut s = engine.session();
        let got = s
            .execute("range of e is emp\nretrieve (e.name, e.salary) where e.salary > 1010")
            .unwrap();
        assert_eq!(want.rows(), got.rows());
        assert_eq!(want.columns, got.columns);
        assert_eq!(want.affected, got.affected);
    }

    #[test]
    fn sessions_have_independent_range_tables() {
        let engine = Engine::new(seeded_db());
        engine.with_write(|db| {
            db.execute("create static dept (dname = c20)").unwrap();
            db.execute(r#"append to dept (dname = "eng")"#).unwrap();
        });
        let mut a = engine.session();
        let mut b = engine.session();
        a.execute("range of x is emp").unwrap();
        b.execute("range of x is dept").unwrap();
        let ra = a.execute("retrieve (x.name)").unwrap();
        let rb = b.execute("retrieve (x.dname)").unwrap();
        assert_eq!(ra.affected, 32);
        assert_eq!(rb.affected, 1);
    }

    #[test]
    fn parallel_readers_and_writers_stay_consistent() {
        let engine = Engine::new(seeded_db());
        let hits = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let engine = engine.clone();
                let hits = &hits;
                scope.spawn(move || {
                    let mut s = engine.session();
                    s.execute("range of e is emp").unwrap();
                    for i in 0..16 {
                        if t == 0 && i % 4 == 0 {
                            s.execute(&format!(
                                r#"append to emp (name = "w{i}", salary = 1)"#
                            ))
                            .unwrap();
                        } else {
                            let out = s
                                .execute("retrieve (e.salary) where e.salary > 1000")
                                .unwrap();
                            hits.fetch_add(out.affected, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert!(hits.load(Ordering::Relaxed) > 0);
        // Accounting survived the contention.
        engine.with_read(|db| assert!(db.io_stats().is_consistent()));
        // The writes all landed.
        let mut s = engine.session();
        s.execute("range of e is emp").unwrap();
        let out =
            s.execute("retrieve (e.name) where e.salary = 1").unwrap();
        assert_eq!(out.affected, 4);
    }

    #[test]
    fn temporal_reads_never_touch_the_commit_lock() {
        let engine = Engine::new(seeded_db());
        let base = engine.lock_stats();
        let mut s = engine.session();
        s.execute("range of e is emp").unwrap();
        for _ in 0..8 {
            s.execute("retrieve (e.salary) where e.salary > 1000")
                .unwrap();
        }
        // A temporal join is snapshot-eligible too (non-durable mode).
        s.execute("range of f is emp").unwrap();
        let joined = s
            .execute(
                "retrieve (e.name, f.name) \
                 where e.salary = 1000 and f.salary = 1001",
            )
            .unwrap();
        assert_eq!(joined.affected, 1);
        let now = engine.lock_stats();
        assert_eq!(
            now.shared, base.shared,
            "snapshot reads must not take the shared commit lock"
        );
        assert_eq!(
            now.exclusive, base.exclusive,
            "snapshot reads must not take the exclusive commit lock"
        );
        assert_eq!(now.snapshot_reads - base.snapshot_reads, 9);
    }

    #[test]
    fn repeated_statements_hit_the_plan_cache() {
        let engine = Engine::new(seeded_db());
        let mut s = engine.session();
        s.execute("range of e is emp").unwrap();
        let q = "retrieve (e.salary) where e.salary > 1000";
        let first = s.execute(q).unwrap();
        let (h0, m0) = engine.plan_cache_stats();
        for _ in 0..7 {
            let again = s.execute(q).unwrap();
            assert_eq!(again.rows(), first.rows());
        }
        let (h1, m1) = engine.plan_cache_stats();
        assert_eq!(h1 - h0, 7, "repeats must be cache hits");
        assert_eq!(m1, m0, "repeats must not miss");
    }

    #[test]
    fn cached_bindings_die_with_the_published_view() {
        let engine = Engine::new(seeded_db());
        let mut s = engine.session();
        s.execute("range of e is emp").unwrap();
        let q = "retrieve (e.name) where e.salary = 5555";
        assert_eq!(s.execute(q).unwrap().affected, 0);
        // Warm the cached binding, then commit a write that the stale
        // binding's watermark would filter out if it were replayed.
        assert_eq!(s.execute(q).unwrap().affected, 0);
        s.execute(r#"append to emp (name = "late", salary = 5555)"#)
            .unwrap();
        assert_eq!(
            s.execute(q).unwrap().affected,
            1,
            "a commit must invalidate cached bindings"
        );
    }

    #[test]
    fn cached_bindings_respect_the_session_range_table() {
        let engine = Engine::new(seeded_db());
        engine.with_write(|db| {
            db.execute(
                "create temporal interval emp2 (name = c20, salary = i4)",
            )
            .unwrap();
            db.execute(r#"append to emp2 (name = "only", salary = 1)"#)
                .unwrap();
        });
        let mut a = engine.session();
        a.execute("range of e is emp").unwrap();
        let q = "retrieve (e.name)";
        assert_eq!(a.execute(q).unwrap().affected, 32);
        assert_eq!(a.execute(q).unwrap().affected, 32); // warm
                                                        // Same statement text, different binding in a second session.
        let mut b = engine.session();
        b.execute("range of e is emp2").unwrap();
        assert_eq!(
            b.execute(q).unwrap().affected,
            1,
            "cached binding must not leak across range tables"
        );
        assert_eq!(a.execute(q).unwrap().affected, 32);
    }

    #[test]
    fn snapshot_reads_see_every_published_commit() {
        let engine = Engine::new(seeded_db());
        let mut w = engine.session();
        let mut r = engine.session();
        w.execute("range of e is emp").unwrap();
        r.execute("range of e is emp").unwrap();
        for i in 0..8 {
            w.execute(&format!(
                r#"append to emp (name = "n{i}", salary = 7777)"#
            ))
            .unwrap();
            let out = r
                .execute("retrieve (e.name) where e.salary = 7777")
                .unwrap();
            assert_eq!(out.affected, i + 1, "append {i} must be visible");
        }
    }

    #[test]
    fn writer_panic_poisons_the_engine_for_all_sessions() {
        let engine = Engine::new(seeded_db());
        let mut s = engine.session();
        s.execute("range of e is emp").unwrap();
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.with_write(|_| panic!("writer dies mid-commit"))
            }));
        assert!(caught.is_err());
        // Every path fails loudly now: snapshot, shared, exclusive.
        let read = s.execute("retrieve (e.salary) where e.salary = 1000");
        assert_eq!(read.unwrap_err(), Error::Poisoned);
        let write = s.execute(r#"append to emp (name = "x", salary = 1)"#);
        assert_eq!(write.unwrap_err(), Error::Poisoned);
        let range = s.execute("range of q is emp");
        assert_eq!(range.unwrap_err(), Error::Poisoned);
        assert!(engine.try_with_read(|db| db.relation_names()).is_err());
    }
}
