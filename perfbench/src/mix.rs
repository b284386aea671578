//! The closed loop of the keyed workloads, and the tally every workload
//! keeps its counters and latencies in.
//!
//! Each client sends its next statement only after the previous reply
//! arrived. A run is a fixed amount of work: every client runs a fixed
//! number of untimed warm-up statements and then a fixed number of
//! timed ones, so every run walks the same sequence of database states
//! and only the wall time varies. Clients meet at a barrier after the
//! warm-up while the main thread snapshots the engine counters, and
//! again between timed blocks while it runs untimed maintenance (the
//! keyed-mix reorganization passes). In a traced run, alternate blocks
//! of [`TRACE_BLOCK`] statements run under spans, so traced and
//! untraced latencies come from the same interleaving and their ratio
//! is the tracing overhead.

use crate::gen::{Kind, MixSpec, Stmt, StmtGen};
use crate::stats::{median, quantile, ratio, sorted, Metrics};
use crate::trace::{Recorder, Span};
use std::collections::HashMap;
use std::sync::Barrier;
use std::time::{Duration, Instant};
use tdbms_core::{Engine, ExecOutput, LockStats, QueryStats, Session};
use tdbms_kernel::{Result, Value};

/// Statements per traced/untraced block in a traced run.
pub const TRACE_BLOCK: u64 = 64;
/// Every this many statements, a client keeps one for the replay.
const SAMPLE_EVERY: u64 = 25;
/// Replay samples kept per client.
const SAMPLE_CAP: usize = 400;
/// Correctness failures kept verbatim (the rest are counted).
const FAILURE_CAP: usize = 20;

/// Page accesses (hits and reads) of one named phase of a statement.
pub fn phase_accesses(s: &QueryStats, name: &str) -> u64 {
    let p = s.scoped(name);
    p.reads + p.hits
}

/// What one executed statement returned, whichever path served it.
#[derive(Debug, Default)]
pub struct Observed {
    pub rows: Vec<Vec<Value>>,
    pub affected: u64,
    pub input_pages: u64,
    pub output_pages: u64,
    pub hits: u64,
    pub evictions: u64,
    pub decomp_pages: u64,
    pub subst_pages: u64,
    pub wal_writes: u64,
    /// Whether the statement ran the decomposition phases (a join).
    pub phased: bool,
}

impl Observed {
    /// From an embedded statement's output.
    pub fn from_output(out: ExecOutput) -> Self {
        let s = &out.stats;
        let mut o = Observed {
            affected: out.affected as u64,
            input_pages: s.input_pages,
            output_pages: s.output_pages,
            hits: s.buffer_hits,
            evictions: s.evictions,
            decomp_pages: phase_accesses(s, "decomposition"),
            subst_pages: phase_accesses(s, "substitution"),
            wal_writes: s.scoped("wal").writes,
            phased: s.phases.iter().any(|p| p.name == "decomposition"),
            ..Observed::default()
        };
        o.rows = out.into_rows();
        o
    }
}

/// Counters and samples of one client (or a merged run).
#[derive(Default)]
pub struct Tally {
    /// Untraced latencies per kind, nanoseconds.
    pub lat_ns: [Vec<f64>; 4],
    /// Latencies of statements run under spans, nanoseconds.
    pub traced_ns: [Vec<f64>; 4],
    pub attempted: u64,
    pub failed: u64,
    pub input_pages: u64,
    pub output_pages: u64,
    pub hits: u64,
    pub evictions: u64,
    pub retrieves: u64,
    pub rows: u64,
    pub joins: u64,
    pub decomp_pages: u64,
    pub subst_pages: u64,
    pub writes: u64,
    pub wal_writes: u64,
    pub hot_reads: u64,
    pub hot_read_accesses: u64,
    pub asof_reads: u64,
    pub asof_accesses: u64,
    /// Acknowledged replaces per `(variable, key)`.
    pub acked: HashMap<(char, i64), u64>,
    pub failures: Vec<String>,
    pub failure_count: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, msg: String) {
        self.failure_count += 1;
        if self.failures.len() < FAILURE_CAP {
            self.failures.push(msg);
        }
    }

    /// Statements that completed.
    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Count a statement that failed.
    pub fn refused(&mut self, text: &str, e: impl std::fmt::Display) {
        self.failed += 1;
        if self.errors.len() < FAILURE_CAP {
            self.errors.push(format!("{text}: {e}"));
        }
    }

    /// Add a completed statement's pages and rows: a replace when
    /// `write`, otherwise a retrieve (a join when `join`).
    pub fn count(&mut self, o: &Observed, write: bool, join: bool) {
        self.input_pages += o.input_pages;
        self.output_pages += o.output_pages;
        self.hits += o.hits;
        self.evictions += o.evictions;
        if write {
            self.writes += 1;
            self.wal_writes += o.wal_writes;
            return;
        }
        self.retrieves += 1;
        self.rows += o.rows.len() as u64;
        if join {
            self.joins += 1;
            self.decomp_pages += o.decomp_pages;
            self.subst_pages += o.subst_pages;
        }
    }

    /// Account one statement's outcome and check its answer.
    pub fn record(
        &mut self,
        st: &Stmt,
        res: Result<Observed>,
        ns: u64,
        traced: bool,
    ) {
        self.attempted += 1;
        let o = match res {
            Ok(o) => o,
            Err(e) => return self.refused(&st.text, e),
        };
        if traced {
            self.traced_ns[st.kind.idx()].push(ns as f64);
        } else {
            self.lat_ns[st.kind.idx()].push(ns as f64);
        }
        self.count(&o, st.kind == Kind::Write, st.kind == Kind::Join);
        let accesses = o.input_pages + o.hits;
        match st.kind {
            Kind::Write => {
                if o.affected == 1 {
                    *self.acked.entry(('h', st.key)).or_default() += 1;
                } else {
                    self.fail(format!(
                        "{} replaced {} versions",
                        st.text, o.affected
                    ));
                }
            }
            kind => {
                let ok = o.rows.len() == 1
                    && o.rows[0].first() == Some(&Value::Int(st.key));
                if !ok {
                    self.fail(format!("{} returned {:?}", st.text, o.rows));
                }
                match kind {
                    Kind::Read if st.hot => {
                        self.hot_reads += 1;
                        self.hot_read_accesses += accesses;
                    }
                    Kind::AsOf => {
                        self.asof_reads += 1;
                        self.asof_accesses += accesses;
                    }
                    _ => {}
                }
            }
        }
    }

    pub fn absorb(&mut self, o: Tally) {
        for k in 0..4 {
            self.lat_ns[k].extend_from_slice(&o.lat_ns[k]);
            self.traced_ns[k].extend_from_slice(&o.traced_ns[k]);
        }
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.input_pages += o.input_pages;
        self.output_pages += o.output_pages;
        self.hits += o.hits;
        self.evictions += o.evictions;
        self.retrieves += o.retrieves;
        self.rows += o.rows;
        self.joins += o.joins;
        self.decomp_pages += o.decomp_pages;
        self.subst_pages += o.subst_pages;
        self.writes += o.writes;
        self.wal_writes += o.wal_writes;
        self.hot_reads += o.hot_reads;
        self.hot_read_accesses += o.hot_read_accesses;
        self.asof_reads += o.asof_reads;
        self.asof_accesses += o.asof_accesses;
        for (k, n) in o.acked {
            *self.acked.entry(k).or_default() += n;
        }
        self.failure_count += o.failure_count;
        for f in o.failures {
            if self.failures.len() < FAILURE_CAP {
                self.failures.push(f);
            }
        }
        for e in o.errors {
            if self.errors.len() < FAILURE_CAP {
                self.errors.push(e);
            }
        }
    }

    /// Median and p90 latency of every kind over the timed statements.
    pub fn latency_metrics(&self, m: &mut Metrics) {
        for k in Kind::ALL {
            let xs = sorted(&self.lat_ns[k.idx()]);
            let (p50, p90, _) = latency_names(k);
            m.set(p50, quantile(&xs, 0.5) / 1e3, "us");
            m.set(p90, quantile(&xs, 0.9) / 1e3, "us");
        }
    }

    /// The p99 latency of every kind, a per-layer metric without a
    /// bound (on a shared 2-core machine it moved 30–90 % between
    /// identical runs); the sample counts go to standard error.
    pub fn tail_metrics(&self, m: &mut Metrics) {
        for k in Kind::ALL {
            let xs = sorted(&self.lat_ns[k.idx()]);
            m.set(latency_names(k).2, quantile(&xs, 0.99) / 1e3, "us");
            eprintln!("  {:<6} samples: {:>8}", k.name(), xs.len());
        }
    }

    /// `query_s` and `update_s`: the summed latency of the timed
    /// retrieves and of the timed replaces, times `scale`.
    pub fn time_metrics(&self, m: &mut Metrics, scale: f64) {
        let sum = |kinds: &[Kind]| -> f64 {
            kinds
                .iter()
                .map(|k| self.lat_ns[k.idx()].iter().sum::<f64>())
                .sum::<f64>()
                * scale
                / 1e9
        };
        m.set("query_s", sum(&[Kind::Read, Kind::AsOf, Kind::Join]), "s");
        m.set("update_s", sum(&[Kind::Write]), "s");
    }

    /// The storage, core, history and wal layer metrics this tally can
    /// give.
    pub fn layer_metrics(&self, m: &mut Metrics) {
        let n = self.completed() as f64;
        let accesses = (self.input_pages + self.hits) as f64;
        m.set("storage.accesses_per_stmt", ratio(accesses, n), "pages");
        m.set(
            "storage.hit_rate",
            ratio(self.hits as f64, accesses),
            "ratio",
        );
        m.set(
            "storage.reads_per_stmt",
            ratio(self.input_pages as f64, n),
            "pages",
        );
        m.set(
            "storage.writes_per_stmt",
            ratio(self.output_pages as f64, n),
            "pages",
        );
        m.set(
            "storage.evictions_per_stmt",
            ratio(self.evictions as f64, n),
            "pages",
        );
        m.set(
            "core.rows_per_stmt",
            ratio(self.rows as f64, self.retrieves as f64),
            "rows",
        );
        m.set(
            "core.decomp_pages",
            ratio(self.decomp_pages as f64, self.joins as f64),
            "pages",
        );
        m.set(
            "core.subst_pages",
            ratio(self.subst_pages as f64, self.joins as f64),
            "pages",
        );
        m.set(
            "history.hot_read_pages",
            ratio(self.hot_read_accesses as f64, self.hot_reads as f64),
            "pages",
        );
        m.set(
            "history.asof_read_pages",
            ratio(self.asof_accesses as f64, self.asof_reads as f64),
            "pages",
        );
        m.set(
            "wal.pages_per_commit",
            ratio(self.wal_writes as f64, self.writes as f64),
            "pages",
        );
        m.set(
            "wal.write_share",
            ratio(self.wal_writes as f64, self.output_pages as f64),
            "ratio",
        );
    }

    /// Traced ÷ untraced median latency of the statements of `kind`,
    /// minus 1.
    pub fn overhead(&self, kind: Kind) -> f64 {
        let k = kind.idx();
        ratio(median(&self.traced_ns[k]), median(&self.lat_ns[k])) - 1.0
    }
}

/// `(p50, p90, p99)` metric names of a kind.
fn latency_names(k: Kind) -> (&'static str, &'static str, &'static str) {
    match k {
        Kind::Read => ("read_p50_us", "read_p90_us", "read_p99_us"),
        Kind::AsOf => ("asof_p50_us", "asof_p90_us", "asof_p99_us"),
        Kind::Write => ("write_p50_us", "write_p90_us", "write_p99_us"),
        Kind::Join => ("join_p50_us", "join_p90_us", "join_p99_us"),
    }
}

/// Root-span name of a client statement of `kind`.
fn root_span(k: Kind) -> &'static str {
    match k {
        Kind::Read => "client.read",
        Kind::AsOf => "client.asof",
        Kind::Write => "client.write",
        Kind::Join => "client.join",
    }
}

/// One client's connection, embedded or over the wire.
pub trait ClientExec: Send {
    /// Name of the span around [`ClientExec::exec`].
    const SPAN: &'static str;
    fn exec(&mut self, text: &str) -> Result<Observed>;
}

/// An embedded session.
pub struct SessionExec(pub Session);

impl ClientExec for SessionExec {
    const SPAN: &'static str = "engine.execute";
    fn exec(&mut self, text: &str) -> Result<Observed> {
        self.0.execute(text).map(Observed::from_output)
    }
}

/// What one client brings back from the loop.
pub struct ClientRun<C> {
    pub exec: C,
    /// One tally per timed block (the first also holds what the warm-up
    /// left: acknowledged writes and failures).
    pub tallies: Vec<Tally>,
    pub spans: Vec<Span>,
    /// Statements kept for the replay, in the order they were sent.
    pub samples: Vec<Stmt>,
}

/// Everything the closed loop produced.
pub struct LoopRun<C> {
    pub clients: Vec<ClientRun<C>>,
    /// Timed wall time of each block: from its start to the last
    /// client's last reply in it.
    pub block_elapsed: Vec<Duration>,
    /// Whatever `at_start` returned.
    pub at_start: LockStats,
}

impl<C> LoopRun<C> {
    /// `qps`, the p50 and p90 latency of every kind, and `query_s` and
    /// `update_s` (scaled from a block to the whole run), each the
    /// median over the timed blocks: the machine's slow bursts, which
    /// hit some blocks and not others, move them less than they move
    /// figures over the whole run.
    pub fn timed_metrics(&self, m: &mut Metrics) {
        let n = self.block_elapsed.len();
        let blocks: Vec<Metrics> = (0..n)
            .map(|b| {
                let mut t = Tally::default();
                for c in &self.clients {
                    let o = &c.tallies[b];
                    for k in 0..4 {
                        t.lat_ns[k].extend_from_slice(&o.lat_ns[k]);
                    }
                    t.attempted += o.attempted;
                    t.failed += o.failed;
                }
                let mut mb = Metrics::default();
                let secs = self.block_elapsed[b].as_secs_f64();
                mb.set("qps", ratio(t.completed() as f64, secs), "stmt/s");
                t.latency_metrics(&mut mb);
                t.time_metrics(&mut mb, n as f64);
                mb
            })
            .collect();
        m.set_medians(&blocks);
    }

    /// Every client's every block in one tally.
    pub fn tally(&mut self) -> Tally {
        let mut t = Tally::default();
        for c in &mut self.clients {
            for b in c.tallies.drain(..) {
                t.absorb(b);
            }
        }
        t
    }

    pub fn spans(&mut self) -> Vec<Span> {
        self.clients
            .iter_mut()
            .flat_map(|c| std::mem::take(&mut c.spans))
            .collect()
    }

    pub fn samples(&self) -> Vec<Stmt> {
        self.clients
            .iter()
            .flat_map(|c| c.samples.clone())
            .collect()
    }
}

/// Run the closed loop: each of `execs` runs `warm_ops` untimed
/// statements, the clients meet, `at_start` snapshots the engine
/// counters, and each client then runs `ops` timed statements in
/// `blocks` equal blocks. Between two blocks the clients wait while
/// `pause` runs; its time is not part of the timed wall time.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop<C: ClientExec>(
    execs: Vec<C>,
    spec: &MixSpec,
    seed: u64,
    warm_ops: u64,
    ops: u64,
    blocks: u64,
    traced: bool,
    epoch: Instant,
    at_start: impl FnOnce() -> LockStats,
    mut pause: impl FnMut(),
) -> LoopRun<C> {
    let n = execs.len();
    let blocks = blocks.clamp(1, ops.max(1));
    let ready = Barrier::new(n + 1);
    let go = Barrier::new(n + 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = execs
            .into_iter()
            .enumerate()
            .map(|(c, mut exec)| {
                let (ready, go) = (&ready, &go);
                s.spawn(move || {
                    let mut gen = StmtGen::new(spec, seed, c as u64);
                    let mut warm = Tally::default();
                    for _ in 0..warm_ops {
                        let st = gen.next_stmt();
                        let res = exec.exec(&st.text);
                        warm.record(&st, res, 0, false);
                    }
                    // Only the warm-up's effects carry over.
                    let mut carry = Tally {
                        acked: warm.acked,
                        failures: warm.failures,
                        failure_count: warm.failure_count,
                        errors: warm.errors,
                        ..Tally::default()
                    };
                    let mut tallies = Vec::new();
                    let mut rec = Recorder::new(epoch, c as u64 + 1);
                    let mut samples = Vec::new();
                    let mut block = 0;
                    for i in 0..ops {
                        // Block b starts at statement ops * b / blocks.
                        while block < blocks && i >= ops * block / blocks {
                            ready.wait();
                            go.wait();
                            block += 1;
                            tallies.push(std::mem::take(&mut carry));
                        }
                        let tally = tallies
                            .last_mut()
                            .expect("block 0 starts at 0");
                        let st = gen.next_stmt();
                        let req = ((c as u64 + 1) << 40) | i;
                        let under_spans =
                            traced && (i / TRACE_BLOCK) % 2 == 1;
                        let t0 = Instant::now();
                        let res = if under_spans {
                            let root =
                                rec.begin(root_span(st.kind), 0, req);
                            let parent = rec.id(&root);
                            let (res, _) =
                                rec.time(C::SPAN, parent, req, || {
                                    exec.exec(&st.text)
                                });
                            rec.end(root);
                            res
                        } else {
                            exec.exec(&st.text)
                        };
                        let ns = t0.elapsed().as_nanos() as u64;
                        tally.record(&st, res, ns, under_spans);
                        if traced
                            && i % SAMPLE_EVERY == 0
                            && samples.len() < SAMPLE_CAP
                        {
                            samples.push(st);
                        }
                    }
                    ready.wait();
                    ClientRun {
                        exec,
                        tallies,
                        spans: rec.into_spans(),
                        samples,
                    }
                })
            })
            .collect();
        ready.wait();
        let locks = at_start();
        go.wait();
        let mut block_elapsed = Vec::new();
        let mut start = Instant::now();
        for _ in 1..blocks {
            ready.wait();
            block_elapsed.push(start.elapsed());
            pause();
            go.wait();
            start = Instant::now();
        }
        ready.wait();
        block_elapsed.push(start.elapsed());
        let clients: Vec<ClientRun<C>> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        LoopRun {
            clients,
            block_elapsed,
            at_start: locks,
        }
    })
}

/// Check that every key of both relations has exactly one current
/// version whose `seq` equals `expected` for it; returns the failures.
pub fn check_final(
    var: char,
    keys: i64,
    rows: &[Vec<Value>],
    expected: &HashMap<(char, i64), u64>,
) -> Vec<String> {
    let mut seen = vec![false; keys as usize + 1];
    let mut bad = Vec::new();
    for r in rows {
        let (Some(Value::Int(id)), Some(Value::Int(seq))) =
            (r.first(), r.get(1))
        else {
            bad.push(format!("{var}: malformed row {r:?}"));
            continue;
        };
        let want = expected.get(&(var, *id)).copied().unwrap_or(0);
        if !(1..=keys).contains(id) || seen[*id as usize] {
            bad.push(format!("{var}: unexpected or repeated key {id}"));
            continue;
        }
        seen[*id as usize] = true;
        if *seq as u64 != want {
            bad.push(format!(
                "{var}.id = {id}: seq {seq}, acknowledged {want}"
            ));
        }
    }
    let missing = seen[1..].iter().filter(|s| !**s).count();
    if missing > 0 {
        bad.push(format!("{var}: {missing} keys have no current version"));
    }
    bad.truncate(FAILURE_CAP);
    bad
}

/// Engine counters per statement over the timed window.
pub fn lock_metrics(
    m: &mut Metrics,
    before: LockStats,
    after: LockStats,
    t: &Tally,
) {
    let n = t.completed() as f64;
    m.set(
        "engine.shared_per_stmt",
        ratio((after.shared - before.shared) as f64, n),
        "count",
    );
    m.set(
        "engine.exclusive_per_stmt",
        ratio((after.exclusive - before.exclusive) as f64, n),
        "count",
    );
    m.set(
        "engine.snapshot_frac",
        ratio(
            (after.snapshot_reads - before.snapshot_reads) as f64,
            t.retrieves as f64,
        ),
        "ratio",
    );
}

/// Build an [`Engine`] session with the `h`/`i` range variables.
pub fn session_on(
    engine: &Engine,
    rel_h: &str,
    rel_i: &str,
) -> Result<Session> {
    let mut s = engine.session();
    s.execute(&format!("range of h is {rel_h}\nrange of i is {rel_i}"))?;
    Ok(s)
}
