//! `wire-durable`: an in-process [`Server`] configured as
//! `tdbms-server DIR --durable` configures it — a durable database,
//! `Engine::new`, `ServerConfig::default()`, no group commit, the
//! shipped cold one-frame buffers — driven by two [`Client`]
//! connections. The two 1,024-tuple paper relations are loaded over the
//! wire; keys are uniform.
//!
//! The page files and the write-ahead log live in memory
//! (`Database::open_durable_on` over a shared in-memory disk and log):
//! every commit still appends to the log and syncs it, but the sync
//! costs what a tmpfs would, not what the checkout's disk charges (on a
//! shared virtual disk that moved write latency by ±40 % between runs).
//! After shutdown the same storage is reopened through recovery and
//! audited.

use crate::gen::{current, Kind, MixSpec};
use crate::mix::{
    check_final, closed_loop, lock_metrics, ClientExec, Observed,
};
use crate::replay::replay;
use crate::stats::{median, ratio, Metrics};
use crate::trace::Recorder;
use crate::{Opts, Outcome, CLIENTS, WARM_SHARE};
use std::thread::JoinHandle;
use std::time::Instant;
use tdbms_bench::BenchConfig;
use tdbms_core::{Database, Engine, LockStats};
use tdbms_kernel::{DatabaseClass, Error, Prng, Result};
use tdbms_net::wire::{decode_response, encode_request, encode_response};
use tdbms_net::{
    Client, Reply, Request, Response, Server, ServerConfig, ServerHandle,
    ServerStats,
};
use tdbms_storage::SharedMemDisk;
use tdbms_wal::SharedMemLog;

/// Tuples per relation (the paper's 1,024).
const TUPLES: i64 = 1_024;
/// Appends per request while loading.
const BATCH: i64 = 64;
/// Set-ups before and after the timed statements; `setup_s` is the
/// median of all of them (spread over the run, as the machine's slow
/// spells last seconds).
const SETUPS_BEFORE: usize = 8;
const SETUPS_AFTER: usize = 8;
/// Reference rate (statements per second, both clients) that sizes a
/// run's statement count. At `--seconds 20` the timed statements take
/// ~30 s on a 2-vCPU VM (the rate falls as the version chains grow).
const RATE: f64 = 5_000.0;
/// Timed blocks; the end-to-end time metrics are medians over them.
const BLOCKS: u64 = 10;
/// Every this many statements, a client keeps its request and reply
/// for the wire-format timings.
const PAYLOAD_EVERY: u64 = 16;

fn spec() -> MixSpec {
    MixSpec {
        keys: TUPLES,
        hot: Vec::new(),
        hot_pct: 0,
        pct: [50, 10, 35, 5],
        // Loading over the wire takes ~2,060 statements of the default
        // one-minute clock, so every tuple exists from 10:20 on 3/2.
        asof_day: "1980-03-02",
        asof_after_hour: 12,
    }
}

/// A running server over durable in-memory storage.
struct Live {
    disk: SharedMemDisk,
    log: SharedMemLog,
    addr: String,
    engine: Engine,
    handle: ServerHandle,
    thread: JoinHandle<Result<ServerStats>>,
}

impl Live {
    fn start() -> Result<Live> {
        let (disk, log) = (SharedMemDisk::new(), SharedMemLog::new());
        let db = Database::open_durable_on(
            Box::new(disk.clone()),
            Box::new(log.clone()),
            None,
        )?;
        let engine = Engine::new(db);
        let server = Server::bind(
            engine.clone(),
            "127.0.0.1:0",
            ServerConfig::default(),
        )?;
        let addr = server.local_addr()?.to_string();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Live {
            disk,
            log,
            addr,
            engine,
            handle,
            thread,
        })
    }

    /// Drain and checkpoint, then reopen the storage the way a restart
    /// does (log replay included).
    fn stop(self) -> Result<(Database, ServerStats)> {
        self.handle.shutdown();
        let stats = self.thread.join().map_err(|_| {
            Error::Internal("server thread panicked".into())
        })??;
        drop(self.engine);
        let db = Database::open_durable_on(
            Box::new(self.disk),
            Box::new(self.log),
            None,
        )?;
        Ok((db, stats))
    }
}

/// Create and load both relations over the wire, then organize them.
fn load(c: &mut Client, cfg: &BenchConfig, seed: u64) -> Result<()> {
    let mut rng = Prng::seed_from_u64(seed ^ 0x7769_7265_5f6c_6f61);
    for (rel, method) in [(cfg.rel_h(), "hash"), (cfg.rel_i(), "isam")] {
        c.query(&format!(
            "create temporal interval {rel} (id = i4, amount = i4, seq = i4, string = c96)"
        ))?;
        let mut batch = String::new();
        for id in 1..=TUPLES {
            let amount = rng.random_range(0i64..1000) * 100;
            let string: String = (0..12)
                .map(|_| rng.random_range(b'a'..=b'z') as char)
                .collect();
            batch.push_str(&format!(
                "append to {rel} (id = {id}, amount = {amount}, seq = 0, string = \"{string}\")\n"
            ));
            if id % BATCH == 0 || id == TUPLES {
                c.query(&batch)?;
                batch.clear();
            }
        }
        c.query(&format!(
            "modify {rel} to {method} on id where fillfactor = {}",
            cfg.fillfactor
        ))?;
    }
    Ok(())
}

fn connect(addr: &str, cfg: &BenchConfig) -> Result<Client> {
    let mut c = Client::connect(addr)?;
    c.query(&format!(
        "range of h is {}\nrange of i is {}",
        cfg.rel_h(),
        cfg.rel_i()
    ))?;
    Ok(c)
}

/// One wire client; keeps a sample of its requests and replies.
struct WireExec {
    client: Client,
    n: u64,
    payloads: Vec<(String, Reply)>,
}

impl ClientExec for WireExec {
    const SPAN: &'static str = "net.round_trip";
    fn exec(&mut self, text: &str) -> Result<Observed> {
        let reply = self.client.query(text)?;
        self.n += 1;
        if self.n.is_multiple_of(PAYLOAD_EVERY)
            && self.payloads.len() < 2_000
        {
            self.payloads.push((text.to_string(), reply.clone()));
        }
        Ok(Observed {
            affected: reply.affected,
            input_pages: reply.input_pages,
            output_pages: reply.output_pages,
            rows: reply.rows,
            ..Observed::default()
        })
    }
}

/// The set-up `setup_s` times: fresh durable storage and server, both
/// relations loaded over the wire, and the clients connected.
fn set_up(
    cfg: &BenchConfig,
    seed: u64,
) -> Result<(Live, Client, Vec<WireExec>)> {
    let live = Live::start()?;
    let mut admin = Client::connect(live.addr.as_str())?;
    load(&mut admin, cfg, seed)?;
    let clients = (0..CLIENTS)
        .map(|_| {
            connect(&live.addr, cfg).map(|client| WireExec {
                client,
                n: 0,
                payloads: Vec::new(),
            })
        })
        .collect::<Result<Vec<_>>>()?;
    Ok((live, admin, clients))
}

fn wire_locks(c: &mut Client) -> Result<(LockStats, (u64, u64))> {
    let s = c.stats()?;
    Ok((
        LockStats {
            shared: s.shared,
            exclusive: s.exclusive,
            snapshot_reads: s.snapshot_reads,
        },
        (s.plan_hits, s.plan_misses),
    ))
}

pub fn run(o: &Opts) -> Result<Outcome> {
    let mut out = Outcome::default();
    let cfg = BenchConfig::new(DatabaseClass::Temporal, 100);
    let (rel_h, rel_i) = (cfg.rel_h(), cfg.rel_i());
    let spec = spec();

    let mut setups = Vec::new();
    let mut live: Option<(Live, _, _)> = None;
    for _ in 0..SETUPS_BEFORE {
        if let Some((prev, _, _)) = live.take() {
            prev.stop()?;
        }
        let t0 = Instant::now();
        live = Some(set_up(&cfg, o.seed)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let (live, mut admin, clients) = live.expect("at least one set-up");

    let plan_before = std::cell::Cell::new((0, 0));
    let ops = o.ops_per_client(RATE);
    let mut run = closed_loop(
        clients,
        &spec,
        o.seed,
        (ops as f64 * WARM_SHARE) as u64,
        ops,
        BLOCKS,
        o.trace,
        o.epoch,
        || {
            let (locks, plan) = wire_locks(&mut admin)
                .expect("stats before the timed window");
            plan_before.set(plan);
            locks
        },
        || {},
    );
    let (locks_after, plan_after) = wire_locks(&mut admin)?;
    run.timed_metrics(&mut out.metrics);
    let mut t = run.tally();
    t.tail_metrics(&mut out.metrics);
    crate::loop_metrics(&mut out.metrics, &t);
    lock_metrics(&mut out.metrics, run.at_start, locks_after, &t);
    let (h0, m0) = plan_before.get();
    let (hits, misses) = (plan_after.0 - h0, plan_after.1 - m0);
    out.metrics.set(
        "plan.cache_hit_rate",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
    );

    let mut rec = Recorder::new(o.epoch, 0);
    if o.trace {
        trace_layers(
            &mut out.metrics,
            &mut run,
            &live.engine,
            &rel_h,
            &rel_i,
            &mut t,
            &mut rec,
        )?;
    } else {
        t.layer_metrics(&mut out.metrics);
    }
    out.spans = run.spans();
    out.spans.extend(rec.into_spans());
    out.metrics.set(
        "space_amp",
        live.engine
            .with_read(|db| crate::space_amp(db, &[&rel_h, &rel_i])),
        "ratio",
    );

    // Every key's current version carries exactly the acknowledged
    // replaces, read over the wire.
    let mut admin = connect(&live.addr, &cfg)?;
    for var in ['h', 'i'] {
        let reply = admin.query(&format!(
            "retrieve ({var}.id, {var}.seq) when {}",
            current(var)
        ))?;
        t.failures
            .extend(check_final(var, TUPLES, &reply.rows, &t.acked));
    }
    out.stmts += 2;
    drop(admin);

    if !live.engine.with_read(|db| db.io_stats().is_consistent()) {
        t.fail("I/O ledger unbalanced: hits + misses != accesses".into());
    }
    drop(run);
    // After drain and shutdown, the reopened storage must audit clean
    // and still hold every acknowledged write.
    let (mut db, server) = live.stop()?;
    if server.panics_caught > 0 {
        t.fail(format!(
            "server caught {} handler panics",
            server.panics_caught
        ));
    }
    let (pager, catalog, _) = db.internals();
    let report = tdbms_check::check_database(pager, catalog)?;
    if !report.is_clean() {
        t.fail(format!(
            "tdbms-check audit not clean:\n{}",
            report.render()
        ));
    }
    db.execute(&format!("range of h is {rel_h}\nrange of i is {rel_i}"))?;
    for var in ['h', 'i'] {
        let rows = db.execute(&format!(
            "retrieve ({var}.id, {var}.seq) when {}",
            current(var)
        ))?;
        t.failures
            .extend(check_final(var, TUPLES, rows.rows(), &t.acked));
    }
    out.absorb_tally(t);

    for _ in 0..SETUPS_AFTER {
        let t0 = Instant::now();
        let (again, _, _) = set_up(&cfg, o.seed)?;
        setups.push(t0.elapsed().as_secs_f64());
        again.stop()?;
    }
    out.metrics.set("setup_s", median(&setups), "s");
    Ok(out)
}

/// The traced run's wire-format, in-process and layer metrics.
#[allow(clippy::too_many_arguments)]
fn trace_layers(
    m: &mut Metrics,
    run: &mut crate::mix::LoopRun<WireExec>,
    engine: &Engine,
    rel_h: &str,
    rel_i: &str,
    t: &mut crate::mix::Tally,
    rec: &mut Recorder,
) -> Result<()> {
    // Wire format on the recorded payloads.
    let payloads: Vec<(String, Reply)> = run
        .clients
        .iter_mut()
        .flat_map(|c| std::mem::take(&mut c.exec.payloads))
        .collect();
    let max = ServerConfig::default().max_reply_bytes;
    let (mut enc, mut dec, mut bytes) = (Vec::new(), Vec::new(), 0usize);
    for (n, (stmt, reply)) in payloads.iter().enumerate() {
        let req = (1 << 61) | n as u64;
        let request = Request::Query {
            stmt: stmt.clone(),
            timeout_ms: 0,
            max_rows: 0,
        };
        let (_, ns) =
            rec.time("net.encode", 0, req, || encode_request(&request));
        enc.push(ns as f64);
        let payload = encode_response(&Response::Rows(reply.clone()), max);
        bytes += payload.len();
        let (decoded, ns) =
            rec.time("net.decode", 0, req, || decode_response(&payload));
        decoded?;
        dec.push(ns as f64);
    }
    m.set("net.encode_us", median(&enc) / 1e3, "us");
    m.set("net.decode_us", median(&dec) / 1e3, "us");
    m.set(
        "net.reply_bytes",
        ratio(bytes as f64, payloads.len() as f64),
        "bytes",
    );

    // The sampled statements again, in process on the server's engine:
    // their own I/O ledgers give the storage, core and wal layers, and
    // their read latency is the wire's baseline.
    let samples = run.samples();
    let r = replay(engine, rel_h, rel_i, &samples, true, false, rec)?;
    crate::probe::metrics(m, &r.probed);
    r.tally.layer_metrics(m);
    let wire_read = median(&t.lat_ns[Kind::Read.idx()]);
    let local_read = median(&r.tally.lat_ns[Kind::Read.idx()]);
    m.set("net.self_us", (wire_read - local_read) / 1e3, "us");
    m.set("trace.overhead_frac", t.overhead(Kind::Read), "ratio");
    for (k, n) in &r.tally.acked {
        *t.acked.entry(*k).or_default() += n;
    }
    t.failures.extend(r.tally.failures.iter().cloned());
    t.attempted += r.tally.attempted;
    t.failed += r.tally.failed;
    Ok(())
}
