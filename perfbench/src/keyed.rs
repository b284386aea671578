//! `keyed-mix`: an embedded [`Engine`] with two sessions and warm
//! statements over two temporal relations of 100,000 keys (hash `h`,
//! ISAM `i`), 90 % of operations on a 1,000-key hot set, and a
//! reorganization pass between blocks of them.

use crate::gen::{current, Kind, MixSpec};
use crate::mix::{
    check_final, closed_loop, lock_metrics, session_on, SessionExec,
};
use crate::replay::replay;
use crate::stats::{median, ratio};
use crate::trace::Recorder;
use crate::{space_amp, Opts, Outcome, CLIENTS, WARM_SHARE};
use std::time::Instant;
use tdbms_core::{BufferConfig, Database, Engine, EvictionPolicy};
use tdbms_kernel::{Clock, Prng, Result, TemporalAttr, TimeVal, Value};

/// Keys per relation.
pub const KEYS: i64 = 100_000;
/// Size of the hot set.
pub const HOT_KEYS: usize = 1_000;
/// Buffer frames (1 KiB pages) per file: the hot set's ~1,000 primary
/// pages per relation plus their version chains fit; each relation's
/// ~12,500 pages do not.
pub const FRAMES: usize = 4_096;
/// Timed statements (both clients) between reorganization passes. A
/// pass rebuilds both relations under the commit lock (~1.5 s here) and
/// would stall every writer for its whole length, so it runs between
/// timed blocks while the clients wait, paced by statements: a timer's
/// pass count follows the machine's speed.
pub const REORG_EVERY: u64 = 20_000;
/// Reference rate (statements per second, both clients) that sizes a
/// run's statement count. At `--seconds 20` the timed statements take
/// ~15 s on a 2-vCPU VM (the rate a run reaches depends on its length,
/// since chains grow between passes).
const RATE: f64 = 8_000.0;
const REL_H: &str = "keyed_h";
const REL_I: &str = "keyed_i";
/// Set-ups before and after the timed statements; `setup_s` is the
/// median of all of them. Set-up time drifts with the machine over
/// seconds, so samples from both ends of the run steady the median.
const SETUPS_BEFORE: usize = 4;
const SETUPS_AFTER: usize = 5;

fn spec(seed: u64) -> MixSpec {
    MixSpec {
        keys: KEYS,
        hot: Vec::new(),
        hot_pct: 90,
        pct: [70, 10, 15, 5],
        asof_day: "1980-03-01",
        asof_after_hour: 1,
    }
    .with_hot_set(seed, HOT_KEYS)
}

/// The two relations, loaded and organized, every version current.
fn build(seed: u64) -> Result<Database> {
    let mut db = Database::in_memory_with_buffers(BufferConfig {
        default_frames: FRAMES,
        policy: EvictionPolicy::Lru,
        per_file: Vec::new(),
    });
    db.set_clock(Clock::new(TimeVal::from_ymd(1980, 3, 1)?, 60));
    db.set_cold_statements(false);
    let mut rng = Prng::seed_from_u64(seed ^ 0x6b65_7965_645f_6d78);
    let jan2 = TimeVal::from_ymd(1980, 1, 2)?.as_secs();
    let feb15 = TimeVal::from_ymd(1980, 2, 15)?.as_secs();
    for (rel, method) in [(REL_H, "hash"), (REL_I, "isam")] {
        db.execute(&format!(
            "create temporal interval {rel} (id = i4, amount = i4, seq = i4, string = c96)"
        ))?;
        let schema = db.schema_of(rel)?;
        let rows: Vec<Vec<Value>> = (1..=KEYS)
            .map(|id| {
                let string: String = (0..12)
                    .map(|_| rng.random_range(b'a'..=b'z') as char)
                    .collect();
                let start =
                    TimeVal::from_secs(rng.random_range(jan2..feb15));
                let mut row = vec![
                    Value::Int(id),
                    Value::Int(rng.random_range(0i64..1000) * 100),
                    Value::Int(0),
                    Value::Str(string),
                ];
                for t in schema.implicit_attrs() {
                    row.push(Value::Time(match t {
                        TemporalAttr::ValidTo
                        | TemporalAttr::TransactionStop => TimeVal::FOREVER,
                        _ => start,
                    }));
                }
                row
            })
            .collect();
        db.bulk_load_rows(rel, &rows)?;
        db.execute(&format!(
            "modify {rel} to {method} on id where fillfactor = 100"
        ))?;
    }
    Ok(db)
}

/// The set-up `setup_s` times: both relations built, an engine over
/// them, and the clients' sessions opened.
fn set_up(seed: u64) -> Result<(Engine, Vec<SessionExec>)> {
    let engine = Engine::new(build(seed)?);
    let sessions = (0..CLIENTS)
        .map(|_| session_on(&engine, REL_H, REL_I).map(SessionExec))
        .collect::<Result<Vec<_>>>()?;
    Ok((engine, sessions))
}

pub fn run(o: &Opts) -> Result<Outcome> {
    let mut out = Outcome::default();
    let spec = spec(o.seed);
    let mut setups = Vec::new();
    let mut engine = None;
    for _ in 0..SETUPS_BEFORE {
        drop(engine.take());
        let t0 = Instant::now();
        engine = Some(set_up(o.seed)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let (engine, sessions) = engine.expect("at least one set-up");

    let before = std::cell::Cell::new((0, 0));
    let ops = o.ops_per_client(RATE);
    // One pass over every relation (`Database::reorganize_all` under
    // the commit lock, the work of one `Engine::spawn_reorg_daemon`
    // period) after every REORG_EVERY timed statements.
    let blocks = (CLIENTS as u64 * ops).div_ceil(REORG_EVERY);
    let (mut pass_ms, mut migrated, mut pass_err) = (Vec::new(), 0, None);
    let mut run = closed_loop(
        sessions,
        &spec,
        o.seed,
        (ops as f64 * WARM_SHARE) as u64,
        ops,
        blocks,
        o.trace,
        o.epoch,
        || {
            before.set(engine.plan_cache_stats());
            engine.lock_stats()
        },
        || {
            let t0 = Instant::now();
            match engine.try_with_write(|db| db.reorganize_all()) {
                Ok(Ok(n)) => {
                    migrated += n;
                    pass_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                }
                Ok(Err(e)) | Err(e) => {
                    pass_err.get_or_insert(e);
                }
            }
        },
    );
    if let Some(e) = pass_err {
        return Err(e);
    }
    let locks_after = engine.lock_stats();
    let (hits, misses) = engine.plan_cache_stats();
    let (hits0, misses0) = before.get();
    // One last pass at quiescence, so the verification below always
    // starts from a just-compacted state.
    engine.try_with_write(|db| db.reorganize_all())??;
    run.timed_metrics(&mut out.metrics);
    let mut t = run.tally();
    t.tail_metrics(&mut out.metrics);
    t.layer_metrics(&mut out.metrics);
    lock_metrics(&mut out.metrics, run.at_start, locks_after, &t);
    crate::loop_metrics(&mut out.metrics, &t);
    let (hits, misses) = (hits - hits0, misses - misses0);
    out.metrics.set(
        "plan.cache_hit_rate",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
    );
    out.metrics
        .set("history.reorg_passes", pass_ms.len() as f64, "count");
    out.metrics
        .set("history.rows_migrated", migrated as f64, "count");
    out.metrics
        .set("history.reorg_pass_ms", median(&pass_ms), "ms");

    let mut rec = Recorder::new(o.epoch, 0);
    if o.trace {
        let samples: Vec<_> = run.samples();
        let r =
            replay(&engine, REL_H, REL_I, &samples, false, true, &mut rec)?;
        crate::probe::metrics(&mut out.metrics, &r.probed);
        if let Some((decomp, subst)) = r.join_phases {
            out.metrics.set("core.decomp_pages", decomp, "pages");
            out.metrics.set("core.subst_pages", subst, "pages");
        }
        out.metrics.set(
            "trace.overhead_frac",
            t.overhead(Kind::Read),
            "ratio",
        );
    }
    out.spans = run.spans();

    // Engine-wide counters over the whole run, read at quiescence.
    engine.with_read(|db| {
        let io = db.io_stats();
        out.metrics.set(
            "storage.bloom_skip_rate",
            ratio(
                io.bloom_skips() as f64,
                (io.bloom_hits() + io.bloom_skips()) as f64,
            ),
            "ratio",
        );
        out.metrics.set(
            "storage.readahead_pages",
            io.readahead_pages() as f64,
            "pages",
        );
        out.metrics.set(
            "space_amp",
            space_amp(db, &[REL_H, REL_I]),
            "ratio",
        );
    });

    // Every key's current version carries exactly the acknowledged
    // replaces.
    let mut verify = session_on(&engine, REL_H, REL_I)?;
    for var in ['h', 'i'] {
        let rows = verify.execute(&format!(
            "retrieve ({var}.id, {var}.seq) when {}",
            current(var)
        ))?;
        t.failures
            .extend(check_final(var, KEYS, rows.rows(), &t.acked));
    }
    out.stmts += 2;

    if !engine.with_read(|db| db.io_stats().is_consistent()) {
        t.fail("I/O ledger unbalanced: hits + misses != accesses".into());
    }
    out.absorb_tally(t);

    drop(engine);
    for _ in 0..SETUPS_AFTER {
        let t0 = Instant::now();
        let again = set_up(o.seed)?;
        setups.push(t0.elapsed().as_secs_f64());
        drop(again);
    }
    out.metrics.set("setup_s", median(&setups), "s");
    Ok(out)
}
