//! `paper-sweep`: the paper's Figure 3/4 benchmark in paper mode — the
//! eight databases of 1,024 tuples, uniform update rounds from update
//! count 0 to 14, and every applicable Q01–Q12 at each update count,
//! one client, one buffer frame per relation, cold statements.
//!
//! The data is the paper workload's own (fixed generator seed); the
//! run's seed orders the databases and the queries at each update
//! count, which cold statements make irrelevant to page counts. Page
//! counts are therefore exact: every run checks them against the
//! Figure 6 closed forms and against the totals pinned in
//! `pinned/paper_pages.txt`. Each query runs three times back to back
//! and is timed by the median. A run makes as many sweeps, each on
//! fresh databases, as fill `--seconds`.

use crate::gen::Kind;
use crate::mix::{Observed, Tally};
use crate::probe::{probe, ranges};
use crate::stats::{median, quantile, ratio, sorted};
use crate::trace::Recorder;
use crate::{Opts, Outcome};
use std::collections::BTreeMap;
use std::time::Instant;
use tdbms_bench::{build_database, queries_for, BenchConfig, BenchQuery};
use tdbms_core::{Database, ExecOutput};
use tdbms_kernel::{DatabaseClass, Prng, Result};

/// Highest update count (the paper's reporting point).
pub const MAX_UC: u32 = 14;
/// Builds of the eight databases after each database's part of a sweep;
/// `setup_s` is the median of these, the warm-up's build and each
/// sweep's own. The time of a build moves with the machine between fast
/// and slow spells of a fraction of a second to seconds, so the builds
/// are spread over the whole run.
const SETUPS_PER_DB: usize = 5;
/// Wall time of one sweep on a 2-vCPU VM; a run makes
/// `--seconds` ÷ this many sweeps, rounded up, each on fresh databases.
/// The machine's slow spells last seconds, so a longer run spreads less.
const SWEEP_SECONDS: f64 = 14.0;
/// Back-to-back executions of every query at every update count; its
/// time is their median.
const REPEATS: usize = 3;
/// The pinned per-query and per-database page totals.
const PINS: &str = include_str!("../pinned/paper_pages.txt");

/// The latency class of a paper query: Q05/Q06 are keyed current
/// retrieves, Q03/Q04 time-travel retrieves, Q09/Q10 joins.
fn kind_of(id: &str) -> Option<Kind> {
    match id {
        "Q05" | "Q06" => Some(Kind::Read),
        "Q03" | "Q04" => Some(Kind::AsOf),
        "Q09" | "Q10" => Some(Kind::Join),
        _ => None,
    }
}

fn db_name(cfg: &BenchConfig) -> String {
    format!("{}{}", cfg.class, cfg.fillfactor)
}

struct PaperDb {
    cfg: BenchConfig,
    name: String,
    db: Database,
    queries: Vec<BenchQuery>,
}

fn build_all() -> Vec<PaperDb> {
    BenchConfig::all()
        .into_iter()
        .map(|cfg| PaperDb {
            cfg,
            name: db_name(&cfg),
            db: build_database(&cfg),
            queries: queries_for(cfg.class),
        })
        .collect()
}

/// The exact page counts of one sweep.
#[derive(Default, PartialEq, Eq, Debug)]
pub struct Counts {
    /// Input pages per `(database, query)`, summed over update counts.
    pub query_pages: BTreeMap<(String, &'static str), u64>,
    /// Input pages of the update rounds per database.
    pub update_pages: BTreeMap<String, u64>,
    /// `storage.*` totals over every statement.
    pub storage: BTreeMap<&'static str, u64>,
}

impl Counts {
    /// The `storage.*` totals of a sweep's statements.
    fn set_storage(&mut self, t: &Tally) {
        self.storage = BTreeMap::from([
            ("accesses", t.input_pages + t.hits),
            ("hits", t.hits),
            ("reads", t.input_pages),
            ("writes", t.output_pages),
            ("evictions", t.evictions),
        ]);
    }

    /// The pin file's text for these counts.
    pub fn render(&self) -> String {
        let mut s = String::from(
            "# Exact page totals of one paper-sweep (update counts 0..=14).\n\
             # query <database> <query> <input pages summed over update counts>\n\
             # update <database> <input pages of all update rounds>\n\
             # storage <counter> <total over every statement>\n\
             # Regenerate with: cargo run --release --manifest-path \
             perfbench/Cargo.toml -- --print-pins\n",
        );
        for ((db, q), v) in &self.query_pages {
            s.push_str(&format!("query {db} {q} {v}\n"));
        }
        for (db, v) in &self.update_pages {
            s.push_str(&format!("update {db} {v}\n"));
        }
        for (k, v) in &self.storage {
            s.push_str(&format!("storage {k} {v}\n"));
        }
        s
    }

    /// Differences against the pinned file.
    fn diff_pins(&self) -> Vec<String> {
        let mine = self.render();
        let strip = |t: &str| -> Vec<String> {
            t.lines()
                .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
                .map(str::to_owned)
                .collect()
        };
        let (want, got) = (strip(PINS), strip(&mine));
        let mut bad: Vec<String> = want
            .iter()
            .filter(|l| !got.contains(l))
            .map(|l| format!("pinned `{l}` not measured"))
            .collect();
        bad.extend(
            got.iter()
                .filter(|l| !want.contains(l))
                .map(|l| format!("measured `{l}` not pinned")),
        );
        bad
    }
}

/// Figure 6's closed forms for the temporal database at 100 % loading.
fn figure6(uc: u32, id: &str, input: u64) -> Option<String> {
    let n = u64::from(uc);
    let want = match id {
        "Q01" | "Q05" => 2 * n + 1,
        "Q02" | "Q06" => 2 * n + 2,
        "Q03" | "Q04" | "Q07" | "Q08" => 128 + 256 * n,
        "Q11" if uc == 0 => 3 * 128,
        _ => return None,
    };
    (input != want).then(|| format!("temporal100 {id} at UC {uc}: {input} pages, Figure 6 gives {want}"))
}

/// Everything one sweep measured.
#[derive(Default)]
struct Sweep {
    counts: Counts,
    /// Every statement's pages and rows, and the latencies of the update
    /// statements and of the queries [`kind_of`] classifies.
    tally: Tally,
    query_ns: u64,
    update_ns: u64,
    failures: Vec<String>,
    // Traced runs only.
    q_errors: Vec<f64>,
    traced_query_ns: u64,
    untraced_twin_ns: u64,
    /// `(Database::execute ns, probe)` of every traced query.
    probes: Vec<(u64, crate::probe::Probe)>,
    space_amp: f64,
}

impl Sweep {
    /// Add another sweep's measurements; the counts stay this one's.
    fn absorb(&mut self, o: Sweep) {
        self.tally.absorb(o.tally);
        self.query_ns += o.query_ns;
        self.update_ns += o.update_ns;
        self.failures.extend(o.failures);
        self.q_errors.extend(o.q_errors);
        self.traced_query_ns += o.traced_query_ns;
        self.untraced_twin_ns += o.untraced_twin_ns;
        self.probes.extend(o.probes);
        self.space_amp = o.space_amp;
    }
}

fn q_error(est: u64, act: u64) -> f64 {
    let (e, a) = (est.max(1) as f64, act.max(1) as f64);
    (e / a).max(a / e)
}

/// Run `text` [`REPEATS`] times back to back; returns the first output
/// and the median time. Cold statements make the executions identical
/// in pages, which is checked.
fn repeated(
    pdb: &mut PaperDb,
    text: &str,
    what: &dyn Fn() -> String,
    failures: &mut Vec<String>,
) -> Result<(ExecOutput, u64)> {
    let mut times = Vec::with_capacity(REPEATS);
    let mut first: Option<ExecOutput> = None;
    for _ in 0..REPEATS {
        let t0 = Instant::now();
        let out = pdb.db.execute(text)?;
        times.push(t0.elapsed().as_nanos() as f64);
        match &first {
            None => first = Some(out),
            Some(f) if f.stats != out.stats => failures
                .push(format!("{}: repeated run read other pages", what())),
            Some(_) => {}
        }
    }
    Ok((first.expect("REPEATS > 0"), median(&times) as u64))
}

/// The sweep, database by database (in a seeded order, each dropped
/// when done, so one database's pages are live at a time): at every
/// update count, the update round, then the queries in a seeded order,
/// each run [`REPEATS`] times and timed by the median. `after_db` runs
/// after each database.
fn sweep(
    dbs: Vec<PaperDb>,
    rng: &mut Prng,
    traced: bool,
    rec: &mut Recorder,
    mut after_db: impl FnMut(),
) -> Sweep {
    let mut w = Sweep::default();
    let mut req = 0u64;
    let mut dbs: Vec<Option<PaperDb>> = dbs.into_iter().map(Some).collect();
    let mut order: Vec<usize> = (0..dbs.len()).collect();
    rng.shuffle(&mut order);
    let (mut stored, mut rows) = (0.0, 0.0);
    for d in order {
        let mut pdb = dbs[d].take().expect("each database once");
        let name = pdb.name.clone();
        let queries = pdb.queries.clone();
        for uc in 0..=MAX_UC {
            if uc > 0 {
                for var in ["h", "i"] {
                    let text =
                        format!("replace {var} (seq = {var}.seq + 1)");
                    w.tally.attempted += 1;
                    let t0 = Instant::now();
                    let out = match pdb.db.execute(&text) {
                        Ok(out) => out,
                        Err(e) => {
                            w.tally.refused(&format!("{name}: {text}"), e);
                            continue;
                        }
                    };
                    let ns = t0.elapsed().as_nanos() as u64;
                    w.update_ns += ns;
                    w.tally.lat_ns[Kind::Write.idx()].push(ns as f64);
                    *w.counts
                        .update_pages
                        .entry(name.clone())
                        .or_default() += out.stats.input_pages;
                    w.tally.count(&Observed::from_output(out), true, false);
                }
            }
            let mut qs: Vec<usize> = (0..queries.len()).collect();
            rng.shuffle(&mut qs);
            for q in qs {
                let (id, text) = (queries[q].id, &queries[q].tquel);
                let what = || format!("{name} {id} at UC {uc}");
                w.tally.attempted += 1;
                let (out, ns) = match repeated(
                    &mut pdb,
                    text,
                    &what,
                    &mut w.failures,
                ) {
                    Ok(r) => r,
                    Err(e) => {
                        w.tally.refused(&what(), e);
                        continue;
                    }
                };
                w.query_ns += ns;
                if let Some(k) = kind_of(id) {
                    w.tally.lat_ns[k.idx()].push(ns as f64);
                }
                let input = out.stats.input_pages;
                *w.counts
                    .query_pages
                    .entry((name.clone(), id))
                    .or_default() += input;
                if pdb.cfg == BenchConfig::new(DatabaseClass::Temporal, 100)
                {
                    w.failures.extend(figure6(uc, id, input));
                }
                let o = Observed::from_output(out);
                w.tally.count(&o, false, o.phased);
                if traced {
                    req += 1;
                    if let Err(e) = traced_twin(
                        &mut pdb, text, req, ns, input, rec, &mut w,
                    ) {
                        w.failures
                            .push(format!("{}: traced twin: {e}", what()));
                    }
                }
            }
        }
        let (s, r) = crate::space_parts(
            &pdb.db,
            &[&pdb.cfg.rel_h(), &pdb.cfg.rel_i()],
        );
        stored += s;
        rows += r;
        drop(pdb);
        after_db();
    }
    w.space_amp = ratio(stored, rows);
    w.counts.set_storage(&w.tally);
    w
}

/// A traced run's extra work per query: the query once more under
/// spans (its time against the untraced median gives the tracing
/// overhead; its pages must not change), then the layer probes.
fn traced_twin(
    pdb: &mut PaperDb,
    text: &str,
    req: u64,
    untraced_ns: u64,
    input: u64,
    rec: &mut Recorder,
    w: &mut Sweep,
) -> Result<()> {
    let t0 = Instant::now();
    let root = rec.begin("client.query", 0, req);
    let parent = rec.id(&root);
    let (out, engine_ns) =
        rec.time("engine.execute", parent, req, || pdb.db.execute(text));
    rec.end(root);
    w.traced_query_ns += t0.elapsed().as_nanos() as u64;
    w.untraced_twin_ns += untraced_ns;
    if out?.stats.input_pages != input {
        w.failures.push(format!(
            "{}: traced run read other pages: {text}",
            pdb.name
        ));
    }
    let table = ranges(&pdb.cfg.rel_h(), &pdb.cfg.rel_i());
    let p = probe(&mut pdb.db, &table, text, rec, req)?;
    w.q_errors.push(q_error(p.est_input, input));
    w.probes.push((engine_ns, p));
    Ok(())
}

/// Run the sweep once and return its exact counts (for `--print-pins`).
pub fn counts_once() -> Counts {
    let mut rec = Recorder::new(Instant::now(), 0);
    let mut rng = Prng::seed_from_u64(0);
    sweep(build_all(), &mut rng, false, &mut rec, || {}).counts
}

pub fn run(o: &Opts) -> Result<Outcome> {
    let mut out = Outcome::default();
    let mut rng = Prng::seed_from_u64(o.seed);
    let mut rec = Recorder::new(o.epoch, 0);
    let mut setups = Vec::new();

    // Warm-up: one set of databases runs its update-count-0 queries.
    let t0 = Instant::now();
    let mut warm = build_all();
    setups.push(t0.elapsed().as_secs_f64());
    for pdb in &mut warm {
        for q in &pdb.queries {
            // A failure here fails again, and is counted, in the sweep.
            let _ = pdb.db.execute(&q.tquel);
        }
    }
    drop(warm);

    // The timed sweeps, each on fresh databases and checked against
    // the pins on its own.
    let sweeps = (o.seconds / SWEEP_SECONDS).ceil().max(1.0) as usize;
    let mut w = Sweep::default();
    for _ in 0..sweeps {
        let t0 = Instant::now();
        let dbs = build_all();
        setups.push(t0.elapsed().as_secs_f64());
        let one = sweep(dbs, &mut rng, o.trace, &mut rec, || {
            for _ in 0..SETUPS_PER_DB {
                let t0 = Instant::now();
                let again = build_all();
                setups.push(t0.elapsed().as_secs_f64());
                drop(again);
            }
        });
        out.failures
            .extend(one.counts.diff_pins().into_iter().take(20));
        w.absorb(one);
    }

    let m = &mut out.metrics;
    m.set("setup_s", median(&setups), "s");
    m.set("query_s", w.query_ns as f64 / 1e9, "s");
    m.set("update_s", w.update_ns as f64 / 1e9, "s");
    let busy_s = (w.query_ns + w.update_ns) as f64 / 1e9;
    m.set("qps", ratio(w.tally.completed() as f64, busy_s), "stmt/s");
    m.set("space_amp", w.space_amp, "ratio");
    let t = &w.tally;
    t.latency_metrics(m);
    t.tail_metrics(m);
    t.layer_metrics(m);
    crate::loop_metrics(m, t);
    if o.trace {
        let qe = sorted(&w.q_errors);
        m.set("plan.q_error_p50", quantile(&qe, 0.5), "ratio");
        m.set(
            "plan.q_error_max",
            qe.last().copied().unwrap_or(0.0),
            "ratio",
        );
        crate::probe::metrics(m, &w.probes);
        m.set(
            "trace.overhead_frac",
            ratio(w.traced_query_ns as f64, w.untraced_twin_ns as f64)
                - 1.0,
            "ratio",
        );
    }

    out.failures.append(&mut w.failures);
    out.spans = rec.into_spans();
    out.absorb_tally(w.tally);
    Ok(out)
}
