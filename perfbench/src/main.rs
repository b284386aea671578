//! `perfbench` — the repository's benchmark.
//!
//! ```text
//! perfbench --workload paper-sweep|keyed-mix|wire-durable --seed N
//!           --seconds S --trace 0|1
//! perfbench --print-pins
//! ```
//!
//! Runs one workload from a fresh database and prints, as the last line
//! of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Exits nonzero when any
//! correctness check fails. `METRICS.md` describes every metric and
//! workload.

mod gen;
mod keyed;
mod mix;
mod paper;
mod probe;
mod replay;
mod stats;
mod trace;
mod wire;

use stats::{ratio, Metrics};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use tdbms_core::Database;
use tdbms_storage::page::PAGE_SIZE;

/// Closed-loop clients of the keyed workloads (the box's core count).
pub const CLIENTS: usize = 2;

/// The end-to-end metrics, printed by untraced runs.
pub const END_TO_END: [(&str, &str); 15] = [
    ("setup_s", "s"),
    ("qps", "stmt/s"),
    ("read_p50_us", "us"),
    ("read_p90_us", "us"),
    ("asof_p50_us", "us"),
    ("asof_p90_us", "us"),
    ("write_p50_us", "us"),
    ("write_p90_us", "us"),
    ("join_p50_us", "us"),
    ("join_p90_us", "us"),
    ("query_s", "s"),
    ("update_s", "s"),
    ("pages_per_stmt", "pages"),
    ("space_amp", "ratio"),
    ("success_rate", "ratio"),
];

/// The per-layer metrics, printed by traced runs. A metric that does
/// not apply to a workload reads 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("read_p99_us", "us"),
    ("asof_p99_us", "us"),
    ("write_p99_us", "us"),
    ("join_p99_us", "us"),
    ("tquel.parse_us", "us"),
    ("plan.cache_hit_rate", "ratio"),
    ("plan.estimate_us", "us"),
    ("plan.q_error_p50", "ratio"),
    ("plan.q_error_max", "ratio"),
    ("core.bind_us", "us"),
    ("core.exec_us", "us"),
    ("core.decomp_pages", "pages"),
    ("core.subst_pages", "pages"),
    ("core.rows_per_stmt", "rows"),
    ("engine.self_us", "us"),
    ("engine.snapshot_frac", "ratio"),
    ("engine.shared_per_stmt", "count"),
    ("engine.exclusive_per_stmt", "count"),
    ("storage.accesses_per_stmt", "pages"),
    ("storage.hit_rate", "ratio"),
    ("storage.reads_per_stmt", "pages"),
    ("storage.writes_per_stmt", "pages"),
    ("storage.evictions_per_stmt", "pages"),
    ("storage.bloom_skip_rate", "ratio"),
    ("storage.readahead_pages", "pages"),
    ("history.reorg_passes", "count"),
    ("history.rows_migrated", "count"),
    ("history.reorg_pass_ms", "ms"),
    ("history.hot_read_pages", "pages"),
    ("history.asof_read_pages", "pages"),
    ("wal.pages_per_commit", "pages"),
    ("wal.write_share", "ratio"),
    ("net.encode_us", "us"),
    ("net.decode_us", "us"),
    ("net.reply_bytes", "bytes"),
    ("net.self_us", "us"),
    ("trace.overhead_frac", "ratio"),
];

/// One run's settings.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Traced run: spans on, per-layer metrics out.
    pub trace: bool,
    /// Where the span artifact goes (inside the checkout).
    pub run_dir: PathBuf,
    /// Time zero of every span.
    pub epoch: Instant,
}

impl Opts {
    /// Timed statements per client of a closed-loop workload whose
    /// reference rate (all clients, statements per second) is `rate`:
    /// `--seconds` × `rate`, shared by the clients.
    pub fn ops_per_client(&self, rate: f64) -> u64 {
        ((self.seconds * rate / CLIENTS as f64) as u64).max(1)
    }
}

/// Untimed warm-up statements per client, as a share of its timed ones.
pub const WARM_SHARE: f64 = 0.05;

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Extra statements outside the tally (verification, update rounds).
    pub stmts: u64,
    pub failures: Vec<String>,
    pub spans: Vec<trace::Span>,
}

impl Outcome {
    /// Fold a closed-loop tally into the outcome.
    pub fn absorb_tally(&mut self, t: mix::Tally) {
        self.attempted += t.attempted;
        self.failed += t.failed;
        self.failures.extend(t.failures);
        if t.failure_count as usize > self.failures.len() {
            self.failures.push(format!(
                "… {} correctness failures in all",
                t.failure_count
            ));
        }
        for e in t.errors {
            eprintln!("statement failed: {e}");
        }
    }
}

/// `(bytes stored, bytes of version rows)` of `rels`: primary plus
/// history pages at the page size, against every version's row width.
pub fn space_parts(db: &Database, rels: &[&str]) -> (f64, f64) {
    let (mut stored, mut rows) = (0.0, 0.0);
    for rel in rels {
        let s = db.relation_stats(rel).expect("benchmark relation exists");
        stored +=
            ((s.total_pages + s.history_pages) as usize * PAGE_SIZE) as f64;
        rows += ((s.tuple_count + s.history_rows) * s.row_width) as f64;
    }
    (stored, rows)
}

/// Bytes stored ÷ bytes of version rows.
pub fn space_amp(db: &Database, rels: &[&str]) -> f64 {
    let (stored, rows) = space_parts(db, rels);
    ratio(stored, rows)
}

/// Pages per statement and success rate of a closed-loop tally.
pub fn loop_metrics(m: &mut Metrics, t: &mix::Tally) {
    m.set(
        "pages_per_stmt",
        ratio(t.input_pages as f64, t.completed() as f64),
        "pages",
    );
    m.set(
        "success_rate",
        ratio(t.completed() as f64, t.attempted as f64),
        "ratio",
    );
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload paper-sweep|keyed-mix|wire-durable \
         --seed N --seconds S --trace 0|1\n       perfbench --print-pins"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Result<String, String> {
        let i = args
            .iter()
            .position(|a| a == name)
            .ok_or(format!("missing {name}"))?;
        args.get(i + 1)
            .cloned()
            .ok_or(format!("{name} needs a value"))
    };
    let workload = get("--workload")?;
    if !["paper-sweep", "keyed-mix", "wire-durable"]
        .contains(&workload.as_str())
    {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seed =
        get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => {
            return Err(format!("--trace must be 0 or 1, not {other:?}"))
        }
    };
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let run_dir = root.parent().unwrap_or(&root).join(".bench_run");
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
        run_dir,
        epoch: Instant::now(),
    })
}

fn main() -> ExitCode {
    if std::env::args().any(|a| a == "--print-pins") {
        print!("{}", paper::counts_once().render());
        return ExitCode::SUCCESS;
    }
    let o = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return usage();
        }
    };
    let result = match o.workload.as_str() {
        "paper-sweep" => paper::run(&o),
        "keyed-mix" => keyed::run(&o),
        _ => wire::run(&o),
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} aborted: {e}", o.workload);
            return ExitCode::FAILURE;
        }
    };
    let names: &[(&str, &str)] =
        if o.trace { &PER_LAYER } else { &END_TO_END };
    if o.trace {
        for (name, unit) in PER_LAYER {
            if out.metrics.get(name).is_none() {
                out.metrics.set(name, 0.0, unit);
            }
        }
        let layers = trace::self_times(&out.spans);
        eprintln!("layer self times (median µs, spans):");
        for (name, t) in &layers {
            eprintln!(
                "  {name:<20} {:>10.3} {:>8}",
                t.median_self_us(),
                t.count
            );
        }
        let path = o.run_dir.join(format!("trace-{}.json", o.workload));
        if let Err(e) = trace::write_artifact(
            &path,
            &o.workload,
            o.seed,
            &layers,
            &out.spans,
            20_000,
        ) {
            out.failures
                .push(format!("cannot write {}: {e}", path.display()));
        } else {
            eprintln!("spans written to {}", path.display());
        }
    }
    let metrics = out.metrics.select(names);
    eprint!("{}:\n{}", o.workload, metrics.table());
    let correct = out.failures.is_empty();
    for f in &out.failures {
        eprintln!("CHECK FAILED: {f}");
    }
    println!(
        "{}",
        metrics.result_line(
            correct,
            (out.attempted + out.stmts).max(1),
            out.failed
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lists_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let needle =
                format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                json.contains(&needle),
                "{needle} missing from BENCHMARK.json"
            );
        }
        let names = json.matches("\"name\":").count();
        assert_eq!(
            names,
            END_TO_END.len() + PER_LAYER.len() + 3,
            "3 workloads"
        );
    }
}
