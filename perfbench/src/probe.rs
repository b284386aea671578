//! Layer probes: one replayed retrieve timed through the public entry
//! points of the parser, the planner's estimate, the binder and the
//! read-only executor, each under its own span.

use crate::stats::{median, Metrics};
use crate::trace::Recorder;
use std::collections::HashMap;
use tdbms_core::binder::Binder;
use tdbms_core::exec::exec_retrieve_readonly;
use tdbms_core::{Database, QueryGuard};
use tdbms_kernel::{Error, Result};
use tdbms_tquel::Statement;

/// Nanosecond timings of one probed statement.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probe {
    pub parse_ns: u64,
    pub estimate_ns: u64,
    pub bind_ns: u64,
    /// Read-only execution; `None` for multi-variable retrieves, which
    /// decompose and so are not run outside the engine.
    pub exec_ns: Option<u64>,
    /// The planner's estimated input pages.
    pub est_input: u64,
}

/// Probe `text` on `db`. `db`'s own range table must declare the
/// statement's variables (the estimate reads it); `ranges` is the same
/// table for the binder.
pub fn probe(
    db: &mut Database,
    ranges: &HashMap<String, String>,
    text: &str,
    rec: &mut Recorder,
    req: u64,
) -> Result<Probe> {
    let root = rec.begin("probe", 0, req);
    let parent = rec.id(&root);
    let (parsed, parse_ns) = rec.time("tquel.parse", parent, req, || {
        tdbms_tquel::parse_program(text)
    });
    let retrieve = match parsed?.pop() {
        Some(Statement::Retrieve(r)) => r,
        _ => {
            return Err(Error::Semantic(format!("not a retrieve: {text}")))
        }
    };
    let (est, estimate_ns) = rec
        .time("plan.estimate", parent, req, || db.estimate_retrieve(text));
    let (est_input, _) = est?;
    let (pager, catalog, clock) = db.internals();
    let binder = Binder {
        catalog: &*catalog,
        ranges,
        now: clock.now(),
    };
    let (bound, bind_ns) = rec
        .time("core.bind", parent, req, || binder.bind_retrieve(&retrieve));
    let bound = bound?;
    let exec_ns = if bound.vars.len() < 2 {
        let guard = QueryGuard::new();
        let (res, ns) = rec.time("core.exec", parent, req, || {
            exec_retrieve_readonly(pager, catalog, &bound, &guard)
        });
        res?;
        Some(ns)
    } else {
        None
    };
    rec.end(root);
    Ok(Probe {
        parse_ns,
        estimate_ns,
        bind_ns,
        exec_ns,
        est_input,
    })
}

/// Range table `{h: rel_h, i: rel_i}`.
pub fn ranges(rel_h: &str, rel_i: &str) -> HashMap<String, String> {
    HashMap::from([
        ("h".to_string(), rel_h.to_string()),
        ("i".to_string(), rel_i.to_string()),
    ])
}

/// The parse, bind, exec and estimate metrics of probed statements,
/// each paired with the time the engine took for the whole statement
/// (`engine.self_us` is that time minus parse, bind and exec, over the
/// single-variable ones).
pub fn metrics(m: &mut Metrics, probed: &[(u64, Probe)]) {
    let us = |f: &dyn Fn(&Probe) -> Option<u64>| {
        let xs: Vec<f64> = probed
            .iter()
            .filter_map(|(_, p)| f(p).map(|v| v as f64))
            .collect();
        median(&xs) / 1e3
    };
    let parse = us(&|p| Some(p.parse_ns));
    let bind = us(&|p| Some(p.bind_ns));
    m.set("tquel.parse_us", parse, "us");
    m.set("core.bind_us", bind, "us");
    m.set("core.exec_us", us(&|p| p.exec_ns), "us");
    m.set(
        "plan.estimate_us",
        us(&|p| Some(p.estimate_ns)) - parse - bind,
        "us",
    );
    let engine_self: Vec<f64> = probed
        .iter()
        .filter_map(|(engine, p)| {
            let exec = p.exec_ns?;
            Some(*engine as f64 - (p.parse_ns + p.bind_ns + exec) as f64)
        })
        .collect();
    m.set("engine.self_us", median(&engine_self) / 1e3, "us");
}
