//! The traced run's replay: statements sampled from the timed window
//! are run again, after it, through an in-process [`Session`] and then
//! through the layer probes, so each sampled read has its engine time
//! next to its parse, bind and execute times.

use crate::gen::{Kind, Stmt};
use crate::mix::{phase_accesses, session_on, Observed, Tally};
use crate::probe::{probe, ranges, Probe};
use crate::trace::Recorder;
use std::time::Instant;
use tdbms_core::Engine;
use tdbms_kernel::Result;

/// Request-id space of replayed statements.
const REPLAY_REQ: u64 = 1 << 60;

/// What the replay measured.
#[derive(Default)]
pub struct Replay {
    /// The replayed statements' outcomes (writes included when asked).
    pub tally: Tally,
    /// `(Session::execute ns, probe)` of each probed retrieve.
    pub probed: Vec<(u64, Probe)>,
    /// Decomposition and substitution page accesses per sampled join
    /// run through `Database::execute` (see [`replay`]).
    pub join_phases: Option<(f64, f64)>,
}

/// Replay `samples` on `engine`: every sample through a fresh session
/// (writes only if `with_writes`), then every single-variable retrieve
/// through [`probe`] under the commit lock. With `direct_joins`, the
/// sampled joins also run through `Database::execute` under the lock:
/// a session serves them off the snapshot, which keeps no per-phase
/// ledger, so this is where their phases are seen (only for engines
/// without a log, where a lone read leaves nothing staged).
pub fn replay(
    engine: &Engine,
    rel_h: &str,
    rel_i: &str,
    samples: &[Stmt],
    with_writes: bool,
    direct_joins: bool,
    rec: &mut Recorder,
) -> Result<Replay> {
    let mut out = Replay::default();
    let mut session = session_on(engine, rel_h, rel_i)?;
    let mut exec_ns = Vec::new();
    for (n, st) in samples.iter().enumerate() {
        if st.kind == Kind::Write && !with_writes {
            continue;
        }
        let req = REPLAY_REQ | n as u64;
        let root = rec.begin("replay", 0, req);
        let parent = rec.id(&root);
        let t0 = Instant::now();
        let (res, _) = rec.time("engine.execute", parent, req, || {
            session.execute(&st.text)
        });
        let ns = t0.elapsed().as_nanos() as u64;
        rec.end(root);
        out.tally
            .record(st, res.map(Observed::from_output), ns, false);
        exec_ns.push((n, ns));
    }
    let table = ranges(rel_h, rel_i);
    let (probed, phases) = engine.try_with_write(|db| -> Result<_> {
        db.execute(&format!(
            "range of h is {rel_h}\nrange of i is {rel_i}"
        ))?;
        let mut probed = Vec::new();
        let (mut decomp, mut subst, mut joins) = (0, 0, 0);
        for &(n, ns) in &exec_ns {
            let st = &samples[n];
            match st.kind {
                Kind::Read | Kind::AsOf => {
                    let req = REPLAY_REQ | n as u64;
                    probed
                        .push((ns, probe(db, &table, &st.text, rec, req)?));
                }
                Kind::Join if direct_joins => {
                    let out = db.execute(&st.text)?;
                    decomp += phase_accesses(&out.stats, "decomposition");
                    subst += phase_accesses(&out.stats, "substitution");
                    joins += 1;
                }
                _ => {}
            }
        }
        let per_join = |n: u64| n as f64 / joins as f64;
        let phases =
            (joins > 0).then(|| (per_join(decomp), per_join(subst)));
        Ok((probed, phases))
    })??;
    out.probed = probed;
    out.join_phases = phases;
    Ok(out)
}
