//! The seeded statement generator of the keyed workloads.
//!
//! Every client owns one [`StmtGen`]; its statement stream is a pure
//! function of the workload seed and the client index, and the program
//! under test only ever sees the generated TQuel text. Reads, as-of
//! reads and replaces are keyed on the hashed relation `h`; joins probe
//! `h` and the ISAM relation `i` on one key. Keys, statement kinds and
//! as-of instants all come from one [`Prng`] per client; the hot set comes from its own stream so it is
//! shared by every client of a run.

use tdbms_kernel::Prng;

/// What a statement does, for per-kind latency and correctness checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Keyed current retrieve on `h`: `where h.id = K`, current version.
    Read,
    /// Keyed time-travel retrieve: the same, `as of` a past instant.
    AsOf,
    /// Temporal `replace` of one key's current version.
    Write,
    /// Two-variable keyed retrieve over `h` × `i` (decomposition).
    Join,
}

impl Kind {
    /// Every kind, in the order metrics report them.
    pub const ALL: [Kind; 4] =
        [Kind::Read, Kind::AsOf, Kind::Write, Kind::Join];

    /// Index into per-kind arrays.
    pub fn idx(self) -> usize {
        self as usize
    }

    /// Metric-name prefix (`read_p50_us`, …).
    pub fn name(self) -> &'static str {
        match self {
            Kind::Read => "read",
            Kind::AsOf => "asof",
            Kind::Write => "write",
            Kind::Join => "join",
        }
    }
}

/// One generated statement.
#[derive(Debug, Clone)]
pub struct Stmt {
    pub kind: Kind,
    pub key: i64,
    /// Whether the key was drawn from the hot set.
    pub hot: bool,
    pub text: String,
}

/// The shape of a keyed mix: key space, skew and kind percentages.
#[derive(Debug, Clone)]
pub struct MixSpec {
    /// Keys are `1..=keys` in both relations.
    pub keys: i64,
    /// Hot keys (distinct, drawn from the key space); empty = uniform.
    pub hot: Vec<i64>,
    /// Percent of draws that go to the hot set.
    pub hot_pct: u64,
    /// Percentages of reads, as-of reads, writes and joins (sum 100).
    pub pct: [u64; 4],
    /// The day of the clock origin, `YYYY-MM-DD`; as-of instants fall
    /// on it, after `asof_after_hour`, so they predate the timed run and
    /// follow the load.
    pub asof_day: &'static str,
    pub asof_after_hour: u32,
}

impl MixSpec {
    /// A mix with a hot set of `hot_keys` keys drawn from `seed`.
    pub fn with_hot_set(mut self, seed: u64, hot_keys: usize) -> Self {
        let mut rng = Prng::seed_from_u64(seed ^ 0x686f_745f_7365_7421);
        let mut all: Vec<i64> = (1..=self.keys).collect();
        rng.shuffle(&mut all);
        all.truncate(hot_keys);
        all.sort_unstable();
        self.hot = all;
        self
    }

    /// Whether `key` is in the hot set.
    pub fn is_hot(&self, key: i64) -> bool {
        self.hot.binary_search(&key).is_ok()
    }
}

/// The temporal qualification selecting `var`'s current version: the
/// one whose valid interval is still open. (`overlap "now"` is not
/// used for reads: a snapshot read resolves "now" to the last commit's
/// instant, where TQuel's closed-interval `overlap` also admits the
/// version that commit closed.)
pub fn current(var: char) -> String {
    format!("end of {var} equal \"forever\"")
}

/// One client's statement stream.
pub struct StmtGen<'a> {
    spec: &'a MixSpec,
    rng: Prng,
}

impl<'a> StmtGen<'a> {
    /// The stream of client `client` under workload seed `seed`.
    pub fn new(spec: &'a MixSpec, seed: u64, client: u64) -> Self {
        let mixed = seed
            ^ client.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        StmtGen {
            spec,
            rng: Prng::seed_from_u64(mixed),
        }
    }

    /// The next statement of the stream.
    pub fn next_stmt(&mut self) -> Stmt {
        let spec = self.spec;
        let roll = self.rng.random_range(0u64..100);
        let mut acc = 0;
        let mut kind = Kind::Join;
        for k in Kind::ALL {
            acc += spec.pct[k.idx()];
            if roll < acc {
                kind = k;
                break;
            }
        }
        let hot = !spec.hot.is_empty()
            && self.rng.random_range(0u64..100) < spec.hot_pct;
        let key = if hot {
            spec.hot
                [self.rng.random_range(0..spec.hot.len() as u64) as usize]
        } else {
            self.rng.random_range(1..=spec.keys)
        };
        let hot = hot || spec.is_hot(key);
        let text = match kind {
            Kind::Read => format!(
                "retrieve (h.id, h.seq) where h.id = {key} when {}",
                current('h')
            ),
            Kind::AsOf => {
                let hour = self.rng.random_range(spec.asof_after_hour..24);
                let minute = self.rng.random_range(0u32..60);
                format!(
                    "retrieve (h.id, h.seq) where h.id = {key} \
                     when {} as of \"{} {hour:02}:{minute:02}\"",
                    current('h'),
                    spec.asof_day
                )
            }
            Kind::Write => format!(
                "replace h (seq = h.seq + 1) where h.id = {key} \
                 when h overlap \"now\""
            ),
            Kind::Join => format!(
                "retrieve (h.id, h.seq, i.seq) where h.id = {key} and \
                 i.id = h.id and i.id = {key} when {} and {}",
                current('h'),
                current('i')
            ),
        };
        Stmt {
            kind,
            key,
            hot,
            text,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> MixSpec {
        MixSpec {
            keys: 100_000,
            hot: Vec::new(),
            hot_pct: 90,
            pct: [70, 10, 15, 5],
            asof_day: "1980-03-01",
            asof_after_hour: 1,
        }
        .with_hot_set(7, 1_000)
    }

    fn stream(spec: &MixSpec, seed: u64, client: u64, n: usize) -> Vec<u8> {
        let mut g = StmtGen::new(spec, seed, client);
        let mut bytes = Vec::new();
        for _ in 0..n {
            bytes.extend_from_slice(g.next_stmt().text.as_bytes());
            bytes.push(b'\n');
        }
        bytes
    }

    #[test]
    fn same_seed_gives_a_byte_identical_stream() {
        let s = spec();
        assert_eq!(stream(&s, 42, 0, 5_000), stream(&s, 42, 0, 5_000));
        assert_eq!(spec().hot, s.hot, "hot set is a function of its seed");
    }

    #[test]
    fn another_seed_or_client_gives_another_stream() {
        let s = spec();
        assert_ne!(stream(&s, 42, 0, 200), stream(&s, 43, 0, 200));
        assert_ne!(stream(&s, 42, 0, 200), stream(&s, 42, 1, 200));
        assert_ne!(s.hot, s.clone().with_hot_set(8, 1_000).hot);
    }

    #[test]
    fn mix_and_skew_follow_the_spec() {
        let s = spec();
        let mut g = StmtGen::new(&s, 1, 0);
        let n = 20_000;
        let mut kinds = [0u64; 4];
        let mut hot = 0;
        for _ in 0..n {
            let st = g.next_stmt();
            kinds[st.kind.idx()] += 1;
            hot += u64::from(st.hot);
            assert!((1..=s.keys).contains(&st.key));
            assert!(st.text.contains(&format!("id = {}", st.key)));
        }
        for k in Kind::ALL {
            let want = s.pct[k.idx()] * n / 100;
            let got = kinds[k.idx()];
            assert!(
                got.abs_diff(want) < want / 10 + 50,
                "{k:?}: {got} vs {want}"
            );
        }
        // 90 % hot draws plus the uniform draws that land in the set.
        assert!((17_600..18_600).contains(&hot), "hot draws: {hot}");
        assert_eq!(s.hot.len(), 1_000);
    }

    #[test]
    fn every_generated_statement_parses() {
        let s = spec();
        let mut g = StmtGen::new(&s, 9, 3);
        for _ in 0..500 {
            let st = g.next_stmt();
            tdbms_tquel::parse_statement(&st.text)
                .unwrap_or_else(|e| panic!("{e}: {}", st.text));
        }
    }
}
