//! # atomig-perfbench
//!
//! The repository's benchmark: three closed-loop workloads driven by one
//! caller, each calling the same public functions the `atomig` CLI calls.
//! See `perfbench/README.md` for why each workload exists and which layer
//! metric should move which end-to-end metric.

pub mod clients;
mod corpus;
pub mod trace;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use trace::Tracer;

/// Worker threads for every parallel layer: what the CLI uses by default
/// on the two-core reference host.
pub const JOBS: usize = 2;

/// The workloads, in the order `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Five Table 3 profiles through frontc → port → print.
    PortCorpus,
    /// The same five profiles through frontc → lint.
    LintCorpus,
    /// Model-checker verdicts on ported clients.
    CheckClients,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::PortCorpus,
        Workload::LintCorpus,
        Workload::CheckClients,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PortCorpus => "port-corpus",
            Workload::LintCorpus => "lint-corpus",
            Workload::CheckClients => "check-clients",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Corpus profiles are generated at `1:corpus` of the paper's census.
    pub corpus: u32,
    /// Sizes of the wide model-checking clients.
    pub clients: clients::ClientSizes,
}

impl Scale {
    /// The measured configuration.
    pub const BENCH: Scale = Scale {
        corpus: 10,
        clients: clients::ClientSizes {
            cas: (3, 2),
            mcs: (2, 2),
            sequence: 2,
        },
    };

    /// A tiny configuration for the smoke test.
    pub const SMOKE: Scale = Scale {
        corpus: 1000,
        clients: clients::ClientSizes {
            cas: (2, 1),
            mcs: (2, 1),
            sequence: 1,
        },
    };
}

/// Attempted and failed operations, with the first few failure messages.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// `label: reason` of the first failures.
    pub failures: Vec<String>,
}

impl Ops {
    const KEEP: usize = 20;

    fn fail(&mut self, label: &str, reason: String) {
        self.failed += 1;
        if self.failures.len() < Ops::KEEP {
            self.failures.push(format!("{label}: {reason}"));
        }
    }

    /// Runs one operation. An error or a panic counts as a failure.
    pub fn run<T>(&mut self, label: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => Some(v),
            Ok(Err(e)) => {
                self.fail(label, e);
                None
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                self.fail(label, format!("panic: {msg}"));
                None
            }
        }
    }

    /// Checks that an op's output digest equals the one its first
    /// execution produced (which fills `slot`).
    pub fn expect_same(&mut self, label: &str, what: &str, slot: &mut Option<u64>, got: u64) {
        match *slot {
            None => *slot = Some(got),
            Some(first) if first == got => {}
            Some(first) => self.fail(
                label,
                format!("{what} digest {got:016x} differs from the first run's {first:016x}"),
            ),
        }
    }
}

/// 64-bit FNV-1a over little-endian 8-byte words (the last one
/// zero-padded), mixed with the length. Word-wise, it checks the 48 MB of
/// printed MIR a `port-corpus` round makes in about 10 ms, so the
/// check stays a small part of `round_s`.
pub fn digest(bytes: &[u8]) -> u64 {
    let step = |h: u64, w: u64| (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    let words = bytes.chunks(8).map(|c| {
        let mut w = [0u8; 8];
        w[..c.len()].copy_from_slice(c);
        u64::from_le_bytes(w)
    });
    step(words.fold(0xcbf2_9ce4_8422_2325, step), bytes.len() as u64)
}

/// The median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// What set-up produced, per workload.
#[derive(Debug)]
enum Inputs {
    Port(Vec<corpus::CorpusModule>),
    Lint(Vec<corpus::CorpusModule>),
    Clients(Vec<clients::Case>),
}

/// One workload's inputs plus the state rounds check against.
#[derive(Debug)]
pub struct Bench {
    inputs: Inputs,
    digests: Vec<Option<u64>>,
    /// Every op run so far.
    pub ops: Ops,
}

impl Bench {
    /// Builds the workload's inputs: generates the corpus, or compiles
    /// and ports the clients.
    ///
    /// # Errors
    ///
    /// A client that does not compile.
    pub fn setup(
        workload: Workload,
        scale: Scale,
        seed: u64,
        tracer: &mut Tracer,
    ) -> Result<Bench, String> {
        let inputs = match workload {
            Workload::PortCorpus => Inputs::Port(corpus::generate(scale.corpus, seed, tracer)),
            Workload::LintCorpus => Inputs::Lint(corpus::generate(scale.corpus, seed, tracer)),
            Workload::CheckClients => Inputs::Clients(
                clients::prepare(scale.clients, JOBS, tracer)
                    .map_err(|e| format!("set-up: {e}"))?,
            ),
        };
        Ok(Bench {
            inputs,
            digests: Vec::new(),
            ops: Ops::default(),
        })
    }

    /// [`Bench::setup`], also returning its seconds.
    ///
    /// # Errors
    ///
    /// As [`Bench::setup`].
    pub fn timed_setup(
        workload: Workload,
        scale: Scale,
        seed: u64,
        tracer: &mut Tracer,
    ) -> Result<(Bench, f64), String> {
        let t0 = Instant::now();
        let bench = Bench::setup(workload, scale, seed, tracer)?;
        Ok((bench, t0.elapsed().as_secs_f64()))
    }

    /// Per module, the digest of its output in the first round that
    /// produced one (empty for `check-clients`).
    pub fn digests(&self) -> &[Option<u64>] {
        &self.digests
    }

    /// One round: every module or client once, in a fixed order.
    pub fn round(&mut self, jobs: usize, tracer: &mut Tracer) {
        tracer.span("bench.round", 0, |t| match &self.inputs {
            Inputs::Port(c) => corpus::port_round(c, jobs, &mut self.digests, t, &mut self.ops),
            Inputs::Lint(c) => corpus::lint_round(c, jobs, &mut self.digests, t, &mut self.ops),
            Inputs::Clients(cases) => clients::check_round(cases, jobs, t, &mut self.ops),
        });
    }

    /// One round, timed.
    pub fn timed_round(&mut self, jobs: usize, tracer: &mut Tracer) -> f64 {
        let t0 = Instant::now();
        self.round(jobs, tracer);
        t0.elapsed().as_secs_f64()
    }
}

/// This process's peak resident set, in MiB (Linux `VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn ops_count_errors_panics_and_digest_changes() {
        let mut ops = Ops::default();
        assert_eq!(ops.run("a", || Ok::<_, String>(1)), Some(1));
        assert_eq!(ops.run("b", || Err::<u8, _>("bad".to_string())), None);
        assert_eq!(
            ops.run("c", || -> Result<u8, String> { panic!("boom") }),
            None
        );
        let mut slot = None;
        ops.expect_same("d", "x", &mut slot, 5);
        ops.expect_same("d", "x", &mut slot, 5);
        ops.expect_same("d", "x", &mut slot, 6);
        assert_eq!((ops.attempted, ops.failed), (3, 3));
        assert!(ops.failures[1].contains("panic: boom"));
    }

    #[test]
    fn digest_separates_padding_and_order() {
        assert_ne!(digest(b"a"), digest(b"a\0"));
        assert_ne!(digest(b"ab"), digest(b"ba"));
        assert_ne!(digest(b""), digest(b"\0"));
        assert_eq!(digest(b"same text"), digest(b"same text"));
    }
}
