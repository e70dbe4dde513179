//! In-memory span recorder used by the traced run.
//!
//! Spans are taken from the benchmark's own code around each public call
//! into a layer (`frontc::lex`, `Pipeline::port_module`, …). Phases the
//! pipeline reports about itself (`inline`, `detect`, …) are kept as
//! reported durations under the span of the call that produced them, and
//! counts are recorded at the same boundaries. Nothing is written until
//! [`Tracer::to_jsonl`] is called at the end of the run.
//!
//! A disabled tracer reads no clock and stores nothing, so the untraced
//! run executes the same code path without the recording cost.

use atomig_core::json::Value;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Debug, Clone)]
struct Span {
    /// Layer-qualified name, e.g. `frontc.lex`.
    name: &'static str,
    /// The module or client the call worked on.
    id: u32,
    /// Round (or set-up repetition) the call belongs to.
    round: u32,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// Start, relative to the tracer's epoch.
    start: Duration,
    /// End, relative to the tracer's epoch.
    end: Duration,
}

/// A duration the program reported about one of its own phases.
#[derive(Debug, Clone)]
struct Phase {
    /// Layer-qualified name, e.g. `core.detect`.
    name: &'static str,
    /// The module or client.
    id: u32,
    /// Round.
    round: u32,
    /// Index of the span of the call that reported it.
    parent: Option<usize>,
    /// Reported duration.
    duration: Duration,
}

/// A count taken at a layer boundary.
#[derive(Debug, Clone)]
struct Count {
    /// Layer-qualified name, e.g. `frontc.tokens`.
    name: &'static str,
    /// The module or client.
    id: u32,
    /// Round.
    round: u32,
    /// Value.
    value: u64,
}

/// Records spans, reported phases and counts when enabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    round: u32,
    stack: Vec<usize>,
    spans: Vec<Span>,
    phases: Vec<Phase>,
    counts: Vec<Count>,
}

impl Tracer {
    /// A tracer that records when `enabled`, and otherwise only runs the
    /// wrapped calls.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            round: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            phases: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// Tags everything recorded from now on with `round`.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    /// Runs `f` inside a span named `name` for module or client `id`.
    pub fn span<R>(&mut self, name: &'static str, id: u32, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            id,
            round: self.round,
            parent: self.stack.last().copied(),
            start,
            end: start,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end = self.epoch.elapsed();
        out
    }

    /// Records a phase duration the program reported, under the current
    /// span.
    pub fn phase(&mut self, name: &'static str, id: u32, duration: Duration) {
        if self.enabled {
            self.phases.push(Phase {
                name,
                id,
                round: self.round,
                parent: self.stack.last().copied(),
                duration,
            });
        }
    }

    /// Records a count.
    pub fn count(&mut self, name: &'static str, id: u32, value: u64) {
        if self.enabled {
            self.counts.push(Count {
                name,
                id,
                round: self.round,
                value,
            });
        }
    }

    /// Per round, the summed seconds of every span and reported phase
    /// named `name`. Rounds in which it never occurred are absent.
    pub fn seconds_by_round(&self, name: &str) -> Vec<f64> {
        let mut by_round: BTreeMap<u32, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_round.entry(s.round).or_default() += (s.end - s.start).as_secs_f64();
        }
        for p in self.phases.iter().filter(|p| p.name == name) {
            *by_round.entry(p.round).or_default() += p.duration.as_secs_f64();
        }
        by_round.into_values().collect()
    }

    /// The summed count `name` of the last round that recorded it, or 0.
    pub fn last_count(&self, name: &str) -> u64 {
        let Some(round) = self
            .counts
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.round)
            .max()
        else {
            return 0;
        };
        self.counts
            .iter()
            .filter(|c| c.name == name && c.round == round)
            .map(|c| c.value)
            .sum()
    }

    /// Every record as one JSON object per line: spans first, then
    /// reported phases, then counts. Times are nanoseconds since the
    /// tracer was created.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let parent = |p: Option<usize>| p.map_or(Value::Null, Value::from);
        for (i, s) in self.spans.iter().enumerate() {
            let line = Value::obj(vec![
                ("kind", "span".into()),
                ("index", i.into()),
                ("name", s.name.into()),
                ("id", s.id.into()),
                ("round", s.round.into()),
                ("parent", parent(s.parent)),
                ("start_ns", s.start.as_nanos().into()),
                ("end_ns", s.end.as_nanos().into()),
            ]);
            out.push_str(&format!("{line}\n"));
        }
        for p in &self.phases {
            let line = Value::obj(vec![
                ("kind", "phase".into()),
                ("name", p.name.into()),
                ("id", p.id.into()),
                ("round", p.round.into()),
                ("parent", parent(p.parent)),
                ("duration_ns", p.duration.as_nanos().into()),
            ]);
            out.push_str(&format!("{line}\n"));
        }
        for c in &self.counts {
            let line = Value::obj(vec![
                ("kind", "count".into()),
                ("name", c.name.into()),
                ("id", c.id.into()),
                ("round", c.round.into()),
                ("value", c.value.into()),
            ]);
            out.push_str(&format!("{line}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("a", 0, |t| {
            t.count("n", 0, 3);
            t.phase("p", 0, Duration::from_millis(1));
            7
        });
        assert_eq!(v, 7);
        assert!(t.seconds_by_round("a").is_empty());
        assert_eq!(t.last_count("n"), 0);
        assert!(t.to_jsonl().is_empty());
    }

    #[test]
    fn spans_nest_and_aggregate_per_round() {
        let mut t = Tracer::new(true);
        for round in 0..2 {
            t.set_round(round);
            t.span("outer", 1, |t| {
                t.span("inner", 1, |t| t.count("n", 1, 2));
                t.span("inner", 2, |t| t.count("n", 2, 5));
                t.phase("p", 1, Duration::from_millis(4));
            });
        }
        assert_eq!(t.seconds_by_round("inner").len(), 2);
        assert_eq!(t.seconds_by_round("p"), vec![0.004, 0.004]);
        assert_eq!(t.last_count("n"), 7);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.phases[0].parent, Some(0));
        assert!(t.spans.iter().all(|s| s.end >= s.start));
        let jsonl = t.to_jsonl();
        assert_eq!(jsonl.lines().count(), 6 + 2 + 4);
        for line in jsonl.lines() {
            atomig_core::json::parse(line).expect("each line is JSON");
        }
    }
}
