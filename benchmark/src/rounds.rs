//! The shape every workload's run has: PASSES rounds, each a fresh set-up
//! (generate inputs, construct, allocate, warm-up pass) followed by one
//! timed pass.
//!
//! Building anew for every timed pass costs a warm-up each, and buys
//! passes that all start from the same state: a runtime whose tables grow
//! or rehash as it runs would otherwise be timed at a different point of
//! that cycle on every pass and for every seed. It also makes `setup_s` a
//! median of PASSES set-ups.

use crate::pass::{HostTimes, PassTiming};
use crate::spans::SpanLog;
use std::time::Duration;

/// What the rounds of one run add up to.
pub struct Rounds {
    pub host_times: HostTimes,
    /// Traced runs record spans on every other round, so the cost of
    /// recording shows as a difference inside one process.
    pub with_spans: HostTimes,
    pub without_spans: HostTimes,
    pub setup_s: Vec<f64>,
    pub spans: Option<SpanLog>,
    /// Span id of chunk 0 of round 0's pass, and its timing: what the
    /// ledger's replays hang under.
    pub root: Option<(u32, PassTiming)>,
}

impl Rounds {
    pub fn new(traced: bool, span_capacity: usize) -> Rounds {
        Rounds {
            host_times: HostTimes::default(),
            with_spans: HostTimes::default(),
            without_spans: HostTimes::default(),
            setup_s: Vec::new(),
            spans: traced.then(|| SpanLog::with_capacity(span_capacity)),
            root: None,
        }
    }

    /// Folds in round `round`: its set-up time and its timed pass, whose
    /// spans (when recorded) are named `name`; round 0's are booked to
    /// `root_layer`.
    pub fn record(
        &mut self,
        round: usize,
        setup: Duration,
        timing: &PassTiming,
        chunk_accesses: &[u64],
        name: &'static str,
        root_layer: &'static str,
    ) {
        self.setup_s.push(setup.as_secs_f64());
        self.host_times.add(timing, chunk_accesses);
        match &mut self.spans {
            Some(log) if round.is_multiple_of(2) => {
                let layer = if round == 0 {
                    root_layer
                } else {
                    "driver.repeat"
                };
                let first = log.record_pass(name, layer, timing, None);
                if round == 0 {
                    self.root = Some((first, timing.clone()));
                }
                self.with_spans.add(timing, chunk_accesses);
            }
            _ => self.without_spans.add(timing, chunk_accesses),
        }
    }
}
