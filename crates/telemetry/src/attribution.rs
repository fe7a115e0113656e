//! Critical-path latency attribution over completed traces.
//!
//! The paper's argument is an attribution argument: Kona wins because
//! page-fault handling, dirty tracking and eviction move *off* the
//! application's critical path. This module walks each completed
//! [`TraceRecord`] tree and decomposes its end-to-end latency into seven
//! [`Component`]s that **sum exactly** (in simulated nanoseconds) to the
//! root span's duration.
//!
//! # Component taxonomy
//!
//! Every span charges either the critical side (same charge as the root —
//! the app thread for accesses) or the hidden side (background work
//! overlapped behind it). A span's *contribution* is its duration minus
//! the durations of its same-charge children:
//!
//! * a **leaf**'s whole duration maps by kind — local-hit, FMem fill,
//!   wire verbs, segment copies, retry backoff, coherence work;
//! * an **interior** span's residual maps by kind — a writeback's
//!   residual is ACK wait (wire), anything else is queueing: time the
//!   operation spent waiting on machinery rather than moving bytes.
//!
//! Because the charge clocks in `trace.rs` make `duration = Σ same-charge
//! children + residual` true by construction, the critical-side component
//! sums equal the root duration identically — the analyzer still verifies
//! it per trace and counts violations (which `fig_attrib` and the
//! `obs-smoke` CI job require to be zero).

use crate::event::EventKind;
use crate::profile::{Profile, ProfileFold};
use crate::trace::{charge_of, OpKind, TraceRecord};
use crate::Track;
use kona_types::Nanos;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Where a nanosecond of a traced operation went.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Component {
    /// CPU cache / local DRAM hits.
    LocalHit,
    /// Coherence work: bitmap scans, page faults, TLB shootdowns.
    Coherence,
    /// FMem fills and lookups (the local far-memory cache tier).
    FMem,
    /// Verb time on the wire, including writeback ACK wait.
    Wire,
    /// Segment gather/copy time (AVX or DMA copy engines).
    Copy,
    /// Retry backoff after transient faults.
    RetryBackoff,
    /// Waiting on machinery: read-your-writes flushes, hand-off slack and
    /// any interior residual not attributable to a specific device.
    Queueing,
}

impl Component {
    /// All components, in table order.
    pub const ALL: [Component; 7] = [
        Component::LocalHit,
        Component::Coherence,
        Component::FMem,
        Component::Wire,
        Component::Copy,
        Component::RetryBackoff,
        Component::Queueing,
    ];

    /// A stable snake_case name for tables and JSON keys.
    pub fn name(self) -> &'static str {
        match self {
            Component::LocalHit => "local_hit",
            Component::Coherence => "coherence",
            Component::FMem => "fmem",
            Component::Wire => "wire",
            Component::Copy => "copy",
            Component::RetryBackoff => "retry_backoff",
            Component::Queueing => "queueing",
        }
    }

    fn index(self) -> usize {
        Component::ALL
            .iter()
            .position(|c| *c == self)
            .expect("component in ALL")
    }
}

/// Component a leaf span's full duration maps to.
fn leaf_component(kind: EventKind) -> Component {
    match kind {
        EventKind::LocalHit => Component::LocalHit,
        EventKind::FmemFill | EventKind::FmemLookup => Component::FMem,
        EventKind::BitmapScan
        | EventKind::PageFault
        | EventKind::TlbShootdown
        | EventKind::Translate => Component::Coherence,
        EventKind::SegmentCopy => Component::Copy,
        EventKind::Verb { .. } => Component::Wire,
        EventKind::Backoff | EventKind::Fault(_) => Component::RetryBackoff,
        _ => residual_component(kind),
    }
}

/// Component an interior span's residual (duration minus same-charge
/// children) maps to.
fn residual_component(kind: EventKind) -> Component {
    match kind {
        // A writeback's uncovered tail is the ACK round-trip on the wire.
        EventKind::Writeback => Component::Wire,
        // An eviction's uncovered tail is copy-engine bookkeeping.
        EventKind::Evict => Component::Copy,
        _ => Component::Queueing,
    }
}

/// Nanoseconds per component, indexed by [`Component::ALL`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ComponentVec(pub [u64; 7]);

impl ComponentVec {
    fn add(&mut self, c: Component, ns: u64) {
        self.0[c.index()] += ns;
    }

    fn merge(&mut self, other: &ComponentVec) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a += b;
        }
    }

    /// Total nanoseconds across all components.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// The value for one component.
    pub fn get(&self, c: Component) -> u64 {
        self.0[c.index()]
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, c) in Component::ALL.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{}\":{}", c.name(), self.0[i]);
        }
        out.push('}');
        out
    }
}

/// The decomposition of one trace.
#[derive(Debug, Clone)]
pub struct TraceAttribution {
    /// The trace's identity.
    pub id: crate::TraceId,
    /// The operation it covered.
    pub op: OpKind,
    /// End-to-end latency of the operation (root span duration).
    pub total: Nanos,
    /// Critical-side components; sums exactly to `total`.
    pub critical: ComponentVec,
    /// Background work overlapped behind the operation.
    pub hidden: ComponentVec,
    /// Whether `critical.total() == total` held (it must).
    pub exact: bool,
}

/// Walks a completed trace and attributes every nanosecond.
///
/// Returns `None` for malformed traces (no root span).
pub fn analyze_trace(rec: &TraceRecord) -> Option<TraceAttribution> {
    let spans = &rec.spans;
    let root_idx = spans.iter().position(|s| s.parent == crate::SpanId::NONE)?;
    let index_of: BTreeMap<u32, usize> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| (s.span.0, i))
        .collect();

    // Derive each span's charge with the same rule the recorder used.
    let mut charge = vec![Track::App; spans.len()];
    // Spans are stored children-before-parents; walk parents-first.
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(i));
    for &i in &order {
        let parent_charge = index_of
            .get(&spans[i].parent.0)
            .map(|&pi| charge[pi])
            .or((i != root_idx).then_some(Track::App));
        charge[i] = charge_of(spans[i].track, parent_charge);
    }

    // Sum same-charge child durations per parent.
    let mut child_cover = vec![0u64; spans.len()];
    let mut has_same_charge_child = vec![false; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(&pi) = index_of.get(&s.parent.0) {
            if charge[pi] == charge[i] {
                child_cover[pi] += s.duration.as_ns();
                has_same_charge_child[pi] = true;
            }
        }
    }

    let root_charge = charge[root_idx];
    let mut critical = ComponentVec::default();
    let mut hidden = ComponentVec::default();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.duration.as_ns();
        let contrib = dur.saturating_sub(child_cover[i]);
        if contrib == 0 {
            continue;
        }
        let component = if has_same_charge_child[i] {
            residual_component(s.kind)
        } else {
            leaf_component(s.kind)
        };
        if charge[i] == root_charge {
            critical.add(component, contrib);
        } else {
            hidden.add(component, contrib);
        }
    }

    let total = spans[root_idx].duration;
    Some(TraceAttribution {
        id: rec.id,
        op: rec.op,
        total,
        critical,
        hidden,
        exact: critical.total() == total.as_ns(),
    })
}

/// Aggregate attribution for one operation kind.
#[derive(Debug, Clone, Default)]
pub struct OpAttribution {
    /// Number of traces of this kind.
    pub count: u64,
    /// Sum of end-to-end latencies.
    pub total_ns: u64,
    /// Critical-side component sums.
    pub critical: ComponentVec,
    /// Hidden (overlapped background) component sums.
    pub hidden: ComponentVec,
}

/// Streaming aggregator: observes each completed trace, keeps per-op and
/// overall component sums plus the top-k slowest traces, counts
/// invariant violations (traces whose critical components did not sum to
/// their duration — must stay zero), and folds the trace into a [`Profile`].
#[derive(Debug, Clone)]
pub struct AttributionEngine {
    ops: BTreeMap<OpKind, OpAttribution>,
    top: Vec<TraceAttribution>,
    top_k: usize,
    traces: u64,
    violations: u64,
    profile: ProfileFold,
}

impl AttributionEngine {
    /// An engine keeping the `top_k` slowest traces.
    pub fn new(top_k: usize) -> Self {
        AttributionEngine {
            ops: BTreeMap::new(),
            top: Vec::new(),
            top_k,
            traces: 0,
            violations: 0,
            profile: ProfileFold::default(),
        }
    }

    /// Folds one completed trace into the aggregate and the profile.
    pub fn observe(&mut self, rec: &TraceRecord) {
        self.profile.fold(&rec.spans);
        let Some(attr) = analyze_trace(rec) else {
            self.violations += 1;
            return;
        };
        self.traces += 1;
        if !attr.exact {
            self.violations += 1;
        }
        let agg = self.ops.entry(attr.op).or_default();
        agg.count += 1;
        agg.total_ns += attr.total.as_ns();
        agg.critical.merge(&attr.critical);
        agg.hidden.merge(&attr.hidden);
        // Keep the slowest k, ordered by (duration desc, id asc) so the
        // selection is deterministic across job counts and replays.
        let insert_at = self
            .top
            .iter()
            .position(|t| {
                (t.total < attr.total) || (t.total == attr.total && t.id > attr.id)
            })
            .unwrap_or(self.top.len());
        self.top.insert(insert_at, attr);
        self.top.truncate(self.top_k);
    }

    /// Every observed trace's spans folded into one profile, exactly as
    /// [`Profile::from_spans`] folds the same spans from a drop-free ring.
    pub fn profile(&self) -> Profile {
        self.profile.profile()
    }

    /// Traces observed.
    pub fn traces(&self) -> u64 {
        self.traces
    }

    /// Traces whose attribution failed the exact-sum invariant.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Per-operation aggregates in stable order.
    pub fn ops(&self) -> &BTreeMap<OpKind, OpAttribution> {
        &self.ops
    }

    /// The slowest traces, by (duration desc, trace id asc).
    pub fn top(&self) -> &[TraceAttribution] {
        &self.top
    }

    /// Sum across all operations.
    pub fn overall(&self) -> OpAttribution {
        let mut all = OpAttribution::default();
        for agg in self.ops.values() {
            all.count += agg.count;
            all.total_ns += agg.total_ns;
            all.critical.merge(&agg.critical);
            all.hidden.merge(&agg.hidden);
        }
        all
    }

    /// The aggregate (plus top-k) as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = write!(
            out,
            "  \"traces\": {},\n  \"invariant_violations\": {},\n  \"ops\": {{",
            self.traces, self.violations
        );
        for (i, (op, agg)) in self.ops.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    \"{}\": {{\"count\":{},\"total_ns\":{},\"critical\":{},\"hidden\":{}}}",
                op.name(),
                agg.count,
                agg.total_ns,
                agg.critical.json(),
                agg.hidden.json()
            );
        }
        let overall = self.overall();
        let _ = write!(
            out,
            "\n  }},\n  \"overall\": {{\"count\":{},\"total_ns\":{},\"critical\":{},\"hidden\":{}}},\n  \"top\": [",
            overall.count,
            overall.total_ns,
            overall.critical.json(),
            overall.hidden.json()
        );
        for (i, t) in self.top.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {{\"trace\":{},\"op\":\"{}\",\"total_ns\":{},\"critical\":{},\"hidden\":{}}}",
                t.id.0,
                t.op.name(),
                t.total.as_ns(),
                t.critical.json(),
                t.hidden.json()
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// The aggregate as `op,scope,component,ns` CSV rows (plus per-op
    /// `meta` rows for count and total).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("op,scope,component,ns\n");
        for (op, agg) in &self.ops {
            let _ = writeln!(out, "{},meta,count,{}", op.name(), agg.count);
            let _ = writeln!(out, "{},meta,total_ns,{}", op.name(), agg.total_ns);
            for c in Component::ALL {
                let _ = writeln!(out, "{},critical,{},{}", op.name(), c.name(), agg.critical.get(c));
            }
            for c in Component::ALL {
                let _ = writeln!(out, "{},hidden,{},{}", op.name(), c.name(), agg.hidden.get(c));
            }
        }
        out
    }
}

impl Default for AttributionEngine {
    fn default() -> Self {
        AttributionEngine::new(16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::CausalState;
    use crate::{EventKind, Track, VerbOpcode};

    fn one_access_trace() -> TraceRecord {
        let mut s = CausalState::new(true);
        let mut out = Vec::new();
        s.begin(OpKind::Access);
        let fetch = s.open(Track::App, EventKind::RemoteFetch);
        s.leaf(
            Track::App,
            EventKind::Backoff,
            Nanos::from_ns(40_000),
            &mut out,
        );
        s.leaf(
            Track::Net,
            EventKind::Verb {
                opcode: VerbOpcode::Read,
                bytes: 4096,
            },
            Nanos::from_ns(3_000),
            &mut out,
        );
        s.close(fetch, Nanos::from_ns(43_000), &mut out);
        s.leaf(Track::App, EventKind::FmemFill, Nanos::from_ns(250), &mut out);
        // Overlapped background eviction.
        let evict = s.open(Track::Background, EventKind::Evict);
        s.leaf(
            Track::Background,
            EventKind::SegmentCopy,
            Nanos::from_ns(700),
            &mut out,
        );
        s.close(evict, Nanos::from_ns(900), &mut out);
        s.end(Nanos::from_ns(43_250), &mut out).expect("trace")
    }

    #[test]
    fn components_sum_exactly_to_duration() {
        let rec = one_access_trace();
        let attr = analyze_trace(&rec).expect("analyzable");
        assert!(attr.exact, "critical sum must equal end-to-end latency");
        assert_eq!(attr.critical.total(), attr.total.as_ns());
        assert_eq!(attr.critical.get(Component::RetryBackoff), 40_000);
        assert_eq!(attr.critical.get(Component::Wire), 3_000);
        assert_eq!(attr.critical.get(Component::FMem), 250);
        assert_eq!(attr.critical.get(Component::Queueing), 0);
        // Hidden background work: 700ns copy + 200ns evict residual.
        assert_eq!(attr.hidden.get(Component::Copy), 900);
    }

    #[test]
    fn queueing_absorbs_uncovered_critical_time() {
        let mut s = CausalState::new(true);
        let mut out = Vec::new();
        s.begin(OpKind::Sync);
        s.leaf(
            Track::Net,
            EventKind::Verb {
                opcode: VerbOpcode::Write,
                bytes: 64,
            },
            Nanos::from_ns(1_000),
            &mut out,
        );
        // 500ns of the sync not covered by any leaf.
        let rec = s.end(Nanos::from_ns(1_500), &mut out).expect("trace");
        let attr = analyze_trace(&rec).expect("analyzable");
        assert!(attr.exact);
        assert_eq!(attr.critical.get(Component::Wire), 1_000);
        assert_eq!(attr.critical.get(Component::Queueing), 500);
    }

    #[test]
    fn engine_aggregates_and_ranks_deterministically() {
        let mut eng = AttributionEngine::new(2);
        for _ in 0..3 {
            eng.observe(&one_access_trace());
        }
        assert_eq!(eng.traces(), 3);
        assert_eq!(eng.violations(), 0);
        let acc = &eng.ops()[&OpKind::Access];
        assert_eq!(acc.count, 3);
        assert_eq!(acc.total_ns, 3 * 43_250);
        assert_eq!(acc.critical.total(), acc.total_ns);
        // Equal durations rank by ascending trace id; ring keeps 2.
        assert_eq!(eng.top().len(), 2);
        assert!(eng.top()[0].id <= eng.top()[1].id);
        let json = eng.to_json();
        assert!(json.contains("\"invariant_violations\": 0"));
        assert!(json.contains("\"access\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let csv = eng.to_csv();
        assert!(csv.starts_with("op,scope,component,ns\n"));
        assert!(csv.contains("access,critical,retry_backoff,120000\n"));
    }
}
