//! Deterministic simulated-time profiling and queueing/occupancy
//! folding.
//!
//! [`Profile`] folds span streams into a weighted call-path tree: for
//! every `(charge track, span-name path)` it keeps the call count plus
//! *total* and *self* simulated nanoseconds, where self time is the
//! span's duration minus the time covered by its same-charge children.
//! One fold serves both feeds: the attribution engine's completed traces
//! (a causal run is profiled whole, with no span ring) and
//! [`Profile::from_spans`]'s retained ring. Per-run profiles
//! [`merge`](Profile::merge) by path key, which is associative and
//! therefore byte-identical at any worker count.
//!
//! The charge-clock invariant from `trace.rs` (a parent's recorded
//! duration covers its same-charge children, which never overlap) makes
//! the fold *exact*: per charge track, the self times of every path sum
//! to the total duration of that track's root spans. Violations of that
//! invariant are counted, never papered over, and `fig_attrib` and
//! `fig_cluster` gate on the count staying zero.
//!
//! Two export formats ship: collapsed stacks (`frame;frame;... value`,
//! the format `flamegraph.pl` and inferno consume directly, weighted by
//! self nanoseconds) and a line-oriented JSON document, one path per
//! line.
//!
//! Everything here is a function of simulated time only; host time is
//! measured from outside, by `benchmark/`.

use crate::event::{SpanEvent, Track};
use crate::timeseries::SeriesData;
use crate::trace::charge_of;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Weight of one call path in a [`Profile`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathStats {
    /// Spans folded into this path.
    pub count: u64,
    /// Simulated nanoseconds spent in this path, children included.
    pub total_ns: u64,
    /// Simulated nanoseconds spent in this path itself (total minus the
    /// time covered by same-charge children).
    pub self_ns: u64,
}

/// A deterministic simulated-time profile: weighted call paths keyed by
/// `track;frame;frame;...` (the track is the *charge* track — App or
/// Background — so Net and Cluster spans fold into whichever simulated
/// thread paid for them, exactly like the attribution engine).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    entries: BTreeMap<String, PathStats>,
    /// Total root-span nanoseconds per charge track (keyed by
    /// [`Track::name`]).
    track_totals: BTreeMap<String, u64>,
    violations: u64,
}

impl Profile {
    /// Folds one telemetry instance's span stream into a profile.
    ///
    /// `events` must come from a *single* [`Telemetry`](crate::Telemetry)
    /// (span ids are allocated per instance; merged multi-shard streams
    /// would alias). Instant markers are skipped. Spans whose parent is
    /// not in the stream (legacy `record()` spans, or parents evicted
    /// from the ring) fold as roots of their own charge track — the
    /// conservation property below survives oldest-first ring drops
    /// because children are always recorded before their parents.
    pub fn from_spans(events: &[SpanEvent]) -> Profile {
        let mut fold = ProfileFold::default();
        fold.fold(events);
        fold.profile()
    }

    /// Merges `other` into `self`: path weights and track totals add,
    /// violation counts add. Addition is associative and commutative, so
    /// shard-order merging is independent of worker scheduling.
    pub fn merge(&mut self, other: &Profile) {
        for (path, stats) in &other.entries {
            let entry = self.entries.entry(path.clone()).or_default();
            entry.count += stats.count;
            entry.total_ns += stats.total_ns;
            entry.self_ns += stats.self_ns;
        }
        for (track, ns) in &other.track_totals {
            *self.track_totals.entry(track.clone()).or_default() += ns;
        }
        self.violations += other.violations;
    }

    /// A copy with `label` inserted as the first frame under each track
    /// (`application;x` becomes `application;label;x`) — the same idea as
    /// [`SeriesData::prefixed`], for keeping per-shard or per-plan
    /// profiles distinguishable after a merge.
    pub fn prefixed(&self, label: &str) -> Profile {
        let mut out = Profile {
            entries: BTreeMap::new(),
            track_totals: self.track_totals.clone(),
            violations: self.violations,
        };
        for (path, stats) in &self.entries {
            let key = match path.split_once(';') {
                Some((track, rest)) => format!("{track};{label};{rest}"),
                None => format!("{path};{label}"),
            };
            let entry = out.entries.entry(key).or_default();
            entry.count += stats.count;
            entry.total_ns += stats.total_ns;
            entry.self_ns += stats.self_ns;
        }
        out
    }

    /// The folded paths, ordered by key.
    pub fn entries(&self) -> &BTreeMap<String, PathStats> {
        &self.entries
    }

    /// Total root-span nanoseconds per charge track.
    pub fn track_totals(&self) -> &BTreeMap<String, u64> {
        &self.track_totals
    }

    /// Spans whose same-charge children covered more time than the span's
    /// own duration — charge-clock invariant violations.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Whether no spans were folded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sum of self nanoseconds over every path of `track`.
    pub fn self_total(&self, track: &str) -> u64 {
        let prefix_end = format!("{track};");
        self.entries
            .iter()
            .filter(|(path, _)| path.starts_with(&prefix_end) || path.as_str() == track)
            .map(|(_, s)| s.self_ns)
            .sum()
    }

    /// Exact-sum check: invariant violations plus every track whose
    /// per-path self times do not sum to its root total. Zero means the
    /// profile conserves simulated time exactly.
    pub fn conservation_violations(&self) -> u64 {
        let mut v = self.violations;
        for (track, &total) in &self.track_totals {
            if self.self_total(track) != total {
                v += 1;
            }
        }
        v
    }

    /// The `k` hottest paths by self time (ties broken by path order).
    pub fn top_by_self(&self, k: usize) -> Vec<(&str, PathStats)> {
        let mut rows: Vec<(&str, PathStats)> = self
            .entries
            .iter()
            .map(|(path, &stats)| (path.as_str(), stats))
            .collect();
        rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
        rows.truncate(k);
        rows
    }

    /// Collapsed-stack export (`frame;frame;... self_ns` per line, sorted
    /// by path) — feed straight to `flamegraph.pl` or inferno. Paths with
    /// zero self time are omitted; they carry no flame width.
    pub fn to_collapsed(&self) -> String {
        let mut out = String::new();
        for (path, stats) in &self.entries {
            if stats.self_ns > 0 {
                let _ = writeln!(out, "{path} {}", stats.self_ns);
            }
        }
        out
    }

    /// Line-oriented JSON export: one `paths` element per line, so two
    /// runs' profiles compare with plain `diff`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "\"violations\": {},", self.violations);
        out.push_str("\"track_totals\": {");
        for (i, (track, ns)) in self.track_totals.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{}\": {ns}", crate::export::json_escape(track));
        }
        out.push_str("},\n\"paths\": [\n");
        for (i, (path, s)) in self.entries.iter().enumerate() {
            let sep = if i + 1 == self.entries.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"path\": \"{}\", \"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}{sep}",
                crate::export::json_escape(path),
                s.count,
                s.total_ns,
                s.self_ns
            );
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Charge tracks in fold-slot order: [`charge_of`] yields only these two.
const CHARGES: [Track; 2] = [Track::App, Track::Background];

/// "No parent" in the fold's per-span and per-path parent links.
const NONE: u32 = u32::MAX;

/// The one fold behind every [`Profile`]. It takes span batches — a whole
/// stream in [`Profile::from_spans`], one completed trace at a time in
/// the [`AttributionEngine`](crate::AttributionEngine) — and accumulates
/// weights per charge track on interned paths. Trace spans only link
/// inside their trace, so folding a stream trace by trace equals folding
/// it whole.
#[derive(Debug, Clone, Default)]
pub(crate) struct ProfileFold {
    /// Interned paths: `(parent path, frame)`, indexed by path id; a root
    /// frame's parent is `NONE`.
    paths: Vec<(u32, &'static str)>,
    /// Each path's one-frame extensions, and the root frames, searched
    /// linearly: a path has a handful of child kinds.
    children: Vec<Vec<(&'static str, u32)>>,
    roots: Vec<(&'static str, u32)>,
    /// Weights per `(path, charge)`, at `path * 2 + charge slot`.
    stats: Vec<PathStats>,
    /// Root-span nanoseconds per charge slot; `None` until a root lands.
    track_totals: [Option<u64>; 2],
    violations: u64,
    // Per-span working arrays, kept between batches so a per-trace fold
    // does not reallocate: spans waiting for their parent, then each
    // span's parent index, path, charge and same-charge child time.
    pending: Vec<u32>,
    parent: Vec<u32>,
    path: Vec<u32>,
    charge: Vec<Track>,
    child_ns: Vec<u64>,
}

impl ProfileFold {
    /// Folds one batch of spans in recorder order. A span whose parent is
    /// absent — evicted from the ring, or never recorded — folds as a root
    /// of its own charge track.
    pub(crate) fn fold(&mut self, events: &[SpanEvent]) {
        let ProfileFold {
            paths,
            children,
            roots,
            stats,
            track_totals,
            violations,
            pending,
            parent,
            path,
            charge,
            child_ns,
        } = self;
        let n = events.len();

        // Recorder order is post-order: when a span arrives, its children
        // are the spans waiting on top of the stack that name it.
        parent.clear();
        parent.resize(n, NONE);
        pending.clear();
        for (i, ev) in events.iter().enumerate() {
            while let Some(&c) = pending.last() {
                if !ev.span.is_some() || events[c as usize].parent != ev.span {
                    break;
                }
                parent[c as usize] = i as u32;
                pending.pop();
            }
            if ev.parent.is_some() {
                pending.push(i as u32);
            }
        }

        // Paths and charges top-down: every parent is folded first.
        path.clear();
        path.resize(n, 0);
        charge.clear();
        charge.resize(n, Track::App);
        for i in (0..n).rev() {
            let (above, above_charge) = match parent[i] {
                NONE => (NONE, None),
                p => (path[p as usize], Some(charge[p as usize])),
            };
            let frame = events[i].kind.name();
            let siblings = match above {
                NONE => &mut *roots,
                p => &mut children[p as usize],
            };
            path[i] = match siblings.iter().find(|(f, _)| *f == frame) {
                Some(&(_, id)) => id,
                None => {
                    let id = paths.len() as u32;
                    siblings.push((frame, id));
                    paths.push((above, frame));
                    children.push(Vec::new());
                    stats.resize(paths.len() * CHARGES.len(), PathStats::default());
                    id
                }
            };
            charge[i] = charge_of(events[i].track, above_charge);
        }

        // Weights bottom-up: a span's same-charge children precede it, so
        // the time they cover is complete when the span is folded.
        child_ns.clear();
        child_ns.resize(n, 0);
        for (i, ev) in events.iter().enumerate() {
            if ev.is_instant() {
                continue;
            }
            let c = usize::from(charge[i] == Track::Background);
            let d = ev.duration.as_ns();
            let self_ns = d.checked_sub(child_ns[i]).unwrap_or_else(|| {
                *violations += 1;
                0
            });
            let entry = &mut stats[path[i] as usize * CHARGES.len() + c];
            entry.count += 1;
            entry.total_ns += d;
            entry.self_ns += self_ns;
            let p = parent[i];
            if p != NONE && charge[p as usize] == charge[i] {
                child_ns[p as usize] += d;
            } else {
                *track_totals[c].get_or_insert(0) += d;
            }
        }
    }

    /// The fold read out as a [`Profile`]: path strings are built here,
    /// once per interned path.
    pub(crate) fn profile(&self) -> Profile {
        let mut profile = Profile::default();
        let mut names: Vec<String> = Vec::with_capacity(self.paths.len());
        for (id, &(parent, frame)) in self.paths.iter().enumerate() {
            let path = match parent {
                NONE => format!(";{frame}"),
                p => format!("{};{frame}", names[p as usize]),
            };
            for (c, track) in CHARGES.iter().enumerate() {
                let stats = self.stats[id * CHARGES.len() + c];
                if stats.count > 0 {
                    profile
                        .entries
                        .insert(format!("{}{path}", track.name()), stats);
                }
            }
            names.push(path);
        }
        for (total, track) in self.track_totals.iter().zip(CHARGES) {
            if let Some(ns) = total {
                profile.track_totals.insert(track.name().to_string(), *ns);
            }
        }
        profile.violations = self.violations;
        profile
    }
}

/// Queue/occupancy weather for one fabric link (initiator → memory
/// node), folded from the windowed series.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkQueue {
    /// Work requests posted over the link.
    pub wrs: u64,
    /// Time-integral of in-flight requests (WR-nanoseconds) — divide a
    /// window's delta by the window width for mean occupancy.
    pub inflight_ns: u64,
    /// Largest per-window mean in-flight depth.
    pub peak_mean_depth: f64,
    /// Deepest single chain posted on the link.
    pub peak_chain_depth: u64,
}

/// Apply-backlog weather for one memory node, folded from the windowed
/// series' backlog gauges (window-boundary samples) and ingest-time
/// depth histograms (within-window peaks the gauges miss when a tick
/// drains the backlog before the boundary).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeQueue {
    /// Largest backlog, in bytes, observed at any ingest or window
    /// boundary.
    pub peak_backlog_bytes: u64,
    /// Largest backlog, in batches, observed at any ingest or window
    /// boundary.
    pub peak_backlog_batches: u64,
}

/// Per-link in-flight depth and per-node apply-backlog depth, folded
/// from a windowed [`SeriesData`] — the congestion table the future
/// event-queue scheduler will be validated against.
#[derive(Debug, Clone, Default)]
pub struct QueueStats {
    /// Per-link rows keyed by memory-node id.
    pub links: BTreeMap<u32, LinkQueue>,
    /// Per-node rows keyed by memory-node id.
    pub nodes: BTreeMap<u32, NodeQueue>,
}

/// Parses the `<id>` of `"{prefix}{id}{suffix}"`-shaped metric names.
fn metric_id(name: &str, prefix: &str, suffix: &str) -> Option<u32> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

impl QueueStats {
    /// Folds the queueing metrics out of a windowed series: the
    /// `net.link<i>.*` counters/histograms the fabric records per posted
    /// chain, and the `cluster.node<i>.backlog_*` gauges plus
    /// `backlog_depth`/`backlog_bytes_depth` ingest-time histograms the
    /// memory-node runtimes keep.
    pub fn from_series(series: &SeriesData) -> QueueStats {
        let mut stats = QueueStats::default();
        let window_ns = series.window_ns.max(1);
        for w in &series.windows {
            for (name, &v) in &w.counters {
                if let Some(id) = metric_id(name, "net.link", ".wrs") {
                    stats.links.entry(id).or_default().wrs += v;
                } else if let Some(id) = metric_id(name, "net.link", ".inflight_ns") {
                    let link = stats.links.entry(id).or_default();
                    link.inflight_ns += v;
                    let mean = v as f64 / window_ns as f64;
                    if mean > link.peak_mean_depth {
                        link.peak_mean_depth = mean;
                    }
                }
            }
            for (name, h) in &w.histograms {
                if let Some(id) = metric_id(name, "net.link", ".depth") {
                    let link = stats.links.entry(id).or_default();
                    link.peak_chain_depth = link.peak_chain_depth.max(h.max());
                } else if let Some(id) = metric_id(name, "cluster.node", ".backlog_depth") {
                    let node = stats.nodes.entry(id).or_default();
                    node.peak_backlog_batches = node.peak_backlog_batches.max(h.max());
                } else if let Some(id) = metric_id(name, "cluster.node", ".backlog_bytes_depth") {
                    let node = stats.nodes.entry(id).or_default();
                    node.peak_backlog_bytes = node.peak_backlog_bytes.max(h.max());
                }
            }
            for (name, &v) in &w.gauges {
                if let Some(id) = metric_id(name, "cluster.node", ".backlog_bytes") {
                    let node = stats.nodes.entry(id).or_default();
                    node.peak_backlog_bytes = node.peak_backlog_bytes.max(v as u64);
                } else if let Some(id) = metric_id(name, "cluster.node", ".backlog_batches") {
                    let node = stats.nodes.entry(id).or_default();
                    node.peak_backlog_batches = node.peak_backlog_batches.max(v as u64);
                }
            }
        }
        stats
    }

    /// Whether no queueing metrics were present in the series.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty() && self.nodes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, SpanId, TraceId};
    use crate::timeseries::SeriesWindow;
    use crate::trace::{CausalState, OpKind, SpanToken, TraceRecord};
    use kona_types::Nanos;

    fn span(
        track: Track,
        start: u64,
        dur: u64,
        kind: EventKind,
        id: u32,
        parent: u32,
    ) -> SpanEvent {
        SpanEvent {
            track,
            start: Nanos::from_ns(start),
            duration: Nanos::from_ns(dur),
            kind,
            trace: TraceId(1),
            span: SpanId(id),
            parent: SpanId(parent),
        }
    }

    /// One app access with a net leaf, plus a background eviction with a
    /// net leaf — the canonical two-charge tree.
    fn sample_events() -> Vec<SpanEvent> {
        vec![
            span(Track::Net, 10, 300, EventKind::Verb { opcode: crate::event::VerbOpcode::Read, bytes: 64 }, 2, 1),
            span(Track::App, 0, 1_000, EventKind::AppAccess, 1, 0),
            span(Track::Net, 50, 400, EventKind::Verb { opcode: crate::event::VerbOpcode::Write, bytes: 64 }, 4, 3),
            span(Track::Background, 0, 900, EventKind::Evict, 3, 0),
        ]
    }

    /// The pre-interning fold, kept as the reference twin the streamed
    /// fold must match: a parent walk per span builds its path string.
    fn reference_from_spans(events: &[SpanEvent]) -> Profile {
        // Span id -> index for parent resolution.
        let mut by_id: BTreeMap<u32, usize> = BTreeMap::new();
        for (i, ev) in events.iter().enumerate() {
            if ev.span.is_some() {
                by_id.insert(ev.span.0, i);
            }
        }
        let parent_of = |ev: &SpanEvent| -> Option<usize> {
            if ev.parent.is_some() {
                by_id.get(&ev.parent.0).copied()
            } else {
                None
            }
        };

        // Effective charge per span, memoized.
        let mut charge: Vec<Option<Track>> = vec![None; events.len()];
        for i in 0..events.len() {
            if charge[i].is_some() {
                continue;
            }
            let mut chain = vec![i];
            let mut parent_charge = None;
            while let Some(pi) = parent_of(&events[*chain.last().expect("nonempty")]) {
                if let Some(c) = charge[pi] {
                    parent_charge = Some(c);
                    break;
                }
                if chain.contains(&pi) {
                    break;
                }
                chain.push(pi);
            }
            for &j in chain.iter().rev() {
                let c = charge_of(events[j].track, parent_charge);
                charge[j] = Some(c);
                parent_charge = Some(c);
            }
        }
        let charge = |i: usize| charge[i].expect("charge computed for every span");

        // Same-charge child durations, accumulated onto each parent.
        let mut child_ns: Vec<u64> = vec![0; events.len()];
        for (i, ev) in events.iter().enumerate() {
            if ev.is_instant() {
                continue;
            }
            if let Some(pi) = parent_of(ev) {
                if pi != i && charge(pi) == charge(i) {
                    child_ns[pi] += ev.duration.as_ns();
                }
            }
        }

        let mut profile = Profile::default();
        let mut path = String::new();
        for (i, ev) in events.iter().enumerate() {
            if ev.is_instant() {
                continue;
            }
            let c = charge(i);
            // Frames root-to-leaf: walk the parent chain, then reverse.
            let mut frames = vec![ev.kind.name()];
            let mut cursor = parent_of(ev);
            while let Some(pi) = cursor {
                frames.push(events[pi].kind.name());
                if frames.len() > events.len() {
                    break;
                }
                cursor = parent_of(&events[pi]);
            }
            path.clear();
            path.push_str(c.name());
            for frame in frames.iter().rev() {
                path.push(';');
                path.push_str(frame);
            }

            let d = ev.duration.as_ns();
            let covered = child_ns[i];
            let (self_ns, violated) = if covered > d {
                (0, 1)
            } else {
                (d - covered, 0)
            };
            profile.violations += violated;
            let entry = profile.entries.entry(path.clone()).or_default();
            entry.count += 1;
            entry.total_ns += d;
            entry.self_ns += self_ns;

            let is_root = match parent_of(ev) {
                None => true,
                Some(pi) => charge(pi) != c,
            };
            if is_root {
                *profile
                    .track_totals
                    .entry(c.name().to_string())
                    .or_default() += d;
            }
        }
        profile
    }

    /// A seeded random program against the real causal state: nested
    /// opens, leaves, instants, unlinked `record()` spans and out-of-order
    /// closes on every track.
    /// With `untraced`, spans also open outside traces (and traces may
    /// start under them). Returns the recorder-order span stream and the
    /// completed traces, as `Telemetry::trace_end` hands them out.
    fn causal_stream(seed: u64, untraced: bool) -> (Vec<SpanEvent>, Vec<TraceRecord>) {
        use kona_types::rng::{Rng, StdRng};
        const TRACKS: [Track; 4] = [Track::App, Track::Background, Track::Net, Track::Cluster];
        const KINDS: [EventKind; 4] = [
            EventKind::RemoteFetch,
            EventKind::Evict,
            EventKind::Writeback,
            EventKind::FmemFill,
        ];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut state = CausalState::new(true);
        let (mut ring, mut traces) = (Vec::new(), Vec::new());
        let mut open: Vec<SpanToken> = Vec::new();
        let mut in_trace = false;
        for step in 0..600 {
            let mut out = Vec::new();
            let op = rng.gen_range(0..10u32);
            let last = step == 599;
            if !in_trace && !last && (op == 0 || !untraced) {
                state.begin(OpKind::ALL[rng.gen_range(0..OpKind::ALL.len())]);
                in_trace = true;
            }
            let track = TRACKS[rng.gen_range(0..TRACKS.len())];
            let kind = KINDS[rng.gen_range(0..KINDS.len())];
            let dur = Nanos::from_ns(rng.gen_range(0..500u64));
            match op {
                _ if last || (op == 1 && in_trace) => {
                    if let Some(rec) = state.end(dur, &mut out) {
                        out.extend(rec.spans.iter().copied());
                        traces.push(rec);
                    }
                    in_trace = false;
                    open.clear();
                }
                2..=4 => open.push(state.open(track, kind)),
                5 if !open.is_empty() => {
                    let k = rng.gen_range(0..open.len());
                    let token = open.remove(k);
                    open.truncate(k);
                    state.close(token, dur, &mut out);
                }
                6 => state.instant(
                    Track::Net,
                    EventKind::Fault(crate::event::FaultKind::Dropped),
                    &mut out,
                ),
                // A legacy `record()` span goes straight to the ring.
                7 if untraced => out.push(SpanEvent::new(track, Nanos::ZERO, dur, kind)),
                _ => state.leaf(track, kind, dur, &mut out),
            }
            ring.extend(out);
        }
        (ring, traces)
    }

    #[test]
    fn streamed_fold_matches_the_reference_twin() {
        let (mut saw_background, mut saw_violation) = (false, false);
        for seed in 0..24 {
            // Every span inside a trace: folding trace by trace (the
            // attribution engine's path) equals folding the whole stream.
            let (ring, traces) = causal_stream(seed, false);
            assert!(traces.len() > 10);
            let mut engine = crate::AttributionEngine::new(1);
            for rec in &traces {
                engine.observe(rec);
            }
            let whole = Profile::from_spans(&ring);
            assert_eq!(engine.profile(), whole, "seed {seed}: per-trace fold");
            assert_eq!(
                whole,
                reference_from_spans(&ring),
                "seed {seed}: whole stream"
            );
            assert_eq!(whole.conservation_violations(), 0, "seed {seed}");
            saw_background |= whole.track_totals().contains_key("eviction/poller");

            // Untraced spans, traces under them, overlong children and
            // oldest-first ring truncation: the twin still agrees.
            let (mut ring, _) = causal_stream(seed, true);
            for (i, ev) in ring.iter_mut().enumerate() {
                if i % 17 == 0 {
                    ev.duration = Nanos::from_ns(ev.duration.as_ns() / 3);
                }
            }
            saw_violation |= Profile::from_spans(&ring).violations() > 0;
            for cut in [0, 1, ring.len() / 3, ring.len() / 2, ring.len() - 1] {
                let kept = &ring[cut..];
                assert_eq!(
                    Profile::from_spans(kept),
                    reference_from_spans(kept),
                    "seed {seed}: ring truncated at {cut}"
                );
            }
        }
        assert!(saw_background, "the streams must cross charges");
        assert!(
            saw_violation,
            "shortened spans must trip the violation count"
        );
    }

    #[test]
    fn fold_computes_self_and_total() {
        let p = Profile::from_spans(&sample_events());
        assert_eq!(p.violations(), 0);
        let access = &p.entries()["application;app_access"];
        assert_eq!((access.count, access.total_ns, access.self_ns), (1, 1_000, 700));
        let verb = &p.entries()["application;app_access;verb"];
        assert_eq!(verb.self_ns, 300);
        let evict = &p.entries()["eviction/poller;evict"];
        assert_eq!(evict.self_ns, 500);
        assert_eq!(p.track_totals()["application"], 1_000);
        assert_eq!(p.track_totals()["eviction/poller"], 900);
        assert_eq!(p.conservation_violations(), 0);
        assert_eq!(p.self_total("application"), 1_000);
        assert_eq!(p.self_total("eviction/poller"), 900);
    }

    #[test]
    fn net_spans_charge_to_their_poster() {
        let p = Profile::from_spans(&sample_events());
        // The eviction's verb leaf folds under Background, not App.
        assert!(p.entries().contains_key("eviction/poller;evict;verb"));
        assert!(!p.entries().contains_key("application;evict;verb"));
    }

    #[test]
    fn legacy_unlinked_spans_fold_as_roots() {
        let events = vec![SpanEvent::new(
            Track::App,
            Nanos::from_ns(5),
            Nanos::from_ns(50),
            EventKind::Sync,
        )];
        let p = Profile::from_spans(&events);
        assert_eq!(p.entries()["application;sync"].self_ns, 50);
        assert_eq!(p.conservation_violations(), 0);
    }

    #[test]
    fn instants_are_skipped() {
        let mut events = sample_events();
        events.push(SpanEvent::new(
            Track::Net,
            Nanos::from_ns(20),
            Nanos::ZERO,
            EventKind::Fault(crate::event::FaultKind::Dropped),
        ));
        let p = Profile::from_spans(&events);
        assert!(!p.entries().keys().any(|k| k.contains("fault")));
    }

    #[test]
    fn overlong_children_are_counted_as_violations() {
        let events = vec![
            span(Track::App, 0, 80, EventKind::LocalHit, 2, 1),
            span(Track::App, 0, 50, EventKind::AppAccess, 1, 0),
        ];
        let p = Profile::from_spans(&events);
        assert_eq!(p.violations(), 1);
        assert!(p.conservation_violations() > 0);
    }

    #[test]
    fn merge_is_order_independent() {
        let a = Profile::from_spans(&sample_events());
        let b = {
            let mut events = sample_events();
            for ev in &mut events {
                ev.start += Nanos::from_ns(10_000);
            }
            Profile::from_spans(&events)
        };
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.to_json(), ba.to_json());
        assert_eq!(
            ab.entries()["application;app_access"].count,
            2 * a.entries()["application;app_access"].count
        );
    }

    #[test]
    fn collapsed_format_is_flamegraph_shaped() {
        let p = Profile::from_spans(&sample_events());
        let folded = p.to_collapsed();
        assert!(folded.contains("application;app_access;verb 300\n"));
        for line in folded.lines() {
            let (path, value) = line.rsplit_once(' ').expect("path value");
            assert!(!path.is_empty());
            assert!(value.parse::<u64>().expect("numeric weight") > 0);
        }
        // Sorted by path.
        let lines: Vec<&str> = folded.lines().collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
    }

    #[test]
    fn prefixed_inserts_a_frame_under_the_track() {
        let p = Profile::from_spans(&sample_events()).prefixed("shard0");
        assert!(p.entries().contains_key("application;shard0;app_access"));
        assert_eq!(p.track_totals()["application"], 1_000);
    }

    #[test]
    fn queue_stats_fold_links_and_nodes() {
        let mut series = SeriesData::new(1_000);
        let mut w = SeriesWindow::empty(0);
        w.counters.insert("net.link0.wrs".into(), 8);
        w.counters.insert("net.link0.inflight_ns".into(), 4_000);
        let mut h = crate::metrics::HistogramData::new();
        h.record(3);
        w.histograms.insert("net.link0.depth".into(), h);
        w.gauges.insert("cluster.node1.backlog_bytes".into(), 640.0);
        w.gauges.insert("cluster.node1.backlog_batches".into(), 2.0);
        // Ingest-time depth histograms outrank the boundary gauges: a
        // backlog that drained before window close still shows its peak.
        let mut depth = crate::metrics::HistogramData::new();
        depth.record(5);
        w.histograms.insert("cluster.node1.backlog_depth".into(), depth);
        let mut bytes = crate::metrics::HistogramData::new();
        bytes.record(1 << 12);
        w.histograms
            .insert("cluster.node1.backlog_bytes_depth".into(), bytes);
        series.windows.push(w);
        let q = QueueStats::from_series(&series);
        assert!(!q.is_empty());
        let link = &q.links[&0];
        assert_eq!(link.wrs, 8);
        assert!((link.peak_mean_depth - 4.0).abs() < 1e-9);
        assert!(link.peak_chain_depth >= 3);
        let node = &q.nodes[&1];
        assert_eq!(node.peak_backlog_bytes, 1 << 12);
        assert_eq!(node.peak_backlog_batches, 5);
        assert!(QueueStats::from_series(&SeriesData::new(1)).is_empty());
    }
}
