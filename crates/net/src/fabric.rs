//! The fabric: nodes + verbs + timing, with failure injection.

use crate::fault::{FaultInjector, FaultStats};
use crate::latency::NetworkModel;
use crate::node::NodeMemory;
use crate::verbs::{Completion, Opcode, WorkRequest};
use crate::bytes::Bytes;
use kona_telemetry::{Counter, Histogram, Telemetry};
use kona_types::{FxHashMap, KonaError, Nanos, Result};

/// Fabric-wide counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Work requests executed.
    pub requests: u64,
    /// Posted chains (doorbells rung).
    pub posts: u64,
    /// Total bytes moved on the wire.
    pub wire_bytes: u64,
    /// Completions generated.
    pub completions: u64,
    /// Posted chains interrupted by an injected fault.
    pub faulted_posts: u64,
}

impl NetStats {
    /// Accumulates another fabric's counters (shard-merge aggregation).
    pub fn merge(&mut self, other: &NetStats) {
        self.requests += other.requests;
        self.posts += other.posts;
        self.wire_bytes += other.wire_bytes;
        self.completions += other.completions;
        self.faulted_posts += other.faulted_posts;
    }
}

/// Pre-resolved telemetry handles for the fabric's hot path (no string
/// lookups per verb).
#[derive(Debug, Clone)]
struct NetCounters {
    verbs_read: Counter,
    verbs_write: Counter,
    verbs_send: Counter,
    wire_bytes: Counter,
    posts: Counter,
    completions: Counter,
    signaled_chain_ns: Histogram,
    verb_ns_read: Histogram,
    verb_ns_write: Histogram,
    verb_ns_send: Histogram,
    faults_dropped: Counter,
    faults_corrupted: Counter,
    faults_timed_out: Counter,
    faults_node_down: Counter,
}

/// Pre-resolved queueing metrics for one fabric link (initiator → memory
/// node): `net.link<id>.{wrs,inflight_ns,depth}`. The time-integral
/// `inflight_ns` counter divided by a window's width gives that window's
/// mean in-flight depth; the `depth` histogram records per-chain WR
/// counts. Windowed sampling turns these into the congestion table
/// `kona_telemetry::QueueStats` folds.
#[derive(Debug, Clone)]
struct LinkStats {
    wrs: Counter,
    inflight_ns: Counter,
    depth: Histogram,
}

impl LinkStats {
    fn new(telemetry: &Telemetry, node_id: u32) -> Self {
        LinkStats {
            wrs: telemetry.counter_interned("net.link", node_id, "wrs"),
            inflight_ns: telemetry.counter_interned("net.link", node_id, "inflight_ns"),
            depth: telemetry.histogram_interned("net.link", node_id, "depth"),
        }
    }
}

impl NetCounters {
    fn new(telemetry: &Telemetry) -> Self {
        NetCounters {
            verbs_read: telemetry.counter("net.verbs.read"),
            verbs_write: telemetry.counter("net.verbs.write"),
            verbs_send: telemetry.counter("net.verbs.send"),
            wire_bytes: telemetry.counter("net.wire_bytes"),
            posts: telemetry.counter("net.posts"),
            completions: telemetry.counter("net.completions"),
            signaled_chain_ns: telemetry.histogram("net.signaled_chain_ns"),
            verb_ns_read: telemetry.histogram("net.verb_ns.read"),
            verb_ns_write: telemetry.histogram("net.verb_ns.write"),
            verb_ns_send: telemetry.histogram("net.verb_ns.send"),
            faults_dropped: telemetry.counter("net.faults.dropped"),
            faults_corrupted: telemetry.counter("net.faults.corrupted"),
            faults_timed_out: telemetry.counter("net.faults.timed_out"),
            faults_node_down: telemetry.counter("net.faults.node_down"),
        }
    }

    fn for_opcode(&self, opcode: Opcode) -> &Counter {
        match opcode {
            Opcode::Read => &self.verbs_read,
            Opcode::Write => &self.verbs_write,
            Opcode::Send => &self.verbs_send,
        }
    }

    fn latency_for_opcode(&self, opcode: Opcode) -> &Histogram {
        match opcode {
            Opcode::Read => &self.verb_ns_read,
            Opcode::Write => &self.verb_ns_write,
            Opcode::Send => &self.verb_ns_send,
        }
    }

    fn for_fault(&self, kind: kona_types::VerbFaultKind) -> &Counter {
        match kind {
            kona_types::VerbFaultKind::Dropped => &self.faults_dropped,
            kona_types::VerbFaultKind::Corrupted => &self.faults_corrupted,
            kona_types::VerbFaultKind::TimedOut => &self.faults_timed_out,
        }
    }
}

/// The RDMA fabric connecting the compute node to the memory nodes.
///
/// `post` executes a *linked chain* of work requests against the registered
/// node pools and returns the chain's simulated duration plus the
/// completions of its signaled requests. See the
/// [crate documentation](crate) for an example.
///
/// The fabric keeps a simulated clock ([`Fabric::now`]) that advances with
/// every posted chain; an optional [`FaultInjector`] fires its scheduled
/// node flaps/crashes and draws per-verb fault decisions against that
/// clock, making whole chaos runs deterministic for a given seed.
#[derive(Debug, Clone)]
pub struct Fabric {
    model: NetworkModel,
    nodes: FxHashMap<u32, NodeMemory>,
    stats: NetStats,
    /// When set, all verbs to this node fail (manual failure injection,
    /// §4.5). Distinct from the nodes the fault injector takes down.
    failed_nodes: Vec<u32>,
    /// Added to every chain's latency (slow-network injection, §4.5).
    injected_delay: Nanos,
    /// Simulated time, advanced by chain durations and `advance_time`.
    clock: Nanos,
    injector: Option<FaultInjector>,
    net: NetCounters,
    /// Per-destination-node queue metrics, resolved lazily on first post.
    links: FxHashMap<u32, LinkStats>,
    /// Span sink: posted chains become Net-track verb leaves and injected
    /// faults become instant markers inside whatever trace is open.
    telemetry: Telemetry,
}

impl Fabric {
    /// Creates an empty fabric with the given latency model.
    pub fn new(model: NetworkModel) -> Self {
        Fabric {
            model,
            nodes: FxHashMap::default(),
            stats: NetStats::default(),
            failed_nodes: Vec::new(),
            injected_delay: Nanos::ZERO,
            clock: Nanos::ZERO,
            injector: None,
            net: NetCounters::new(&Telemetry::disabled()),
            links: FxHashMap::default(),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Routes the fabric's metrics (per-verb counters, wire bytes,
    /// signaled-chain latencies, injected-fault counters) into
    /// `telemetry`'s registry, and its verb/fault span events into
    /// `telemetry`'s causal tracer.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.net = NetCounters::new(telemetry);
        self.links.clear();
        self.telemetry = telemetry.clone();
    }

    /// The latency model.
    pub fn model(&self) -> NetworkModel {
        self.model
    }

    /// Counters.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Current simulated time. Starts at zero and advances by each posted
    /// chain's duration plus any explicit [`Fabric::advance_time`].
    pub fn now(&self) -> Nanos {
        self.clock
    }

    /// Advances the simulated clock by `delta` (e.g. the runtime sleeping
    /// through a retry backoff) and fires any fault-plan events whose
    /// scheduled time has passed — a flapping node can recover while the
    /// initiator backs off.
    pub fn advance_time(&mut self, delta: Nanos) {
        self.clock += delta;
        if let Some(inj) = &mut self.injector {
            inj.advance_to(self.clock);
        }
        self.telemetry.observe_time(self.clock);
    }

    /// Installs a fault injector; it is consulted on every subsequent
    /// post. Replaces any previous injector.
    pub fn set_fault_injector(&mut self, mut injector: FaultInjector) {
        injector.advance_to(self.clock);
        self.injector = Some(injector);
    }

    /// The installed fault injector, if any.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.injector.as_ref()
    }

    /// Counters of faults the injector has fired (all zero when no
    /// injector is installed).
    pub fn fault_stats(&self) -> FaultStats {
        self.injector.as_ref().map(FaultInjector::stats).unwrap_or_default()
    }

    /// When `node` — currently down or partitioned per the fault plan —
    /// is scheduled to become reachable again. `None` for a healthy,
    /// manually-failed or permanently-crashed node; the recovery engine
    /// uses this to decide whether an outage is worth waiting out
    /// (`PageFaultFallback`). A node that is both flapping and
    /// partitioned is back only when the later of the two clears.
    pub fn node_back_at(&self, node: u32) -> Option<Nanos> {
        let inj = self.injector.as_ref()?;
        let flap_back = inj.node_back_at(node);
        if inj.node_down_at(node, self.clock) && flap_back.is_none() {
            // Crashed for good: no heal time makes it reachable.
            return None;
        }
        let heal = inj.partition_heals_at(node, self.clock);
        match (flap_back, heal) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        }
    }

    /// Whether `node` is unreachable right now, by manual `fail_node` or
    /// by the fault plan.
    pub fn node_down(&self, node: u32) -> bool {
        self.failed_nodes.contains(&node)
            || self
                .injector
                .as_ref()
                .is_some_and(|inj| inj.node_down_at(node, self.clock))
    }

    /// Whether `node` cannot currently serve the initiator at all: down
    /// ([`Fabric::node_down`]) or on the far side of an active partition
    /// cut. The cluster control plane keys lease renewal on this.
    pub fn unreachable(&self, node: u32) -> bool {
        self.node_down(node)
            || self
                .injector
                .as_ref()
                .is_some_and(|inj| inj.cut_at(node, self.clock))
    }

    /// Adds a memory node with `capacity` bytes.
    ///
    /// # Panics
    ///
    /// Panics if the node id already exists.
    pub fn add_node(&mut self, id: u32, capacity: u64) {
        let prev = self.nodes.insert(id, NodeMemory::new(id, capacity));
        assert!(prev.is_none(), "node {id} already exists");
    }

    /// Registers `[offset, offset+len)` on node `id` for RDMA.
    ///
    /// # Errors
    ///
    /// Returns [`KonaError::UnknownMemoryNode`] if the node does not exist.
    pub fn register(&mut self, id: u32, offset: u64, len: u64) -> Result<()> {
        self.nodes
            .get_mut(&id)
            .ok_or(KonaError::UnknownMemoryNode(id))?
            .register(offset, len);
        Ok(())
    }

    /// Deregisters `[offset, offset+len)` on node `id`: verbs touching the
    /// range fail afterwards (regions straddling the edges are split).
    ///
    /// # Errors
    ///
    /// Returns [`KonaError::UnknownMemoryNode`] if the node does not exist.
    pub fn deregister(&mut self, id: u32, offset: u64, len: u64) -> Result<()> {
        self.nodes
            .get_mut(&id)
            .ok_or(KonaError::UnknownMemoryNode(id))?
            .deregister(offset, len);
        Ok(())
    }

    /// Immutable access to a node's memory.
    pub fn node(&self, id: u32) -> Option<&NodeMemory> {
        self.nodes.get(&id)
    }

    /// Mutable access to a node's memory (the node's own CPU, e.g. the
    /// cache-line log receiver).
    pub fn node_mut(&mut self, id: u32) -> Option<&mut NodeMemory> {
        self.nodes.get_mut(&id)
    }

    /// Marks a node failed; subsequent verbs to it error with
    /// [`KonaError::MemoryNodeFailed`] until [`Fabric::recover_node`].
    ///
    /// # Errors
    ///
    /// Returns [`KonaError::UnknownMemoryNode`] if no node with this id
    /// exists — failing a node that was never added is a harness bug, not
    /// a scenario.
    pub fn fail_node(&mut self, id: u32) -> Result<()> {
        if !self.nodes.contains_key(&id) {
            return Err(KonaError::UnknownMemoryNode(id));
        }
        if !self.failed_nodes.contains(&id) {
            self.failed_nodes.push(id);
        }
        Ok(())
    }

    /// Restores a manually-failed node (no-op if it was not failed).
    pub fn recover_node(&mut self, id: u32) {
        self.failed_nodes.retain(|&n| n != id);
    }

    /// Injects `delay` into every subsequent chain.
    ///
    /// The delay is **persistent**, not one-shot: each chain posted after
    /// this call is charged `delay` on top of its modeled time, until
    /// [`Fabric::clear_injected_delay`] (or `inject_delay(Nanos::ZERO)`)
    /// resets it. For a *bounded* congestion window tied to simulated
    /// time, use a [`crate::LatencySpike`] in a fault plan instead.
    pub fn inject_delay(&mut self, delay: Nanos) {
        self.injected_delay = delay;
    }

    /// Clears any delay set by [`Fabric::inject_delay`].
    pub fn clear_injected_delay(&mut self) {
        self.injected_delay = Nanos::ZERO;
    }

    /// Executes a linked chain of work requests.
    ///
    /// All requests execute (writes land, reads return data) and the chain
    /// is charged as one doorbell: base latency once, per-link overhead for
    /// the rest, serialization for all bytes, plus one completion cost per
    /// signaled request. The simulated clock advances by the chain's
    /// duration.
    ///
    /// # Errors
    ///
    /// *Static* errors fail atomically-before-side-effects: unknown node
    /// ([`KonaError::UnknownMemoryNode`]), failed/down node
    /// ([`KonaError::MemoryNodeFailed`]) or unregistered memory
    /// ([`KonaError::UnregisteredMemory`]).
    ///
    /// *Injected* faults (drop/corrupt/timeout, or a node lost mid-chain)
    /// fire **during** execution: requests before the faulting one have
    /// landed, the rest have not, and the error is
    /// [`KonaError::VerbFault`] carrying the executed-prefix length.
    /// Verbs are idempotent, so re-posting the whole chain is safe.
    pub fn post(&mut self, chain: Vec<WorkRequest>) -> Result<(Nanos, Vec<Completion>)> {
        // Fire scheduled fault-plan events up to the current instant.
        if let Some(inj) = &mut self.injector {
            inj.advance_to(self.clock);
        }

        // Validate everything first so *static* errors have no side effects.
        for wr in &chain {
            let node_id = wr.remote.node();
            if self.failed_nodes.contains(&node_id) {
                return Err(KonaError::MemoryNodeFailed(node_id));
            }
            if let Some(inj) = &mut self.injector {
                if inj.node_down_at(node_id, self.clock) {
                    inj.note_down_rejection();
                    self.net.faults_node_down.inc();
                    // A down node still costs a detection round trip.
                    self.clock += self.model.rtt();
                    self.telemetry.instant(
                        kona_telemetry::Track::Net,
                        kona_telemetry::EventKind::Fault(kona_telemetry::FaultKind::NodeDown),
                    );
                    self.telemetry.observe_time(self.clock);
                    return Err(KonaError::MemoryNodeFailed(node_id));
                }
            }
            let node = self
                .nodes
                .get(&node_id)
                .ok_or(KonaError::UnknownMemoryNode(node_id))?;
            match wr.opcode {
                Opcode::Write => {
                    node.check_registered(wr.remote.offset(), wr.payload.len() as u64)?
                }
                Opcode::Read => node.check_registered(wr.remote.offset(), wr.read_len)?,
                Opcode::Send => {}
            }
        }

        // A one-request chain — every page fetch — sizes and books its
        // link from the stack; only longer chains build collections.
        let lone = match chain.as_slice() {
            [wr] => Some((wr.remote.node(), [wr.wire_bytes()])),
            _ => None,
        };
        let many: Vec<u64>;
        let sizes: &[u64] = match &lone {
            Some((_, size)) => size,
            None => {
                many = chain.iter().map(WorkRequest::wire_bytes).collect();
                &many
            }
        };
        let signaled = chain.iter().filter(|w| w.is_signaled).count();
        let lead_opcode = chain.first().map(|w| w.opcode);
        // WRs per destination node, for per-link queue depth accounting
        // (BTreeMap so links are visited in node order, deterministically).
        let mut wrs_per_node: std::collections::BTreeMap<u32, u64> =
            std::collections::BTreeMap::new();
        if lone.is_none() {
            for wr in &chain {
                *wrs_per_node.entry(wr.remote.node()).or_default() += 1;
            }
        }
        let mut completions = Vec::with_capacity(signaled);

        for (idx, wr) in chain.into_iter().enumerate() {
            let node_id = wr.remote.node();
            // Injected faults fire mid-execution: the prefix has landed,
            // this request and everything after it have not.
            if let Some(inj) = &mut self.injector {
                // Time at which this request hits the wire.
                let wire_at = self.clock + self.model.chain_time(&sizes[..=idx], 0);
                // `ack_lost`: the request crosses to the node (its side
                // effect happens) but the reverse path is cut, so the
                // verb still times out at the initiator.
                let mut ack_lost = false;
                let fault = if inj.node_down_at(node_id, wire_at) {
                    // The node vanished under the chain: the verb hangs
                    // until its transport deadline.
                    Some(kona_types::VerbFaultKind::TimedOut)
                } else if inj.request_cut_at(node_id, wire_at) {
                    // The request dies at an active partition cut.
                    inj.note_partitioned_verb();
                    Some(kona_types::VerbFaultKind::TimedOut)
                } else if inj.ack_cut_at(node_id, wire_at) {
                    inj.note_partitioned_verb();
                    ack_lost = true;
                    Some(kona_types::VerbFaultKind::TimedOut)
                } else {
                    inj.decide(wr.opcode)
                };
                if let Some(kind) = fault {
                    let penalty = match kind {
                        kona_types::VerbFaultKind::TimedOut => inj.timeout_penalty(),
                        // Drops and CRC rejections are detected by the
                        // ack timeout / NAK round trip.
                        _ => self.model.rtt(),
                    };
                    if ack_lost {
                        // The write landed before its ack was lost; the
                        // executed-prefix count tells the caller so, and
                        // idempotent re-posts are safe either way.
                        let node = self
                            .nodes
                            .get_mut(&node_id)
                            .expect("validated above");
                        if wr.opcode == Opcode::Write {
                            node.write_bytes(wr.remote.offset(), &wr.payload)
                                .expect("validated above");
                        }
                    }
                    self.net.for_fault(kind).inc();
                    self.stats.faulted_posts += 1;
                    self.stats.posts += 1;
                    self.net.posts.inc();
                    self.clock += self.model.chain_time(&sizes[..=idx], 0) + penalty;
                    inj.advance_to(self.clock);
                    self.telemetry.instant(
                        kona_telemetry::Track::Net,
                        kona_telemetry::EventKind::Fault(fault_kind_event(kind)),
                    );
                    self.telemetry.observe_time(self.clock);
                    return Err(KonaError::VerbFault {
                        node: node_id,
                        kind,
                        executed: if ack_lost { idx as u32 + 1 } else { idx as u32 },
                    });
                }
            }
            let node = self
                .nodes
                .get_mut(&node_id)
                .expect("validated above");
            let data = match wr.opcode {
                Opcode::Write => {
                    node.write_bytes(wr.remote.offset(), &wr.payload)
                        .expect("validated above");
                    Bytes::new()
                }
                // The one copy of a read: registered slice to payload.
                Opcode::Read => Bytes::from(
                    node.rdma_read(wr.remote.offset(), wr.read_len)
                        .expect("validated above"),
                ),
                Opcode::Send => Bytes::new(), // control payloads handled by caller
            };
            self.stats.requests += 1;
            self.stats.wire_bytes += wr.wire_bytes();
            self.net.for_opcode(wr.opcode).inc();
            self.net.wire_bytes.add(wr.wire_bytes());
            if wr.is_signaled {
                completions.push(Completion {
                    wr_id: wr.wr_id,
                    data,
                });
            }
        }
        self.stats.posts += 1;
        self.stats.completions += completions.len() as u64;
        self.net.posts.inc();
        self.net.completions.add(completions.len() as u64);
        let spike = match &mut self.injector {
            Some(inj) => inj.extra_latency(self.clock),
            None => Nanos::ZERO,
        };
        let time = self.model.chain_time(sizes, signaled) + self.injected_delay + spike;
        self.clock += time;
        match lone {
            Some((node_id, _)) => self.book_link(node_id, 1, time),
            None => {
                for (node_id, n) in wrs_per_node {
                    self.book_link(node_id, n, time);
                }
            }
        }
        if signaled > 0 {
            self.net.signaled_chain_ns.record(time.as_ns());
        }
        if let Some(opcode) = lead_opcode {
            // Per-verb chain latency, keyed by the chain's lead opcode.
            self.net.latency_for_opcode(opcode).record(time.as_ns());
            // One Net-track leaf per chain, charged to whichever simulated
            // thread posted it (the causal tracer inherits the charge).
            self.telemetry.span_leaf(
                kona_telemetry::Track::Net,
                kona_telemetry::EventKind::Verb {
                    opcode: verb_opcode_event(opcode),
                    bytes: sizes.iter().sum(),
                },
                time,
            );
        }
        self.telemetry.observe_time(self.clock);
        Ok((time, completions))
    }

    /// Per-link occupancy: each of a chain's `wrs` requests to `node_id`
    /// was in flight on that link for the chain's duration. The
    /// time-integral counter (WR·ns) divided by a sampling window's width
    /// yields that window's mean queue depth; the histogram keeps chain
    /// depths.
    fn book_link(&mut self, node_id: u32, wrs: u64, time: Nanos) {
        let link = self
            .links
            .entry(node_id)
            .or_insert_with(|| LinkStats::new(&self.telemetry, node_id));
        link.wrs.add(wrs);
        link.inflight_ns.add(time.as_ns().saturating_mul(wrs));
        link.depth.record(wrs);
    }
}

/// Maps a fabric opcode onto its telemetry mirror.
fn verb_opcode_event(opcode: Opcode) -> kona_telemetry::VerbOpcode {
    match opcode {
        Opcode::Read => kona_telemetry::VerbOpcode::Read,
        Opcode::Write => kona_telemetry::VerbOpcode::Write,
        Opcode::Send => kona_telemetry::VerbOpcode::Send,
    }
}

/// Maps an injected-fault kind onto its telemetry mirror.
fn fault_kind_event(kind: kona_types::VerbFaultKind) -> kona_telemetry::FaultKind {
    match kind {
        kona_types::VerbFaultKind::Dropped => kona_telemetry::FaultKind::Dropped,
        kona_types::VerbFaultKind::Corrupted => kona_telemetry::FaultKind::Corrupted,
        kona_types::VerbFaultKind::TimedOut => kona_telemetry::FaultKind::TimedOut,
    }
}

impl Default for Fabric {
    fn default() -> Self {
        Fabric::new(NetworkModel::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use kona_types::rng::{Rng, StdRng};
    use kona_types::{RemoteAddr, VerbFaultKind};

    fn fabric() -> Fabric {
        let mut f = Fabric::new(NetworkModel::connectx5());
        f.add_node(0, 1 << 16);
        f.register(0, 0, 1 << 16).unwrap();
        f
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut f = fabric();
        f.post(vec![WorkRequest::write(1, RemoteAddr::new(0, 100), vec![7; 64])])
            .unwrap();
        let (_, comps) = f
            .post(vec![WorkRequest::read(2, RemoteAddr::new(0, 100), 64).signaled()])
            .unwrap();
        assert_eq!(comps.len(), 1);
        assert_eq!(&comps[0].data[..], &[7u8; 64][..]);
    }

    #[test]
    fn posts_become_net_track_verb_leaves() {
        let mut f = fabric();
        let tel = Telemetry::with_tracing(64);
        f.set_telemetry(&tel);
        let (time, _) = f
            .post(vec![
                WorkRequest::write(1, RemoteAddr::new(0, 0), vec![7; 64]),
                WorkRequest::read(2, RemoteAddr::new(0, 0), 64).signaled(),
            ])
            .unwrap();
        let events = tel.events();
        assert_eq!(events.len(), 1, "one leaf per posted chain");
        let ev = events[0];
        assert_eq!(ev.track, kona_telemetry::Track::Net);
        assert_eq!(ev.duration, time);
        match ev.kind {
            kona_telemetry::EventKind::Verb { opcode, bytes } => {
                assert_eq!(opcode, kona_telemetry::VerbOpcode::Write, "leading opcode");
                assert_eq!(bytes, f.stats().wire_bytes);
            }
            other => panic!("expected verb leaf, got {other:?}"),
        }
    }

    #[test]
    fn injected_faults_emit_net_track_instants() {
        let mut f = fabric();
        let tel = Telemetry::with_tracing(64);
        f.set_telemetry(&tel);
        f.set_fault_injector(FaultInjector::new(
            FaultPlan::calm(1).with_timeout_prob(1.0),
        ));
        f.post(vec![WorkRequest::write(1, RemoteAddr::new(0, 0), vec![0; 8])])
            .unwrap_err();
        let events = tel.events();
        assert_eq!(events.len(), 1);
        assert!(events[0].is_instant());
        assert_eq!(
            events[0].kind,
            kona_telemetry::EventKind::Fault(kona_telemetry::FaultKind::TimedOut)
        );
        assert_eq!(events[0].track, kona_telemetry::Track::Net);

        // A flap rejection marks node_down.
        let mut f = fabric();
        let tel = Telemetry::with_tracing(64);
        f.set_telemetry(&tel);
        f.set_fault_injector(FaultInjector::new(FaultPlan::calm(1).with_flap(
            0,
            Nanos::ZERO,
            Nanos::secs(1),
        )));
        f.post(vec![WorkRequest::write(1, RemoteAddr::new(0, 0), vec![0; 8])])
            .unwrap_err();
        let events = tel.events();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].kind,
            kona_telemetry::EventKind::Fault(kona_telemetry::FaultKind::NodeDown)
        );
    }

    #[test]
    fn telemetry_mirrors_net_stats() {
        let mut f = fabric();
        let tel = Telemetry::disabled();
        f.set_telemetry(&tel);
        f.post(vec![
            WorkRequest::write(1, RemoteAddr::new(0, 0), vec![7; 64]),
            WorkRequest::read(2, RemoteAddr::new(0, 0), 64).signaled(),
        ])
        .unwrap();
        let snap = tel.snapshot();
        assert_eq!(snap.counter("net.verbs.write"), Some(1));
        assert_eq!(snap.counter("net.verbs.read"), Some(1));
        assert_eq!(snap.counter("net.posts"), Some(1));
        assert_eq!(snap.counter("net.completions"), Some(1));
        assert_eq!(snap.counter("net.wire_bytes"), Some(f.stats().wire_bytes));
        let h = snap.histogram("net.signaled_chain_ns").unwrap();
        assert_eq!(h.count, 1);
        assert!(h.max > 0);
    }

    #[test]
    fn unknown_node_rejected() {
        let mut f = fabric();
        let err = f
            .post(vec![WorkRequest::write(1, RemoteAddr::new(9, 0), vec![0])])
            .unwrap_err();
        assert_eq!(err, KonaError::UnknownMemoryNode(9));
    }

    #[test]
    fn failed_node_rejected_and_recovers() {
        let mut f = fabric();
        f.fail_node(0).unwrap();
        let err = f
            .post(vec![WorkRequest::write(1, RemoteAddr::new(0, 0), vec![0])])
            .unwrap_err();
        assert_eq!(err, KonaError::MemoryNodeFailed(0));
        f.recover_node(0);
        assert!(f
            .post(vec![WorkRequest::write(1, RemoteAddr::new(0, 0), vec![0])])
            .is_ok());
    }

    #[test]
    fn fail_node_on_unknown_id_errors() {
        let mut f = fabric();
        assert_eq!(f.fail_node(42), Err(KonaError::UnknownMemoryNode(42)));
        // The known node is unaffected.
        assert!(f
            .post(vec![WorkRequest::write(1, RemoteAddr::new(0, 0), vec![0])])
            .is_ok());
    }

    #[test]
    fn validation_happens_before_side_effects() {
        let mut f = fabric();
        f.add_node(1, 64); // nothing registered on node 1
        let chain = vec![
            WorkRequest::write(1, RemoteAddr::new(0, 0), vec![9; 8]),
            WorkRequest::write(2, RemoteAddr::new(1, 0), vec![9; 8]),
        ];
        assert!(f.post(chain).is_err());
        // First write must NOT have landed.
        assert_eq!(f.node(0).unwrap().read_bytes(0, 8), &[0u8; 8]);
    }

    #[test]
    fn chain_cheaper_than_individual_posts() {
        let mut f = fabric();
        let chain: Vec<_> = (0..8)
            .map(|i| WorkRequest::write(i, RemoteAddr::new(0, i * 64), vec![1; 64]))
            .collect();
        let (chained, _) = f.post(chain).unwrap();
        let mut individual = Nanos::ZERO;
        for i in 0..8u64 {
            let (t, _) = f
                .post(vec![WorkRequest::write(i, RemoteAddr::new(0, i * 64), vec![1; 64])])
                .unwrap();
            individual += t;
        }
        assert!(chained < individual / 4);
    }

    #[test]
    fn injected_delay_is_persistent_until_cleared() {
        let mut f = fabric();
        let (base, _) = f
            .post(vec![WorkRequest::write(1, RemoteAddr::new(0, 0), vec![0; 64])])
            .unwrap();
        f.inject_delay(Nanos::millis(1));
        // Persistent: EVERY subsequent chain pays the delay, not just one.
        for _ in 0..3 {
            let (slow, _) = f
                .post(vec![WorkRequest::write(1, RemoteAddr::new(0, 0), vec![0; 64])])
                .unwrap();
            assert_eq!(slow - base, Nanos::millis(1));
        }
        f.clear_injected_delay();
        let (after, _) = f
            .post(vec![WorkRequest::write(1, RemoteAddr::new(0, 0), vec![0; 64])])
            .unwrap();
        assert_eq!(after, base);
    }

    #[test]
    fn stats_accumulate() {
        let mut f = fabric();
        f.post(vec![
            WorkRequest::write(1, RemoteAddr::new(0, 0), vec![0; 64]),
            WorkRequest::write(2, RemoteAddr::new(0, 64), vec![0; 64]).signaled(),
        ])
        .unwrap();
        let s = f.stats();
        assert_eq!(s.requests, 2);
        assert_eq!(s.posts, 1);
        assert_eq!(s.wire_bytes, 128);
        assert_eq!(s.completions, 1);
        assert_eq!(s.faulted_posts, 0);
    }

    #[test]
    fn clock_advances_with_posts_and_advance_time() {
        let mut f = fabric();
        assert_eq!(f.now(), Nanos::ZERO);
        let (t, _) = f
            .post(vec![WorkRequest::write(1, RemoteAddr::new(0, 0), vec![0; 64])])
            .unwrap();
        assert_eq!(f.now(), t);
        f.advance_time(Nanos::micros(5));
        assert_eq!(f.now(), t + Nanos::micros(5));
    }

    #[test]
    fn injector_drop_faults_whole_first_verb() {
        let mut f = fabric();
        f.set_fault_injector(FaultInjector::new(
            FaultPlan::calm(1).with_drop_prob(1.0),
        ));
        let err = f
            .post(vec![WorkRequest::write(1, RemoteAddr::new(0, 0), vec![9; 8])])
            .unwrap_err();
        assert_eq!(
            err,
            KonaError::VerbFault {
                node: 0,
                kind: VerbFaultKind::Dropped,
                executed: 0,
            }
        );
        // Nothing landed, but simulated time passed and the post counted.
        assert_eq!(f.node(0).unwrap().read_bytes(0, 8), &[0u8; 8]);
        assert!(f.now() > Nanos::ZERO);
        assert_eq!(f.stats().faulted_posts, 1);
        assert_eq!(f.fault_stats().dropped, 1);
    }

    #[test]
    fn mid_chain_fault_reports_partial_execution() {
        // Only SENDs fault: the two writes land, the trailing send faults,
        // and the error reports exactly how much of the chain executed.
        let mut plan = FaultPlan::calm(3);
        plan.send.drop = 1.0;
        let mut f = fabric();
        f.set_fault_injector(FaultInjector::new(plan));
        let err = f
            .post(vec![
                WorkRequest::write(1, RemoteAddr::new(0, 0), vec![5; 8]),
                WorkRequest::write(2, RemoteAddr::new(0, 64), vec![6; 8]),
                WorkRequest::send(3, RemoteAddr::new(0, 0), vec![1]),
            ])
            .unwrap_err();
        assert_eq!(
            err,
            KonaError::VerbFault {
                node: 0,
                kind: VerbFaultKind::Dropped,
                executed: 2,
            }
        );
        // The executed prefix landed...
        assert_eq!(f.node(0).unwrap().read_bytes(0, 8), &[5u8; 8]);
        assert_eq!(f.node(0).unwrap().read_bytes(64, 8), &[6u8; 8]);
        // ...and re-posting the whole chain is safe (idempotent verbs).
        let mut retry_plan = FaultPlan::calm(3);
        retry_plan.send.drop = 0.0;
        f.set_fault_injector(FaultInjector::new(retry_plan));
        assert!(f
            .post(vec![
                WorkRequest::write(1, RemoteAddr::new(0, 0), vec![5; 8]),
                WorkRequest::write(2, RemoteAddr::new(0, 64), vec![6; 8]),
                WorkRequest::send(3, RemoteAddr::new(0, 0), vec![1]),
            ])
            .is_ok());
    }

    #[test]
    fn node_lost_mid_chain_times_out_with_prefix_landed() {
        // Node 0 flaps just after the first link of the chain hits the
        // wire: the first write lands, the second times out.
        let mut f = fabric();
        let first_link = f.model().chain_time(&[8], 0);
        let plan = FaultPlan::calm(1).with_flap(
            0,
            first_link + Nanos::from_ns(1),
            Nanos::micros(50),
        );
        f.set_fault_injector(FaultInjector::new(plan));
        let err = f
            .post(vec![
                WorkRequest::write(1, RemoteAddr::new(0, 0), vec![5; 8]),
                WorkRequest::write(2, RemoteAddr::new(0, 64), vec![6; 8]),
            ])
            .unwrap_err();
        assert_eq!(
            err,
            KonaError::VerbFault {
                node: 0,
                kind: VerbFaultKind::TimedOut,
                executed: 1,
            }
        );
        assert_eq!(f.node(0).unwrap().read_bytes(0, 8), &[5u8; 8]);
        assert_eq!(f.node(0).unwrap().read_bytes(64, 8), &[0u8; 8]);
        // Whole-post validation now rejects the down node...
        let err = f
            .post(vec![WorkRequest::write(3, RemoteAddr::new(0, 0), vec![7; 8])])
            .unwrap_err();
        assert_eq!(err, KonaError::MemoryNodeFailed(0));
        assert!(f.node_down(0));
        assert!(f.node_back_at(0).is_some());
        // ...until the flap window passes.
        f.advance_time(Nanos::micros(60));
        assert!(!f.node_down(0));
        assert!(f
            .post(vec![WorkRequest::write(3, RemoteAddr::new(0, 0), vec![7; 8])])
            .is_ok());
    }

    #[test]
    fn crashed_node_rejected_before_side_effects() {
        let mut f = fabric();
        f.set_fault_injector(FaultInjector::new(
            FaultPlan::calm(1).with_crash(0, Nanos::ZERO),
        ));
        let err = f
            .post(vec![WorkRequest::write(1, RemoteAddr::new(0, 0), vec![9; 8])])
            .unwrap_err();
        assert_eq!(err, KonaError::MemoryNodeFailed(0));
        assert_eq!(f.node(0).unwrap().read_bytes(0, 8), &[0u8; 8]);
        assert_eq!(f.fault_stats().node_down_rejections, 1);
        assert_eq!(f.node_back_at(0), None);
    }

    #[test]
    fn partitioned_verbs_time_out_and_nothing_lands() {
        let mut f = fabric();
        let plan = FaultPlan::calm(1).with_partition(
            &[&[0]],
            Nanos::ZERO,
            Nanos::micros(100),
        );
        f.set_fault_injector(FaultInjector::new(plan));
        let before = f.now();
        let err = f
            .post(vec![WorkRequest::write(1, RemoteAddr::new(0, 0), vec![9; 8])])
            .unwrap_err();
        assert_eq!(
            err,
            KonaError::VerbFault {
                node: 0,
                kind: VerbFaultKind::TimedOut,
                executed: 0,
            }
        );
        // Nothing landed; the verb hung for the timeout penalty.
        assert_eq!(f.node(0).unwrap().read_bytes(0, 8), &[0u8; 8]);
        assert!(f.now() >= before + Nanos::micros(30));
        assert_eq!(f.fault_stats().partitioned_verbs, 1);
        // The node is not *down* — it is alive on the far side.
        assert!(!f.node_down(0));
        assert!(f.unreachable(0));
        assert_eq!(f.node_back_at(0), Some(Nanos::micros(100)));
        // The partition heals on schedule and the same verb succeeds.
        let wait = Nanos::micros(100).saturating_sub(f.now());
        f.advance_time(wait);
        assert!(!f.unreachable(0));
        assert!(f
            .post(vec![WorkRequest::write(1, RemoteAddr::new(0, 0), vec![9; 8])])
            .is_ok());
        assert_eq!(f.node(0).unwrap().read_bytes(0, 8), &[9u8; 8]);
    }

    #[test]
    fn ack_lost_write_lands_but_times_out() {
        let mut f = fabric();
        let plan = FaultPlan::calm(1).with_link_cut(
            0,
            Nanos::ZERO,
            Nanos::micros(100),
            crate::fault::CutDirection::AckLost,
        );
        f.set_fault_injector(FaultInjector::new(plan));
        let err = f
            .post(vec![WorkRequest::write(1, RemoteAddr::new(0, 0), vec![7; 8])])
            .unwrap_err();
        // The initiator sees a timeout, but the write crossed the cut
        // before the ack was lost — the executed count says so.
        assert_eq!(
            err,
            KonaError::VerbFault {
                node: 0,
                kind: VerbFaultKind::TimedOut,
                executed: 1,
            }
        );
        assert_eq!(f.node(0).unwrap().read_bytes(0, 8), &[7u8; 8]);
        assert_eq!(f.fault_stats().partitioned_verbs, 1);
    }

    #[test]
    fn spike_latency_charged_inside_window() {
        let mut f = fabric();
        let (base, _) = f
            .post(vec![WorkRequest::write(1, RemoteAddr::new(0, 0), vec![0; 64])])
            .unwrap();
        // Window covers the next post's instant.
        let plan = FaultPlan::calm(1).with_spike(Nanos::ZERO, Nanos::secs(1), Nanos::micros(7));
        f.set_fault_injector(FaultInjector::new(plan));
        let (spiked, _) = f
            .post(vec![WorkRequest::write(1, RemoteAddr::new(0, 0), vec![0; 64])])
            .unwrap();
        assert_eq!(spiked - base, Nanos::micros(7));
    }

    #[test]
    fn fault_telemetry_counters_exported() {
        let mut f = fabric();
        let tel = Telemetry::disabled();
        f.set_telemetry(&tel);
        f.set_fault_injector(FaultInjector::new(
            FaultPlan::calm(1).with_timeout_prob(1.0),
        ));
        let err = f
            .post(vec![WorkRequest::write(1, RemoteAddr::new(0, 0), vec![0; 8])])
            .unwrap_err();
        assert!(matches!(
            err,
            KonaError::VerbFault {
                kind: VerbFaultKind::TimedOut,
                ..
            }
        ));
        let snap = tel.snapshot();
        assert_eq!(snap.counter("net.faults.timed_out"), Some(1));
    }

    #[test]
    #[should_panic]
    fn duplicate_node_panics() {
        let mut f = fabric();
        f.add_node(0, 64);
    }

    /// The fabric behaves like plain remote memory: any sequence of
    /// writes followed by reads returns exactly what a byte-array
    /// mirror holds, and total time is positive and additive.
    #[test]
    fn prop_fabric_is_remote_memory() {
        let mut rng = StdRng::seed_from_u64(0xFAB);
        for _ in 0..32 {
            let ops: Vec<(u64, usize, u8)> = (0..rng.gen_range(1usize..50))
                .map(|_| {
                    (
                        rng.gen_range(0u64..1024),
                        rng.gen_range(1usize..128),
                        rng.gen(),
                    )
                })
                .collect();
            let mut f = fabric();
            let mut mirror = vec![0u8; 1 << 16];
            let mut total = Nanos::ZERO;
            for &(off, len, byte) in &ops {
                let off = off * 64; // keep inside the registered region
                let data = vec![byte; len];
                let (t, _) = f
                    .post(vec![WorkRequest::write(0, RemoteAddr::new(0, off), data.clone())])
                    .unwrap();
                total += t;
                mirror[off as usize..off as usize + len].copy_from_slice(&data);
            }
            for &(off, len, _) in &ops {
                let off = off * 64;
                let (t, comps) = f
                    .post(vec![
                        WorkRequest::read(1, RemoteAddr::new(0, off), len as u64).signaled()
                    ])
                    .unwrap();
                total += t;
                assert_eq!(&comps[0].data[..], &mirror[off as usize..off as usize + len]);
            }
            assert!(total >= f.model().base_latency * (ops.len() as u64 * 2));
        }
    }
}
