//! The harness's own span log.
//!
//! Spans wrap the calls the harness makes, one per chunk of a pass. A
//! replay of a lower layer is recorded as a child of the span it is
//! subtracted from, so a layer's self time is its spans' duration minus
//! its children's. Replays run after their parent, not inside it: the
//! parent link states "this is the share of that work", and start/end
//! state when the replay itself ran.

use crate::json::Value;
use crate::pass::PassTiming;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// The ledger row the span's self time is booked to.
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// Spans of one chunk of work share it.
    pub chunk_id: u32,
}

/// Pre-sized, append-only; written out once when the run ends.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn with_capacity(capacity: usize) -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Records one span per chunk of `timing`. `parent_first`, when
    /// given, is the id of the parent pass's chunk-0 span: chunk `c`
    /// hangs under `parent_first + c`. Returns the id of this pass's
    /// chunk-0 span.
    pub fn record_pass(
        &mut self,
        name: &'static str,
        layer: &'static str,
        timing: &PassTiming,
        parent_first: Option<u32>,
    ) -> u32 {
        let first = self.spans.len() as u32;
        for c in 0..timing.chunks() {
            let chunk = c as u32;
            self.spans.push(Span {
                name,
                layer,
                start_ns: (timing.marks[c] - self.origin).as_nanos() as u64,
                end_ns: (timing.marks[c + 1] - self.origin).as_nanos() as u64,
                parent: parent_first.map(|p| p + chunk),
                chunk_id: chunk,
            });
        }
        first
    }

    /// Self time per layer, in ns: each span's duration minus its
    /// children's, summed by the span's layer, in first-seen order.
    pub fn self_ns_by_layer(&self) -> Vec<(&'static str, f64)> {
        let mut child_ns = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += (s.end_ns - s.start_ns) as f64;
            }
        }
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (s, children) in self.spans.iter().zip(&child_ns) {
            let own = (s.end_ns - s.start_ns) as f64 - children;
            match out.iter_mut().find(|(layer, _)| *layer == s.layer) {
                Some((_, total)) => *total += own,
                None => out.push((s.layer, own)),
            }
        }
        out
    }

    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Value::obj()
                        .with("id", id as u64)
                        .with("name", s.name)
                        .with("layer", s.layer)
                        .with("start_ns", s.start_ns)
                        .with("end_ns", s.end_ns)
                        .with(
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::from(u64::from(p))),
                        )
                        .with("chunk_id", u64::from(s.chunk_id))
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::timed_chunks;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut log = SpanLog::with_capacity(16);
        let spin = |n: u64| std::hint::black_box((0..n).fold(0u64, |a, b| a ^ b));
        let root = timed_chunks(4, |_| {
            spin(20_000);
        });
        let child = timed_chunks(4, |_| {
            spin(5_000);
        });
        let root_id = log.record_pass("root", "top", &root, None);
        log.record_pass("child", "bottom", &child, Some(root_id));

        let by_layer = log.self_ns_by_layer();
        assert_eq!(by_layer.len(), 2);
        let (top, bottom) = (by_layer[0].1, by_layer[1].1);
        assert!((bottom - child.total_ns()).abs() < 1.0);
        assert!(
            (top + bottom - root.total_ns()).abs() < 1.0,
            "self times sum to the root"
        );

        let json = log.to_json();
        let spans = json.as_arr().unwrap();
        assert_eq!(spans.len(), 8);
        assert_eq!(spans[5].get("parent").and_then(Value::as_f64), Some(1.0));
        assert_eq!(spans[5].get("chunk_id").and_then(Value::as_f64), Some(1.0));
        assert_eq!(spans[0].get("parent"), Some(&Value::Null));
    }
}
