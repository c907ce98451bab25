//! Span-tree profiler: fold the timeline ring's `obs::region` span events
//! into an aggregated call tree with inclusive/self time and per-node
//! counter deltas, exported as a rendered table and as collapsed-stack
//! text (inferno / speedscope `flamegraph.pl` format).
//!
//! Folding rules (proptest-pinned in `telemetry_props.rs`):
//!
//! * Events are grouped per recording thread; each thread's retained
//!   suffix is replayed against a stack. Region guards are strictly LIFO
//!   per thread, so no reordering is needed.
//! * A `SpanEnd` with an empty stack is an orphan (its begin was evicted
//!   by drop-oldest) and is skipped — exactly what the Chrome exporter
//!   does.
//! * Frames still open when the thread's event stream ends are closed at
//!   the thread's last timestamp, again mirroring the exporter.
//! * A closing frame adds `end − begin` to its node's inclusive time and
//!   `inclusive − Σ(direct children's inclusive)` to its self time
//!   (saturating, so clock jitter can't go negative). Aggregated over all
//!   instances this yields the two invariants the proptests pin:
//!   `incl ≥ self` and `Σ children's incl ≤ parent's incl` per node.
//! * Counter deltas are merged in from the `obs::spans` registry by
//!   slash-joined path (the timeline ring doesn't carry counters; the
//!   span registry already aggregates them inclusively per path).

use crate::obs::{self, Snapshot, SpanStat};
use crate::timeline::{EventPayload, TimelineEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One aggregated node of the span tree (all instances of one path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    pub name: String,
    /// Times a span with this path closed.
    pub count: u64,
    /// Total inclusive wall time over all instances, ns.
    pub incl_ns: u64,
    /// Total self (exclusive) wall time over all instances, ns.
    pub self_ns: u64,
    /// Inclusive counter delta from the `obs::spans` registry.
    pub counters: Snapshot,
    pub children: BTreeMap<String, SpanNode>,
}

impl SpanNode {
    fn new(name: &str) -> SpanNode {
        SpanNode {
            name: name.to_string(),
            count: 0,
            incl_ns: 0,
            self_ns: 0,
            counters: Snapshot::zero(),
            children: BTreeMap::new(),
        }
    }
}

/// The aggregated call tree over one timeline session.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanTree {
    pub roots: BTreeMap<String, SpanNode>,
}

/// One in-flight stack frame during folding.
struct Frame {
    name: String,
    t0_ns: u64,
    child_ns: u64,
}

impl SpanTree {
    /// Total inclusive time across root spans, ns.
    pub fn total_incl_ns(&self) -> u64 {
        self.roots.values().map(|n| n.incl_ns).sum()
    }

    /// Total span closings folded into the tree.
    pub fn total_count(&self) -> u64 {
        fn rec(n: &SpanNode) -> u64 {
            n.count + n.children.values().map(rec).sum::<u64>()
        }
        self.roots.values().map(rec).sum()
    }

    /// The node at slash-joined `path`, if present.
    pub fn node(&self, path: &str) -> Option<&SpanNode> {
        let mut segs = path.split('/');
        let mut node = self.roots.get(segs.next()?)?;
        for seg in segs {
            node = node.children.get(seg)?;
        }
        Some(node)
    }

    fn node_mut(&mut self, path: &[String]) -> &mut SpanNode {
        let (first, rest) = path.split_first().expect("non-empty path");
        let mut node = self
            .roots
            .entry(first.clone())
            .or_insert_with(|| SpanNode::new(first));
        for seg in rest {
            node = node
                .children
                .entry(seg.clone())
                .or_insert_with(|| SpanNode::new(seg));
        }
        node
    }

    /// Collapsed-stack export (`flamegraph.pl` / inferno / speedscope):
    /// one line per node, `root;child;leaf self_ns`, depth-first in name
    /// order. Semicolons inside span names are mapped to `:` so the stack
    /// separator stays unambiguous.
    pub fn collapsed(&self) -> String {
        fn sanitize(name: &str) -> String {
            name.replace(';', ":").replace(' ', "_")
        }
        fn rec(out: &mut String, prefix: &str, node: &SpanNode) {
            let path = if prefix.is_empty() {
                sanitize(&node.name)
            } else {
                format!("{prefix};{}", sanitize(&node.name))
            };
            if node.count > 0 || node.self_ns > 0 {
                let _ = writeln!(out, "{path} {}", node.self_ns);
            }
            for child in node.children.values() {
                rec(out, &path, child);
            }
        }
        let mut out = String::new();
        for root in self.roots.values() {
            rec(&mut out, "", root);
        }
        out
    }

    /// Human-readable profile table, depth-indented, with per-node counter
    /// highlights.
    pub fn render_table(&self) -> String {
        let total = self.total_incl_ns().max(1);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<40} {:>8} {:>12} {:>12} {:>6} {:>14}",
            "span", "count", "incl_ms", "self_ms", "incl%", "sve_instrs"
        );
        fn rec(out: &mut String, node: &SpanNode, depth: usize, total: u64) {
            let label = format!("{:indent$}{}", "", node.name, indent = depth * 2);
            let _ = writeln!(
                out,
                "{label:<40} {:>8} {:>12.3} {:>12.3} {:>5.1}% {:>14}",
                node.count,
                node.incl_ns as f64 / 1e6,
                node.self_ns as f64 / 1e6,
                node.incl_ns as f64 * 100.0 / total as f64,
                node.counters.get(obs::Counter::SveInstrs),
            );
            for child in node.children.values() {
                rec(out, child, depth + 1, total);
            }
        }
        for root in self.roots.values() {
            rec(&mut out, root, 0, total);
        }
        out
    }
}

fn close_top(tree: &mut SpanTree, stack: &mut Vec<Frame>, end_ns: u64) {
    let frame = stack.pop().expect("close_top on non-empty stack");
    let incl = end_ns.saturating_sub(frame.t0_ns);
    let self_ns = incl.saturating_sub(frame.child_ns);
    let path: Vec<String> = stack
        .iter()
        .map(|f| f.name.clone())
        .chain(std::iter::once(frame.name))
        .collect();
    let node = tree.node_mut(&path);
    node.count += 1;
    node.incl_ns = node.incl_ns.saturating_add(incl);
    node.self_ns = node.self_ns.saturating_add(self_ns);
    if let Some(parent) = stack.last_mut() {
        parent.child_ns = parent.child_ns.saturating_add(incl);
    }
}

/// Fold timeline span events (plus the `obs::spans` counter registry) into
/// an aggregated [`SpanTree`]. Pure over its inputs, so tests can feed
/// synthetic event streams; `events` may be any interleaving that is
/// well-nested *per thread* (exactly what [`crate::timeline::export_events`]
/// returns).
pub fn fold(events: &[TimelineEvent], span_stats: &[SpanStat]) -> SpanTree {
    let mut per_tid: BTreeMap<u64, Vec<&TimelineEvent>> = BTreeMap::new();
    for ev in events {
        if matches!(ev.payload, EventPayload::SpanBegin | EventPayload::SpanEnd) {
            per_tid.entry(ev.tid).or_default().push(ev);
        }
    }
    let mut tree = SpanTree::default();
    for evs in per_tid.values() {
        let mut stack: Vec<Frame> = Vec::new();
        let last_ts = evs.last().map_or(0, |e| e.ts_ns);
        for ev in evs {
            match ev.payload {
                EventPayload::SpanBegin => stack.push(Frame {
                    name: ev.name.clone(),
                    t0_ns: ev.ts_ns,
                    child_ns: 0,
                }),
                // Orphan ends (begin evicted by drop-oldest) are skipped,
                // mirroring the Chrome exporter.
                EventPayload::SpanEnd if !stack.is_empty() => {
                    close_top(&mut tree, &mut stack, ev.ts_ns);
                }
                _ => {}
            }
        }
        // Close frames still open at stream end at the last timestamp.
        while !stack.is_empty() {
            close_top(&mut tree, &mut stack, last_ts);
        }
    }
    for stat in span_stats {
        let path: Vec<String> = stat.path.split('/').map(str::to_string).collect();
        if path.is_empty() || path.iter().any(String::is_empty) {
            continue;
        }
        tree.node_mut(&path).counters.accumulate(&stat.counters);
    }
    tree
}

/// Fold the *current* timeline session and span registry. Empty without
/// the `obs` feature or when nothing was recorded.
pub fn profile() -> SpanTree {
    fold(&crate::timeline::export_events(), &obs::spans())
}

/// Parse collapsed-stack text back into `stack path → summed value`
/// (duplicate stacks add, per the format's semantics; a sum past
/// `u64::MAX` is an error). The round-trip partner of
/// [`SpanTree::collapsed`] in the golden test.
pub fn parse_collapsed(text: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut out = BTreeMap::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        let (stack, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value field in `{line}`", idx + 1))?;
        if stack.is_empty() || stack.split(';').any(str::is_empty) {
            return Err(format!("line {}: empty stack frame in `{line}`", idx + 1));
        }
        let value: u64 = value
            .parse()
            .map_err(|_| format!("line {}: bad value `{value}`", idx + 1))?;
        let sum = out.entry(stack.to_string()).or_insert(0u64);
        *sum = sum
            .checked_add(value)
            .ok_or_else(|| format!("line {}: sum for `{stack}` overflows u64", idx + 1))?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(tid: u64, ts_ns: u64, name: &str, payload: EventPayload) -> TimelineEvent {
        TimelineEvent {
            tid,
            ts_ns,
            name: name.to_string(),
            payload,
        }
    }

    #[test]
    fn folds_nested_spans_with_self_time() {
        use EventPayload::{SpanBegin, SpanEnd};
        let events = vec![
            ev(1, 0, "outer", SpanBegin),
            ev(1, 10, "inner", SpanBegin),
            ev(1, 40, "inner", SpanEnd),
            ev(1, 100, "outer", SpanEnd),
        ];
        let tree = fold(&events, &[]);
        let outer = tree.node("outer").expect("outer folded");
        assert_eq!((outer.count, outer.incl_ns, outer.self_ns), (1, 100, 70));
        let inner = tree.node("outer/inner").expect("inner folded");
        assert_eq!((inner.count, inner.incl_ns, inner.self_ns), (1, 30, 30));
        assert_eq!(tree.total_count(), 2);
    }

    #[test]
    fn orphan_ends_skipped_and_open_spans_closed_at_last_ts() {
        use EventPayload::{SpanBegin, SpanEnd};
        let events = vec![
            ev(1, 5, "lost_begin", SpanEnd), // orphan: begin was dropped
            ev(1, 10, "open", SpanBegin),
            ev(1, 20, "closed", SpanBegin),
            ev(1, 30, "closed", SpanEnd), // last ts: "open" closes here
        ];
        let tree = fold(&events, &[]);
        assert!(tree.node("lost_begin").is_none(), "orphan end folded");
        let open = tree.node("open").expect("open span force-closed");
        assert_eq!((open.incl_ns, open.self_ns), (20, 10));
    }

    #[test]
    fn threads_fold_independently() {
        use EventPayload::{SpanBegin, SpanEnd};
        // Interleaved globally, well-nested per tid.
        let events = vec![
            ev(1, 0, "a", SpanBegin),
            ev(2, 1, "b", SpanBegin),
            ev(1, 10, "a", SpanEnd),
            ev(2, 11, "b", SpanEnd),
        ];
        let tree = fold(&events, &[]);
        assert_eq!(tree.node("a").map(|n| n.incl_ns), Some(10));
        assert_eq!(tree.node("b").map(|n| n.incl_ns), Some(10));
    }

    #[test]
    fn counters_merge_by_path() {
        use EventPayload::{SpanBegin, SpanEnd};
        let events = vec![ev(1, 0, "k", SpanBegin), ev(1, 9, "k", SpanEnd)];
        let mut counters = Snapshot::zero();
        counters.set(obs::Counter::SveInstrs, 42);
        let mut latency = crate::telemetry::HistSnapshot::new();
        latency.observe(9);
        let stats = vec![SpanStat {
            path: "k".to_string(),
            latency,
            counters,
        }];
        let tree = fold(&events, &stats);
        assert_eq!(
            tree.node("k")
                .map(|n| n.counters.get(obs::Counter::SveInstrs)),
            Some(42)
        );
    }

    #[test]
    fn collapsed_sanitizes_separators() {
        use EventPayload::{SpanBegin, SpanEnd};
        let events = vec![
            ev(1, 0, "weird;name with space", SpanBegin),
            ev(1, 7, "weird;name with space", SpanEnd),
        ];
        let text = fold(&events, &[]).collapsed();
        assert_eq!(text, "weird:name_with_space 7\n");
        let parsed = parse_collapsed(&text).expect("round-trips");
        assert_eq!(parsed.get("weird:name_with_space"), Some(&7));
    }

    #[test]
    fn duplicate_stacks_sum_without_wrapping() {
        assert_eq!(
            parse_collapsed("a;b 2\na;b 3\n").expect("sums"),
            BTreeMap::from([("a;b".to_string(), 5)])
        );
        let err = parse_collapsed("a;b 18446744073709551615\na;b 1\n")
            .expect_err("an overflowing sum must be rejected, not wrapped");
        assert!(err.contains("line 2"), "{err}");
    }
}
