//! Happens-before race detector for the pool runtime.
//!
//! Replays a [`TimelineEvent`] stream (PR-4's per-thread tracer, exported
//! by `ookami_core::timeline::export_events`) with vector clocks:
//!
//! * `Fork` on thread `F` opens a region and snapshots `F`'s clock — the
//!   fork point every participant's first chunk synchronizes with;
//! * each `Chunk` on thread `T` joins `T`'s clock with the fork snapshot
//!   (first chunk in the region only), ticks `T`, and records the chunk's
//!   written index range `[start, start+len)` under its `loop_id`;
//! * `Join` on `F` absorbs every participant's clock and ticks `F`, so
//!   writes in *later* regions are ordered after everything before the
//!   barrier.
//!
//! Two chunk writes race when they target the same `loop_id` from
//! different threads, their index ranges overlap, and neither write
//! happens-before the other (vector clocks incomparable). The pool's
//! schedules claim each index exactly once per region, so shipped
//! kernels must report zero races; [`injected_race_events`] builds the
//! overlapping-write stream the self-tests must flag.

use std::collections::HashMap;

use ookami_core::timeline::{EventPayload, TimelineEvent};

/// Sparse vector clock: thread id → logical time.
type Vc = HashMap<u64, u64>;

fn vc_tick(clocks: &mut HashMap<u64, Vc>, tid: u64) {
    *clocks.entry(tid).or_default().entry(tid).or_insert(0) += 1;
}

fn vc_join(dst: &mut Vc, src: &Vc) {
    for (&t, &c) in src {
        let e = dst.entry(t).or_insert(0);
        *e = (*e).max(c);
    }
}

/// One recorded chunk write.
#[derive(Debug, Clone)]
struct Write {
    tid: u64,
    start: u64,
    end: u64,
    /// The writer's own clock component at write time — enough to decide
    /// happens-before against any later snapshot (`w hb x` iff
    /// `x.vc[w.tid] >= w.own`).
    own: u64,
    vc: Vc,
}

/// A pair of overlapping, unordered chunk writes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Race {
    pub loop_id: u64,
    pub tid_a: u64,
    pub range_a: (u64, u64),
    pub tid_b: u64,
    pub range_b: (u64, u64),
}

impl std::fmt::Display for Race {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "loop {}: thread {} writes [{}, {}) unordered with thread {} \
             writing [{}, {})",
            self.loop_id,
            self.tid_a,
            self.range_a.0,
            self.range_a.1,
            self.tid_b,
            self.range_b.0,
            self.range_b.1
        )
    }
}

/// An open fork/join region.
struct Region {
    forker: u64,
    fork_vc: Vc,
    /// Threads whose first chunk already synchronized with the fork.
    synced: Vec<u64>,
}

/// Replay `events` (sorted by `(ts_ns, tid)`, as `export_events` returns
/// them) and report every pair of overlapping chunk writes not ordered by
/// the fork/join protocol.
pub fn detect_races(events: &[TimelineEvent]) -> Vec<Race> {
    let mut clocks: HashMap<u64, Vc> = HashMap::new();
    let mut regions: Vec<Region> = Vec::new();
    let mut writes: HashMap<u64, Vec<Write>> = HashMap::new();
    let mut races = Vec::new();

    for ev in events {
        match ev.payload {
            EventPayload::Fork { .. } => {
                vc_tick(&mut clocks, ev.tid);
                regions.push(Region {
                    forker: ev.tid,
                    fork_vc: clocks.get(&ev.tid).cloned().unwrap_or_default(),
                    synced: Vec::new(),
                });
            }
            EventPayload::Chunk {
                loop_id,
                start,
                len,
                ..
            } => {
                if let Some(region) = regions.last_mut() {
                    if !region.synced.contains(&ev.tid) {
                        region.synced.push(ev.tid);
                        let fork_vc = region.fork_vc.clone();
                        vc_join(clocks.entry(ev.tid).or_default(), &fork_vc);
                    }
                }
                vc_tick(&mut clocks, ev.tid);
                let vc = clocks.get(&ev.tid).cloned().unwrap_or_default();
                let own = vc.get(&ev.tid).copied().unwrap_or(0);
                let w = Write {
                    tid: ev.tid,
                    start,
                    end: start + len,
                    own,
                    vc,
                };
                let ws = writes.entry(loop_id).or_default();
                for prev in ws.iter() {
                    if prev.tid == ev.tid {
                        continue; // program order on one thread
                    }
                    if prev.end <= w.start || w.end <= prev.start {
                        continue; // disjoint ranges
                    }
                    let prev_hb_w = w.vc.get(&prev.tid).copied().unwrap_or(0) >= prev.own;
                    let w_hb_prev = prev.vc.get(&w.tid).copied().unwrap_or(0) >= w.own;
                    if !prev_hb_w && !w_hb_prev {
                        races.push(Race {
                            loop_id,
                            tid_a: prev.tid,
                            range_a: (prev.start, prev.end),
                            tid_b: w.tid,
                            range_b: (w.start, w.end),
                        });
                    }
                }
                ws.push(w);
            }
            EventPayload::Join { .. } => {
                // Close the innermost region this thread forked.
                if let Some(pos) = regions.iter().rposition(|r| r.forker == ev.tid) {
                    let region = regions.remove(pos);
                    let participant_clocks: Vec<Vc> = region
                        .synced
                        .iter()
                        .filter_map(|t| clocks.get(t).cloned())
                        .collect();
                    let fc = clocks.entry(ev.tid).or_default();
                    for pc in &participant_clocks {
                        vc_join(fc, pc);
                    }
                    vc_tick(&mut clocks, ev.tid);
                }
            }
            _ => {}
        }
    }
    races
}

/// A synthetic event stream with an overlapping-write bug: two worker
/// threads of one region both write indices `[40, 60)` of loop 7. The
/// detector must flag exactly this overlap (and nothing in the
/// surrounding well-formed traffic).
pub fn injected_race_events() -> Vec<TimelineEvent> {
    let ev = |tid, ts_ns, payload| TimelineEvent {
        tid,
        ts_ns,
        name: String::from("static"),
        payload,
    };
    let chunk = |loop_id, start, len| EventPayload::Chunk {
        loop_id,
        start,
        len,
        dur_ns: 100,
    };
    vec![
        // A well-formed region first: disjoint halves of loop 6.
        ev(0, 0, EventPayload::Fork { parts: 2 }),
        ev(1, 10, chunk(6, 0, 50)),
        ev(2, 11, chunk(6, 50, 50)),
        ev(0, 30, EventPayload::Join { parts: 2 }),
        // The buggy region: both workers claim [40, 60) of loop 7.
        ev(0, 40, EventPayload::Fork { parts: 2 }),
        ev(1, 50, chunk(7, 0, 60)),
        ev(2, 51, chunk(7, 40, 60)),
        ev(0, 80, EventPayload::Join { parts: 2 }),
        // A later well-formed region must stay clean (ordered by join).
        ev(0, 90, EventPayload::Fork { parts: 1 }),
        ev(1, 95, chunk(8, 0, 100)),
        ev(0, 99, EventPayload::Join { parts: 1 }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injected_overlap_is_the_only_race() {
        let races = detect_races(&injected_race_events());
        assert_eq!(races.len(), 1, "races: {races:?}");
        let r = &races[0];
        assert_eq!(r.loop_id, 7);
        assert_ne!(r.tid_a, r.tid_b);
        // Ranges overlap on [40, 60).
        assert!(r.range_a.0 < r.range_b.1 && r.range_b.0 < r.range_a.1);
    }

    #[test]
    fn join_orders_across_regions() {
        // Same index range written by different threads in *consecutive*
        // regions is ordered by the join barrier — no race.
        let ev = |tid, ts_ns, payload| TimelineEvent {
            tid,
            ts_ns,
            name: String::from("static"),
            payload,
        };
        let chunk = |loop_id, start, len| EventPayload::Chunk {
            loop_id,
            start,
            len,
            dur_ns: 1,
        };
        // Note loop ids differ per region (the pool allocates fresh ids),
        // so cross-region pairs never even share a key; this test forces
        // the same id to prove the clocks alone are sufficient.
        let events = vec![
            ev(0, 0, EventPayload::Fork { parts: 1 }),
            ev(1, 5, chunk(3, 0, 10)),
            ev(0, 9, EventPayload::Join { parts: 1 }),
            ev(0, 10, EventPayload::Fork { parts: 1 }),
            ev(2, 15, chunk(3, 0, 10)),
            ev(0, 19, EventPayload::Join { parts: 1 }),
        ];
        assert!(detect_races(&events).is_empty());
    }

    #[test]
    fn same_thread_never_races_with_itself() {
        let ev = |tid, ts_ns, payload| TimelineEvent {
            tid,
            ts_ns,
            name: String::from("dynamic"),
            payload,
        };
        let chunk = |start| EventPayload::Chunk {
            loop_id: 1,
            start,
            len: 8,
            dur_ns: 1,
        };
        // One thread re-claiming overlapping dynamic chunks (can't happen
        // in the pool, but must not be reported either way).
        let events = vec![
            ev(0, 0, EventPayload::Fork { parts: 1 }),
            ev(1, 5, chunk(0)),
            ev(1, 6, chunk(4)),
            ev(0, 9, EventPayload::Join { parts: 1 }),
        ];
        assert!(detect_races(&events).is_empty());
    }

    #[test]
    fn unsynced_overlap_without_fork_races() {
        // Two threads writing overlapping ranges with no fork/join
        // structure at all: nothing orders them.
        let ev = |tid, ts_ns, payload| TimelineEvent {
            tid,
            ts_ns,
            name: String::from("static"),
            payload,
        };
        let chunk = |start| EventPayload::Chunk {
            loop_id: 2,
            start,
            len: 16,
            dur_ns: 1,
        };
        let events = vec![ev(1, 0, chunk(0)), ev(2, 1, chunk(8))];
        assert_eq!(detect_races(&events).len(), 1);
    }
}
