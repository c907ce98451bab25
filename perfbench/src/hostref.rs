//! The host reference: a fixed piece of work that belongs to the
//! benchmark, not to the program, timed between cycles of operations.
//!
//! On a host shared with other guests the speed of the same code drifts by
//! a factor of 1.3 to 1.9 within minutes (core clocks and cache and memory
//! contention follow the neighbours' load), so wall times taken minutes
//! apart compare the host as much as the program. The end-to-end times
//! are therefore reported in multiples of this reference's median time,
//! at the operation's thread count, over the runs around the operation's
//! cycle: they move when the program's speed changes, not when the host's
//! does. The wall times are printed beside them.
//!
//! The reference mixes what the workloads do: dependent floating-point
//! arithmetic with square roots and divisions on an L1-resident array, a
//! dependent walk through an L2-resident permutation, and a
//! read-modify-write stream over a buffer larger than L2. It runs once on
//! one thread, and once on two threads at once (a thread spawned for it,
//! each with its own buffers): serial operations are measured against the
//! first, operations at two threads against the second. They take about
//! 1.5 and 1.9 ms on two vCPUs of a 2 GHz Xeon.

use std::hint::black_box;
use std::time::Instant;

/// Elements of the arithmetic field, and passes over it.
const FIELD: usize = 4096;
const PASSES: usize = 12;
/// Entries of the permutation walked (128 KiB), and steps taken.
const WALK: usize = 1 << 15;
const STEPS: usize = 1 << 15;
/// Elements of the streamed buffer (8 MiB).
const STREAM: usize = 1 << 20;

/// One thread's share of the reference, with its own buffers.
struct Work {
    field: Vec<f64>,
    next: Vec<u32>,
    stream: Vec<f64>,
}

impl Work {
    fn new() -> Work {
        // One cycle through all entries: i -> i + a stride coprime to WALK.
        let stride = 9_973;
        Work {
            field: (0..FIELD).map(|i| 1.0 + i as f64 / FIELD as f64).collect(),
            next: (0..WALK).map(|i| ((i + stride) % WALK) as u32).collect(),
            stream: vec![1.0; STREAM],
        }
    }

    fn run(&mut self) {
        let mut acc = 0.0f64;
        for _ in 0..PASSES {
            for &y in black_box(&self.field) {
                let p = (((0.5 * y + 0.25) * y - 0.125) * y + 1.0) * y + 0.5;
                acc += p.sqrt() / (y + acc.abs().min(1.0));
            }
        }
        let mut j = black_box(0usize);
        for _ in 0..STEPS {
            j = self.next[j] as usize;
        }
        for v in black_box(&mut self.stream).iter_mut() {
            *v = *v * 0.999_999 + 1e-6;
        }
        black_box((acc, j, self.stream[j]));
    }
}

pub(crate) struct HostRef {
    a: Work,
    b: Work,
}

impl HostRef {
    pub fn new() -> HostRef {
        HostRef {
            a: Work::new(),
            b: Work::new(),
        }
    }

    /// Wall times of one run of the reference, in seconds: the work on
    /// one thread, and on two threads at once.
    pub fn time(&mut self) -> [f64; 2] {
        let t = Instant::now();
        self.a.run();
        let serial = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let (a, b) = (&mut self.a, &mut self.b);
        std::thread::scope(|s| {
            s.spawn(|| b.run());
            a.run();
        });
        [serial, t.elapsed().as_secs_f64()]
    }
}
