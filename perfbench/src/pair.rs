//! Two workloads run as one closed loop. Every cycle of the combined op
//! sequence runs `KA` cycles of part `A` and `KB` cycles of part `B`, each
//! operation in a seeded slot of the cycle, so both parts are measured
//! over the whole run and every cycle runs the same mix of calls.

use crate::tracer::Tracer;
use crate::{ExecRow, Rng, ScaleRow, Workload};

/// An operation's output: from part `A` or from part `B`.
pub(crate) enum Either<X, Y> {
    A(X),
    B(Y),
}

/// The part that runs an operation, and the operation's index in that
/// part's own sequence.
#[derive(Clone, Copy)]
enum Route {
    A(usize),
    B(usize),
}

pub(crate) struct Pair<A, B, const KA: usize, const KB: usize> {
    seed: u64,
    a: A,
    b: B,
}

impl<A: Workload, B: Workload, const KA: usize, const KB: usize> Pair<A, B, KA, KB> {
    /// Operations of each part in one combined cycle.
    fn part_ops(&self) -> (usize, usize) {
        (KA * self.a.cycle(), KB * self.b.cycle())
    }

    fn route(&self, i: usize) -> Route {
        let (ca, cb) = self.part_ops();
        let n = ca + cb;
        let cycle = i / n;
        let mut order: Vec<usize> = (0..n).collect();
        let mut r = Rng::new(self.seed, 0x7000_0000 + cycle as u64);
        for k in (1..n).rev() {
            order.swap(k, r.below(k + 1));
        }
        match order[i % n] {
            slot if slot < ca => Route::A(cycle * ca + slot),
            slot => Route::B(cycle * cb + slot - ca),
        }
    }
}

impl<A: Workload, B: Workload, const KA: usize, const KB: usize> Workload for Pair<A, B, KA, KB> {
    type Out = Either<A::Out, B::Out>;

    fn setup(seed: u64, smoke: bool, tr: &mut Tracer) -> Self {
        Pair {
            seed,
            a: A::setup(seed, smoke, tr),
            b: B::setup(seed, smoke, tr),
        }
    }

    fn prepare(&mut self) {
        self.a.prepare();
        self.b.prepare();
    }

    fn run(&mut self, i: usize, tr: &mut Tracer) -> Self::Out {
        match self.route(i) {
            Route::A(j) => Either::A(self.a.run(j, tr)),
            Route::B(j) => Either::B(self.b.run(j, tr)),
        }
    }

    fn check(&self, i: usize, out: &Self::Out) -> bool {
        match (self.route(i), out) {
            (Route::A(j), Either::A(x)) => self.a.check(j, x),
            (Route::B(j), Either::B(y)) => self.b.check(j, y),
            _ => false,
        }
    }

    fn flip(out: &mut Self::Out) {
        match out {
            Either::A(x) => A::flip(x),
            Either::B(y) => B::flip(y),
        }
    }

    fn cycle(&self) -> usize {
        let (ca, cb) = self.part_ops();
        ca + cb
    }

    fn parallel(&self, i: usize) -> bool {
        match self.route(i) {
            Route::A(j) => self.a.parallel(j),
            Route::B(j) => self.b.parallel(j),
        }
    }

    /// Whole combined cycles that cover each part's own traced pass.
    fn traced_ops(&self) -> usize {
        let (ca, cb) = self.part_ops();
        let cycles = self
            .a
            .traced_ops()
            .div_ceil(ca)
            .max(self.b.traced_ops().div_ceil(cb));
        cycles * (ca + cb)
    }

    fn after_traced_op(&mut self, i: usize, out: &Self::Out, tr: &mut Tracer) {
        match (self.route(i), out) {
            (Route::A(j), Either::A(x)) => self.a.after_traced_op(j, x, tr),
            (Route::B(j), Either::B(y)) => self.b.after_traced_op(j, y, tr),
            _ => {}
        }
    }

    fn executor_rows(&self) -> Vec<ExecRow> {
        [self.a.executor_rows(), self.b.executor_rows()].concat()
    }

    fn scaling_rows(&self) -> Vec<ScaleRow> {
        [self.a.scaling_rows(), self.b.scaling_rows()].concat()
    }
}
