//! `ookamicheck` — the repo's static-analysis gate, run through the probe
//! harness like every other probe. One run covers:
//!
//! * the `ookami-check` verifier over the 66 shipped programs: every
//!   workload family's trace as recorded, `+opt` and `+lowered`;
//! * the golden corpus (every entry reports exactly its expected codes)
//!   and the trace-mutant self-tests (structural mutants rejected,
//!   semantic ones observably divergent);
//! * translation validation of every family trace, pass by pass through
//!   the trace compiler's pipeline, plus the 24-seed challenge of the
//!   validator;
//! * with obs compiled in, the happens-before race gate over real pool
//!   kernels (timeline events record only with obs).
//!
//! Every verdict is a [`Probe::check`]; the counts and each family
//! trace's `CompileReport` fields are metrics of
//! `target/bench/BENCH_check.json`, which `benchdiff` judges against the
//! committed baseline. Exit 1 means some check failed. Run with:
//!
//! ```text
//! cargo run -p ookami-bench --features obs --bin ookamicheck --release
//! ```

use ookami_bench::family;
use ookami_bench::probe::{Cli, Probe};
use ookami_check::corpus::CorpusEntry;
use ookami_check::{
    detect_races, render_all, validate_trail, verify, Code, MutantVerdict, Program, TvReport,
};
use ookami_core::timeline::{self, TimelineEvent};
use ookami_core::Schedule;
use ookami_loops::emulated as loops_em;
use ookami_mc::emulated as mc_em;
use ookami_sve::{CompileReport, Trace};
use ookami_vecmath::{exp_trace, ExpVariant};

/// Every shipped workload-family trace, one per kernel: Section III
/// loops, Section IV exp, the Monte Carlo example, and the
/// NPB/LULESH/HPCC model kernels.
fn family_traces() -> Vec<(&'static str, Trace)> {
    let vl = 8;
    let tab: Vec<f64> = (0..128).map(|i| f64::from(i) * 0.5).collect();
    let mut scratch = vec![0.0f64; 128];
    vec![
        // -- loops (Section III) --
        ("loops_simple", loops_em::simple_trace(vl)),
        ("loops_predicate", loops_em::predicate_trace(vl).0),
        ("loops_gather", loops_em::gather_trace(vl, &tab, 8)),
        ("loops_scatter", loops_em::scatter_trace(vl, &mut scratch)),
        // -- vecmath exp (Section IV), every variant --
        ("exp_fexpa_horner", exp_trace(vl, ExpVariant::FexpaHorner)),
        ("exp_fexpa_estrin", exp_trace(vl, ExpVariant::FexpaEstrin)),
        (
            "exp_fexpa_corrected",
            exp_trace(vl, ExpVariant::FexpaEstrinCorrected),
        ),
        ("exp_poly13", exp_trace(vl, ExpVariant::Poly13)),
        ("exp_poly13_sleef", exp_trace(vl, ExpVariant::Poly13Sleef)),
        // -- Monte Carlo (Section II example) --
        ("mc_metropolis", mc_em::metropolis_trace(vl, 42).0),
        // -- NPB / LULESH / HPCC model kernels (Sections V–VII) --
        ("npb_cg_matvec", family::cg_matvec_trace(vl)),
        ("lulesh_eos", family::lulesh_eos_trace(vl)),
        ("hpcc_triad", family::hpcc_triad_trace(vl)),
        ("hpcc_dgemm", family::hpcc_dgemm_trace(vl)),
        // -- irregular-memory families (ookami-spmv) --
        ("spmv_crs", family::spmv_crs_trace(vl)),
        ("spmv_sell", family::spmv_sell_trace(vl)),
        ("stream_copy", family::stream_copy_trace(vl)),
        ("stream_scale", family::stream_scale_trace(vl)),
        ("stream_add", family::stream_add_trace(vl)),
        ("stream_triad", family::stream_triad_trace(vl)),
        ("stencil4", family::stencil4_trace(vl)),
        ("stencil7", family::stencil7_trace(vl)),
    ]
}

/// Each family trace is verified three ways: as recorded (`Traced` SSA
/// convention), after the trace compiler's pass pipeline
/// ([`Trace::optimized`], the `+opt` rows — an optimizer pass that broke
/// SSA wiring, predicate safety, or operand domains would turn its `+opt`
/// form DIRTY right here), and as the lowered `to_instrs` stream
/// (`+lowered` rows, non-SSA `Lowered` convention) with the trace's
/// constant and table facts attached — so the `OC0004` bounds pass also
/// covers the instruction stream the cache/pipeline simulators consume.
fn shipped_programs(traces: &[(&str, Trace)]) -> Vec<Program> {
    let mut out = Vec::new();
    for (name, t) in traces {
        out.push(Program::from_trace(name, t));
        out.push(Program::from_trace(&format!("{name}+opt"), &t.optimized()));
        let info = t.analysis();
        let mut low = Program::from_stream(&format!("{name}+lowered"), info.body);
        low.const_lanes = info.const_lanes;
        low.table_len = info.table_len;
        out.push(low);
    }
    out
}

/// Every program must verify without a diagnostic.
fn verify_programs(probe: &mut Probe, programs: &[Program]) {
    println!(
        "{:>22}  {:>6}  {:>6}  {:>8}",
        "program", "instrs", "diags", "verdict"
    );
    let mut dirty = 0usize;
    for p in programs {
        let diags = verify(p);
        let clean = diags.is_empty();
        println!(
            "{:>22}  {:>6}  {:>6}  {:>8}",
            p.name,
            p.instrs.len(),
            diags.len(),
            if clean { "clean" } else { "DIRTY" }
        );
        if !probe.check(clean, format_args!("{} is DIRTY", p.name)) {
            eprint!("{}", render_all(p, &diags));
            dirty += 1;
        }
    }
    probe
        .report
        .metric("programs", programs.len() as f64)
        .metric("dirty_programs", dirty as f64);
}

/// Every corpus entry must report exactly its expected codes.
fn judge_corpus(probe: &mut Probe, entries: &[CorpusEntry]) {
    println!("-- golden corpus --");
    let names = |codes: &[Code]| -> Vec<&str> { codes.iter().map(|c| c.as_str()).collect() };
    let mut mismatched = 0usize;
    for e in entries {
        let got: Vec<_> = verify(&e.program).iter().map(|d| d.code).collect();
        let ok = got == e.expected;
        println!(
            "{:>18}  expect {:?}  {}",
            e.name,
            names(&e.expected),
            if ok { "ok" } else { "MISMATCH" }
        );
        if !probe.check(ok, format_args!("{}: got {:?}", e.name, names(&got))) {
            mismatched += 1;
        }
    }
    probe
        .report
        .metric("corpus_entries", entries.len() as f64)
        .metric("corpus_mismatches", mismatched as f64);
}

/// The bases of the trace-mutant and validator self-tests.
fn mutant_bases() -> [(&'static str, Trace); 2] {
    [
        ("loops_simple", loops_em::simple_trace(8)),
        (
            "exp_fexpa_corrected",
            exp_trace(8, ExpVariant::FexpaEstrinCorrected),
        ),
    ]
}

/// Error-severity diagnostics of `t` as a program.
fn error_count(t: &Trace) -> usize {
    verify(&Program::from_trace("mutant", t))
        .iter()
        .filter(|d| d.is_error())
        .count()
}

/// Print one mutant tally and record it as `mutants.<name>.{rejected,diverged}`.
fn mutant_tally(probe: &mut Probe, name: &str, rejected: usize, diverged: usize) {
    println!("{name:>22}  {rejected} structural rejected, {diverged} semantic diverged");
    probe
        .report
        .metric(&format!("mutants.{name}.rejected"), rejected as f64)
        .metric(&format!("mutants.{name}.diverged"), diverged as f64);
}

/// The trace-mutation self-tests: 24 seeded mutants per base. Seeds with
/// `seed % 4 == 3` are semantic (wiring intact); every other seed breaks
/// the wiring and must be rejected by the verifier.
fn judge_trace_mutants(probe: &mut Probe) {
    println!("-- trace mutants --");
    let bases = mutant_bases();
    let xs: Vec<f64> = (0..64).map(|i| -2.0 + 4.0 * f64::from(i) / 64.0).collect();
    for (name, base) in &bases {
        let reference = base.map(&xs);
        let (mut rejected, mut diverged) = (0usize, 0usize);
        for seed in 0..24u64 {
            let m = base.mutated(seed);
            let errors = error_count(&m);
            if seed % 4 == 3 {
                // Semantic mutants pass the verifier but must change the
                // observable output — otherwise the mutation self-test
                // proves nothing.
                let ok = probe.check(
                    errors == 0,
                    format_args!("{name}: semantic mutant seed={seed} rejected"),
                ) && probe.check(
                    m.map(&xs) != reference,
                    format_args!("{name}: semantic mutant seed={seed} output unchanged"),
                );
                diverged += usize::from(ok);
            } else if probe.check(
                errors > 0,
                format_args!("{name}: structural mutant seed={seed} not rejected"),
            ) {
                rejected += 1;
            }
        }
        mutant_tally(probe, name, rejected, diverged);
    }

    // SpMV's CRS trace cannot go through `Trace::map` (three bound input
    // streams plus a carried accumulator chained across row blocks), so
    // its semantic mutants are judged under the real replay harness —
    // the same path the `spmv` probe and the bit-identity tests use. At
    // least one of them must diverge.
    println!("-- spmv trace mutants (replay-evaluated) --");
    let (mfix, _) = family::spmv_fixture();
    let base = family::spmv_crs_trace(8);
    let reference = ookami_spmv::run_crs_replay(&base, &mfix);
    let (mut rejected, mut diverged) = (0usize, 0usize);
    for seed in 0..24u64 {
        let m = base.mutated(seed);
        let errors = error_count(&m);
        if seed % 4 == 3 {
            if errors == 0 && ookami_spmv::run_crs_replay(&m, &mfix) != reference {
                diverged += 1;
            }
        } else if probe.check(
            errors > 0,
            format_args!("spmv_crs: structural mutant seed={seed} not rejected"),
        ) {
            rejected += 1;
        }
    }
    probe.check(
        diverged > 0,
        "spmv_crs: no semantic mutant diverged under replay",
    );
    mutant_tally(probe, "spmv_crs", rejected, diverged);

    // The same discipline holds *after* the pass pipeline: optimized
    // traces must verify clean, and wiring damage inflicted on an
    // optimized trace must still be rejected — i.e. the verifier keeps
    // its teeth on exactly the programs the trace compiler executes.
    println!("-- optimized-trace mutants --");
    for (name, base) in &bases {
        let opt = base.optimized();
        probe.check(
            error_count(&opt) == 0,
            format_args!("{name}+opt: pass pipeline produced a DIRTY trace"),
        );
        let reference = opt.replay_map(&xs);
        let (mut rejected, mut diverged) = (0usize, 0usize);
        for seed in 0..24u64 {
            let m = opt.mutated(seed);
            let errors = error_count(&m);
            if seed % 4 == 3 {
                if errors == 0 && m.replay_map(&xs) != reference {
                    diverged += 1;
                }
            } else if probe.check(
                errors > 0,
                format_args!("{name}+opt: structural mutant seed={seed} not rejected"),
            ) {
                rejected += 1;
            }
        }
        mutant_tally(probe, &format!("{name}+opt"), rejected, diverged);
    }
}

/// Every translation-validation report must prove all its stages and,
/// where the trace has a native plan, its counter recipe.
fn validate_traces(probe: &mut Probe, reports: &[TvReport]) {
    println!(
        "{:>22}  {:>6}  {:>8}  {:>8}",
        "trace", "stages", "counters", "verdict"
    );
    let (mut proved, mut counters) = (0usize, 0usize);
    for r in reports {
        let ok = r.is_ok();
        println!(
            "{:>22}  {:>6}  {:>8}  {:>8}",
            r.name,
            r.stages.len(),
            if r.counters_checked {
                "proved"
            } else {
                "skipped"
            },
            if ok { "proved" } else { "FAILED" }
        );
        if probe.check(ok, format_args!("{}: {} TV error(s)", r.name, r.errors())) {
            proved += 1;
        } else {
            for s in &r.stages {
                if !s.diags.is_empty() {
                    eprint!("{}", render_all(&s.program, &s.diags));
                }
            }
            for d in &r.counter_diags {
                eprintln!("{}: counters: {}", r.name, d.message);
            }
        }
        counters += usize::from(r.counters_checked);
    }
    probe
        .report
        .metric("tv_traces", reports.len() as f64)
        .metric("tv_proved", proved as f64)
        .metric("tv_counters_checked", counters as f64);
}

/// Record what the pass pipeline did to family trace `name` as
/// `<name>.<field>` metrics.
fn compile_metrics(probe: &mut Probe, name: &str, r: &CompileReport) {
    for (field, v) in [
        ("native", usize::from(r.native)),
        ("body_ops", r.body_ops),
        ("opt_ops", r.opt_ops),
        ("kernels", r.kernels),
        ("fused", r.fused),
        ("folded", r.folded),
        ("pred_simplified", r.pred_simplified),
        ("dead_removed", r.dead_removed),
    ] {
        probe.report.metric(&format!("{name}.{field}"), v as f64);
    }
}

/// Challenge the validator with 24 mutated intermediate stages per base:
/// every mutant must be rejected by TV or observably divergent in replay.
fn challenge_validator(probe: &mut Probe) {
    println!("-- tv mutation self-test (24 seeds per base) --");
    for (name, base) in mutant_bases() {
        let trail = base.pass_trail();
        let (mut rejected, mut divergent) = (0usize, 0usize);
        for seed in 0..24u64 {
            let v = ookami_check::tv::challenge(&trail, seed);
            probe.check(
                v != MutantVerdict::Missed,
                format_args!("{name}: TV accepted a bit-identical mutated stage, seed={seed}"),
            );
            rejected += usize::from(v == MutantVerdict::Rejected);
            divergent += usize::from(v == MutantVerdict::Divergent);
        }
        println!("{name:>22}  {rejected} rejected, {divergent} divergent");
        probe
            .report
            .metric(&format!("challenge.{name}.rejected"), rejected as f64)
            .metric(&format!("challenge.{name}.divergent"), divergent as f64);
    }
}

/// Record a real pool run (all three schedules + a trace replay) and
/// return its timeline events — empty without obs.
fn pool_kernel_events() -> Vec<TimelineEvent> {
    timeline::start(timeline::DEFAULT_CAPACITY);
    let n = 10_000;
    let mut buf = vec![0.0f64; n];
    for sched in [
        Schedule::Static,
        Schedule::Dynamic { chunk: 64 },
        Schedule::Guided,
    ] {
        ookami_core::par_chunks_mut_with(4, &mut buf, 16, sched, |i, c| {
            for (k, x) in c.iter_mut().enumerate() {
                *x = (i * 16 + k) as f64;
            }
        });
    }
    // A trace replay drives the pool through the static path once more.
    let xs: Vec<f64> = (0..4096).map(|i| f64::from(i) * 1.0e-3).collect();
    std::hint::black_box(loops_em::simple_trace(8).par_map(4, &xs));
    timeline::stop();
    timeline::export_events()
}

/// The event stream must replay race-free.
fn judge_races(probe: &mut Probe, events: &[TimelineEvent]) {
    let races = detect_races(events);
    println!(
        "pool kernels: {} timeline events, {} race(s)",
        events.len(),
        races.len()
    );
    for r in &races {
        eprintln!("race: {r}");
    }
    probe.check(races.is_empty(), format_args!("{} race(s)", races.len()));
    probe
        .report
        .metric("race_events", events.len() as f64)
        .metric("races", races.len() as f64);
}

fn main() {
    Cli {
        usage: "usage: ookamicheck — static verifier, corpus and mutant self-tests, \
                translation validator and (with obs) race gate; writes \
                target/bench/BENCH_check.json",
        ..Cli::default()
    }
    .parse();
    let mut probe = Probe::start("ookamicheck", "full");
    let traces = family_traces();

    println!("== ookamicheck: static verifier ==");
    verify_programs(&mut probe, &shipped_programs(&traces));
    println!("== ookamicheck: mutation self-tests ==");
    judge_corpus(&mut probe, &ookami_check::corpus::entries());
    judge_trace_mutants(&mut probe);

    println!("== ookamicheck: translation validator ==");
    let mut reports = Vec::new();
    for (name, t) in &traces {
        let trail = t.pass_trail();
        compile_metrics(&mut probe, name, &trail.report);
        reports.push(validate_trail(name, &trail));
    }
    validate_traces(&mut probe, &reports);
    challenge_validator(&mut probe);

    println!("== ookamicheck: happens-before race detector ==");
    let race_checked = ookami_core::obs::enabled();
    if race_checked {
        judge_races(&mut probe, &pool_kernel_events());
    } else {
        println!(
            "SKIPPED: built without the `obs` feature — timeline events do \
             not record, so the real-kernel race gate cannot run here \
             (scripts/check.sh runs it under --features obs)"
        );
    }
    probe.report.flag("race_checked", race_checked);
    probe.finish(&ookami_bench::bench_out("BENCH_check.json"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use ookami_check::tv::{tv_corpus_entries, StageReport};

    #[test]
    fn tv_gate_proves_every_family() {
        let reports: Vec<TvReport> = family_traces()
            .iter()
            .map(|(name, t)| ookami_check::validate_trace(name, t))
            .collect();
        let mut probe = Probe::start("ookamicheck", "full");
        validate_traces(&mut probe, &reports);
        challenge_validator(&mut probe);
        assert!(probe.checks_ok());
        assert_eq!(reports.len(), 22);
        // The gate passes divergent mutants too; TV itself must reject
        // every seed on both bases, not leave them to replay.
        for (name, base) in mutant_bases() {
            let trail = base.pass_trail();
            for seed in 0..24 {
                let v = ookami_check::tv::challenge(&trail, seed);
                assert_eq!(v, MutantVerdict::Rejected, "{name} seed {seed}");
            }
        }
    }

    #[test]
    fn each_gate_fails_on_its_kind_of_defect() {
        let failed = |run: &dyn Fn(&mut Probe)| {
            let mut probe = Probe::start("ookamicheck", "full");
            run(&mut probe);
            !probe.checks_ok()
        };
        let corpus = ookami_check::corpus::entries;

        // A dirty shipped program: the corpus's undefined-use stream.
        let shipped = shipped_programs(&family_traces()[..1]);
        assert!(!failed(&|p| verify_programs(p, &shipped)));
        let dirty = [corpus().remove(0).program];
        assert!(failed(&|p| verify_programs(p, &dirty)));

        // A mis-judged mutant: an entry expecting codes it does not get.
        assert!(!failed(&|p| judge_corpus(p, &corpus())));
        let mut misjudged = corpus();
        misjudged[0].expected.clear();
        assert!(failed(&|p| judge_corpus(p, &misjudged)));

        // An unproved TV stage: a pass-induced bug from the TV corpus.
        let bug = tv_corpus_entries().remove(0);
        let unproved = [TvReport {
            name: bug.name.to_string(),
            stages: vec![StageReport {
                stage: "mutated",
                program: bug.program,
                diags: bug.diags,
            }],
            counters_checked: false,
            counter_diags: Vec::new(),
        }];
        assert!(failed(&|p| validate_traces(p, &unproved)));

        // A race: the synthetic overlapping-write stream.
        let racy = ookami_check::injected_race_events();
        assert!(failed(&|p| judge_races(p, &racy)));
    }

    #[test]
    fn lowered_variants_carry_bounds_facts() {
        // The +lowered programs must keep the table/constant facts that
        // make the OC0004 pass meaningful on non-SSA streams.
        let programs = shipped_programs(&family_traces());
        let with_tables = programs
            .iter()
            .filter(|p| p.name.ends_with("+lowered"))
            .filter(|p| p.table_len.iter().any(Option::is_some))
            .count();
        assert!(
            with_tables >= 4,
            "only {with_tables} lowered programs kept table facts"
        );
    }
}
