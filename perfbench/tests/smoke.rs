//! Seconds-long smoke runs of every workload with every output check on:
//! the checks pass, an injected bit flip is caught, the traced run reports
//! every per-layer metric with counts that repeat exactly for one seed,
//! and `BENCHMARK.json` lists exactly the metrics the benchmark prints.

use ookami_perfbench::{run, Config, Outcome, WorkloadName, END_TO_END, PER_LAYER};
use std::sync::Mutex;

/// The analyzer memo and the worker pool are process-wide: tests take
/// turns so one test's calls do not land in another's counts.
static SERIAL: Mutex<()> = Mutex::new(());

fn smoke(workload: WorkloadName, trace: bool, inject_fault: bool) -> Outcome {
    run(&Config {
        workload,
        seed: 7,
        seconds: 0.2,
        trace,
        inject_fault,
        smoke: true,
    })
}

#[test]
fn every_workload_passes_its_checks_and_reports_nonzero_metrics() {
    let _turn = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for w in WorkloadName::ALL {
        let out = smoke(w, false, false);
        assert!(out.correct(), "{}: {:?}", w.name(), out.notes);
        assert!(out.attempted >= 1);
        let names: Vec<&str> = out.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want, "{}", w.name());
        for (n, v, _) in &out.metrics {
            assert!(v.is_finite() && *v > 0.0, "{}: {n} = {v}", w.name());
        }
        let line = out.json();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
    }
}

#[test]
fn an_injected_bit_flip_fails_the_check_on_every_workload() {
    let _turn = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for w in WorkloadName::ALL {
        let out = smoke(w, false, true);
        assert!(
            !out.correct(),
            "{}: the flipped bit went unnoticed",
            w.name()
        );
        assert_eq!(out.failed, 1, "{}", w.name());
        assert!(out.json().contains("\"correct\": false"));
    }
}

/// Per-layer metrics that are counts of work, not times: they must repeat
/// exactly between traced runs of one seed.
const COUNTS: [&str; 14] = [
    "sve.record.calls",
    "sve.record.ops",
    "sve.compile.calls",
    "sve.compile.native_frac",
    "sve.compile.opt_ops_frac",
    "sve.compiled.instrs",
    "sve.replay.instrs",
    "core.pool.calls",
    "mem.cache.calls",
    "mem.cache.accesses",
    "mem.cache.l1_hit_rate",
    "uarch.analyze.calls",
    "uarch.analyze.memo_hit_rate",
    "bench.render.rows",
];

/// Per-layer metrics that must be nonzero on a workload where the layer
/// runs.
fn active(w: WorkloadName) -> &'static [&'static str] {
    match w {
        WorkloadName::Emu => &[
            "sve.record.ops",
            "sve.record.busy_ms",
            "sve.compile.us_per_call",
            "sve.compiled.ns_per_instr",
            "sve.compiled.overhead_x",
            "sve.replay.ns_per_instr",
            "sve.replay.overhead_x",
            "sve.interp.ns_per_instr",
            "sve.interp.overhead_x",
            "host.ref.ns_per_elem",
            "spmv.fixture.busy_ms",
            "core.pool.calls",
            "core.pool.busy_ms",
            "core.pool.eff_2t",
        ],
        WorkloadName::ModelNative => &[
            "mem.cache.ns_per_access",
            "mem.cache.l1_hit_rate",
            "uarch.analyze.calls",
            "uarch.analyze.memo_hit_rate",
            "core.derive.busy_ms",
            "bench.render.rows",
            "spmv.fixture.busy_ms",
            "npb.ep.busy_ms",
            "npb.lu.eff_2t",
            "lulesh.eff_2t",
            "hpcc.dgemm.gflops",
            "hpcc.fft.eff_2t",
            "hpcc.hpl.gflops",
            "core.pool.calls",
        ],
    }
}

#[test]
fn traced_runs_report_every_layer_and_repeat_their_counts() {
    let _turn = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for w in WorkloadName::ALL {
        let a = smoke(w, true, false);
        let b = smoke(w, true, false);
        assert!(a.correct() && b.correct(), "{}", w.name());
        let names: Vec<&str> = a.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want, "{}", w.name());
        for n in COUNTS {
            assert_eq!(
                a.metric(n),
                b.metric(n),
                "{}: {n} differs between runs",
                w.name()
            );
        }
        for n in active(w) {
            let v = a.metric(n).expect("listed metric");
            assert!(v > 0.0, "{}: {n} = {v}", w.name());
        }
        let coverage = a.metric("trace.coverage").expect("listed metric");
        assert!(
            coverage > 0.9 && coverage <= 1.0,
            "{}: coverage {coverage}",
            w.name()
        );
        let notes = a.notes.join("\n");
        assert!(notes.contains("thread scaling"), "{}", w.name());
        assert!(notes.contains("LU.S, 20 SSOR steps"), "{}", w.name());
    }
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    for (n, u) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{n}\", \"unit\": \"{u}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        json.matches("\"unit\": ").count(),
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json lists metrics the benchmark does not print"
    );
    for w in WorkloadName::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
    }
}
