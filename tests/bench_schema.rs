//! Golden-file gate (observability PR satellite): every `BENCH_*.json`
//! committed at the repo root must validate against the shared
//! `ookami-bench-v1` schema. A probe whose output drifts off-schema breaks
//! `benchdiff`, `report --validate`, and `report --derive` all at once —
//! this test catches that at `cargo test` time instead of in CI's probe
//! smoke.

use ookami_core::obs::{validate_bench_json, Json};

/// The committed baselines, discovered from the manifest directory so the
/// test works from any cargo invocation cwd.
fn committed_bench_files() -> Vec<std::path::PathBuf> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out: Vec<_> = std::fs::read_dir(root)
        .expect("read repo root")
        .filter_map(std::result::Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_"))
                && p.extension()
                    .is_some_and(|e| e.eq_ignore_ascii_case("json"))
        })
        .collect();
    out.sort();
    out
}

#[test]
fn every_committed_bench_file_validates() {
    let files = committed_bench_files();
    assert!(
        files.len() >= 8,
        "expected the eight committed baselines, found {files:?}"
    );
    for path in &files {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        validate_bench_json(&text)
            .unwrap_or_else(|e| panic!("{} violates ookami-bench-v1: {e}", path.display()));
    }
}

#[test]
fn committed_bench_files_reparse_with_counters_intact() {
    for path in committed_bench_files() {
        let text = std::fs::read_to_string(&path).unwrap();
        let doc =
            Json::parse(&text).unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        // Schema basics the tooling leans on beyond raw validation: the
        // schema tag and probe name are non-empty strings.
        for key in ["schema", "probe", "mode"] {
            match doc.get(key) {
                Some(Json::Str(s)) if !s.is_empty() => {}
                other => panic!("{}: bad `{key}`: {other:?}", path.display()),
            }
        }
        // If the file carries a counters object, every name must be one
        // the current obs layer knows, or `benchdiff`'s exact-counter
        // gate silently loses coverage.
        if let Some(Json::Obj(counters)) = doc.get("counters") {
            for name in counters.keys() {
                assert!(
                    ookami_core::obs::Counter::from_name(name).is_some(),
                    "{}: unknown counter `{name}`",
                    path.display()
                );
            }
        }
    }
}

#[test]
fn prof_baseline_carries_quantiles_and_the_overhead_ratio() {
    // The profiler probe's committed claims: per-executor p50/p99 region
    // latencies (the span registry's histograms work end to end) and
    // the profiling-overhead ratio that `benchdiff` ceiling-gates. The
    // identity flags must all read true — they assert that histogram
    // counts, span-tree counts, and the deterministic counters agree
    // across interpreter, replayer, and compiled executors.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_prof.json");
    let doc = Json::parse(&std::fs::read_to_string(&path).expect("BENCH_prof.json committed"))
        .expect("BENCH_prof.json parses");
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        panic!("BENCH_prof.json has no metrics object");
    };
    for key in [
        "prof_overhead_ratio",
        "interp_p50_ns",
        "interp_p99_ns",
        "replay_p50_ns",
        "replay_p99_ns",
        "compiled_p50_ns",
        "compiled_p99_ns",
        "host_cores",
    ] {
        assert!(metrics.contains_key(key), "BENCH_prof.json missing `{key}`");
    }
    let Some(Json::Obj(flags)) = doc.get("flags") else {
        panic!("BENCH_prof.json has no flags object");
    };
    for key in [
        "hist_counts_identical",
        "spantree_counts_identical",
        "counters_identical",
        "gate",
    ] {
        assert_eq!(
            flags.get(key),
            Some(&Json::Str("true".into())),
            "BENCH_prof.json flag `{key}` must be true"
        );
    }
}

#[test]
fn spmv_baseline_carries_the_ecm_attribution() {
    // The irregular-memory probe's headline claims are committed as data:
    // the ECM fields must be present and CRS must be pinned
    // bandwidth_bound (benchdiff treats `ecm_*` flags as exact pins).
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_spmv.json");
    let doc = Json::parse(&std::fs::read_to_string(&path).expect("BENCH_spmv.json committed"))
        .expect("BENCH_spmv.json parses");
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        panic!("BENCH_spmv.json has no metrics object");
    };
    for key in [
        "crs_elems_per_sec",
        "sell_elems_per_sec",
        "spmv_replay_speedup",
        "stream_replay_speedup",
        "sell_lane_utilization",
        "ecm_crs_t_core",
        "ecm_crs_t_data",
        "ecm_crs_t_cl",
        "ecm_crs_n_sat",
        "host_cores",
    ] {
        assert!(metrics.contains_key(key), "BENCH_spmv.json missing `{key}`");
    }
    let Some(Json::Obj(flags)) = doc.get("flags") else {
        panic!("BENCH_spmv.json has no flags object");
    };
    assert_eq!(
        flags.get("ecm_crs_bound"),
        Some(&Json::Str("bandwidth_bound".to_string())),
        "CRS ECM attribution must be bandwidth_bound"
    );
    assert_eq!(flags.get("bit_identical"), Some(&Json::Str("true".into())));
    assert_eq!(flags.get("gate"), Some(&Json::Str("true".into())));
}
