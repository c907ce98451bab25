//! `benchdiff` — the bench-trajectory regression gate: compare the current
//! `BENCH_*.json` probe outputs against committed baselines and exit
//! nonzero when a gated result regressed.
//!
//! ```text
//! benchdiff --baseline <dir> --current <dir> [--out target/bench/BENCHDIFF.json]
//! ```
//!
//! Both sides are schema-validated (`ookami-bench-v1`) before any
//! comparison — a malformed file is a usage error (exit 2), never a silent
//! pass. Four gate classes:
//!
//! 1. **Flag gates** (always on): a baseline flag of `"true"` for
//!    `bit_identical`, `instr_streams_identical` or `gate` must still be
//!    `"true"` — these encode correctness invariants, not measurements.
//!    Every probe writes its own verdict as `gate`, so a baseline without
//!    one is itself a regression: the flag gate could never judge it.
//!    Flags starting with `ecm_` are pinned to the baseline's exact value:
//!    they carry the ECM model's bound attributions (`bandwidth_bound` vs
//!    `core_bound`), which are deterministic claims about the machine
//!    model, so any flip is a model change.
//! 2. **Bounds**: the current file is judged against the probe harness's
//!    one table of floors and ceilings ([`ookami_bench::probe::BOUNDS`])
//!    by the same function the probe ran before writing it, so a probe
//!    that passed its own gate passes here.
//! 3. **Same mode**: a current file whose `mode` or `obs_enabled` differs
//!    from its baseline's is a regression naming the field; its counters
//!    and times measure another run, so the gates below are not read.
//! 4. **Exact and timed gates**:
//!    `max_ulp*` metrics may not increase (accuracy is deterministic), the
//!    deterministic model counters (SVE/port/byte/FLOP events) must be
//!    *exactly* equal — any drift is a real behavioral change, not noise —
//!    and time-like metrics are pooled into a noise-aware verdict: the
//!    relative deltas of all time metrics in a file feed
//!    [`ookami_core::Stats`], and only a *systematic* slowdown (mean delta
//!    above [`TOL`] and above one standard deviation of the deltas) fails,
//!    so one noisy metric on a loaded CI box cannot trip the gate.
//!
//! The time gate reads rates (`*per_sec*`) and the times a probe measured
//! directly: metrics named `*_s`, `*_seconds`, `*_us` or `*_ns`. It skips
//! the region-latency quantiles `*_p50_ns` and `*_p99_ns`. Those are
//! log2-histogram bucket edges clamped to the observed maximum, so they
//! move in steps of 2x (one bucket reads +100 % against the 50 %
//! tolerance), and when all of a region's reps fall in its top bucket
//! both read the slowest rep. The probe's wall times (`bare_run_s`,
//! `prof_run_s`) are gated instead.
//!
//! `--inject-regression` degrades the current set in memory (times ×10,
//! rates ÷10, every bounded metric pushed 10× past its bound's side,
//! correctness flags flipped) to prove the gate trips; CI runs it as a
//! self-test.
//! Exit codes: 0 pass, 1 regression, 2 usage/schema error.

use ookami_bench::probe::{self, Cli, Direction, BOUNDS};
use ookami_core::obs::{self, Counter, Json, IDENTITY_COUNTERS};
use ookami_core::Stats;
use std::collections::BTreeMap;

/// Counters whose values are deterministic functions of the executed
/// kernels (execution-strategy- and timing-independent), gated for exact
/// equality in obs builds: the executor-identity set plus bytes and
/// model FLOPs. Scheduling/timing counters (barrier waits, guided chunk
/// splits, forked-vs-inline region counts) are excluded: they
/// legitimately vary with machine load and core count.
fn exact_counters() -> impl Iterator<Item = &'static str> {
    IDENTITY_COUNTERS
        .into_iter()
        .chain([
            Counter::BytesLoaded,
            Counter::BytesStored,
            Counter::FlopsModel,
        ])
        .map(Counter::name)
}

/// Flags that encode correctness invariants: baseline `"true"` must hold.
const GATED_FLAGS: [&str; 3] = ["bit_identical", "instr_streams_identical", "gate"];

/// Flag prefix for pinned attributions: any flag starting with this must
/// equal the baseline's value exactly (the ECM model's bound verdicts —
/// e.g. `ecm_crs_bound = "bandwidth_bound"` — are deterministic claims
/// about the machine model, so a flip is a model change, never noise).
const PINNED_FLAG_PREFIX: &str = "ecm_";

/// Systematic-slowdown tolerance of the time gate: the mean relative
/// delta of a file's time metrics may reach +50%.
const TOL: f64 = 0.5;

/// How many counter deltas `--explain` prints per regressed file.
const EXPLAIN_TOP_N: usize = 5;

fn num_metrics(doc: &Json) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    if let Some(Json::Obj(m)) = doc.get("metrics") {
        for (k, v) in m {
            if let Json::Num(n) = v {
                out.insert(k.clone(), *n);
            }
        }
    }
    out
}

fn str_flags(doc: &Json) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    if let Some(Json::Obj(m)) = doc.get("flags") {
        for (k, v) in m {
            match v {
                Json::Str(s) => {
                    out.insert(k.clone(), s.clone());
                }
                Json::Bool(b) => {
                    out.insert(k.clone(), b.to_string());
                }
                _ => {}
            }
        }
    }
    out
}

fn counters(doc: &Json) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    if let Some(Json::Obj(m)) = doc.get("counters") {
        for (k, v) in m {
            if let Json::Num(n) = v {
                if *n >= 0.0 {
                    out.insert(k.clone(), *n as u64);
                }
            }
        }
    }
    out
}

/// A top-level string or bool field as text, `<missing>` if absent.
fn field(doc: &Json, key: &str) -> String {
    match doc.get(key) {
        Some(Json::Str(s)) => s.clone(),
        Some(Json::Bool(b)) => b.to_string(),
        _ => "<missing>".to_string(),
    }
}

/// A time the probe measured directly (see the module doc for why the
/// histogram quantiles are not).
fn is_time_metric(name: &str) -> bool {
    let quantile = name.ends_with("_p50_ns") || name.ends_with("_p99_ns");
    !quantile
        && ["_s", "_seconds", "_us", "_ns"]
            .iter()
            .any(|s| name.ends_with(s))
}

fn is_rate_metric(name: &str) -> bool {
    name.contains("per_sec")
}

/// Degrade a current-side document in memory: every time metric ×10,
/// every rate ÷10, every metric in the bounds table pushed 10× toward
/// the wrong side of its bound (floors ÷10, ceilings ×10), every
/// deterministic model counter ×2, and every gated correctness flag
/// flipped to false, so each gate class has something to catch; the
/// counter doubling also gives `--explain` real deltas to rank.
fn inject_regression(doc: &mut Json) {
    if let Json::Obj(root) = doc {
        if let Some(Json::Obj(metrics)) = root.get_mut("metrics") {
            for (k, v) in metrics.iter_mut() {
                if let Json::Num(n) = v {
                    let bound = BOUNDS.iter().find(|b| b.metric == k).map(|b| b.direction);
                    if is_time_metric(k) || bound == Some(Direction::Ceiling) {
                        *n *= 10.0;
                    } else if is_rate_metric(k) || bound == Some(Direction::Floor) {
                        *n /= 10.0;
                    }
                }
            }
        }
        if let Some(Json::Obj(cs)) = root.get_mut("counters") {
            for (k, v) in cs.iter_mut() {
                if exact_counters().any(|c| c == k) {
                    if let Json::Num(n) = v {
                        *n *= 2.0;
                    }
                }
            }
        }
        if let Some(Json::Obj(flags)) = root.get_mut("flags") {
            for (k, v) in flags.iter_mut() {
                if GATED_FLAGS.contains(&k.as_str()) {
                    *v = Json::Bool(false);
                }
            }
        }
    }
}

/// Rank every counter that differs between the two documents by relative
/// change (`|cur − base| / max(base, 1)`), largest first, and render the
/// top [`EXPLAIN_TOP_N`] as one line each. This is `--explain`'s payload:
/// when a gate trips, the biggest counter movers usually name the
/// subsystem whose behavior changed (a port counter → issue modeling, a
/// byte counter → memory traffic, `timeline_dropped_events` → the ring
/// overflowed and the trace is partial).
fn rank_counter_deltas(base: &Json, cur: &Json) -> Vec<String> {
    let bc = counters(base);
    let cc = counters(cur);
    let mut rows: Vec<(f64, String)> = Vec::new();
    for key in bc.keys().chain(cc.keys()) {
        let b = bc.get(key).copied().unwrap_or(0);
        let c = cc.get(key).copied().unwrap_or(0);
        if b == c {
            continue;
        }
        #[allow(clippy::cast_precision_loss)]
        let rel = (c as f64 - b as f64) / (b.max(1) as f64);
        let line = format!("{key}: {b} → {c} ({:+.1}%)", rel * 100.0);
        rows.push((rel.abs(), line));
    }
    // chain() visits shared keys twice; identical lines dedup here.
    rows.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    rows.dedup_by(|a, b| a.1 == b.1);
    rows.truncate(EXPLAIN_TOP_N);
    rows.into_iter().map(|(_, line)| line).collect()
}

struct FileVerdict {
    name: String,
    regressions: Vec<String>,
    notes: Vec<String>,
    /// Top counter deltas vs baseline; filled only when `regressions` is
    /// non-empty (an all-green file needs no explaining).
    explain: Vec<String>,
    compared: bool,
}

fn diff_file(name: &str, base: &Json, cur: &Json) -> FileVerdict {
    let mut v = diff_gates(name, base, cur);
    if !v.regressions.is_empty() {
        v.explain = rank_counter_deltas(base, cur);
    }
    v
}

fn diff_gates(name: &str, base: &Json, cur: &Json) -> FileVerdict {
    let mut v = FileVerdict {
        name: name.to_string(),
        regressions: Vec::new(),
        notes: Vec::new(),
        explain: Vec::new(),
        compared: true,
    };
    let bm = num_metrics(base);
    let cm = num_metrics(cur);
    let bf = str_flags(base);
    let cf = str_flags(cur);

    // 1. flag gates — correctness invariants hold in every mode.
    if !bf.contains_key("gate") {
        v.regressions
            .push("baseline has no `gate` flag: regenerate it with its probe".to_string());
    }
    for gf in GATED_FLAGS {
        if bf.get(gf).map(String::as_str) == Some("true") {
            let now = cf.get(gf).map_or("<missing>", String::as_str);
            if now != "true" {
                v.regressions
                    .push(format!("flag `{gf}`: baseline true, current {now}"));
            }
        }
    }

    // 1b. pinned attribution flags — must match the baseline exactly.
    for (k, bval) in &bf {
        if k.starts_with(PINNED_FLAG_PREFIX) {
            let now = cf.get(k).map_or("<missing>", String::as_str);
            if now != bval {
                v.regressions.push(format!(
                    "flag `{k}`: baseline \"{bval}\", current \"{now}\" (attribution flip)"
                ));
            }
        }
    }

    // 2. bounds — the probe harness's table, judged exactly as the probe
    // judged itself before writing the file.
    let bounds = probe::judge(cur);
    v.regressions.extend(bounds.violations);
    v.notes.extend(bounds.notes);

    // 3. same mode: counters and times of another mode measure another run.
    let mut same_mode = true;
    for key in ["mode", "obs_enabled"] {
        let (b, c) = (field(base, key), field(cur, key));
        if b != c {
            same_mode = false;
            v.regressions.push(format!(
                "`{key}`: baseline {b}, current {c}: regenerate it in its committed mode"
            ));
        }
    }
    if !same_mode {
        return v;
    }

    // 4a. accuracy may not regress: max ulp is deterministic.
    for (k, bval) in &bm {
        if k.starts_with("max_ulp") {
            if let Some(&cval) = cm.get(k) {
                if cval > *bval {
                    v.regressions
                        .push(format!("`{k}`: {bval} → {cval} ulp (accuracy regressed)"));
                }
            }
        }
    }

    // 4b. deterministic model counters must be exactly equal.
    let obs_on = matches!(base.get("obs_enabled"), Some(Json::Bool(true)));
    if obs_on {
        let bc = counters(base);
        let cc = counters(cur);
        for key in exact_counters() {
            match (bc.get(key), cc.get(key)) {
                (Some(b), Some(c)) if b != c => {
                    v.regressions
                        .push(format!("counter `{key}`: {b} → {c} (model drift)"));
                }
                (Some(b), None) if *b != 0 => {
                    v.regressions
                        .push(format!("counter `{key}`: {b} → missing (model drift)"));
                }
                _ => {}
            }
        }
    }

    // 4c. pooled noise-aware time gate: only a systematic slowdown fails.
    let mut deltas = Stats::new();
    for (k, bval) in &bm {
        let Some(&cval) = cm.get(k) else { continue };
        if *bval <= 0.0 {
            continue;
        }
        if is_time_metric(k) {
            deltas.push((cval - bval) / bval);
        } else if is_rate_metric(k) {
            // A rate drop is a slowdown of the same sign convention.
            deltas.push((bval - cval) / bval);
        }
    }
    if !deltas.is_empty() {
        let mean = deltas.mean();
        let sd = deltas.stddev();
        if mean > TOL && mean > sd {
            v.regressions.push(format!(
                "time metrics systematically slower: mean +{:.0}% over {} metric(s) \
                 (σ {:.0}%, tol {:.0}%)",
                mean * 100.0,
                deltas.len(),
                sd * 100.0,
                TOL * 100.0
            ));
        } else {
            v.notes.push(format!(
                "time drift mean {:+.0}% σ {:.0}% over {} metric(s): within noise",
                mean * 100.0,
                sd * 100.0,
                deltas.len()
            ));
        }
    }
    v
}

fn load_validated(path: &std::path::Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    obs::validate_bench_json(&text)
        .map_err(|e| format!("{}: schema violation: {e}", path.display()))?;
    Ok(Json::parse(&text).expect("validated JSON reparses"))
}

fn main() {
    let args = Cli {
        usage: "benchdiff — compare current BENCH_*.json files against committed baselines\n\
                \n\
                usage: benchdiff --baseline <dir> --current <dir> [options]\n\
                \n\
                options:\n\
                \x20 --out <path>         write the machine-readable verdict JSON here\n\
                \x20                      (default target/bench/BENCHDIFF.json)\n\
                \x20 --inject-regression  degrade the current set in memory (times x10,\n\
                \x20                      rates /10, bounded metrics x10 past their bound,\n\
                \x20                      counters x2, flags flipped) — self-test that the\n\
                \x20                      gate trips\n\
                \x20 --explain            when a file regresses, print its top counter\n\
                \x20                      deltas vs baseline (largest relative change\n\
                \x20                      first) to point at the behavioral cause\n\
                \n\
                exit: 0 pass · 1 regression · 2 usage or schema error",
        switches: &["--inject-regression", "--explain"],
        valued: &["--baseline", "--current", "--out"],
        ..Cli::default()
    }
    .parse();
    let default_out = ookami_bench::bench_out("BENCHDIFF.json");
    let out_path = args.value("--out").unwrap_or(&default_out);
    let inject = args.has("--inject-regression");
    let explain = args.has("--explain");
    let (Some(baseline_dir), Some(current_dir)) =
        (args.value("--baseline"), args.value("--current"))
    else {
        probe::usage_error("--baseline and --current are required");
    };

    // Pair by filename over the baseline set: the committed baselines
    // define what is gated; extra current files are ignored.
    let mut names: Vec<String> = match std::fs::read_dir(baseline_dir) {
        Ok(rd) => rd
            .filter_map(std::result::Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| {
                n.starts_with("BENCH_")
                    && std::path::Path::new(n)
                        .extension()
                        .is_some_and(|e| e.eq_ignore_ascii_case("json"))
            })
            .collect(),
        Err(e) => {
            eprintln!("error: cannot read baseline dir {baseline_dir}: {e}");
            std::process::exit(2);
        }
    };
    names.sort();
    if names.is_empty() {
        eprintln!("error: no BENCH_*.json baselines in {baseline_dir}");
        std::process::exit(2);
    }

    let mut verdicts: Vec<FileVerdict> = Vec::new();
    for name in &names {
        let bpath = std::path::Path::new(baseline_dir).join(name);
        let cpath = std::path::Path::new(current_dir).join(name);
        let base = match load_validated(&bpath) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("error: baseline {e}");
                std::process::exit(2);
            }
        };
        if !cpath.exists() {
            verdicts.push(FileVerdict {
                name: name.clone(),
                regressions: Vec::new(),
                notes: vec!["no current file: not regenerated, skipped".to_string()],
                explain: Vec::new(),
                compared: false,
            });
            continue;
        }
        let mut cur = match load_validated(&cpath) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("error: current {e}");
                std::process::exit(2);
            }
        };
        if inject {
            inject_regression(&mut cur);
        }
        verdicts.push(diff_file(name, &base, &cur));
    }

    let total_regressions: usize = verdicts.iter().map(|v| v.regressions.len()).sum();
    let compared = verdicts.iter().filter(|v| v.compared).count();
    let pass = total_regressions == 0;

    println!(
        "benchdiff: {} baseline(s), {} compared{}",
        names.len(),
        compared,
        if inject { " [injected regression]" } else { "" }
    );
    for v in &verdicts {
        let status = if !v.compared {
            "SKIP"
        } else if v.regressions.is_empty() {
            "OK"
        } else {
            "FAIL"
        };
        println!("{status:>5}  {}", v.name);
        for r in &v.regressions {
            println!("       regression: {r}");
        }
        if explain && !v.explain.is_empty() {
            println!("       top counter deltas vs baseline:");
            for line in &v.explain {
                println!("         {line}");
            }
        }
        for n in &v.notes {
            println!("       note: {n}");
        }
    }
    println!("verdict: {}", if pass { "PASS" } else { "REGRESSION" });

    // Machine-readable verdict in the shared schema (probe "benchdiff").
    let mut report = obs::BenchReport::new("benchdiff", "gate");
    report.metric("baselines", names.len() as f64);
    report.metric("compared", compared as f64);
    report.metric("regressions", total_regressions as f64);
    report.metric("tol", TOL);
    report.flag("verdict", if pass { "pass" } else { "regression" });
    report.flag("injected", inject);
    for v in &verdicts {
        report.flag(
            &format!("file:{}", v.name),
            if !v.compared {
                "skip".to_string()
            } else if v.regressions.is_empty() {
                "ok".to_string()
            } else {
                format!("fail:{}", v.regressions.len())
            },
        );
    }
    ookami_bench::write_or_exit(out_path, |p| report.write(p));
    println!("wrote {out_path}");

    std::process::exit(i32::from(!pass));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A test document (the gates read only `mode`, `obs_enabled`,
    /// `metrics`, `flags` and `counters`).
    fn doc(json: &str) -> Json {
        Json::parse(json).expect("test doc parses")
    }

    fn regressions(base: &Json, cur: &Json) -> Vec<String> {
        diff_file("BENCH_t.json", base, cur).regressions
    }

    #[test]
    fn pinned_ecm_flag_flip_is_a_regression() {
        let ecm = |bound: &str| {
            doc(&format!(
                r#"{{"mode": "full", "flags": {{"gate": true{bound}}}}}"#
            ))
        };
        let base = ecm(r#", "ecm_crs_bound": "bandwidth_bound""#);
        let ok = ecm(r#", "ecm_crs_bound": "bandwidth_bound""#);
        assert!(regressions(&base, &ok).is_empty());
        let flipped = ecm(r#", "ecm_crs_bound": "core_bound""#);
        let r = regressions(&base, &flipped);
        assert_eq!(r.len(), 1, "{r:?}");
        assert!(r[0].contains("attribution flip"), "{r:?}");
        // Missing counts as a flip too — the claim must keep being made.
        let gone = ecm("");
        assert_eq!(regressions(&base, &gone).len(), 1);
    }

    #[test]
    fn baseline_without_gate_is_a_regression() {
        let gated = doc(r#"{"mode": "full", "flags": {"gate": true}}"#);
        assert!(regressions(&gated, &gated).is_empty());
        // A gate-less baseline fails even against a current file whose
        // probe passed: nothing in it was ever judged.
        let ungated = doc(r#"{"mode": "full", "flags": {"csv": false}}"#);
        let r = regressions(&ungated, &gated);
        assert_eq!(r.len(), 1, "{r:?}");
        assert!(r[0].contains("no `gate` flag"), "{r:?}");
    }

    #[test]
    fn another_mode_is_a_regression_naming_the_field() {
        let run = |mode: &str, obs_on: bool| {
            doc(&format!(
                r#"{{"mode": "{mode}", "obs_enabled": {obs_on}, "flags": {{"gate": true}},
                    "counters": {{"sve_instrs": 1000}}}}"#
            ))
        };
        let base = run("full", true);
        for (cur, key) in [
            (run("full", false), "`obs_enabled`"),
            (run("s", true), "`mode`"),
        ] {
            let r = regressions(&base, &cur);
            assert_eq!(r.len(), 1, "{r:?}");
            assert!(r[0].contains(key), "{r:?}");
            assert!(r[0].contains("committed mode"), "{r:?}");
        }
    }

    /// An `ookamiprof`-shaped report: two wall times, six region-latency
    /// quantiles (`q` scales them) and the overhead ratio.
    fn prof(bare_s: f64, prof_s: f64, q: f64) -> Json {
        let mut metrics = format!(
            r#""bare_run_s": {bare_s}, "prof_run_s": {prof_s}, "prof_overhead_ratio": {}"#,
            prof_s / bare_s
        );
        for exec in ["interp", "replay", "compiled"] {
            for p in ["p50", "p99"] {
                metrics.push_str(&format!(r#", "{exec}_{p}_ns": {}"#, 65_535.0 * q));
            }
        }
        doc(&format!(
            r#"{{"mode": "full", "obs_enabled": true, "flags": {{"gate": true}},
                "metrics": {{{metrics}}}}}"#
        ))
    }

    #[test]
    fn time_gate_reads_wall_times_not_histogram_quantiles() {
        let base = prof(0.02, 0.04, 1.0);
        // Every quantile one log2 bucket up, wall times held: passes.
        let bucket_up = prof(0.02, 0.04, 2.0);
        assert!(regressions(&base, &bucket_up).is_empty());
        // Both wall times doubled: a systematic slowdown.
        let slower = prof(0.04, 0.08, 1.0);
        let r = regressions(&base, &slower);
        assert_eq!(r.len(), 1, "{r:?}");
        assert!(r[0].contains("over 2 metric(s)"), "{r:?}");
    }

    #[test]
    fn inject_regression_degrades_replay_speedups() {
        let mut cur = doc(r#"{"mode": "full", "metrics": {"spmv_replay_speedup": 3.0}}"#);
        inject_regression(&mut cur);
        let m = num_metrics(&cur);
        assert!((m["spmv_replay_speedup"] - 0.3).abs() < 1e-12, "{m:?}");
        let base = doc(r#"{"mode": "full"}"#);
        let r = regressions(&base, &cur);
        assert!(
            r.iter().any(|r| r.contains("spmv_replay_speedup")),
            "injected replay regression must trip the floor: {r:?}"
        );
    }

    #[test]
    fn explain_ranks_counter_deltas_by_relative_change() {
        let base = doc(
            r#"{"mode": "full", "obs_enabled": true, "flags": {"gate": true}, "counters": {
                "sve_instrs": 1000, "port_fla": 100, "bytes_loaded": 4000, "gather_elems": 10,
                "fexpa_issues": 50, "port_br": 7, "scatter_elems": 10}}"#,
        );
        // gate flips false (a regression) and six counters move: sve_instrs
        // +10%, port_fla +200% (the biggest), bytes_loaded -50%,
        // gather_elems +80%, fexpa_issues +50%, port_br -100%;
        // scatter_elems is unchanged and never listed. Only the top five
        // largest relative movers may be reported.
        let cur = doc(
            r#"{"mode": "full", "obs_enabled": true, "flags": {"gate": false}, "counters": {
                "sve_instrs": 1100, "port_fla": 300, "bytes_loaded": 2000, "gather_elems": 18,
                "fexpa_issues": 75, "port_br": 0, "scatter_elems": 10}}"#,
        );
        let v = diff_file("BENCH_t.json", &base, &cur);
        assert!(!v.regressions.is_empty(), "gate flip must regress");
        assert_eq!(v.explain.len(), EXPLAIN_TOP_N, "{:?}", v.explain);
        assert!(v.explain[0].starts_with("port_fla:"), "{:?}", v.explain);
        assert!(v.explain[0].contains("+200.0%"), "{:?}", v.explain);
        assert!(v.explain[1].starts_with("port_br:"), "{:?}", v.explain);
        // The +10% mover is rank six of six: cut by the top-5 truncation.
        assert!(
            !v.explain.iter().any(|l| l.starts_with("sve_instrs")),
            "{:?}",
            v.explain
        );
        assert!(
            !v.explain.iter().any(|l| l.starts_with("scatter_elems")),
            "{:?}",
            v.explain
        );
    }

    #[test]
    fn explain_is_empty_for_a_clean_file() {
        let sve = |n: u32| {
            doc(&format!(
                r#"{{"mode": "full", "obs_enabled": true, "flags": {{"gate": true}},
                    "counters": {{"sve_instrs": {n}}}}}"#
            ))
        };
        let base = sve(1000);
        let cur = sve(2000);
        // Counter drift alone is a regression only via the exact-counter set
        // of an obs build — which this is, so check a truly clean pair.
        let clean = diff_file("BENCH_t.json", &base, &base.clone());
        assert!(clean.regressions.is_empty());
        assert!(clean.explain.is_empty());
        // And when the drift does regress, the explanation names it.
        let v = diff_file("BENCH_t.json", &base, &cur);
        assert!(!v.regressions.is_empty());
        assert!(v.explain[0].starts_with("sve_instrs:"), "{:?}", v.explain);
    }

    #[test]
    fn inject_regression_doubles_counters_and_blows_the_overhead_ceiling() {
        let mut cur = doc(r#"{"mode": "full", "obs_enabled": true,
                "metrics": {"prof_overhead_ratio": 1.2, "host_cores": 8}, "flags": {"gate": true},
                "counters": {"sve_instrs": 500, "forked_regions": 9}}"#);
        let base = cur.clone();
        inject_regression(&mut cur);
        let m = num_metrics(&cur);
        assert!((m["prof_overhead_ratio"] - 12.0).abs() < 1e-9, "{m:?}");
        let c = counters(&cur);
        assert_eq!(c["sve_instrs"], 1000, "exact counters double");
        assert_eq!(c["forked_regions"], 9, "non-gated counters untouched");
        let v = diff_file("BENCH_t.json", &base, &cur);
        assert!(
            v.regressions.iter().any(|r| r.contains("above ceiling")),
            "{:?}",
            v.regressions
        );
        assert!(
            v.explain.iter().any(|l| l.starts_with("sve_instrs:")),
            "--explain must rank the doubled counter: {:?}",
            v.explain
        );
    }

    #[test]
    fn inject_regression_degrades_par_speedups() {
        let mut cur = doc(r#"{"mode": "full", "obs_enabled": true,
                "metrics": {"host_cores": 8, "replay_par_speedup": 4.0}}"#);
        inject_regression(&mut cur);
        let m = num_metrics(&cur);
        assert!((m["replay_par_speedup"] - 0.4).abs() < 1e-12, "{m:?}");
        // host_cores is a capability, not a measurement: untouched.
        assert!((m["host_cores"] - 8.0).abs() < 1e-12, "{m:?}");
        let base = doc(r#"{"mode": "full", "obs_enabled": true}"#);
        let r = regressions(&base, &cur);
        assert!(
            r.iter().any(|r| r.contains("replay_par_speedup")),
            "injected par regression must trip the floor: {r:?}"
        );
    }
}
