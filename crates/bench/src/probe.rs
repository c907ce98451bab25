//! The probe harness every binary in this crate runs through: one
//! argument parser ([`Cli`]), one run-write-judge path for the
//! `BenchReport` probes ([`Probe`]), one table of every floor and ceiling
//! ([`BOUNDS`], applied by [`judge`] here and in `benchdiff`), and the
//! timing loops ([`pairs`] for gated ratios, [`best_of`] for rates).

use std::fmt::Display;
use std::time::Instant;

use ookami_core::obs::{self, BenchReport, Json, Snapshot};
use ookami_core::Stats;
use Direction::{Ceiling, Floor};

/// The command line one binary accepts.
#[derive(Default)]
pub struct Cli {
    /// Printed on stdout for `--help`.
    pub usage: &'static str,
    /// Flags that take no value.
    pub switches: &'static [&'static str],
    /// Flags followed by one value.
    pub valued: &'static [&'static str],
    /// How many positional arguments may be given.
    pub positionals: usize,
}

/// Why [`Cli::try_parse`] did not return arguments.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum CliError {
    /// `--help` was given.
    Help,
    /// The command line does not match the declaration.
    Usage(String),
}

/// A parsed command line.
#[derive(Debug, Default)]
pub struct Args {
    switches: Vec<String>,
    values: Vec<(String, String)>,
    /// Positional arguments, in order.
    pub positionals: Vec<String>,
}

impl Args {
    /// Whether switch `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// The value of flag `name`, if given (the last one wins).
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

impl Cli {
    /// Parse this process's arguments. `--help` prints the usage and
    /// exits 0; a malformed command line exits 2 via [`usage_error`].
    pub fn parse(&self) -> Args {
        match self.try_parse(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(CliError::Help) => {
                println!("{}", self.usage);
                std::process::exit(0)
            }
            Err(CliError::Usage(msg)) => usage_error(&msg),
        }
    }

    /// Parse `args` (without the program name), returning the error
    /// instead of exiting.
    pub(crate) fn try_parse(
        &self,
        args: impl IntoIterator<Item = String>,
    ) -> Result<Args, CliError> {
        let mut out = Args::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            if a == "--help" {
                return Err(CliError::Help);
            }
            if self.switches.contains(&a.as_str()) {
                out.switches.push(a);
            } else if self.valued.contains(&a.as_str()) {
                match it.next() {
                    Some(v) if !v.starts_with("--") => out.values.push((a, v)),
                    _ => return Err(CliError::Usage(format!("`{a}` needs a value"))),
                }
            } else if a.starts_with('-') {
                return Err(CliError::Usage(format!("unknown option `{a}`")));
            } else if out.positionals.len() < self.positionals {
                out.positionals.push(a);
            } else {
                return Err(CliError::Usage(format!("unexpected argument `{a}`")));
            }
        }
        Ok(out)
    }
}

/// Print `error: <msg>` to stderr and exit 2, the exit code of every
/// command-line mistake.
pub fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg} (try --help)");
    std::process::exit(2)
}

/// Which side of a [`Bound`] a metric must stay on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// The metric may not fall below the value.
    Floor,
    /// The metric may not rise above the value.
    Ceiling,
}

/// One standing performance bar on a probe metric.
#[derive(Debug, Clone, Copy)]
pub struct Bound {
    pub metric: &'static str,
    pub direction: Direction,
    pub value: f64,
    /// Applies only to reports built with obs.
    pub needs_obs: bool,
    /// Applies only when the report's `host_cores` is at least this.
    pub min_cores: u32,
}

impl Bound {
    const fn new(
        metric: &'static str,
        direction: Direction,
        value: f64,
        needs_obs: bool,
        min_cores: u32,
    ) -> Bound {
        Bound {
            metric,
            direction,
            value,
            needs_obs,
            min_cores,
        }
    }
}

/// Every floor and ceiling a probe report must meet.
///
/// * `speedup` (trace replay vs the per-op interpreter) and `ratio_at_8`
///   (pool vs spawn-per-region at an 8-thread team) are the repo's
///   standing bars.
/// * The irregular families' replay floors are lower: SpMV replay rebinds
///   three gather streams per block, and STREAM's one-op body is the
///   replayer's worst case — with obs on, per-block counter accounting
///   outweighs the single fused op and the interpreter wins (~0.5x), so
///   that floor guards against a catastrophic slowdown only.
/// * `compiled_speedup` is defined against the replayer carrying its
///   per-block accounting: without obs both sides shed different
///   bookkeeping and the ratio measures something else.
/// * `prof_overhead_ratio` is `ookamiprof`'s profiled-vs-bare wall time
///   for one compiled workload; above 5x the observability layer has
///   become the workload. Without obs the profiled side sheds the very
///   instrumentation the ratio prices.
/// * The parallel floors need a host that can scale: below 4 cores the
///   pool clamps its workers and the ratios sit near 1.0 by
///   construction. The trace-engine ones carry the `compiled_speedup` obs
///   caveat; the cache simulator does no per-lane accounting.
pub const BOUNDS: [Bound; 9] = [
    Bound::new("speedup", Floor, 5.0, false, 0),
    Bound::new("ratio_at_8", Floor, 5.0, false, 0),
    Bound::new("spmv_replay_speedup", Floor, 1.2, false, 0),
    Bound::new("stream_replay_speedup", Floor, 0.4, false, 0),
    Bound::new("compiled_speedup", Floor, 5.0, true, 0),
    Bound::new("prof_overhead_ratio", Ceiling, 5.0, true, 0),
    Bound::new("replay_par_speedup", Floor, 3.0, true, 4),
    Bound::new("compiled_par_speedup", Floor, 3.0, true, 4),
    Bound::new("cachesim_par_speedup", Floor, 2.0, false, 4),
];

/// What [`BOUNDS`] says about one report.
#[derive(Debug, Default)]
pub struct Judgement {
    /// One line per bound the report breaks.
    pub violations: Vec<String>,
    /// Bounds skipped for want of host cores.
    pub notes: Vec<String>,
}

/// Judge one `ookami-bench-v1` document against [`BOUNDS`].
pub fn judge(doc: &Json) -> Judgement {
    let mut j = Judgement::default();
    let obs_on = matches!(doc.get("obs_enabled"), Some(Json::Bool(true)));
    let metric = |k: &str| match doc.get("metrics").and_then(|m| m.get(k)) {
        Some(Json::Num(n)) => Some(*n),
        _ => None,
    };
    let cores = metric("host_cores").unwrap_or(0.0);
    let mut short_of = None;
    for b in &BOUNDS {
        let Some(val) = metric(b.metric) else {
            continue;
        };
        if cores < f64::from(b.min_cores) {
            short_of = Some(b.min_cores);
            continue;
        }
        if b.needs_obs && !obs_on {
            continue;
        }
        let host = if b.min_cores > 0 {
            format!(" ({cores:.0}-core host)")
        } else {
            String::new()
        };
        match b.direction {
            Floor if val < b.value => j.violations.push(format!(
                "metric `{}`: {val:.3} below floor {:.1}{host}",
                b.metric, b.value
            )),
            Ceiling if val > b.value => j.violations.push(format!(
                "metric `{}`: {val:.3} above ceiling {:.1}{host}",
                b.metric, b.value
            )),
            _ => {}
        }
    }
    if let Some(min) = short_of {
        j.notes.push(format!(
            "parallel floors skipped: host_cores {cores:.0} < {min}"
        ));
    }
    j
}

/// One run of a `BenchReport` probe, from [`Probe::start`] to
/// [`Probe::finish`].
pub struct Probe {
    /// The report the probe fills in.
    pub report: BenchReport,
    before: Snapshot,
    checks_ok: bool,
}

impl Probe {
    /// Reset obs and take the snapshot the report's counters are taken
    /// against.
    pub fn start(probe: &str, mode: &str) -> Probe {
        obs::reset();
        Probe {
            report: BenchReport::new(probe, mode),
            before: obs::snapshot(),
            checks_ok: true,
        }
    }

    /// Record one identity check in the verdict; a failed one prints
    /// `FAIL: <what>` to stderr. Returns `ok`.
    pub fn check(&mut self, ok: bool, what: impl Display) -> bool {
        if !ok {
            eprintln!("FAIL: {what}");
            self.checks_ok = false;
        }
        ok
    }

    /// Whether every check recorded so far passed.
    pub fn checks_ok(&self) -> bool {
        self.checks_ok
    }

    /// Write the ratio `name` as the median of `p`'s per-pair ratios,
    /// with its MAD as `<name>_mad`. Returns the median.
    pub fn ratio(&mut self, name: &str, p: &Pairs) -> f64 {
        let r = p.ratios();
        self.report
            .metric(name, r.median())
            .metric(&format!("{name}_mad"), r.mad());
        r.median()
    }

    /// Attach the obs delta since [`Probe::start`], judge the report,
    /// write the verdict as the `gate` flag, write the report to `path`
    /// (exit 2 if that fails), and exit 1 if the gate is false.
    pub fn finish(mut self, path: &str) {
        self.report.attach_obs(&obs::snapshot().since(&self.before));
        let doc = Json::parse(&self.report.to_json()).expect("a BenchReport renders valid JSON");
        let bounds = judge(&doc);
        for v in &bounds.violations {
            eprintln!("FAIL: {v}");
        }
        let gate = self.checks_ok && bounds.violations.is_empty();
        self.report.flag("gate", gate);
        crate::write_or_exit(path, |p| self.report.write(p));
        eprintln!("wrote {path}");
        if !gate {
            std::process::exit(1);
        }
    }
}

/// This thread's obs counter delta over `f` — what the executor-identity
/// checks compare across executors.
pub fn thread_delta(f: impl FnOnce()) -> Snapshot {
    let before = obs::thread_snapshot();
    f();
    obs::thread_snapshot().since(&before)
}

fn time(f: &mut impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// Fastest of `reps` runs of `f`, in seconds.
pub fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| time(&mut f))
        .fold(f64::INFINITY, f64::min)
}

/// Wall times of interleaved pairs, from [`pairs`].
pub struct Pairs {
    a: Vec<f64>,
    b: Vec<f64>,
}

/// Time `k` interleaved pairs: each pair runs `a` once, then `b` once.
/// The two sides of a pair run back to back, so host drift that moves
/// both cancels in the pair's ratio.
pub fn pairs(k: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> Pairs {
    let mut p = Pairs {
        a: Vec::with_capacity(k),
        b: Vec::with_capacity(k),
    };
    for _ in 0..k {
        p.a.push(time(&mut a));
        p.b.push(time(&mut b));
    }
    p
}

impl Pairs {
    /// `t_a / t_b` of each pair.
    pub fn ratios(&self) -> Stats {
        let r: Vec<f64> = self.a.iter().zip(&self.b).map(|(a, b)| a / b).collect();
        Stats::from_slice(&r)
    }

    /// Fastest `a`, in seconds.
    pub fn best_a(&self) -> f64 {
        Stats::from_slice(&self.a).min()
    }

    /// Fastest `b`, in seconds.
    pub fn best_b(&self) -> f64 {
        Stats::from_slice(&self.b).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLI: Cli = Cli {
        usage: "usage: t [--csv] [--out <path>] [id]",
        switches: &["--csv"],
        valued: &["--out"],
        positionals: 1,
    };

    fn parse(args: &[&str]) -> Result<Args, CliError> {
        CLI.try_parse(args.iter().map(ToString::to_string))
    }

    #[test]
    fn parser_takes_declared_arguments() {
        let a = parse(&["fig1", "--out", "x.json", "--csv"]).expect("declared");
        assert!(a.has("--csv"));
        assert_eq!(a.value("--out"), Some("x.json"));
        assert_eq!(a.positionals, ["fig1"]);
        let none = parse(&[]).expect("empty");
        assert!(!none.has("--csv") && none.value("--out").is_none());
        assert!(none.positionals.is_empty());
    }

    #[test]
    fn parser_rejects_what_was_not_declared() {
        assert_eq!(parse(&["--csv", "--help"]).unwrap_err(), CliError::Help);
        for (args, want) in [
            (&["--cs"][..], "unknown option `--cs`"),
            (&["--out"][..], "`--out` needs a value"),
            (&["--out", "--csv"][..], "`--out` needs a value"),
            (&["fig1", "fig2"][..], "unexpected argument `fig2`"),
            (&["-h"][..], "unknown option `-h`"),
        ] {
            assert_eq!(
                parse(args).unwrap_err(),
                CliError::Usage(want.to_string()),
                "{args:?}"
            );
        }
    }

    /// `judge`'s verdict on a document (the bounds read only `obs_enabled`
    /// and `metrics`).
    fn judged(doc: &str) -> Judgement {
        judge(&Json::parse(doc).expect("test doc parses"))
    }

    fn violations(doc: &str) -> Vec<String> {
        judged(doc).violations
    }

    #[test]
    fn par_floor_trips_on_a_capable_host() {
        let r = violations(
            r#"{"obs_enabled": true, "metrics": {"host_cores": 8,
                "replay_par_speedup": 1.2, "compiled_par_speedup": 3.4}}"#,
        );
        assert_eq!(r.len(), 1, "{r:?}");
        assert!(r[0].contains("replay_par_speedup"), "{r:?}");
    }

    #[test]
    fn par_floor_skipped_below_min_cores() {
        let j = judged(
            r#"{"obs_enabled": true,
                "metrics": {"host_cores": 1, "replay_par_speedup": 1.0}}"#,
        );
        assert!(j.violations.is_empty(), "{:?}", j.violations);
        assert!(
            j.notes
                .iter()
                .any(|n| n.contains("parallel floors skipped")),
            "{:?}",
            j.notes
        );
    }

    #[test]
    fn par_floor_skipped_when_host_cores_missing() {
        let doc = r#"{"obs_enabled": true, "metrics": {"compiled_par_speedup": 0.5}}"#;
        assert!(violations(doc).is_empty());
    }

    #[test]
    fn trace_engine_par_floors_need_obs_but_cachesim_does_not() {
        let r = violations(
            r#"{"obs_enabled": false, "metrics": {"host_cores": 8,
                "replay_par_speedup": 1.0, "cachesim_par_speedup": 1.0}}"#,
        );
        assert_eq!(r.len(), 1, "{r:?}");
        assert!(r[0].contains("cachesim_par_speedup"), "{r:?}");
    }

    #[test]
    fn replay_floor_trips_in_full_mode_only() {
        let r = violations(
            r#"{"obs_enabled": false,
                "metrics": {"spmv_replay_speedup": 1.0, "stream_replay_speedup": 1.0}}"#,
        );
        assert_eq!(r.len(), 1, "{r:?}");
        assert!(r[0].contains("spmv_replay_speedup"), "{r:?}");
    }

    #[test]
    fn prof_overhead_ceiling_trips_on_full_obs_runs_only() {
        let ratio = |obs_on: bool, r: f64| {
            violations(&format!(
                r#"{{"obs_enabled": {obs_on}, "metrics": {{"prof_overhead_ratio": {r}}}}}"#
            ))
        };
        let r = ratio(true, 6.0);
        assert_eq!(r.len(), 1, "{r:?}");
        assert!(r[0].contains("above ceiling"), "{r:?}");
        assert!(ratio(true, 1.4).is_empty());
        // Without obs the ratio measures something else: not gated.
        assert!(ratio(false, 6.0).is_empty());
    }
}
