//! Generate the complete reproduction report (every figure, table,
//! ablation and the accuracy study) as markdown-ish text on stdout:
//!
//! `cargo run --release -p ookami-bench --bin report > REPORT.txt`
//!
//! With `--validate <file>...` it instead checks each report file and
//! exits nonzero on the first violation — the CI hook that keeps every
//! probe's output loadable by the same tooling. Files are dispatched on
//! their `schema` tag: `BENCH_*.json` (`ookami-bench-v1`) and the
//! `ookamicheck` analyzer report (`ookamicheck-v1`) are both accepted.
//!
//! With `--derive <file>` it prints the roofline / bottleneck table
//! `obs::derive` computes from the file's counter snapshots (per span and
//! in total) against the A64FX machine model at the probes' 4 threads.

use ookami_bench::probe::{usage_error, Cli};

/// Thread count `--derive` places the counters at: the probes' parallel
/// sections run 4-thread regions.
const DERIVE_THREADS: usize = 4;

/// Shape-check an `ookamicheck-v1` document (written by the
/// `ookamicheck` bin): per-program diagnostic counts plus the race
/// summary, everything CI consumes from the uploaded artifact.
fn validate_ookamicheck_json(text: &str) -> Result<(), String> {
    use ookami_core::obs::Json;
    let v = Json::parse(text)?;
    let Json::Obj(obj) = &v else {
        return Err("top level must be an object".to_string());
    };
    let Some(Json::Arr(programs)) = obj.get("programs") else {
        return Err("`programs` must be an array".to_string());
    };
    for (i, p) in programs.iter().enumerate() {
        let Json::Obj(m) = p else {
            return Err(format!("`programs[{i}]` must be an object"));
        };
        match m.get("program") {
            Some(Json::Str(s)) if !s.is_empty() => {}
            _ => {
                return Err(format!(
                    "`programs[{i}].program` must be a non-empty string"
                ))
            }
        }
        for key in ["instructions", "errors", "warnings"] {
            match m.get(key) {
                Some(Json::Num(n)) if *n >= 0.0 => {}
                _ => {
                    return Err(format!(
                        "`programs[{i}].{key}` must be a non-negative number"
                    ))
                }
            }
        }
        if !matches!(m.get("diagnostics"), Some(Json::Arr(_))) {
            return Err(format!("`programs[{i}].diagnostics` must be an array"));
        }
    }
    let Some(Json::Obj(race)) = obj.get("race") else {
        return Err("`race` must be an object".to_string());
    };
    for key in ["events", "races"] {
        if !matches!(race.get(key), Some(Json::Num(_))) {
            return Err(format!("`race.{key}` must be a number"));
        }
    }
    if !matches!(obj.get("failures"), Some(Json::Num(_))) {
        return Err("`failures` must be a number".to_string());
    }
    Ok(())
}

/// Shape-check an `ookamicheck-tv-v1` document (written by `ookamicheck
/// --tv`): per-trace translation-validation outcomes plus the mutation
/// self-test tallies.
fn validate_ookamicheck_tv_json(text: &str) -> Result<(), String> {
    use ookami_core::obs::Json;
    let v = Json::parse(text)?;
    let Json::Obj(obj) = &v else {
        return Err("top level must be an object".to_string());
    };
    let Some(Json::Arr(traces)) = obj.get("traces") else {
        return Err("`traces` must be an array".to_string());
    };
    for (i, t) in traces.iter().enumerate() {
        let Json::Obj(m) = t else {
            return Err(format!("`traces[{i}]` must be an object"));
        };
        match m.get("trace") {
            Some(Json::Str(s)) if !s.is_empty() => {}
            _ => return Err(format!("`traces[{i}].trace` must be a non-empty string")),
        }
        match m.get("errors") {
            Some(Json::Num(n)) if *n >= 0.0 => {}
            _ => {
                return Err(format!(
                    "`traces[{i}].errors` must be a non-negative number"
                ))
            }
        }
        if !matches!(m.get("counters_checked"), Some(Json::Bool(_))) {
            return Err(format!("`traces[{i}].counters_checked` must be a bool"));
        }
    }
    let Some(Json::Arr(challenge)) = obj.get("challenge") else {
        return Err("`challenge` must be an array".to_string());
    };
    for (i, c) in challenge.iter().enumerate() {
        let Json::Obj(m) = c else {
            return Err(format!("`challenge[{i}]` must be an object"));
        };
        match m.get("base") {
            Some(Json::Str(s)) if !s.is_empty() => {}
            _ => return Err(format!("`challenge[{i}].base` must be a non-empty string")),
        }
        for key in ["rejected", "divergent"] {
            match m.get(key) {
                Some(Json::Num(n)) if *n >= 0.0 => {}
                _ => {
                    return Err(format!(
                        "`challenge[{i}].{key}` must be a non-negative number"
                    ))
                }
            }
        }
    }
    if !matches!(obj.get("failures"), Some(Json::Num(_))) {
        return Err("`failures` must be a number".to_string());
    }
    Ok(())
}

/// Dispatch on the document's `schema` tag so one `--validate` invocation
/// covers every report kind the repo writes.
fn validate_any(text: &str) -> Result<(), String> {
    use ookami_core::obs::Json;
    let tag = match Json::parse(text)? {
        Json::Obj(m) => match m.get("schema") {
            Some(Json::Str(s)) => s.clone(),
            other => return Err(format!("`schema` must be a string, got {other:?}")),
        },
        _ => return Err("top level must be an object".to_string()),
    };
    match tag.as_str() {
        "ookamicheck-v1" => validate_ookamicheck_json(text),
        "ookamicheck-tv-v1" => validate_ookamicheck_tv_json(text),
        _ => ookami_core::obs::validate_bench_json(text),
    }
}

fn run_derive(file: &str) -> ! {
    let text = std::fs::read_to_string(file).unwrap_or_else(|e| {
        eprintln!("FAIL {file}: {e}");
        std::process::exit(2);
    });
    if let Err(e) = ookami_core::obs::validate_bench_json(&text) {
        eprintln!("FAIL {file}: not a valid ookami-bench-v1 document: {e}");
        std::process::exit(2);
    }
    let doc = ookami_core::obs::Json::parse(&text).expect("validated JSON reparses");
    let m = ookami_uarch::machines::a64fx();
    match ookami_core::obs::derive::derive_bench_doc(&doc, m, DERIVE_THREADS) {
        Ok(rows) if rows.is_empty() => {
            println!(
                "{file}: no counter snapshots to derive from (was the probe built \
                 with --features obs?)"
            );
            std::process::exit(0);
        }
        Ok(rows) => {
            print!(
                "{}",
                ookami_core::obs::derive::render_table(&rows, m, DERIVE_THREADS)
            );
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("FAIL {file}: {e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args = Cli {
        usage: "report — regenerate the full reproduction report, or inspect BENCH files\n\
                \n\
                usage:\n\
                \x20 report                         full report on stdout\n\
                \x20 report --validate <file>...    schema-check report files\n\
                \x20                                (BENCH_*.json, OOKAMICHECK*.json)\n\
                \x20 report --derive <file>         roofline/bottleneck table from a\n\
                \x20                                BENCH_*.json with counters, at the\n\
                \x20                                probes' 4 threads",
        switches: &["--validate"],
        valued: &["--derive"],
        positionals: usize::MAX,
    }
    .parse();
    let files = &args.positionals;
    if let Some(file) = args.value("--derive") {
        if args.has("--validate") || !files.is_empty() {
            usage_error("--derive takes one file and no other argument");
        }
        run_derive(file);
    }
    if args.has("--validate") {
        if files.is_empty() {
            usage_error("--validate needs at least one file");
        }
        for f in files {
            let text = match std::fs::read_to_string(f) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("FAIL {f}: {e}");
                    std::process::exit(1);
                }
            };
            match validate_any(&text) {
                Ok(()) => println!("OK {f}"),
                Err(e) => {
                    eprintln!("FAIL {f}: {e}");
                    std::process::exit(1);
                }
            }
        }
        return;
    }
    if let Some(f) = files.first() {
        usage_error(&format!("unexpected argument `{f}`"));
    }

    println!("# ookami — full reproduction report\n");
    println!("Regenerated from the models and emulator; see EXPERIMENTS.md for the");
    println!("paper-vs-produced ledger and DESIGN.md for the substitutions.\n");

    println!("## Tables\n");
    print!("{}", ookami_bench::run_tables("all"));

    println!("## Figures\n");
    print!("{}", ookami_bench::run_figures("all", false));

    println!("## Ablations\n");
    print!(
        "{}",
        ookami_bench::ablations::render_all(ookami_uarch::machines::a64fx())
    );

    println!("\n## Accuracy study\n");
    print!("{}", ookami_bench::accuracy::render());
}
