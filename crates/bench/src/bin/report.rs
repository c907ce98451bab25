//! Generate the complete reproduction report (every figure, table,
//! ablation and the accuracy study) as markdown-ish text on stdout:
//!
//! `cargo run --release -p ookami-bench --bin report > REPORT.txt`
//!
//! With `--validate <file>...` it instead checks each `BENCH_*.json`
//! file against the `ookami-bench-v1` schema and exits nonzero on the
//! first violation — the CI hook that keeps every probe's output loadable
//! by the same tooling.
//!
//! With `--derive <file>` it prints the roofline / bottleneck table
//! `obs::derive` computes from the file's counter snapshots (per span and
//! in total) against the A64FX machine model at the probes' 4 threads.

use ookami_bench::probe::{usage_error, Cli};

/// Thread count `--derive` places the counters at: the probes' parallel
/// sections run 4-thread regions.
const DERIVE_THREADS: usize = 4;

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
                \x20 report --validate <file>...    schema-check BENCH_*.json files\n\
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
            match ookami_core::obs::validate_bench_json(&text) {
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
