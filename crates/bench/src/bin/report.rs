//! Generate the complete reproduction report (every figure, table,
//! ablation and the accuracy study) as markdown-ish text on stdout:
//!
//! `cargo run --release -p ookami-bench --bin report > REPORT.txt`
//!
//! With `--derive <file>` it instead prints the roofline / bottleneck table
//! `obs::derive` computes from the file's counter snapshots (per span and
//! in total) against the A64FX machine model at the probes' 4 threads.

use ookami_bench::probe::Cli;

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
        usage: "report — regenerate the full reproduction report, or derive a BENCH file's table\n\
                \n\
                usage:\n\
                \x20 report                    full report on stdout\n\
                \x20 report --derive <file>    roofline/bottleneck table from a\n\
                \x20                           BENCH_*.json with counters, at the\n\
                \x20                           probes' 4 threads",
        valued: &["--derive"],
        ..Cli::default()
    }
    .parse();
    if let Some(file) = args.value("--derive") {
        run_derive(file);
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
