//! Regenerate the paper's tables: `tables [<table1|table2|table3>|all]`.
//! An unknown id prints the valid ones to stderr and exits 2.

use ookami_bench::probe::{usage_error, Cli};
use ookami_bench::ALL_TABLES;

fn main() {
    let args = Cli {
        usage: "usage: tables [table1|table2|table3|all] — regenerate the paper's tables",
        positionals: 1,
        ..Cli::default()
    }
    .parse();
    let which = args.positionals.first().map_or("all", String::as_str);
    if which != "all" && !ALL_TABLES.contains(&which) {
        usage_error(&format!(
            "unknown table `{which}`; valid ids: {}, all",
            ALL_TABLES.join(", ")
        ));
    }
    print!("{}", ookami_bench::run_tables(which));
}
