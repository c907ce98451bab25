//! Regenerate the paper's tables: `tables <table1|table2|table3>|all`.
//! An unknown id prints the valid ones to stderr and exits 2.

use ookami_bench::ALL_TABLES;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    if which != "all" && !ALL_TABLES.contains(&which.as_str()) {
        eprintln!(
            "error: unknown table `{which}`; valid ids: {}, all",
            ALL_TABLES.join(", ")
        );
        std::process::exit(2);
    }
    print!("{}", ookami_bench::run_tables(&which));
}
