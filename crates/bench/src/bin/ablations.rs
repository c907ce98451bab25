//! Print the ablation studies (mechanism on/off experiments).

use ookami_bench::probe::Cli;

fn main() {
    Cli {
        usage: "usage: ablations — print the mechanism on/off ablation studies",
        ..Cli::default()
    }
    .parse();
    print!(
        "{}",
        ookami_bench::ablations::render_all(ookami_uarch::machines::a64fx())
    );
}
