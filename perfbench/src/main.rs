//! `ookami-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--inject-fault]`
//!
//! Prints notes, then one JSON result line as the last line of standard
//! output. Exits 1 when any operation's output failed its check, 2 on bad
//! arguments.

use ookami_perfbench::{run, Config, WorkloadName};

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\nusage: ookami-perfbench --workload <emu|model_native> \
         --seed <n> --seconds <s> --trace <0|1> [--inject-fault]"
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut inject_fault = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{a} needs a value")))
        };
        match a.as_str() {
            "--workload" => {
                let v = value();
                workload = Some(
                    WorkloadName::parse(&v)
                        .unwrap_or_else(|| usage(&format!("unknown workload {v}"))),
                );
            }
            "--seed" => seed = Some(value().parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                let s: f64 = value().parse().unwrap_or_else(|_| usage("bad --seconds"));
                if !(s > 0.0 && s <= 3600.0) {
                    usage("--seconds must be in (0, 3600]");
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--inject-fault" => inject_fault = true,
            other => usage(&format!("unknown argument {other}")),
        }
    }
    let cfg = Config {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace,
        inject_fault,
        smoke: false,
    };
    let out = run(&cfg);
    for n in &out.notes {
        println!("{n}");
    }
    println!("{}", out.json());
    if !out.correct() {
        std::process::exit(1);
    }
}
