//! Runs one benchmark workload and prints its result as one JSON line.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cell_snoop|cell_compress|metro|mc_ttsf> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics of the traced run. A summary goes to standard error.

use std::process::ExitCode;

use comma_perfbench::{measure, result_json, Workload, DEFAULT_SEED, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("not a u64"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err(bad("must be positive"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("comma-perfbench: {e}");
            eprintln!(
                "usage: comma-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let workload = Workload::full(&args.workload).expect("validated workload name");
    let report = measure(&workload, args.seed, args.seconds, args.trace);
    let walls: Vec<String> = report
        .untraced
        .iter()
        .chain(&report.traced)
        .map(|r| format!("{:.4}", r.wall_s))
        .collect();
    let steal_s: f64 = report.untraced.iter().map(|r| r.steal_s).sum();
    eprintln!(
        "comma-perfbench: {} seed {}: {} untraced + {} traced runs on {} CPU lane(s), wall_s [{}], untraced steal {:.2} s",
        args.workload,
        args.seed,
        report.untraced.len(),
        report.traced.len(),
        report.lanes,
        walls.join(" "),
        steal_s
    );
    for problem in &report.problems {
        eprintln!("comma-perfbench: INCORRECT: {problem}");
    }
    println!("{}", result_json(&report, args.trace));
    ExitCode::SUCCESS
}
