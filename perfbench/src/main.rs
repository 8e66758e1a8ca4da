//! The repository benchmark: one workload per run, end-to-end metrics
//! with tracing off, per-layer metrics with tracing on.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-high --seed 1 --seconds 24 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is
//! non-zero when an output check fails or the arguments are invalid.
//! See README.md in this directory for the workloads and metrics.

mod layers;
mod meter;
mod report;
mod rounds;
mod serve;
mod skew;
mod spans;
mod tree;

use report::Report;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Set in a round process (see `rounds`): run that round only.
    pub round: Option<u64>,
}

const WORKLOADS: [&str; 4] = ["serve-low", "serve-high", "tree-grow", "paper-skew"];

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut round = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad(&WORKLOADS.join("|"))),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s <= 600.0 => seconds = Some(s),
                _ => return Err(bad("seconds in (0, 600]")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("0 or 1")),
            },
            "--round" => round = Some(value.parse().map_err(|_| bad("an integer"))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        round,
    })
}

fn main() {
    meter::mark_start();
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    if let Some(r) = args.round {
        let mut rep = Report::default();
        match args.workload.as_str() {
            "tree-grow" => tree::round(&args, r, args.trace, &mut rep),
            "paper-skew" => skew::round(&args, r, args.trace, &mut rep),
            _ => serve::round(&args, r, args.trace, &mut rep),
        }
        rep.emit_round();
        return;
    }
    println!(
        "workload {} seed {} seconds {} trace {} host {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        meter::host_facts()
    );
    let mut rep = Report::default();
    rounds::run(&args, &mut rep);
    rep.print(args.trace);
    if !rep.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use crate::report::{Def, END_TO_END, PER_LAYER};

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// The `"name"` values of one top-level array of BENCHMARK.json.
    fn names(section: &str) -> Vec<&'static str> {
        let start = BENCHMARK_JSON
            .find(&format!("\"{section}\": ["))
            .expect("section present");
        let body = &BENCHMARK_JSON[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').expect("name closes")])
            .collect()
    }

    fn check(section: &str, defs: &[Def]) {
        assert_eq!(
            names(section),
            defs.iter().map(|d| d.name).collect::<Vec<_>>()
        );
        for d in defs {
            let entry = format!("{{\"name\": \"{}\", \"unit\": \"{}\",", d.name, d.unit);
            assert!(BENCHMARK_JSON.contains(&entry), "{section}: {entry}");
        }
    }

    #[test]
    fn benchmark_json_lists_what_the_program_prints() {
        check("end_to_end", END_TO_END);
        check("per_layer", PER_LAYER);
        assert_eq!(names("workloads"), super::WORKLOADS);
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(crate::report::quantile(&mut v, 0.5), 50);
        assert_eq!(crate::report::quantile(&mut v, 0.99), 99);
        assert_eq!(crate::report::quantile(&mut Vec::<u64>::new(), 0.5), 0);
        assert_eq!(crate::report::median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
