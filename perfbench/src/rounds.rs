//! Rounds in child processes: every workload sets up, measures and
//! checks in rounds, each with a fresh server or tree.
//!
//! Each round runs in a process of its own, so every set-up starts from
//! process start on a fresh heap, as a user's does. In one process, a
//! second tree built on the memory a dropped one freed took 4.4 s to
//! preload instead of 0.8 s: the runtime's sorted registries insert in
//! allocation-address order, and reused memory comes back in a different
//! order. A round's peak RSS is likewise its own.
//!
//! The child prints `@attempted`, `@fail`, `@value` and `@sample` lines;
//! the parent turns them into medians (untraced rounds) or takes them as
//! they are (the traced round).

use std::process::Command;
use std::time::Instant;

use crate::report::{median, Report, END_TO_END};
use crate::{layers, serve, Args};

const MIN_ROUNDS: u64 = 5;

/// Runs untraced rounds, then one traced round if asked. A serve
/// workload runs `serve::PARTS` rounds, which split the run's seconds
/// between them; the others repeat fixed-size rounds until the run has
/// used `args.seconds`, at least `MIN_ROUNDS`.
pub fn run(args: &Args, rep: &mut Report) {
    let start = Instant::now();
    let serve = serve::RUNGS.iter().any(|g| g.name == args.workload);
    let more = |r: u64| {
        if serve {
            r < serve::PARTS
        } else {
            r < MIN_ROUNDS || start.elapsed().as_secs_f64() < args.seconds
        }
    };
    let mut untraced: Vec<Report> = Vec::new();
    let mut r = 0;
    while more(r) {
        untraced.push(child(args, r, false, rep));
        r += 1;
    }
    for d in END_TO_END {
        rep.set(d.name, value(&untraced, d.name));
    }
    if !args.trace {
        return;
    }
    let traced = child(args, r, true, rep);
    for (name, v) in traced.values() {
        if !END_TO_END.iter().any(|d| d.name == name) {
            rep.set(name, v);
        }
    }
    // Tracing moves no virtual time, so on paper-skew its overhead is
    // read from the wall time per simulated op.
    let (name, to_us) = if args.workload == "paper-skew" {
        ("sim.wall_ns_per_vop", 1e-3)
    } else {
        ("lat_us", 1.0)
    };
    layers::overhead(
        rep,
        value(&untraced, name) * to_us,
        value(std::slice::from_ref(&traced), name) * to_us,
    );
}

/// A metric over some rounds: the median of every window of every round
/// when the rounds report it per window, else the median of the rounds'
/// values.
fn value(rounds: &[Report], name: &str) -> f64 {
    let pooled: Vec<f64> = rounds
        .iter()
        .flat_map(|c| c.samples(name))
        .copied()
        .collect();
    if pooled.is_empty() {
        median(&rounds.iter().map(|c| c.get(name)).collect::<Vec<_>>())
    } else {
        median(&pooled)
    }
}

/// Run round `r` in a child process and fold its counts into `rep`.
pub fn child(args: &Args, r: u64, traced: bool, rep: &mut Report) -> Report {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let out = Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--round", &r.to_string()])
        .output()
        .expect("start a round process");
    let text = String::from_utf8_lossy(&out.stdout);
    let mut got = Report::default();
    for line in text.lines() {
        let mut words = line.splitn(3, ' ');
        match (words.next(), words.next(), words.next()) {
            (Some("@attempted"), Some(n), None) => rep.attempted += n.parse().unwrap_or(0),
            (Some("@fail"), Some(n), Some(what)) => {
                rep.fail(n.parse().unwrap_or(1), format!("round {r}: {what}"))
            }
            (Some("@value"), Some(name), Some(v)) => got.set(name, v.parse().unwrap_or(f64::NAN)),
            (Some("@sample"), Some(name), Some(v)) => {
                got.sample(name, v.parse().unwrap_or(f64::NAN))
            }
            _ => println!("{line}"),
        }
    }
    if !out.status.success() {
        rep.fail(1, format!("round {r} process ended with {}", out.status));
    }
    got
}
