//! A miniature key-value store service loop over Euno-B+Tree — the kind
//! of in-memory-database index workload (DBX/DrTM-style) the paper's
//! introduction motivates.
//!
//! Reads a simple command stream from stdin (one command per line) and
//! answers on stdout; with no stdin redirection it runs a short built-in
//! demo script.
//!
//! Commands: `put <k> <v>` | `get <k>` | `del <k>` | `scan <from> <n>` |
//! `stats` | `quit`
//!
//! ```sh
//! printf 'put 1 10\nput 2 20\nscan 0 10\nstats\n' | \
//!     cargo run --release --example kv_store
//! ```

use std::io::{self, BufRead, IsTerminal, Write};
use std::sync::Arc;

use eunomia::prelude::*;

fn main() {
    let rt = Runtime::new_concurrent(); // a real service would use OS threads
    let tree = EunoBTreeDefault::new(Arc::clone(&rt));
    let mut ctx = rt.thread(1);
    let stdin = io::stdin();
    let mut out = io::stdout().lock();

    let demo = "put 1 100\nput 2 200\nput 3 300\nget 2\ndel 2\nget 2\nscan 1 10\nstats\nquit\n";
    let source: Box<dyn BufRead> = if stdin.is_terminal() {
        eprintln!("(no piped stdin: running demo script)");
        Box::new(io::Cursor::new(demo))
    } else {
        Box::new(stdin.lock())
    };

    for line in source.lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        let mut parts = line.split_whitespace();
        let reply = match parts.next() {
            Some("put") => match (parts.next(), parts.next()) {
                (Some(k), Some(v)) => match (k.parse(), v.parse()) {
                    (Ok(k), Ok(v)) => match tree.put(&mut ctx, k, v) {
                        Some(old) => format!("OK (was {old})"),
                        None => "OK (new)".into(),
                    },
                    _ => "ERR put <u64> <u64>".into(),
                },
                _ => "ERR put <k> <v>".into(),
            },
            Some("get") => match parts.next().and_then(|k| k.parse().ok()) {
                Some(k) => match tree.get(&mut ctx, k) {
                    Some(v) => format!("{v}"),
                    None => "(nil)".into(),
                },
                None => "ERR get <k>".into(),
            },
            Some("del") => match parts.next().and_then(|k| k.parse().ok()) {
                Some(k) => match tree.delete(&mut ctx, k) {
                    Some(v) => format!("OK (was {v})"),
                    None => "(nil)".into(),
                },
                None => "ERR del <k>".into(),
            },
            Some("scan") => match (
                parts.next().and_then(|k| k.parse().ok()),
                parts.next().and_then(|n| n.parse().ok()),
            ) {
                (Some(from), Some(n)) => {
                    let mut rows = Vec::new();
                    tree.scan(&mut ctx, from, n, &mut rows);
                    rows.iter()
                        .map(|(k, v)| format!("{k}={v}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                }
                _ => "ERR scan <from> <n>".into(),
            },
            Some("stats") => {
                let stages = ctx.exec_stages();
                format!(
                    "commits={} aborts={} fallbacks={} mem={}B",
                    stages.commits,
                    ctx.aborts().total(),
                    stages.fallbacks,
                    tree.memory().total_live(),
                )
            }
            Some("quit") | Some("exit") => break,
            Some(cmd) => format!("ERR unknown command {cmd}"),
            None => continue,
        };
        writeln!(out, "{reply}").unwrap();
    }
}
