//! `lb-trace` — inspect LBT1 microarchitectural traces.
//!
//! ```text
//! lb-trace summarize <trace> [--timeline N]
//! lb-trace diff <left> <right>
//! lb-trace grep <trace> [--kind K] [--sm N] [--warp N] [--line HEX]
//!                        [--from CYCLE] [--to CYCLE] [--limit N]
//! ```
//!
//! Exit codes: 0 success (for `diff`: traces identical), 1 usage or decode
//! error, 2 (`diff` only): traces diverge.

#![forbid(unsafe_code)]

use std::path::Path;
use std::process::ExitCode;

use lb_trace::{diff, grep, read_file, summarize, timeline, EventKind, Filter};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  lb-trace summarize <trace> [--timeline N]\n  lb-trace diff <left> <right>\n  lb-trace grep <trace> [--kind K] [--sm N] [--warp N] [--line HEX] [--from C] [--to C] [--limit N]"
    );
    ExitCode::from(1)
}

fn load(path: &str) -> Result<Vec<u8>, ExitCode> {
    read_file(Path::new(path)).map_err(|e| {
        eprintln!("lb-trace: {e}");
        ExitCode::from(1)
    })
}

fn parse_u64(v: &str, flag: &str) -> Result<u64, ExitCode> {
    let parsed = if let Some(hex) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        v.parse()
    };
    parsed.map_err(|_| {
        eprintln!("lb-trace: bad value {v:?} for {flag}");
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("summarize") => cmd_summarize(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("grep") => cmd_grep(&args[1..]),
        _ => usage(),
    }
}

fn cmd_summarize(args: &[String]) -> ExitCode {
    let mut path = None;
    let mut buckets = 0usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--timeline" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => buckets = n,
                None => return usage(),
            },
            _ if path.is_none() => path = Some(a.clone()),
            _ => return usage(),
        }
    }
    let Some(path) = path else { return usage() };
    let bytes = match load(&path) {
        Ok(b) => b,
        Err(c) => return c,
    };
    match summarize(&bytes) {
        Ok(s) => print!("{s}"),
        Err(e) => {
            eprintln!("lb-trace: {e}");
            return ExitCode::from(1);
        }
    }
    if buckets > 0 {
        match timeline(&bytes, buckets) {
            Ok(rows) => {
                println!("  timeline ({buckets} buckets):");
                println!(
                    "  {:>12} {:>9} {:>9} {:>9} {:>7} {:>7} {:>7} {:>8}",
                    "start_cycle", "issue", "l1", "l1_miss", "l2", "dram", "backup", "restore"
                );
                for row in rows {
                    println!(
                        "  {:>12} {:>9} {:>9} {:>9} {:>7} {:>7} {:>7} {:>8}",
                        row.start_cycle,
                        row.issues,
                        row.l1,
                        row.l1_misses,
                        row.l2,
                        row.dram,
                        row.backups,
                        row.restores
                    );
                }
            }
            Err(e) => {
                eprintln!("lb-trace: {e}");
                return ExitCode::from(1);
            }
        }
    }
    ExitCode::SUCCESS
}

fn cmd_diff(args: &[String]) -> ExitCode {
    let [left, right] = args else { return usage() };
    let (l, r) = match (load(left), load(right)) {
        (Ok(l), Ok(r)) => (l, r),
        (Err(c), _) | (_, Err(c)) => return c,
    };
    match diff(&l, &r) {
        Ok(outcome) => {
            println!("{outcome}");
            if outcome.is_identical() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            }
        }
        Err(e) => {
            eprintln!("lb-trace: {e}");
            ExitCode::from(1)
        }
    }
}

fn cmd_grep(args: &[String]) -> ExitCode {
    let mut path = None;
    let mut filter = Filter::default();
    let mut limit = 0usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut next = |flag: &str| -> Result<String, ExitCode> {
            it.next().cloned().ok_or_else(|| {
                eprintln!("lb-trace: {flag} needs a value");
                ExitCode::from(1)
            })
        };
        match a.as_str() {
            "--kind" => match next("--kind").map(|v| EventKind::from_name(&v).ok_or(v)) {
                Ok(Ok(k)) => filter.kind = Some(k),
                Ok(Err(v)) => {
                    eprintln!("lb-trace: unknown event kind {v:?}");
                    return ExitCode::from(1);
                }
                Err(c) => return c,
            },
            "--sm" => match next("--sm").and_then(|v| parse_u64(&v, "--sm")) {
                Ok(v) => filter.sm = Some(v),
                Err(c) => return c,
            },
            "--warp" => match next("--warp").and_then(|v| parse_u64(&v, "--warp")) {
                Ok(v) => filter.warp = Some(v),
                Err(c) => return c,
            },
            "--line" => match next("--line").and_then(|v| parse_u64(&v, "--line")) {
                Ok(v) => filter.line = Some(v),
                Err(c) => return c,
            },
            "--from" => match next("--from").and_then(|v| parse_u64(&v, "--from")) {
                Ok(v) => filter.from_cycle = Some(v),
                Err(c) => return c,
            },
            "--to" => match next("--to").and_then(|v| parse_u64(&v, "--to")) {
                Ok(v) => filter.to_cycle = Some(v),
                Err(c) => return c,
            },
            "--limit" => match next("--limit").and_then(|v| parse_u64(&v, "--limit")) {
                Ok(v) => limit = v as usize,
                Err(c) => return c,
            },
            _ if path.is_none() => path = Some(a.clone()),
            _ => return usage(),
        }
    }
    let Some(path) = path else { return usage() };
    let bytes = match load(&path) {
        Ok(b) => b,
        Err(c) => return c,
    };
    match grep(&bytes, &filter, limit) {
        Ok(records) => {
            for (cycle, ev) in &records {
                println!("{cycle:>10}  {ev}");
            }
            eprintln!("{} matching events", records.len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("lb-trace: {e}");
            ExitCode::from(1)
        }
    }
}
