//! Regression gate for the committed bench trajectory.
//!
//! Compares a fresh `BENCH_*.json` against the one committed beside the
//! code, leaf by leaf (the rule is in `pos_bench::compare`): wall-time
//! `_us` / `_ms` leaves are reported as ratios and never fail,
//! `_per_sec` throughputs fail below `MIN_THROUGHPUT_RATIO` × the
//! committed value, and every other leaf — counts, virtual-time figures,
//! labels, the set of keys — must match exactly.
//!
//! Usage: `bench-compare <committed.json> <fresh.json>`
//! Exit: 0 pass, 1 regression, 2 unreadable input.

use pos_bench::compare::compare;
use serde::Value;

fn load(path: &str) -> Value {
    let parsed = std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| serde_json::from_str(&text).map_err(|e| e.to_string()));
    parsed.unwrap_or_else(|e| {
        eprintln!("bench-compare: {path}: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [committed, fresh] = args.as_slice() else {
        eprintln!("usage: bench-compare <committed.json> <fresh.json>");
        std::process::exit(2);
    };
    let c = compare(&load(committed), &load(fresh));
    println!("{fresh} vs {committed}");
    for line in &c.report {
        println!("  {line}");
    }
    if !c.passed() {
        for line in &c.failures {
            eprintln!("REGRESSION {line}");
        }
        std::process::exit(1);
    }
    println!("  ok");
}
