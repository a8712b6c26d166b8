//! The regression rule for `BENCH_*.json`: a fresh bench output is
//! judged leaf by leaf against the one committed beside the code, see
//! the `bench-compare` binary.
//!
//! The rule reads the leaf's key (the nearest object key on its path):
//!
//! * `_us` / `_ms` — a wall-time latency. Reported as a fresh/committed
//!   ratio; it never fails, because it tracks the machine as much as
//!   the code.
//! * `_per_sec` — a wall-time throughput. Fails below
//!   [`MIN_THROUGHPUT_RATIO`] × the committed value.
//! * anything else — a count, a virtual-time figure or a label. The
//!   benches are seeded, so it must match exactly; so must the set of
//!   keys.
//!
//! A `generated_by` object (the commit and machine that wrote the file)
//! is provenance, not a result: it is skipped on both sides.

use serde::Value;

/// A `_per_sec` leaf fails when the fresh value falls below this
/// fraction of the committed one. On a loaded 2-core VM the in-memory
/// kernel rows spread about ±20% run to run (±45% for the 10 ms vpos
/// row); 0.4 keeps that inside while every kernel bound stays above the
/// hand-set floors it replaced (4.0 M events/s, 1.6 and 1.3 M pkts/s).
/// A rate bound by fsync latency spreads several-fold on a shared disk,
/// so the benches report such rates as `_ms` wall times instead.
pub const MIN_THROUGHPUT_RATIO: f64 = 0.4;

/// Key of the provenance object the comparison skips.
pub const PROVENANCE: &str = "generated_by";

/// What comparing two bench outputs found.
#[derive(Debug, Default)]
pub struct Comparison {
    /// One line per wall-time leaf: committed, fresh and their ratio.
    pub report: Vec<String>,
    /// One line per failed leaf, each naming its key.
    pub failures: Vec<String>,
}

impl Comparison {
    /// True when no leaf failed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// A leaf's place in the document (`packet_path[1].sim_packets_per_sec`),
/// the key that classifies it, and its value.
struct Leaf<'a> {
    path: String,
    key: &'a str,
    value: &'a Value,
}

fn leaves<'a>(value: &'a Value, path: String, key: &'a str, out: &mut Vec<Leaf<'a>>) {
    match value {
        Value::Map(entries) if !entries.is_empty() => {
            for (k, v) in entries.iter().filter(|(k, _)| k != PROVENANCE) {
                let child = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                leaves(v, child, k, out);
            }
        }
        Value::Seq(items) if !items.is_empty() => {
            for (i, v) in items.iter().enumerate() {
                leaves(v, format!("{path}[{i}]"), key, out);
            }
        }
        _ => out.push(Leaf { path, key, value }),
    }
}

fn number(v: &Value) -> Option<f64> {
    match *v {
        Value::Int(i) => Some(i as f64),
        Value::UInt(u) => Some(u as f64),
        Value::Float(f) => Some(f),
        _ => None,
    }
}

fn render(v: &Value) -> String {
    serde_json::to_string(v).expect("a parsed JSON value serializes")
}

fn ratio(fresh: f64, committed: f64) -> String {
    if committed == 0.0 {
        "n/a".into()
    } else {
        format!("{:.2}x", fresh / committed)
    }
}

/// Compares `fresh` against `committed` under the module's rule.
pub fn compare(committed: &Value, fresh: &Value) -> Comparison {
    let (mut old, mut new) = (Vec::new(), Vec::new());
    leaves(committed, String::new(), "", &mut old);
    leaves(fresh, String::new(), "", &mut new);
    let mut out = Comparison::default();
    for leaf in &old {
        let Some(now) = new.iter().find(|n| n.path == leaf.path) else {
            out.failures
                .push(format!("{}: missing from the fresh output", leaf.path));
            continue;
        };
        let wall_time = leaf.key.ends_with("_us") || leaf.key.ends_with("_ms");
        let throughput = leaf.key.ends_with("_per_sec");
        match (number(leaf.value), number(now.value)) {
            (Some(was), Some(is)) if wall_time => {
                out.report
                    .push(format!("{}: {was} -> {is} ({})", leaf.path, ratio(is, was)))
            }
            (Some(was), Some(is)) if throughput => {
                let bound = MIN_THROUGHPUT_RATIO * was;
                out.report.push(format!(
                    "{}: {was} -> {is} ({}, bound {MIN_THROUGHPUT_RATIO}x)",
                    leaf.path,
                    ratio(is, was)
                ));
                if is < bound {
                    out.failures.push(format!(
                        "{}: {is} is below the bound {bound} \
                         ({MIN_THROUGHPUT_RATIO} x committed {was})",
                        leaf.path
                    ));
                }
            }
            _ if leaf.value != now.value => out.failures.push(format!(
                "{}: committed {}, fresh {}",
                leaf.path,
                render(leaf.value),
                render(now.value)
            )),
            _ => {}
        }
    }
    for leaf in &new {
        if !old.iter().any(|o| o.path == leaf.path) {
            out.failures
                .push(format!("{}: not in the committed output", leaf.path));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json(s: &str) -> Value {
        serde_json::from_str(s).expect("test JSON parses")
    }

    const COMMITTED: &str = r#"{
        "churn": {"events": 1000, "wall_ms": 80.5, "events_per_sec": 12000000.0},
        "rows": [{"platform": "pos", "sim_events": 4688, "p50_us": 225.0}]
    }"#;

    #[test]
    fn identical_outputs_pass() {
        let c = compare(&json(COMMITTED), &json(COMMITTED));
        assert!(c.passed(), "{:?}", c.failures);
        assert_eq!(c.report.len(), 3, "{:?}", c.report);
    }

    #[test]
    fn a_changed_count_fails_and_names_the_key() {
        let fresh = COMMITTED.replace("4688", "4689");
        let c = compare(&json(COMMITTED), &json(&fresh));
        assert_eq!(
            c.failures,
            ["rows[0].sim_events: committed 4688, fresh 4689"]
        );
    }

    #[test]
    fn a_missing_or_extra_key_fails() {
        let fresh = COMMITTED.replace("\"events\": 1000", "\"evts\": 1000");
        let c = compare(&json(COMMITTED), &json(&fresh));
        assert_eq!(
            c.failures,
            [
                "churn.events: missing from the fresh output",
                "churn.evts: not in the committed output",
            ]
        );
    }

    #[test]
    fn a_throughput_below_the_bound_fails_and_names_it() {
        let bound = MIN_THROUGHPUT_RATIO * 12e6;
        let fresh = COMMITTED.replace("12000000.0", &format!("{:.1}", bound - 1.0));
        let c = compare(&json(COMMITTED), &json(&fresh));
        assert_eq!(c.failures.len(), 1, "{:?}", c.failures);
        let want = format!(
            "churn.events_per_sec: {} is below the bound {bound}",
            bound - 1.0
        );
        assert!(c.failures[0].starts_with(&want), "{}", c.failures[0]);
        // At the bound still passes.
        let fresh = COMMITTED.replace("12000000.0", &format!("{bound:.1}"));
        assert!(compare(&json(COMMITTED), &json(&fresh)).passed());
    }

    #[test]
    fn provenance_is_skipped_on_both_sides() {
        let stamped = COMMITTED.replacen(
            '{',
            r#"{"generated_by": {"commit": "abc", "nproc": 2, "result_fs": "ext4"},"#,
            1,
        );
        let other = stamped
            .replace("abc", "def")
            .replace("\"nproc\": 2", "\"nproc\": 64");
        for (committed, fresh) in [
            (&stamped, &other),
            (&stamped, &COMMITTED.to_string()),
            (&COMMITTED.to_string(), &stamped),
        ] {
            let c = compare(&json(committed), &json(fresh));
            assert!(c.passed(), "{:?}", c.failures);
            assert_eq!(c.report.len(), 3, "{:?}", c.report);
        }
    }

    #[test]
    fn a_doubled_latency_passes_and_is_reported() {
        let fresh = COMMITTED.replace("225.0", "450.0");
        let c = compare(&json(COMMITTED), &json(&fresh));
        assert!(c.passed(), "{:?}", c.failures);
        assert!(
            c.report
                .contains(&"rows[0].p50_us: 225 -> 450 (2.00x)".to_string()),
            "{:?}",
            c.report
        );
    }
}
