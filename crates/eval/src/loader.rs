//! Result-tree loading and metadata-driven aggregation.
//!
//! §4.4: *"Based on this metadata, the evaluation script can filter or
//! aggregate specific parameters and values."* A [`ResultSet`] is the
//! loaded tree; [`ResultSet::where_eq`], [`ResultSet::group_by`], and
//! [`ResultSet::series`] are the filter/aggregate operations the paper's
//! plotting scripts perform.

use crate::moongen::{self, MoonGenSummary};
use pos_core::resultstore::{ResultStore, RunMetadata};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// One measurement run, joined with its metadata.
#[derive(Debug, Clone)]
pub struct ParsedRun {
    /// The run's metadata (loop parameters, timing, attempts).
    pub metadata: RunMetadata,
    /// Parsed generator reports per role (roles whose log parses as
    /// MoonGen output).
    pub reports: BTreeMap<String, MoonGenSummary>,
    /// Raw captured stdout per role.
    pub raw_logs: BTreeMap<String, String>,
}

impl ParsedRun {
    /// The loop-parameter value, if present.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.metadata.params.get(key).map(String::as_str)
    }

    /// The loop-parameter value parsed as f64.
    pub fn param_f64(&self, key: &str) -> Option<f64> {
        self.param(key)?.parse().ok()
    }

    /// The first parsed MoonGen report (the usual single-generator case).
    pub fn report(&self) -> Option<&MoonGenSummary> {
        self.reports.values().next()
    }
}

/// A loaded set of runs.
#[derive(Debug, Clone, Default)]
pub struct ResultSet {
    /// The runs in index order.
    pub runs: Vec<ParsedRun>,
    /// One line per run directory that was skipped because its metadata
    /// was missing or unreadable — the tree of an interrupted campaign
    /// evaluates degraded and loud, not not at all.
    pub diagnostics: Vec<String>,
}

impl ResultSet {
    /// Loads every run of an experiment result directory.
    ///
    /// Run directories without readable metadata (the crash artifact of
    /// an interrupted campaign, or plain corruption) are skipped and
    /// reported via [`Self::diagnostics`]; measurement logs that do not
    /// parse as MoonGen output are kept as raw logs only — not every
    /// role produces generator output.
    pub fn load(experiment_dir: &Path) -> io::Result<ResultSet> {
        let store = ResultStore::open(experiment_dir);
        let scan = store.scan_runs()?;
        let mut runs = Vec::new();
        for (run_dir, metadata) in scan.runs {
            let mut reports = BTreeMap::new();
            let mut raw_logs = BTreeMap::new();
            for entry in std::fs::read_dir(&run_dir)? {
                let path = entry?.path();
                let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                    continue;
                };
                if let Some(role) = name.strip_suffix("_measurement.log") {
                    let text = std::fs::read_to_string(&path)?;
                    if let Ok(summary) = moongen::parse(&text) {
                        reports.insert(role.to_owned(), summary);
                    }
                    raw_logs.insert(role.to_owned(), text);
                }
            }
            runs.push(ParsedRun {
                metadata,
                reports,
                raw_logs,
            });
        }
        runs.sort_by_key(|r| r.metadata.index);
        Ok(ResultSet {
            runs,
            diagnostics: scan.diagnostics,
        })
    }

    /// Number of runs.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// True when no runs are loaded.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Runs whose loop parameter `key` renders equal to `value`.
    pub fn where_eq(&self, key: &str, value: &str) -> ResultSet {
        ResultSet {
            runs: self
                .runs
                .iter()
                .filter(|r| r.param(key) == Some(value))
                .cloned()
                .collect(),
            diagnostics: Vec::new(),
        }
    }

    /// Only the successful runs.
    pub fn successful(&self) -> ResultSet {
        ResultSet {
            runs: self
                .runs
                .iter()
                .filter(|r| r.metadata.success)
                .cloned()
                .collect(),
            diagnostics: Vec::new(),
        }
    }

    /// Groups runs by the rendered value of loop parameter `key`. Runs
    /// without the parameter land under `"<unset>"`.
    pub fn group_by(&self, key: &str) -> BTreeMap<String, ResultSet> {
        let mut out: BTreeMap<String, ResultSet> = BTreeMap::new();
        for r in &self.runs {
            let k = r.param(key).unwrap_or("<unset>").to_owned();
            out.entry(k).or_default().runs.push(r.clone());
        }
        out
    }

    /// Like [`Self::series`], but aggregates runs sharing the same x value
    /// (e.g. repetitions) into summary statistics, sorted by x. The paper's
    /// error-bar plots come from this.
    pub fn series_aggregated(
        &self,
        x_param: &str,
        mut y: impl FnMut(&ParsedRun) -> Option<f64>,
    ) -> Vec<(f64, crate::stats::Summary)> {
        let mut grouped: std::collections::BTreeMap<u64, (f64, Vec<f64>)> =
            std::collections::BTreeMap::new();
        for r in &self.runs {
            let (Some(x), Some(v)) = (r.param_f64(x_param), y(r)) else {
                continue;
            };
            // Group by the bit pattern: exact equality of the rendered
            // parameter, which is how repetitions share an x.
            grouped
                .entry(x.to_bits())
                .or_insert((x, Vec::new()))
                .1
                .push(v);
        }
        let mut out: Vec<(f64, crate::stats::Summary)> = grouped
            .into_values()
            .filter_map(|(x, vs)| Some((x, crate::stats::Summary::of(&vs)?)))
            .collect();
        out.sort_by(|a, b| a.0.total_cmp(&b.0));
        out
    }

    /// Renders a human-readable summary table of the set: one line per
    /// run with its parameters and headline measurements — what `pos eval`
    /// prints before plotting.
    pub fn render_summary(&self) -> String {
        let mut out = format!(
            "{:>5} {:>8} {:<34} {:>12} {:>12} {:>8}\n",
            "run", "status", "parameters", "tx [Mpps]", "rx [Mpps]", "loss"
        );
        for r in &self.runs {
            let (tx, rx, loss) = match r.report() {
                Some(rep) => (
                    format!("{:.4}", rep.tx_mpps()),
                    format!("{:.4}", rep.rx_mpps()),
                    format!("{:.1}%", rep.loss_fraction() * 100.0),
                ),
                None => ("-".into(), "-".into(), "-".into()),
            };
            out.push_str(&format!(
                "{:>5} {:>8} {:<34} {:>12} {:>12} {:>8}\n",
                r.metadata.index,
                if r.metadata.success { "ok" } else { "FAILED" },
                r.metadata.label,
                tx,
                rx,
                loss
            ));
        }
        out
    }

    /// Extracts an x/y series: x is loop parameter `x_param` (as f64), y
    /// is computed per run. Runs where either side is missing are skipped;
    /// the series is sorted by x.
    pub fn series(
        &self,
        x_param: &str,
        mut y: impl FnMut(&ParsedRun) -> Option<f64>,
    ) -> Vec<(f64, f64)> {
        let mut points: Vec<(f64, f64)> = self
            .runs
            .iter()
            .filter_map(|r| Some((r.param_f64(x_param)?, y(r)?)))
            .collect();
        points.sort_by(|a, b| a.0.total_cmp(&b.0));
        points
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pos_core::loopvars::RunParams;
    use pos_core::resultstore::run_metadata;
    use pos_core::vars::VarValue;
    use pos_simkernel::SimTime;
    use pos_testutil::TempDir;
    use std::path::PathBuf;

    /// Builds a synthetic result tree with `n` runs under the returned
    /// scratch root.
    fn synthetic_tree(name: &str, n: usize) -> (PathBuf, TempDir) {
        let root = TempDir::new(&format!("eval-{name}"));
        let store = ResultStore::create(&root, "u", "e", SimTime::ZERO).unwrap();
        for i in 0..n {
            let mut values = BTreeMap::new();
            values.insert(
                "pkt_sz".to_string(),
                VarValue::Int(if i % 2 == 0 { 64 } else { 1500 }),
            );
            values.insert(
                "pkt_rate".to_string(),
                VarValue::Int(((i / 2) as i64 + 1) * 10_000),
            );
            let params = RunParams { index: i, values };
            let rate = params.values["pkt_rate"].as_i64().unwrap();
            let rx = rate * 9 / 10;
            let log = format!(
                "# moongen-sim: rate={rate} pps, size=64 B, duration=1s\n\
                 [Device: id=0] TX: {rate} packets with {} bytes (incl. CRC), 0 dropped at NIC\n\
                 [Device: id=1] RX: {rx} packets with {} bytes (incl. CRC), 0 lost, 0 reordered\n",
                rate * 64,
                rx * 64
            );
            store.write_run_output(i, "loadgen", &log, "", 0).unwrap();
            store
                .write_run_output(i, "dut", "not moongen output\n", "", 0)
                .unwrap();
            let mut hosts = BTreeMap::new();
            hosts.insert("loadgen".into(), "vriga".into());
            store
                .write_run_metadata(&run_metadata(
                    &params,
                    SimTime::from_secs(i as u64),
                    SimTime::from_secs(i as u64 + 1),
                    1,
                    i != 3, // run 3 "failed"
                    hosts,
                ))
                .unwrap();
        }
        (store.dir().to_path_buf(), root)
    }

    #[test]
    fn loads_runs_with_reports_and_raw_logs() {
        let (dir, _root) = synthetic_tree("load", 6);
        let set = ResultSet::load(&dir).unwrap();
        assert_eq!(set.len(), 6);
        let run0 = &set.runs[0];
        assert_eq!(run0.metadata.index, 0);
        assert!(run0.reports.contains_key("loadgen"), "loadgen log parses");
        assert!(
            !run0.reports.contains_key("dut"),
            "non-MoonGen logs stay raw-only"
        );
        assert!(run0.raw_logs.contains_key("dut"));
        assert_eq!(run0.report().unwrap().tx_frames, 10_000);
    }

    #[test]
    fn where_eq_filters_on_params() {
        let (dir, _root) = synthetic_tree("filter", 6);
        let set = ResultSet::load(&dir).unwrap();
        let small = set.where_eq("pkt_sz", "64");
        assert_eq!(small.len(), 3);
        assert!(small.runs.iter().all(|r| r.param("pkt_sz") == Some("64")));
        assert!(set.where_eq("pkt_sz", "9000").is_empty());
    }

    #[test]
    fn successful_drops_failed_runs() {
        let (dir, _root) = synthetic_tree("success", 6);
        let set = ResultSet::load(&dir).unwrap();
        assert_eq!(set.successful().len(), 5);
    }

    #[test]
    fn group_by_partitions() {
        let (dir, _root) = synthetic_tree("group", 6);
        let set = ResultSet::load(&dir).unwrap();
        let groups = set.group_by("pkt_sz");
        assert_eq!(groups.len(), 2);
        assert_eq!(groups["64"].len(), 3);
        assert_eq!(groups["1500"].len(), 3);
        let missing = set.group_by("nope");
        assert_eq!(missing.len(), 1);
        assert!(missing.contains_key("<unset>"));
    }

    #[test]
    fn series_extracts_sorted_xy() {
        let (dir, _root) = synthetic_tree("series", 6);
        let set = ResultSet::load(&dir).unwrap();
        let series = set
            .where_eq("pkt_sz", "64")
            .series("pkt_rate", |r| Some(r.report()?.rx_mpps()));
        assert_eq!(series.len(), 3);
        // Sorted by rate; rx = 0.9 × rate.
        assert_eq!(series[0].0, 10_000.0);
        assert!((series[0].1 - 0.009).abs() < 1e-9);
        assert_eq!(series[2].0, 30_000.0);
        for w in series.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    fn summary_lists_every_run() {
        let (dir, _root) = synthetic_tree("summary", 4);
        let set = ResultSet::load(&dir).unwrap();
        let text = set.render_summary();
        assert_eq!(text.lines().count(), 5, "header + one line per run");
        assert!(text.contains("pkt_rate=10000,pkt_sz=64"));
        assert!(text.contains("FAILED"), "run 3 failed in the fixture");
        assert!(text.contains("10.0%"), "synthetic runs lose 10%");
    }

    #[test]
    fn summary_aggregated_series_handles_missing_params() {
        let (dir, _root) = synthetic_tree("aggmiss", 4);
        let set = ResultSet::load(&dir).unwrap();
        let agg = set.series_aggregated("nonexistent", |r| Some(r.report()?.rx_mpps()));
        assert!(agg.is_empty());
        let agg = set.series_aggregated("pkt_rate", |r| Some(r.report()?.rx_mpps()));
        assert!(!agg.is_empty());
        for w in agg.windows(2) {
            assert!(w[0].0 < w[1].0, "sorted by x");
        }
    }

    #[test]
    fn load_missing_dir_errors() {
        assert!(ResultSet::load(Path::new("/nonexistent/pos-tree")).is_err());
    }

    #[test]
    fn end_to_end_with_real_controller_output() {
        // Run a tiny real experiment and evaluate its actual tree.
        use pos_core::commands::register_all;
        use pos_core::controller::{Controller, RunOptions};
        use pos_core::experiment::linux_router_experiment;
        use pos_testbed::{HardwareSpec, InitInterface, PortId, Testbed};

        let mut tb = Testbed::new(321);
        tb.add_host("vriga", HardwareSpec::paper_dut(), InitInterface::Ipmi);
        tb.add_host("vtartu", HardwareSpec::paper_dut(), InitInterface::Ipmi);
        tb.topology
            .wire(PortId::new("vriga", 0), PortId::new("vtartu", 0))
            .unwrap();
        tb.topology
            .wire(PortId::new("vtartu", 1), PortId::new("vriga", 1))
            .unwrap();
        register_all(&mut tb);
        let root = TempDir::new("eval-e2e");
        let spec = linux_router_experiment("vriga", "vtartu", 2, 1);
        let outcome = Controller::new(&mut tb)
            .run_experiment(&spec, &RunOptions::new(&root))
            .unwrap();

        let set = ResultSet::load(&outcome.result_dir).unwrap();
        assert_eq!(set.len(), 4); // 2 sizes × 2 rates
        for r in &set.runs {
            let report = r.reports.get("loadgen").expect("loadgen parses");
            let offered = r.param_f64("pkt_rate").unwrap();
            assert_eq!(report.offered_pps, offered);
            // Far below bare-metal saturation: lossless.
            assert_eq!(report.rx_frames, report.tx_frames);
        }
        // A plot falls out naturally.
        let series = set
            .where_eq("pkt_sz", "64")
            .series("pkt_rate", |r| Some(r.report()?.rx_mpps()));
        assert_eq!(series.len(), 2);
    }
}
