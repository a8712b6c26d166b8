//! The measurement report — pos's central result artifact.
//!
//! The pos evaluation phase parses the *output* of the load generator
//! (§4.4: "We integrated a parser for MoonGen's output into our plotting
//! scripts"). [`MoonGenReport`] is the structured form;
//! [`MoonGenReport::render_text`] produces the line-oriented text artifact
//! stored in the result folder, and `pos-eval::moongen` parses that text
//! back. The format follows MoonGen's console output closely enough that
//! anyone who has read MoonGen logs will recognize it.

use pos_simkernel::SimDuration;
use serde::{Deserialize, Serialize};

/// Per-interval counters (one second of virtual time per interval, like
/// MoonGen's once-a-second console lines).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IntervalStat {
    /// Interval index (0-based).
    pub index: u64,
    /// Frames transmitted during the interval.
    pub tx_frames: u64,
    /// Frames received during the interval.
    pub rx_frames: u64,
    /// Wire bytes transmitted.
    pub tx_bytes: u64,
    /// Wire bytes received.
    pub rx_bytes: u64,
}

/// The complete result of one measurement run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct MoonGenReport {
    /// Configured (offered) rate in packets per second.
    pub offered_pps: f64,
    /// Configured frame wire size in bytes.
    pub wire_size: usize,
    /// Measurement duration.
    pub duration: SimDuration,
    /// Packets the generator attempted to send (scheduled departures).
    pub tx_attempted: u64,
    /// Packets actually serialized by the TX port.
    pub tx_frames: u64,
    /// Wire bytes actually transmitted.
    pub tx_bytes: u64,
    /// Departures dropped at the generator's own NIC queue (offered rate
    /// above line rate).
    pub tx_nic_drops: u64,
    /// Packets received back on the RX port.
    pub rx_frames: u64,
    /// Wire bytes received.
    pub rx_bytes: u64,
    /// Sequence-gap losses observed by the receiver.
    pub lost: u64,
    /// Out-of-order arrivals observed by the receiver.
    pub reordered: u64,
    /// Latency samples in nanoseconds (sampled subset of all packets).
    pub latency_samples_ns: Vec<u64>,
    /// Per-second interval statistics.
    pub intervals: Vec<IntervalStat>,
}

impl MoonGenReport {
    /// Achieved transmit rate in Mpps.
    pub fn tx_mpps(&self) -> f64 {
        self.tx_frames as f64 / self.duration.as_secs_f64() / 1e6
    }

    /// Achieved receive (forwarded) rate in Mpps.
    pub fn rx_mpps(&self) -> f64 {
        self.rx_frames as f64 / self.duration.as_secs_f64() / 1e6
    }

    /// Offered rate in Mpps.
    pub fn offered_mpps(&self) -> f64 {
        self.offered_pps / 1e6
    }

    /// Achieved receive rate in Mbit/s (without framing overhead).
    pub fn rx_mbit(&self) -> f64 {
        self.rx_bytes as f64 * 8.0 / self.duration.as_secs_f64() / 1e6
    }

    /// Fraction of transmitted packets that did not arrive.
    pub fn loss_fraction(&self) -> f64 {
        if self.tx_frames == 0 {
            return 0.0;
        }
        1.0 - (self.rx_frames as f64 / self.tx_frames as f64)
    }

    /// Mean latency over the recorded samples, in nanoseconds.
    pub fn latency_mean_ns(&self) -> Option<f64> {
        if self.latency_samples_ns.is_empty() {
            return None;
        }
        Some(
            self.latency_samples_ns
                .iter()
                .map(|&v| v as f64)
                .sum::<f64>()
                / self.latency_samples_ns.len() as f64,
        )
    }

    /// Renders the MoonGen-style text artifact.
    ///
    /// Layout: one `[Device: id=0] TX` / `[Device: id=1] RX` pair per
    /// interval, a final cumulative pair, then a `Samples:` line when
    /// latency was measured.
    pub fn render_text(&self) -> String {
        self.render_with_samples(&mut self.latency_samples_ns.clone())
    }

    /// [`MoonGenReport::render_text`] of an owned report: the samples
    /// are sorted in place instead of copied, so rendering a report
    /// holds one copy of them, not two.
    pub fn into_text(mut self) -> String {
        let mut samples = std::mem::take(&mut self.latency_samples_ns);
        self.render_with_samples(&mut samples)
    }

    /// Renders the report with `samples` (its latency samples in arrival
    /// order) as the latency data; leaves `samples` sorted.
    fn render_with_samples(&self, samples: &mut [u64]) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# moongen-sim: rate={} pps, size={} B, duration={}\n",
            self.offered_pps, self.wire_size, self.duration
        ));
        for iv in &self.intervals {
            let tx_mpps = iv.tx_frames as f64 / 1e6;
            let rx_mpps = iv.rx_frames as f64 / 1e6;
            let tx_mbit = iv.tx_bytes as f64 * 8.0 / 1e6;
            let rx_mbit = iv.rx_bytes as f64 * 8.0 / 1e6;
            out.push_str(&format!(
                "[Device: id=0] TX: {tx_mpps:.6} Mpps, {tx_mbit:.2} Mbit/s\n"
            ));
            out.push_str(&format!(
                "[Device: id=1] RX: {rx_mpps:.6} Mpps, {rx_mbit:.2} Mbit/s\n"
            ));
        }
        out.push_str(&format!(
            "[Device: id=0] TX: {} packets with {} bytes (incl. CRC), {} dropped at NIC\n",
            self.tx_frames, self.tx_bytes, self.tx_nic_drops
        ));
        out.push_str(&format!(
            "[Device: id=1] RX: {} packets with {} bytes (incl. CRC), {} lost, {} reordered\n",
            self.rx_frames, self.rx_bytes, self.lost, self.reordered
        ));
        if !samples.is_empty() {
            // Mean and variance sum in arrival order, as
            // `latency_mean_ns` does; only then are the samples sorted.
            let n = samples.len() as f64;
            let mean = samples.iter().map(|&v| v as f64).sum::<f64>() / n;
            let var = samples
                .iter()
                .map(|&v| (v as f64 - mean).powi(2))
                .sum::<f64>()
                / n;
            samples.sort_unstable();
            let sorted = &*samples;
            let q = |p: f64| sorted[((sorted.len() - 1) as f64 * p) as usize];
            out.push_str(&format!(
                "Samples: {}, Average: {:.1} ns, StdDev: {:.1} ns, Quartiles: {}/{}/{} ns\n",
                sorted.len(),
                mean,
                var.sqrt(),
                q(0.25),
                q(0.5),
                q(0.75)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> MoonGenReport {
        MoonGenReport {
            offered_pps: 300_000.0,
            wire_size: 64,
            duration: SimDuration::from_secs(10),
            tx_attempted: 3_000_000,
            tx_frames: 3_000_000,
            tx_bytes: 192_000_000,
            tx_nic_drops: 0,
            rx_frames: 2_900_000,
            rx_bytes: 185_600_000,
            lost: 100_000,
            reordered: 0,
            latency_samples_ns: vec![100, 200, 300, 400, 500],
            intervals: vec![IntervalStat {
                index: 0,
                tx_frames: 300_000,
                rx_frames: 290_000,
                tx_bytes: 19_200_000,
                rx_bytes: 18_560_000,
            }],
        }
    }

    #[test]
    fn derived_rates() {
        let r = sample_report();
        assert!((r.tx_mpps() - 0.3).abs() < 1e-9);
        assert!((r.rx_mpps() - 0.29).abs() < 1e-9);
        assert!((r.offered_mpps() - 0.3).abs() < 1e-9);
        assert!((r.loss_fraction() - 100_000.0 / 3_000_000.0).abs() < 1e-9);
        assert!((r.rx_mbit() - 148.48).abs() < 0.01);
    }

    #[test]
    fn latency_mean() {
        let r = sample_report();
        assert_eq!(r.latency_mean_ns(), Some(300.0));
        let empty = MoonGenReport::default();
        assert_eq!(empty.latency_mean_ns(), None);
    }

    #[test]
    fn loss_fraction_zero_when_nothing_sent() {
        let r = MoonGenReport::default();
        assert_eq!(r.loss_fraction(), 0.0);
    }

    #[test]
    fn owned_render_matches_borrowed_render() {
        let mut r = sample_report();
        r.latency_samples_ns = vec![900, 17, 433, 433, 5, 1_000_001, 250, 3];
        assert_eq!(r.clone().into_text(), r.render_text());
        assert_eq!(
            r.latency_samples_ns[0], 900,
            "render_text keeps arrival order"
        );
    }

    #[test]
    fn render_contains_key_lines() {
        let text = sample_report().render_text();
        assert!(text.contains("# moongen-sim: rate=300000 pps, size=64 B"));
        assert!(text.contains("[Device: id=0] TX: 0.300000 Mpps"));
        assert!(text.contains("[Device: id=1] RX: 0.290000 Mpps"));
        assert!(text.contains("TX: 3000000 packets with 192000000 bytes"));
        assert!(text.contains("RX: 2900000 packets"));
        assert!(text.contains("100000 lost"));
        assert!(text.contains("Samples: 5, Average: 300.0 ns"));
        assert!(text.contains("Quartiles: 200/300/400 ns"));
    }

    #[test]
    fn render_omits_latency_without_samples() {
        let mut r = sample_report();
        r.latency_samples_ns.clear();
        assert!(!r.render_text().contains("Samples:"));
    }

    #[test]
    fn serde_roundtrip() {
        let r = sample_report();
        let json = serde_json::to_string(&r).unwrap();
        let back: MoonGenReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
