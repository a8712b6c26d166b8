//! Cross-version golden for the case study.
//!
//! `fast_vs_eventful.rs` compares two paths of one build, so it cannot see
//! a change that moves both the same way. This file pins what the case
//! study produced before the vpos router was folded: pos and vpos ×
//! 64/1500 B × 10 and 300 kpps at the scenario's default seed and 1 s
//! duration. Each line records the router statistics, the generator's
//! TX/RX frame counts, every per-second interval bucket and an FNV-1a
//! checksum over the latency samples. A netsim change that keeps
//! simulation output the same keeps every line; one that does not must
//! say so and re-pin them.

use pos_loadgen::scenario::{
    run_forwarding_experiment, ForwardingScenario, Platform, ScenarioResult,
};

/// One golden line per (platform, packet size, rate).
const GOLDEN: [(Platform, usize, f64, &str); 8] = [
    (
        Platform::Pos,
        64,
        10_000.0,
        "router fwd=10000 ring=0 noroute=0 ttl=0 malformed=0 echo=0 arp=0 tx_exceeded=0 preempted_ns=0; \
         tx=10000 rx=10000 lost=0 reordered=0; \
         intervals 0:10000/10000/640000/640000; \
         latency n=625 fnv=2e26d955bbfdbb71",
    ),
    (
        Platform::Pos,
        64,
        300_000.0,
        "router fwd=300000 ring=0 noroute=0 ttl=0 malformed=0 echo=0 arp=0 tx_exceeded=0 preempted_ns=0; \
         tx=300000 rx=300000 lost=0 reordered=0; \
         intervals 0:300000/300000/19200000/19200000; \
         latency n=18750 fnv=3b71db9bc12429ff",
    ),
    (
        Platform::Pos,
        1500,
        10_000.0,
        "router fwd=10000 ring=0 noroute=0 ttl=0 malformed=0 echo=0 arp=0 tx_exceeded=0 preempted_ns=0; \
         tx=10000 rx=10000 lost=0 reordered=0; \
         intervals 0:10000/10000/15000000/15000000; \
         latency n=625 fnv=9376538b6af1001b",
    ),
    (
        Platform::Pos,
        1500,
        300_000.0,
        "router fwd=300000 ring=0 noroute=0 ttl=0 malformed=0 echo=0 arp=0 tx_exceeded=0 preempted_ns=0; \
         tx=300000 rx=300000 lost=0 reordered=0; \
         intervals 0:300000/299999/450000000/449998500 1:0/1/0/1500; \
         latency n=18750 fnv=b5c007d1e70d3db9",
    ),
    (
        Platform::Vpos,
        64,
        10_000.0,
        "router fwd=10000 ring=0 noroute=0 ttl=0 malformed=0 echo=0 arp=0 tx_exceeded=0 preempted_ns=231246800; \
         tx=10000 rx=10000 lost=0 reordered=0; \
         intervals 0:10000/9988/640000/639232 1:0/12/0/768; \
         latency n=625 fnv=f1ad0457310a127a",
    ),
    (
        Platform::Vpos,
        64,
        300_000.0,
        "router fwd=42475 ring=257525 noroute=0 ttl=0 malformed=0 echo=0 arp=0 tx_exceeded=0 preempted_ns=235521226; \
         tx=300000 rx=42475 lost=257517 reordered=0; \
         intervals 0:300000/42219/19200000/2702016 1:0/256/0/16384; \
         latency n=2654 fnv=4fb2b9554509ffcb",
    ),
    (
        Platform::Vpos,
        1500,
        10_000.0,
        "router fwd=10000 ring=0 noroute=0 ttl=0 malformed=0 echo=0 arp=0 tx_exceeded=0 preempted_ns=250567853; \
         tx=10000 rx=10000 lost=0 reordered=0; \
         intervals 0:10000/9996/15000000/14994000 1:0/4/0/6000; \
         latency n=625 fnv=c9d5c054d92ed85e",
    ),
    (
        Platform::Vpos,
        1500,
        300_000.0,
        "router fwd=41399 ring=258601 noroute=0 ttl=0 malformed=0 echo=0 arp=0 tx_exceeded=0 preempted_ns=217742872; \
         tx=300000 rx=41399 lost=258597 reordered=0; \
         intervals 0:300000/41143/450000000/61714500 1:0/256/0/384000; \
         latency n=2587 fnv=826aa3da69e98f8a",
    ),
];

/// FNV-1a over the little-endian bytes of every latency sample.
fn fnv1a(samples: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in samples.iter().flat_map(|s| s.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The pinned facts of one run, on one line.
fn golden_line(r: &ScenarioResult) -> String {
    let s = &r.router;
    let intervals: Vec<String> = r
        .report
        .intervals
        .iter()
        .map(|iv| {
            format!(
                "{}:{}/{}/{}/{}",
                iv.index, iv.tx_frames, iv.rx_frames, iv.tx_bytes, iv.rx_bytes
            )
        })
        .collect();
    format!(
        "router fwd={} ring={} noroute={} ttl={} malformed={} echo={} arp={} tx_exceeded={} \
         preempted_ns={}; tx={} rx={} lost={} reordered={}; intervals {}; latency n={} fnv={:016x}",
        s.forwarded,
        s.ring_drops,
        s.no_route,
        s.ttl_expired,
        s.malformed,
        s.echo_replied,
        s.arp_replied,
        s.time_exceeded_sent,
        s.preempted_ns,
        r.report.tx_frames,
        r.report.rx_frames,
        r.report.lost,
        r.report.reordered,
        intervals.join(" "),
        r.report.latency_samples_ns.len(),
        fnv1a(&r.report.latency_samples_ns),
    )
}

#[test]
fn case_study_outputs_match_the_pinned_golden() {
    let mut mismatches = Vec::new();
    for (platform, pkt_size, rate, want) in GOLDEN {
        let s = ForwardingScenario::new(platform, pkt_size, rate);
        let got = golden_line(&run_forwarding_experiment(&s));
        if got != want {
            mismatches.push(format!(
                "{} {pkt_size} B @ {rate} pps:\n  want {want}\n  got  {got}",
                platform.name()
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "case-study output drifted from the golden:\n{}",
        mismatches.join("\n")
    );
}
