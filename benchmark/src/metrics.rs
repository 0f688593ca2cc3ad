//! The per-layer table, computed from a traced pass's spans and counts.
//!
//! Counts and times are per timed unit (summed over the traced pass and
//! divided by its unit count); ratios are taken over the pass totals.

use std::collections::BTreeMap;

use crate::spans::{covered_ns, median, self_times_ns, tail_with_ten_beyond, Span};
use crate::Pass;

/// Every end-to-end metric: name and unit.
pub const END_TO_END: [(&str, &str); 3] = [
    ("time_to_report_s", "s"),
    ("setup_s", "s"),
    ("planted_recall", "ratio"),
];

/// Every per-layer metric: name (its prefix is the layer) and unit.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("sim.runs", "count"),
    ("sim.run_busy_s", "s"),
    ("sim.run_p50_ms", "ms"),
    ("sim.run_tail_ms", "ms"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.runs_per_s", "1/s"),
    ("inject.hooks", "count"),
    ("inject.hooks_per_event", "ratio"),
    ("driver.batches", "count"),
    ("driver.experiments", "count"),
    ("driver.batch_s", "s"),
    ("driver.pool_utilization", "ratio"),
    ("driver.fca_self_s", "s"),
    ("alloc.plan_s", "s"),
    ("alloc.edges", "count"),
    ("alloc.fault_clusters", "count"),
    ("alloc.useful_share", "ratio"),
    ("profile.s", "s"),
    ("profile.self_s", "s"),
    ("stitch.index_build_s", "s"),
    ("stitch.search_s", "s"),
    ("stitch.edges", "count"),
    ("stitch.cycles", "count"),
    ("stitch.distinct_state_pairs", "count"),
    ("beam.cluster_cycles_s", "s"),
    ("report.build_s", "s"),
    ("snapshot.encode_s", "s"),
    ("snapshot.decode_s", "s"),
    ("snapshot.bytes", "bytes"),
    ("daemon.frames", "count"),
    ("daemon.wire_bytes", "bytes"),
    ("daemon.send_s", "s"),
    ("daemon.recv_wait_s", "s"),
    ("daemon.connect_s", "s"),
    ("telemetry.records", "count"),
    ("telemetry.journal_bytes", "bytes"),
    ("telemetry.finish_s", "s"),
    ("workload.requests", "count"),
    ("workload.summaries", "count"),
    ("workload.ns_per_request", "ns"),
    ("scenario.load_s", "s"),
    ("process.peak_rss_mb", "MB"),
    ("trace.units", "count"),
    ("trace.time_to_report_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.attributed_share", "ratio"),
];

/// Summed duration and self time of each span name, in ns.
struct ByName {
    total: BTreeMap<&'static str, u64>,
    own: BTreeMap<&'static str, u64>,
}

impl ByName {
    fn of(spans: &[Span]) -> Self {
        let own_times = self_times_ns(spans);
        let mut total = BTreeMap::new();
        let mut own = BTreeMap::new();
        for (s, st) in spans.iter().zip(own_times) {
            *total.entry(s.name).or_insert(0) += s.dur_ns();
            *own.entry(s.name).or_insert(0) += st;
        }
        ByName { total, own }
    }

    fn total_s(&self, name: &str) -> f64 {
        self.total.get(name).copied().unwrap_or(0) as f64 / 1e9
    }

    fn own_s(&self, name: &str) -> f64 {
        self.own.get(name).copied().unwrap_or(0) as f64 / 1e9
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Lowest share, over units, of a unit's wall time that its named layer
/// spans cover. Spans the benchmark adds for its own wiring (`bench.*`)
/// do not count as a layer.
pub fn attributed_share(spans: &[Span]) -> f64 {
    let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            if spans[p].name == "unit" && !s.name.starts_with("bench.") {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
    }
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "unit" && s.dur_ns() > 0)
        .map(|(i, s)| {
            let mut c = children.remove(&i).unwrap_or_default();
            covered_ns(s.start_ns, s.end_ns, &mut c) as f64 / s.dur_ns() as f64
        })
        .fold(f64::INFINITY, f64::min)
        .min(1.0)
}

/// Computes every [`PER_LAYER`] metric. `sequential` is an extra traced
/// pass with the driver's pool off, where it exists; `threads` is the
/// pool's width in the traced pass.
pub fn per_layer(
    untraced: &Pass,
    traced: &Pass,
    sequential: Option<&Pass>,
    threads: usize,
) -> Vec<(&'static str, &'static str, f64)> {
    let units = traced.units();
    let by = ByName::of(&traced.spans);
    let get = |k: &str| traced.tally.get(k).copied().unwrap_or(0.0);

    let runs: Vec<f64> = traced
        .spans
        .iter()
        .filter(|s| s.name == "sim.run")
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    let run_busy_ns = by.total.get("sim.run").copied().unwrap_or(0) as f64;
    let events = get("sim.events");
    let hooks = get("inject.hooks");
    let requests = get("workload.requests");
    // Runs whose parent is a batch, against batch wall time × pool width.
    let batch_runs_ns: f64 = traced
        .spans
        .iter()
        .filter(|s| {
            s.name == "sim.run"
                && s.parent
                    .is_some_and(|p| traced.spans[p].name == "driver.batch")
        })
        .map(|s| s.dur_ns() as f64)
        .sum();
    let batch_ns = by.total.get("driver.batch").copied().unwrap_or(0) as f64;
    let fca = match sequential {
        Some(p) => ByName::of(&p.spans).own_s("driver.batch") / p.units(),
        None => by.own_s("driver.batch") / units,
    };
    let traced_ttr = traced.time_to_report_s();
    let untraced_ttr = untraced.time_to_report_s();

    let mut v: BTreeMap<&str, f64> = BTreeMap::new();
    v.insert("sim.runs", runs.len() as f64 / units);
    v.insert("sim.run_busy_s", run_busy_ns / 1e9 / units);
    v.insert("sim.run_p50_ms", median(&runs));
    v.insert(
        "sim.run_tail_ms",
        tail_with_ten_beyond(&runs).map_or(0.0, |(_, t)| t),
    );
    v.insert("sim.events", events / units);
    v.insert("sim.ns_per_event", ratio(run_busy_ns, events));
    v.insert("sim.runs_per_s", untraced.runs_per_s());
    v.insert("inject.hooks", hooks / units);
    v.insert("inject.hooks_per_event", ratio(hooks, events));
    v.insert("driver.batches", get("driver.batches") / units);
    v.insert("driver.experiments", get("driver.experiments") / units);
    v.insert("driver.batch_s", batch_ns / 1e9 / units);
    v.insert(
        "driver.pool_utilization",
        ratio(batch_runs_ns, batch_ns * threads as f64),
    );
    v.insert("driver.fca_self_s", fca);
    v.insert("alloc.plan_s", by.own_s("alloc") / units);
    v.insert("alloc.edges", get("alloc.edges") / units);
    v.insert("alloc.fault_clusters", get("alloc.fault_clusters") / units);
    v.insert(
        "alloc.useful_share",
        ratio(get("alloc.useful"), get("alloc.experiments")),
    );
    v.insert("profile.s", by.total_s("profile") / units);
    v.insert("profile.self_s", by.own_s("profile") / units);
    v.insert(
        "stitch.index_build_s",
        by.total_s("stitch.index_build") / units,
    );
    v.insert("stitch.search_s", by.total_s("stitch.search") / units);
    v.insert("stitch.edges", get("stitch.edges") / units);
    v.insert("stitch.cycles", get("stitch.cycles") / units);
    v.insert(
        "stitch.distinct_state_pairs",
        get("stitch.distinct_state_pairs") / units,
    );
    v.insert(
        "beam.cluster_cycles_s",
        by.total_s("beam.cluster_cycles") / units,
    );
    v.insert("report.build_s", by.total_s("report.build") / units);
    v.insert("snapshot.encode_s", by.total_s("snapshot.encode") / units);
    v.insert("snapshot.decode_s", by.total_s("snapshot.decode") / units);
    v.insert("snapshot.bytes", get("snapshot.bytes") / units);
    v.insert("daemon.frames", get("daemon.frames") / units);
    v.insert("daemon.wire_bytes", get("daemon.wire_bytes") / units);
    v.insert("daemon.send_s", by.total_s("daemon.send") / units);
    v.insert("daemon.recv_wait_s", by.total_s("daemon.recv_wait") / units);
    v.insert("daemon.connect_s", by.total_s("daemon.connect") / units);
    v.insert("telemetry.records", get("telemetry.records") / units);
    v.insert(
        "telemetry.journal_bytes",
        get("telemetry.journal_bytes") / units,
    );
    v.insert(
        "telemetry.finish_s",
        (by.total_s("telemetry.finish") + by.total_s("telemetry.open")) / units,
    );
    v.insert("workload.requests", requests / units);
    v.insert("workload.summaries", get("workload.summaries") / units);
    v.insert("workload.ns_per_request", ratio(run_busy_ns, requests));
    v.insert("scenario.load_s", by.total_s("scenario.load") / units);
    v.insert("process.peak_rss_mb", median(&untraced.unit_rss_mb));
    v.insert("trace.units", traced.unit_secs.len() as f64);
    v.insert("trace.time_to_report_s", traced_ttr);
    v.insert("trace.overhead", ratio(traced_ttr, untraced_ttr));
    v.insert("trace.attributed_share", attributed_share(&traced.spans));

    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = v.get(name).copied().unwrap_or(0.0);
            (name, unit, if value.is_finite() { value } else { 0.0 })
        })
        .collect()
}

/// Prints the per-layer table with the tracing overhead beside it.
pub fn print_table(workload: &str, table: &[(&'static str, &'static str, f64)]) {
    let find = |n: &str| table.iter().find(|m| m.0 == n).map_or(0.0, |m| m.2);
    println!(
        "{workload}: tracing overhead {:.4} (traced / untraced time_to_report_s), \
         {:.1}% of each unit attributed to named layers (lowest unit)",
        find("trace.overhead"),
        100.0 * find("trace.attributed_share")
    );
    for (name, unit, value) in table {
        println!("  {name:<30} {value:>16.6} {unit}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            thread: 0,
        }
    }

    #[test]
    fn attribution_ignores_benchmark_wiring_and_takes_the_worst_unit() {
        let spans = vec![
            span("unit", 0, 100, None),
            span("profile", 0, 40, Some(0)),
            span("bench.engine", 40, 50, Some(0)),
            span("alloc", 50, 100, Some(0)),
            span("unit", 200, 300, None),
            span("alloc", 200, 295, Some(4)),
        ];
        assert!((attributed_share(&spans) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn every_metric_is_listed_in_the_benchmark_manifest() {
        let manifest = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.into_iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                manifest.contains(&entry),
                "{entry} missing from BENCHMARK.json"
            );
        }
    }
}
