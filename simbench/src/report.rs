//! Turning measurements into named metrics, the result line, and the
//! per-layer comparison of two traced result files.

use crate::run::{Layer, Profile};
use crate::timed::Hook;
use ceio_sim::Histogram;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Median of `xs` (the mean of the middle two for an even count; 0 when
/// empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when `den` is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The last line of a run: the result object the benchmark contract
/// defines.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Parse the metrics of a [`result_line`] back into `(name, value)`
/// pairs; `None` when `line` is not one.
pub fn parse_result_line(line: &str) -> Option<Vec<(String, f64)>> {
    const VALUE: &str = ": {\"value\": ";
    let mut rest = line.trim().strip_prefix("{\"correct\": ")?;
    let mut out = Vec::new();
    while let Some(i) = rest.find(VALUE) {
        let name = rest[..i].strip_suffix('"')?.rsplit('"').next()?;
        let tail = &rest[i + VALUE.len()..];
        let end = tail.find(',')?;
        out.push((name.to_string(), tail[..end].trim().parse().ok()?));
        rest = &tail[end..];
    }
    Some(out)
}

fn call_metrics(out: &mut Vec<Metric>, prefix: &str, h: &Histogram, runs: f64) {
    out.push(metric(
        format!("{prefix}.calls"),
        h.count() as f64 / runs,
        "count",
    ));
    out.push(metric(format!("{prefix}.ns_p50"), h.p50() as f64, "ns"));
    out.push(metric(format!("{prefix}.ns_p99"), h.p99() as f64, "ns"));
}

fn share_metrics(out: &mut Vec<Metric>, prefix: &str, self_ns: u128, prof: &Profile) {
    let runs = prof.runs.max(1) as f64;
    out.push(metric(
        format!("{prefix}.share"),
        ratio(self_ns as f64, prof.wall_ns as f64),
        "frac",
    ));
    out.push(metric(
        format!("{prefix}.self_ms"),
        self_ns as f64 / 1e6 / runs,
        "ms",
    ));
}

/// The per-layer metrics of the traced runs in `prof`. Counts are per
/// run; `self_ms` is a layer's self time per run; `share` is its self
/// time over the replay loop's wall time. `untraced_wall_s` is the median
/// untraced run of the same process, the base of `trace_overhead` and
/// `sim.events_per_s`.
pub fn layer_metrics(prof: &Profile, untraced_wall_s: f64) -> Vec<Metric> {
    let runs = prof.runs.max(1) as f64;
    let spans = prof.spans.borrow();
    let mut out = Vec::new();

    let events = prof.events as f64 / runs;
    out.push(metric("sim.events", events, "count"));
    out.push(metric(
        "sim.events_per_s",
        ratio(events, untraced_wall_s),
        "1/s",
    ));
    out.push(metric("sim.pop_ns_p50", prof.pop.p50() as f64, "ns"));
    out.push(metric("sim.pop_ns_p99", prof.pop.p99() as f64, "ns"));
    share_metrics(&mut out, "sim", prof.pop.sum(), prof);
    out.push(metric("sim.queue_peak", prof.queue_peak as f64, "count"));
    out.push(metric(
        "sim.timers_cancelled",
        prof.timers_cancelled as f64 / runs,
        "count",
    ));

    let mut accounted = prof.pop.sum();
    for layer in Layer::ALL {
        let h = &prof.layers[layer as usize];
        let name = layer.name();
        accounted += h.sum();
        if matches!(layer, Layer::Measure | Layer::Scope) {
            share_metrics(&mut out, name, h.sum(), prof);
            continue;
        }
        out.push(metric(
            format!("{name}.events"),
            h.count() as f64 / runs,
            "count",
        ));
        out.push(metric(format!("{name}.ns_p50"), h.p50() as f64, "ns"));
        out.push(metric(format!("{name}.ns_p99"), h.p99() as f64, "ns"));
        share_metrics(&mut out, name, h.sum(), prof);
    }
    let polls = prof.layers[Layer::Consume as usize].count() as f64;
    out.push(metric(
        "host.consume.useful_poll_frac",
        ratio(prof.useful_polls as f64, polls),
        "frac",
    ));
    out.push(metric(
        "host.consume.pkts_per_poll",
        ratio(prof.polled_pkts as f64, polls),
        "pkts/poll",
    ));
    out.push(metric("mem.llc_miss_rate", prof.llc_miss_rate, "frac"));
    out.push(metric(
        "mem.llc_evictions",
        prof.llc_evictions as f64 / runs,
        "count",
    ));
    out.push(metric(
        "pcie.dma_writes",
        prof.dma_writes as f64 / runs,
        "count",
    ));

    for hook in Hook::REPORTED {
        let prefix = format!("policy.{}", hook.name());
        call_metrics(&mut out, &prefix, spans.hook(hook), runs);
    }
    let policy_ns = spans.policy_ns();
    accounted += policy_ns;
    share_metrics(&mut out, "policy", policy_ns, prof);
    let driver_polls = spans.hook(Hook::OnDriverPoll).count() as f64;
    out.push(metric(
        "policy.useful_drain_frac",
        ratio(spans.drain_requests as f64, driver_polls),
        "frac",
    ));
    out.push(metric(
        "nic.slow_path_frac",
        ratio(
            spans.slow_steers as f64,
            spans.hook(Hook::Steer).count() as f64,
        ),
        "frac",
    ));

    call_metrics(&mut out, "apps", &spans.apps, runs);
    accounted += spans.apps.sum();
    share_metrics(&mut out, "apps", spans.apps.sum(), prof);

    out.push(metric(
        "telemetry.snapshot_ms",
        median(&prof.snapshot_ms),
        "ms",
    ));
    out.push(metric(
        "trace_overhead",
        ratio(prof.wall_ns as f64 / 1e9 / runs, untraced_wall_s),
        "ratio",
    ));
    out.push(metric(
        "trace.accounted_share",
        ratio(accounted as f64, prof.wall_ns as f64),
        "frac",
    ));
    out
}

/// Per-workload medians of every metric in a result file: the output of
/// one or more runs, each preceded by its `# simbench workload=<name>`
/// header line.
pub fn read_results(text: &str) -> BTreeMap<String, BTreeMap<String, f64>> {
    let mut samples: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let mut workload = String::from("?");
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# simbench workload=") {
            workload = rest.split_whitespace().next().unwrap_or("?").to_string();
        } else if let Some(metrics) = parse_result_line(line) {
            let per = samples.entry(workload.clone()).or_default();
            for (name, v) in metrics {
                per.entry(name).or_default().push(v);
            }
        }
    }
    samples
        .into_iter()
        .map(|(w, per)| (w, per.into_iter().map(|(k, v)| (k, median(&v))).collect()))
        .collect()
}

/// Render each layer's self time and share in `base` and `new`, and
/// their change, per workload present in both.
pub fn compare(base: &str, new: &str) -> String {
    let (base, new) = (read_results(base), read_results(new));
    let mut out = String::new();
    for (workload, b) in &base {
        let Some(n) = new.get(workload) else {
            continue;
        };
        let _ = writeln!(out, "workload {workload}");
        let _ = writeln!(
            out,
            "  {:<14} {:>12} {:>12} {:>8} {:>8} {:>8} {:>9}",
            "layer", "base self ms", "new self ms", "delta", "base", "new", "share pp"
        );
        let layers = std::iter::once("sim")
            .chain(Layer::ALL.map(Layer::name))
            .chain(["policy", "apps"]);
        for layer in layers {
            let get = |m: &BTreeMap<String, f64>, k: &str| m.get(&format!("{layer}.{k}")).copied();
            let (Some(bs), Some(ns), Some(bsh), Some(nsh)) = (
                get(b, "self_ms"),
                get(n, "self_ms"),
                get(b, "share"),
                get(n, "share"),
            ) else {
                continue;
            };
            let delta = if bs > 0.0 {
                format!("{:+.1}%", (ns / bs - 1.0) * 100.0)
            } else {
                "-".to_string()
            };
            let _ = writeln!(
                out,
                "  {layer:<14} {bs:>12.3} {ns:>12.3} {delta:>8} {:>7.1}% {:>7.1}% {:>+9.2}",
                bsh * 100.0,
                nsh * 100.0,
                (nsh - bsh) * 100.0
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let m = [metric("a.b", 1.5, "ms"), metric("c", 2.0, "count")];
        let line = result_line(true, 3, 0, &m);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "));
        assert_eq!(
            parse_result_line(&line),
            Some(vec![("a.b".to_string(), 1.5), ("c".to_string(), 2.0)])
        );
        assert_eq!(parse_result_line("# simbench workload=kv"), None);
    }

    #[test]
    fn compare_reports_self_time_and_share_per_workload() {
        let file = |self_ms: f64, share: f64| {
            let m = [
                metric("host.dma.self_ms", self_ms, "ms"),
                metric("host.dma.share", share, "frac"),
            ];
            format!(
                "# simbench workload=kv seed=1\n{}\n",
                result_line(true, 2, 0, &m)
            )
        };
        let out = compare(&file(100.0, 0.5), &file(80.0, 0.4));
        assert!(out.starts_with("workload kv\n"), "{out}");
        let row = out
            .lines()
            .find(|l| l.trim_start().starts_with("host.dma"))
            .expect("a host.dma row");
        assert!(row.contains("-20.0%") && row.contains("-10.00"), "{row}");
    }
}
