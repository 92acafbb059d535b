//! Exporters: Chrome trace-event JSON, flat metrics JSON, and a hierarchical
//! text summary.
//!
//! JSON is written by hand (this crate is dependency-free by design — it must
//! not pull the workspace serde shim into every leaf crate). Only the small
//! subset needed here is emitted: objects, arrays, strings, and numbers.

use std::fmt::Write as _;

use crate::metrics::MetricsSnapshot;
use crate::profile::{ProfileReport, ProfileRow};
use crate::span::{AttrValue, SpanRecord};

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // Rust's f64 Display is shortest-round-trip decimal, valid JSON.
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

fn push_attr(out: &mut String, value: &AttrValue) {
    match value {
        AttrValue::U64(v) => {
            let _ = write!(out, "{v}");
        }
        AttrValue::F64(v) => push_f64(out, *v),
        AttrValue::Str(s) => push_json_string(out, s),
    }
}

fn push_span_events(out: &mut String, spans: &[SpanRecord], mut first: bool) -> bool {
    for span in spans {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n{\"name\":");
        push_json_string(out, span.name);
        let _ = write!(
            out,
            ",\"cat\":\"granii\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}",
            span.start_us, span.dur_us, span.tid
        );
        out.push_str(",\"args\":{\"depth\":");
        let _ = write!(out, "{}", span.depth);
        for (key, value) in &span.attrs {
            out.push(',');
            push_json_string(out, key);
            out.push(':');
            push_attr(out, value);
        }
        out.push_str("}}");
    }
    first
}

/// Renders spans as a Chrome trace-event JSON array of complete (`"ph":"X"`)
/// events, loadable in Perfetto or `chrome://tracing`. Timestamps and
/// durations are microseconds; span attributes land in `args`.
pub fn chrome_trace(spans: &[SpanRecord]) -> String {
    let mut out = String::with_capacity(128 * spans.len() + 2);
    out.push('[');
    push_span_events(&mut out, spans, true);
    out.push_str("\n]\n");
    out
}

/// Renders spans plus per-instruction counter tracks from a profile report
/// as one Chrome trace. The counter events (`"ph":"C"`) sample the flop and
/// byte throughput of each profiled instruction along a synthetic timeline
/// built from the rows' achieved times, so Perfetto shows `profile.flops`
/// and `profile.bytes` tracks next to the span flame graph.
pub fn chrome_trace_with_counters(spans: &[SpanRecord], report: &ProfileReport) -> String {
    let mut out = String::with_capacity(128 * (spans.len() + 2 * report.rows.len()) + 2);
    out.push('[');
    let mut first = push_span_events(&mut out, spans, true);
    let mut ts_us = 0u64;
    for row in &report.rows {
        let calls = row.calls.max(1);
        for (track, value) in [
            ("profile.flops", row.flops / calls),
            ("profile.bytes", row.bytes / calls),
        ] {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n{\"name\":");
            push_json_string(&mut out, track);
            let _ = write!(
                out,
                ",\"cat\":\"granii\",\"ph\":\"C\",\"ts\":{ts_us},\"pid\":1,\"args\":{{"
            );
            push_json_string(&mut out, &row.name);
            let _ = write!(out, ":{value}}}}}");
        }
        ts_us += (row.host_ns / calls) / 1_000;
    }
    out.push_str("\n]\n");
    out
}

/// Renders a metrics snapshot as a flat JSON object:
/// `{"captured_at_ns": ..., "uptime_ns": ..., "counters": {name: value}, "gauges": {name: value},
/// "sketches": {name: {alpha, count, ..., p999_ns, buckets}},
/// "distinct": {name: estimate}}`.
/// Sketch buckets are emitted sparsely as `[[bucket_index, count], ...]`.
/// `captured_at_ns` is monotonic since the process trace epoch, so two
/// dumps from one long-running server can be ordered and diffed into rates.
pub fn metrics_json(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::from("{\n");
    let _ = write!(
        out,
        "\"captured_at_ns\":{},\n\"uptime_ns\":{},\n",
        snapshot.captured_at_ns, snapshot.uptime_ns
    );
    out.push_str("\"counters\":{");
    for (i, (name, value)) in snapshot.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        push_json_string(&mut out, name);
        let _ = write!(out, ":{value}");
    }
    out.push_str("\n},\n\"gauges\":{");
    for (i, (name, value)) in snapshot.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        push_json_string(&mut out, name);
        out.push(':');
        push_f64(&mut out, *value);
    }
    out.push_str("\n},\n\"sketches\":{");
    for (i, s) in snapshot.sketches.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        push_json_string(&mut out, &s.name);
        out.push_str(":{\"alpha\":");
        push_f64(&mut out, s.alpha);
        let _ = write!(
            out,
            ",\"count\":{},\"zero_count\":{},\"sum_ns\":{},\"min_ns\":{},\"max_ns\":{},\"mean_ns\":",
            s.count, s.zero_count, s.sum_ns, s.min_ns, s.max_ns
        );
        push_f64(&mut out, s.mean_ns());
        for (label, q) in [
            ("p50_ns", 0.50),
            ("p95_ns", 0.95),
            ("p99_ns", 0.99),
            ("p999_ns", 0.999),
        ] {
            let _ = write!(out, ",\"{label}\":");
            push_f64(&mut out, s.quantile_ns(q));
        }
        out.push_str(",\"buckets\":[");
        for (j, (idx, count)) in s.buckets.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{idx},{count}]");
        }
        out.push_str("]}");
    }
    out.push_str("\n},\n\"distinct\":{");
    for (i, d) in snapshot.distincts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        push_json_string(&mut out, &d.name);
        out.push(':');
        push_f64(&mut out, d.estimate);
    }
    out.push_str("\n}\n}\n");
    out
}

/// Renders a human-readable hierarchical summary: spans are grouped by their
/// path (name chain from each thread's root), with call counts, total time,
/// share of the root spans' total time, and exact per-path p50/p95 latency
/// (computed from the individual span durations, not histogram buckets).
pub fn summary(spans: &[SpanRecord]) -> String {
    // take_spans() already orders by (tid, seq); re-sort defensively so the
    // stack walk below is correct for arbitrary input.
    let mut ordered: Vec<&SpanRecord> = spans.iter().collect();
    ordered.sort_by_key(|r| (r.tid, r.seq));

    // Aggregate by full path. Paths are rebuilt per thread from recorded
    // depths: a span at depth d is a child of the last span at depth d-1.
    struct PathStats {
        calls: u64,
        total_us: u64,
        depth: u16,
        durs_us: Vec<u64>,
    }
    let mut order: Vec<String> = Vec::new();
    let mut totals: std::collections::HashMap<String, PathStats> = std::collections::HashMap::new();
    let mut stack: Vec<&'static str> = Vec::new();
    let mut current_tid = None;
    let mut root_total_us: u64 = 0;
    for span in &ordered {
        if current_tid != Some(span.tid) {
            current_tid = Some(span.tid);
            stack.clear();
        }
        stack.truncate(span.depth as usize);
        stack.push(span.name);
        let path = stack.join(" > ");
        if span.depth == 0 {
            root_total_us += span.dur_us;
        }
        let entry = totals.entry(path.clone()).or_insert_with(|| {
            order.push(path);
            PathStats {
                calls: 0,
                total_us: 0,
                depth: span.depth,
                durs_us: Vec::new(),
            }
        });
        entry.calls += 1;
        entry.total_us += span.dur_us;
        entry.durs_us.push(span.dur_us);
    }

    // Exact quantile over the sorted per-path durations (nearest-rank).
    fn exact_quantile_us(sorted: &[u64], q: f64) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    let mut out = String::from(
        "span                                      calls     total      share       p50       p95\n",
    );
    for path in &order {
        let stats = &mut totals.get_mut(path).expect("path recorded");
        stats.durs_us.sort_unstable();
        let name = path.rsplit(" > ").next().unwrap_or(path);
        let label = format!("{}{}", "  ".repeat(stats.depth as usize), name);
        let share = if root_total_us == 0 {
            0.0
        } else {
            100.0 * stats.total_us as f64 / root_total_us as f64
        };
        let p50 = exact_quantile_us(&stats.durs_us, 0.50);
        let p95 = exact_quantile_us(&stats.durs_us, 0.95);
        let _ = writeln!(
            out,
            "{label:<40} {:>7} {:>8.3}ms {share:>9.1}% {:>7.3}ms {:>7.3}ms",
            stats.calls,
            stats.total_us as f64 / 1e3,
            p50 as f64 / 1e3,
            p95 as f64 / 1e3
        );
    }
    out
}

fn push_profile_row(out: &mut String, row: &ProfileRow) {
    out.push_str("{\"index\":");
    let _ = write!(out, "{}", row.index);
    out.push_str(",\"name\":");
    push_json_string(out, &row.name);
    out.push_str(",\"phase\":");
    push_json_string(out, &row.phase);
    let _ = write!(
        out,
        ",\"calls\":{},\"host_ns\":{},\"charged_ns\":{},\"predicted_ns\":{},\"flops\":{},\"bytes\":{}",
        row.calls, row.host_ns, row.charged_ns, row.predicted_ns, row.flops, row.bytes
    );
    out.push_str(",\"host_ns_per_call\":");
    push_f64(out, row.host_ns_per_call());
    out.push_str(",\"predicted_ns_per_call\":");
    push_f64(out, row.predicted_ns_per_call());
    out.push_str(",\"roofline_ratio\":");
    match row.roofline_ratio() {
        Some(r) => push_f64(out, r),
        None => out.push_str("null"),
    }
    out.push('}');
}

/// Renders a [`ProfileReport`] as JSON:
/// `{"expr", "device", "iterations", totals, "rows":[{...}, ...]}`.
pub fn profile_json(report: &ProfileReport) -> String {
    let mut out = String::from("{\n\"expr\":");
    push_json_string(&mut out, &report.expr);
    out.push_str(",\n\"device\":");
    push_json_string(&mut out, &report.device);
    let _ = write!(
        out,
        ",\n\"iterations\":{},\n\"total_host_ns\":{},\n\"total_predicted_ns\":{},\n\"rows\":[",
        report.iterations,
        report.total_host_ns(),
        report.total_predicted_ns()
    );
    for (i, row) in report.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('\n');
        push_profile_row(&mut out, row);
    }
    out.push_str("\n]\n}\n");
    out
}

/// Renders a [`ProfileReport`] as a roofline table: one line per
/// instruction with achieved vs. device-model-predicted time per call and
/// the attributed work. A ratio well above 1 means the kernel ran slower
/// than the device model says the work should take.
pub fn profile_table(report: &ProfileReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "profile of {} on {} ({} iterations)",
        report.expr, report.device, report.iterations
    );
    out.push_str(
        "#   instr            phase  calls  achieved/call  predicted/call   ratio      flops      bytes\n",
    );
    for row in &report.rows {
        let ratio = match row.roofline_ratio() {
            Some(r) => format!("{r:>6.2}x"),
            None => "     -".to_owned(),
        };
        let _ = writeln!(
            out,
            "{:<3} {:<16} {:<6} {:>6} {:>12.3}us {:>13.3}us {ratio} {:>10} {:>10}",
            row.index,
            row.name,
            row.phase,
            row.calls,
            row.host_ns_per_call() / 1e3,
            row.predicted_ns_per_call() / 1e3,
            row.flops,
            row.bytes
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{AttrValue, SpanRecord};

    fn rec(name: &'static str, tid: u64, depth: u16, seq: u64, dur_us: u64) -> SpanRecord {
        SpanRecord {
            name,
            start_us: seq * 10,
            dur_us,
            tid,
            depth,
            seq,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn chrome_trace_escapes_and_structures() {
        let mut span = rec("a\"b", 0, 0, 0, 5);
        span.attrs.push(("note", AttrValue::Str("x\ny".into())));
        span.attrs.push(("n", AttrValue::U64(3)));
        span.attrs.push(("f", AttrValue::F64(0.5)));
        let json = chrome_trace(&[span]);
        assert!(json.contains("\"name\":\"a\\\"b\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"note\":\"x\\ny\""));
        assert!(json.contains("\"n\":3"));
        assert!(json.contains("\"f\":0.5"));
        assert!(json.trim_start().starts_with('['));
        assert!(json.trim_end().ends_with(']'));
    }

    #[test]
    fn summary_groups_by_path() {
        let spans = vec![
            rec("root", 0, 0, 0, 100),
            rec("child", 0, 1, 1, 60),
            rec("child", 0, 1, 2, 20),
            rec("root", 1, 0, 0, 50),
        ];
        let text = summary(&spans);
        assert!(text.contains("root"));
        assert!(text.contains("  child"));
        // child appears once (aggregated), with 2 calls.
        assert_eq!(text.matches("child").count(), 1);
    }
}
