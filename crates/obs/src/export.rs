//! Exporters: Chrome `trace_event` JSON for span drains, Prometheus
//! text format and a flat JSON snapshot for the metrics registry.
//!
//! All three are hand-written strings: this crate sits below
//! `capman-lab` and so cannot use its JSON codec. The JSON snapshot
//! deliberately mirrors the `BENCH_*.json` shape — one named section
//! holding an array of flat `"key": number` objects — so the perf gate
//! reads it through `capman_lab::json::parse` like any bench report.

use std::fmt::Write as _;

use crate::metrics::MetricsSnapshot;
use crate::trace::{RecordKind, TraceDrain};

/// Escape a string for a JSON literal. Metric names and span labels are
/// ASCII identifiers in practice; this keeps the exporters honest if one
/// ever is not.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A JSON-safe float: finite values as written, non-finite as 0 (JSON
/// has no NaN/Inf literal).
fn json_f64(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Render a span drain as Chrome `trace_event` JSON (the format
/// `chrome://tracing` and <https://ui.perfetto.dev> open directly).
/// Spans become `ph:"X"` complete events, instants become `ph:"i"`;
/// timestamps are microseconds since the tracer epoch, one `tid` per
/// recording thread. Flow links ([`RecordKind::Link`]) become paired
/// `ph:"s"` / `ph:"f"` flow events anchored at their endpoint records,
/// so Perfetto draws one connected arc per request across threads; a
/// link whose endpoint was dropped by ring overflow is skipped (the
/// arc has nowhere to land).
pub fn chrome_trace(drain: &TraceDrain) -> String {
    use std::collections::HashMap;
    let by_id: HashMap<u64, &crate::trace::SpanRecord> =
        drain.records.iter().map(|r| (r.id, r)).collect();
    let mut events: Vec<String> = Vec::with_capacity(drain.records.len());
    for r in &drain.records {
        match r.kind {
            RecordKind::Span => {
                events.push(format!(
                    "{{\"name\": \"{}\", \"cat\": \"obs\", \"ph\": \"X\", \"ts\": {:.3}, \
                     \"dur\": {:.3}, \"pid\": 1, \"tid\": {}, \"args\": {{\"span_id\": {}, \
                     \"parent\": {}, \"arg\": {}, \"trace\": {}}}}}",
                    json_escape(r.label),
                    r.start_ns as f64 / 1e3,
                    (r.end_ns - r.start_ns) as f64 / 1e3,
                    r.thread,
                    r.id,
                    r.parent,
                    r.arg,
                    r.trace
                ));
            }
            RecordKind::Event => {
                events.push(format!(
                    "{{\"name\": \"{}\", \"cat\": \"obs\", \"ph\": \"i\", \"ts\": {:.3}, \
                     \"s\": \"t\", \"pid\": 1, \"tid\": {}, \"args\": {{\"span_id\": {}, \
                     \"parent\": {}, \"arg\": {}, \"trace\": {}}}}}",
                    json_escape(r.label),
                    r.start_ns as f64 / 1e3,
                    r.thread,
                    r.id,
                    r.parent,
                    r.arg,
                    r.trace
                ));
            }
            RecordKind::Link { from, to } => {
                let (Some(src), Some(dst)) = (by_id.get(&from), by_id.get(&to)) else {
                    continue; // endpoint dropped: no arc to draw
                };
                events.push(format!(
                    "{{\"name\": \"{}\", \"cat\": \"flow\", \"ph\": \"s\", \"id\": {}, \
                     \"ts\": {:.3}, \"pid\": 1, \"tid\": {}, \"args\": {{\"trace\": {}}}}}",
                    json_escape(r.label),
                    r.id,
                    src.end_ns as f64 / 1e3,
                    src.thread,
                    r.trace
                ));
                events.push(format!(
                    "{{\"name\": \"{}\", \"cat\": \"flow\", \"ph\": \"f\", \"bp\": \"e\", \
                     \"id\": {}, \"ts\": {:.3}, \"pid\": 1, \"tid\": {}, \"args\": {{\"trace\": {}}}}}",
                    json_escape(r.label),
                    r.id,
                    dst.start_ns as f64 / 1e3,
                    dst.thread,
                    r.trace
                ));
            }
        }
    }
    let mut out = String::new();
    out.push_str("{\n  \"displayTimeUnit\": \"ms\",\n");
    let _ = writeln!(out, "  \"droppedSpans\": {},", drain.dropped);
    out.push_str("  \"traceEvents\": [\n");
    for (i, e) in events.iter().enumerate() {
        let _ = write!(out, "    {e}");
        out.push_str(if i + 1 < events.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Escape a `# HELP` line per the Prometheus text exposition rules:
/// backslash and newline must be escaped (`\\`, `\n`) so a multi-line
/// help string cannot inject bogus sample lines into the scrape.
fn help_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Render a metrics snapshot in Prometheus text exposition format:
/// `# HELP` (escaped) / `# TYPE` per family, cumulative `le`-labelled
/// buckets with the explicit `+Inf` bucket plus `_sum` / `_count` for
/// histograms. [`validate_prometheus`] checks exactly these rules and
/// the golden scrape tests hold every export to them.
///
/// Histogram buckets additionally carry OpenMetrics-style **exemplars**
/// (` # {trace_id="N"} value`): each bucket line is suffixed with the
/// slowest retained exemplar whose value falls in that bucket's range,
/// so a bad p99 in the scrape names a concrete trace id to pull up in
/// the chrome trace.
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, help, value) in &snap.counters {
        let _ = writeln!(out, "# HELP {name} {}", help_escape(help));
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, help, value) in &snap.gauges {
        let _ = writeln!(out, "# HELP {name} {}", help_escape(help));
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {value}");
    }
    for h in &snap.histograms {
        let _ = writeln!(out, "# HELP {} {}", h.name, help_escape(&h.help));
        let _ = writeln!(out, "# TYPE {} histogram", h.name);
        // The slowest exemplar falling in (lo, hi]: exemplars are sorted
        // slowest-first, so the first hit wins.
        let exemplar_in = |lo: f64, hi: f64| -> Option<&(f64, u64)> {
            h.exemplars.iter().find(|&&(v, _)| v > lo && v <= hi)
        };
        let suffix = |ex: Option<&(f64, u64)>| -> String {
            ex.map_or(String::new(), |&(v, trace)| {
                format!(" # {{trace_id=\"{trace}\"}} {}", json_f64(v))
            })
        };
        let mut cumulative = 0u64;
        let mut lo = f64::NEG_INFINITY;
        for (bound, count) in h.bounds.iter().zip(&h.counts) {
            cumulative += count;
            let _ = writeln!(
                out,
                "{}_bucket{{le=\"{}\"}} {}{}",
                h.name,
                bound,
                cumulative,
                suffix(exemplar_in(lo, *bound))
            );
            lo = *bound;
        }
        let _ = writeln!(
            out,
            "{}_bucket{{le=\"+Inf\"}} {}{}",
            h.name,
            h.count,
            suffix(exemplar_in(lo, f64::INFINITY))
        );
        let _ = writeln!(out, "{}_sum {}", h.name, json_f64(h.sum));
        let _ = writeln!(out, "{}_count {}", h.name, h.count);
    }
    out
}

/// Is `name` a legal Prometheus metric name (`[a-zA-Z_:][a-zA-Z0-9_:]*`)?
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Strict structural check of a Prometheus text exposition — the rules
/// the satellite scrape contract is stated in terms of:
///
/// * every sample belongs to a family announced by a preceding
///   `# HELP` **and** `# TYPE` line with a legal metric name;
/// * counter/gauge families expose exactly one sample under the family
///   name; histogram families expose `_bucket` / `_sum` / `_count`;
/// * bucket series are **cumulative** (non-decreasing in order of
///   appearance), end in an explicit `le="+Inf"` bucket, and that
///   bucket equals the family's `_count`;
/// * every sample value parses as a finite float (integers included).
///
/// Returns the first violation as `Err(description)`.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    use std::collections::BTreeMap;
    #[derive(Default)]
    struct Family {
        help: bool,
        typed: Option<String>,
        buckets: Vec<(String, f64)>, // (le label, value) in order
        sum: Option<f64>,
        count: Option<f64>,
        samples: u64, // plain samples under the family name
    }
    let mut families: BTreeMap<String, Family> = BTreeMap::new();
    let base_of = |name: &str| -> (String, &'static str) {
        for (suffix, kind) in [("_bucket", "bucket"), ("_sum", "sum"), ("_count", "count")] {
            if let Some(base) = name.strip_suffix(suffix) {
                return (base.to_string(), kind);
            }
        }
        (name.to_string(), "plain")
    };
    for (lineno, line) in text.lines().enumerate() {
        let at = |msg: String| format!("line {}: {msg}", lineno + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("");
            match keyword {
                "HELP" => {
                    if !valid_metric_name(name) {
                        return Err(at(format!("HELP for invalid metric name {name:?}")));
                    }
                    families.entry(name.to_string()).or_default().help = true;
                }
                "TYPE" => {
                    let kind = parts.next().unwrap_or("");
                    if !valid_metric_name(name) {
                        return Err(at(format!("TYPE for invalid metric name {name:?}")));
                    }
                    if !matches!(kind, "counter" | "gauge" | "histogram") {
                        return Err(at(format!("unknown TYPE {kind:?} for {name}")));
                    }
                    let fam = families.entry(name.to_string()).or_default();
                    if fam.typed.is_some() {
                        return Err(at(format!("duplicate TYPE for {name}")));
                    }
                    fam.typed = Some(kind.to_string());
                }
                _ => return Err(at(format!("unknown comment keyword {keyword:?}"))),
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // bare comment
        }
        // A sample: `name value` or `name{labels} value`, optionally
        // suffixed with an OpenMetrics exemplar: ` # {labels} value`.
        let (line, exemplar) = match line.split_once(" # ") {
            Some((sample, ex)) => (sample, Some(ex)),
            None => (line, None),
        };
        if let Some(ex) = exemplar {
            let (labels, ex_value) = ex
                .rsplit_once(' ')
                .ok_or_else(|| at(format!("exemplar without a value: {ex:?}")))?;
            if !labels.starts_with('{') || !labels.ends_with('}') {
                return Err(at(format!("exemplar without a label set: {ex:?}")));
            }
            let v: f64 = ex_value
                .parse()
                .map_err(|_| at(format!("unparseable exemplar value {ex_value:?}")))?;
            if !v.is_finite() {
                return Err(at(format!("non-finite exemplar value {ex_value:?}")));
            }
        }
        let (name_part, value_part) = match line.rsplit_once(' ') {
            Some(split) => split,
            None => return Err(at(format!("sample without a value: {line:?}"))),
        };
        let value: f64 = value_part
            .parse()
            .map_err(|_| at(format!("unparseable sample value {value_part:?}")))?;
        if !value.is_finite() {
            return Err(at(format!("non-finite sample value {value_part:?}")));
        }
        let (name, label) = match name_part.split_once('{') {
            Some((n, rest)) => {
                let label = rest
                    .strip_suffix('}')
                    .ok_or_else(|| at(format!("unterminated label set: {name_part:?}")))?;
                (n, Some(label))
            }
            None => (name_part, None),
        };
        if !valid_metric_name(name) {
            return Err(at(format!("invalid metric name {name:?}")));
        }
        let (base, kind) = base_of(name);
        // A histogram series name resolves to its base family; anything
        // else must be a family of its own.
        let fam_name = if families.contains_key(&base) && kind != "plain" {
            base
        } else {
            name.to_string()
        };
        let fam = families
            .get_mut(&fam_name)
            .ok_or_else(|| at(format!("sample {name:?} before its HELP/TYPE lines")))?;
        let typed = fam
            .typed
            .clone()
            .ok_or_else(|| at(format!("sample {name:?} with HELP but no TYPE")))?;
        if !fam.help {
            return Err(at(format!("sample {name:?} without a HELP line")));
        }
        if exemplar.is_some() && !(typed == "histogram" && kind == "bucket") {
            return Err(at(format!("exemplar on a non-bucket sample of {name:?}")));
        }
        match (typed.as_str(), kind, label) {
            ("histogram", "bucket", Some(label)) => {
                let le = label
                    .strip_prefix("le=\"")
                    .and_then(|l| l.strip_suffix('"'))
                    .ok_or_else(|| at(format!("bucket without an le label: {line:?}")))?;
                fam.buckets.push((le.to_string(), value));
            }
            ("histogram", "sum", None) => fam.sum = Some(value),
            ("histogram", "count", None) => fam.count = Some(value),
            ("counter", "plain", None) | ("gauge", "plain", None) => fam.samples += 1,
            _ => {
                return Err(at(format!(
                    "sample {name:?} does not fit its family type {typed:?}"
                )))
            }
        }
    }
    for (name, fam) in &families {
        let typed = fam
            .typed
            .as_deref()
            .ok_or_else(|| format!("family {name} has HELP but no TYPE"))?;
        if !fam.help {
            return Err(format!("family {name} has TYPE but no HELP"));
        }
        match typed {
            "counter" | "gauge" => {
                if fam.samples != 1 {
                    return Err(format!(
                        "family {name}: expected exactly one sample, saw {}",
                        fam.samples
                    ));
                }
            }
            "histogram" => {
                let count = fam
                    .count
                    .ok_or_else(|| format!("histogram {name} has no _count"))?;
                if fam.sum.is_none() {
                    return Err(format!("histogram {name} has no _sum"));
                }
                match fam.buckets.last() {
                    Some((le, last)) if le == "+Inf" => {
                        if *last != count {
                            return Err(format!(
                                "histogram {name}: +Inf bucket {last} != _count {count}"
                            ));
                        }
                    }
                    _ => return Err(format!("histogram {name} does not end in an +Inf bucket")),
                }
                if fam.buckets.windows(2).any(|w| w[0].1 > w[1].1) {
                    return Err(format!("histogram {name}: buckets are not cumulative"));
                }
            }
            _ => unreachable!("TYPE already validated"),
        }
    }
    Ok(())
}

/// Render a metrics snapshot as flat JSON: a single `"metrics"` section
/// holding one row of `"key": number` pairs — counters and gauges by
/// name, histograms flattened to `<name>_count` / `<name>_sum` /
/// `<name>_p50` / `<name>_p95` / `<name>_p99`. The document parses
/// strictly with `capman_lab::json::parse`, so `perf_gate` can consume
/// registry output like any other bench report.
pub fn metrics_json(snap: &MetricsSnapshot) -> String {
    let mut pairs: Vec<(String, String)> = Vec::new();
    for (name, _, value) in &snap.counters {
        pairs.push((name.clone(), value.to_string()));
    }
    for (name, _, value) in &snap.gauges {
        pairs.push((name.clone(), value.to_string()));
    }
    for h in &snap.histograms {
        pairs.push((format!("{}_count", h.name), h.count.to_string()));
        pairs.push((format!("{}_sum", h.name), format!("{:.4}", json_f64(h.sum))));
        for (suffix, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
            pairs.push((
                format!("{}_{suffix}", h.name),
                format!("{:.4}", json_f64(h.quantile(q))),
            ));
        }
        if let Some(&(v, trace)) = h.exemplars.first() {
            // The slowest traced observation: value + the trace id to
            // pull up in the chrome trace.
            pairs.push((
                format!("{}_slowest_value", h.name),
                format!("{:.4}", json_f64(v)),
            ));
            pairs.push((format!("{}_slowest_trace", h.name), trace.to_string()));
        }
    }
    let mut out = String::new();
    out.push_str("{\n  \"generated_by\": \"capman-obs\",\n  \"metrics\": [\n    {\n");
    for (i, (key, value)) in pairs.iter().enumerate() {
        let _ = write!(out, "      \"{}\": {}", json_escape(key), value);
        out.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
    }
    out.push_str("    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;
    use crate::trace::Tracer;

    fn balanced(json: &str) {
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn chrome_trace_renders_spans_and_events() {
        let t = Tracer::new(64);
        {
            let _outer = t.span("solve", 3);
            t.event("publish", 7);
        }
        let json = chrome_trace(&t.drain());
        balanced(&json);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\": \"solve\""));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"name\": \"publish\""));
        assert!(json.contains("\"ph\": \"i\""));
        assert!(json.contains("\"droppedSpans\": 0"));
        assert!(!json.contains("NaN") && !json.contains("inf"));
    }

    #[test]
    fn chrome_trace_renders_flow_links_as_paired_arcs() {
        let t = Tracer::new(64);
        let ctx = t.begin_trace("submit", 1);
        let pick = t.event_in("pick", 1, ctx.trace);
        let link_id = t.link("queue_flow", ctx.origin, pick, ctx.trace);
        assert_ne!(link_id, 0);
        let json = chrome_trace(&t.drain());
        balanced(&json);
        assert!(json.contains("\"ph\": \"s\""), "flow start, got:\n{json}");
        assert!(json.contains("\"ph\": \"f\""), "flow finish");
        assert!(json.contains("\"bp\": \"e\""), "finish binds enclosing");
        assert!(json.contains(&format!("\"id\": {link_id}")));
        assert!(
            json.contains(&format!("\"trace\": {}", ctx.trace)),
            "records carry their trace id"
        );
        assert_eq!(
            json.matches("\"cat\": \"flow\"").count(),
            2,
            "one link, two flow events"
        );
    }

    #[test]
    fn chrome_trace_skips_links_whose_endpoints_were_dropped() {
        let t = Tracer::new(64);
        // Endpoint ids that exist in the id space but not in this drain
        // (simulating ring overflow having evicted them).
        t.link("dangling", 1_000_001, 1_000_002, 5);
        let json = chrome_trace(&t.drain());
        balanced(&json);
        assert!(!json.contains("\"cat\": \"flow\""), "no arc to draw");
    }

    #[test]
    fn chrome_trace_of_empty_drain_is_well_formed() {
        let t = Tracer::new(64);
        let json = chrome_trace(&t.drain());
        balanced(&json);
        assert!(json.contains("\"traceEvents\": [\n  ]"));
    }

    #[test]
    fn prometheus_text_has_cumulative_buckets() {
        let r = Registry::new();
        r.counter("solves_total", "Solves").add(4);
        r.gauge("queue_depth", "Depth").set(2);
        let h = r.histogram("lat_ms", "Latency", &[1.0, 10.0]);
        h.observe(0.5);
        h.observe(5.0);
        h.observe(50.0);
        let text = prometheus_text(&r.snapshot());
        assert!(text.contains("# TYPE solves_total counter"));
        assert!(text.contains("solves_total 4"));
        assert!(text.contains("# TYPE queue_depth gauge"));
        assert!(text.contains("queue_depth 2"));
        assert!(text.contains("lat_ms_bucket{le=\"1\"} 1"));
        assert!(
            text.contains("lat_ms_bucket{le=\"10\"} 2"),
            "buckets cumulate"
        );
        assert!(text.contains("lat_ms_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("lat_ms_count 3"));
        assert!(text.contains("lat_ms_sum 55.5"));
    }

    #[test]
    fn metrics_json_flattens_histograms() {
        let r = Registry::new();
        r.counter("hits_total", "Hits").add(9);
        let h = r.histogram("stale_s", "Staleness", &[0.1, 1.0, 10.0]);
        for _ in 0..99 {
            h.observe(0.05);
        }
        h.observe(5.0);
        let json = metrics_json(&r.snapshot());
        balanced(&json);
        assert!(json.contains("\"metrics\": ["));
        assert!(json.contains("\"hits_total\": 9"));
        assert!(json.contains("\"stale_s_count\": 100"));
        assert!(json.contains("\"stale_s_p50\": 0.1000"));
        assert!(json.contains("\"stale_s_p99\": 0.1000"));
    }

    #[test]
    fn empty_snapshot_exports_are_valid() {
        let snap = Registry::new().snapshot();
        assert_eq!(prometheus_text(&snap), "");
        balanced(&metrics_json(&snap));
    }

    #[test]
    fn snapshot_quantile_matches_live_histogram() {
        let r = Registry::new();
        let h = r.histogram("q", "Q", &[1.0, 2.0, 4.0]);
        for v in [0.5, 1.5, 1.6, 3.0, 9.0] {
            h.observe(v);
        }
        let snap = r.snapshot();
        let hs = &snap.histograms[0];
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(hs.quantile(q), h.quantile(q), "q = {q}");
        }
        let empty = crate::metrics::HistogramSnapshot {
            name: "e".into(),
            help: String::new(),
            bounds: vec![1.0],
            counts: vec![0, 0],
            sum: 0.0,
            count: 0,
            exemplars: Vec::new(),
        };
        assert_eq!(empty.quantile(0.5), 0.0);
    }

    #[test]
    fn exports_validate_and_help_lines_are_escaped() {
        let r = Registry::new();
        r.counter("solves_total", "Solves\nwith a newline and a \\ slash")
            .add(4);
        r.gauge("queue_depth", "Depth").set(-2);
        let h = r.histogram("lat_ms", "Latency", &[1.0, 10.0]);
        for v in [0.5, 5.0, 50.0] {
            h.observe(v);
        }
        let text = prometheus_text(&r.snapshot());
        assert!(
            text.contains("# HELP solves_total Solves\\nwith a newline and a \\\\ slash"),
            "help text must be escaped, got:\n{text}"
        );
        validate_prometheus(&text).expect("export must pass its own validator");
        // An empty export is trivially valid.
        validate_prometheus("").expect("empty scrape is valid");
    }

    #[test]
    fn help_escape_round_trips_the_hostile_cases() {
        // Satellite: backslash, newline, and quote in help strings must
        // survive export without corrupting the scrape. Quotes are legal
        // verbatim in HELP text; backslash and newline must be escaped.
        let cases: [(&str, &str); 4] = [
            ("tricky_a_total", "a \\ lone backslash"),
            ("tricky_b_total", "line one\nline two"),
            ("tricky_c_total", "says \"quoted\" things"),
            ("tricky_d_total", "all three: \\ then\nthen \"q\""),
        ];
        let r = Registry::new();
        for (name, help) in cases {
            r.counter(name, help).add(1);
        }
        let text = prometheus_text(&r.snapshot());
        validate_prometheus(&text).expect("hostile help strings still validate");
        assert!(text.contains("# HELP tricky_a_total a \\\\ lone backslash"));
        assert!(text.contains("# HELP tricky_b_total line one\\nline two"));
        assert!(
            text.contains("# HELP tricky_c_total says \"quoted\" things"),
            "quotes pass through verbatim in help text"
        );
        assert!(text.contains("# HELP tricky_d_total all three: \\\\ then\\nthen \"q\""));
        // Round-trip: un-escaping each exported HELP line recovers the
        // original string exactly.
        for (name, help) in cases {
            let line = text
                .lines()
                .find(|l| l.starts_with(&format!("# HELP {name} ")))
                .expect("HELP line exported");
            let escaped = line
                .strip_prefix(&format!("# HELP {name} "))
                .expect("prefix checked");
            let mut unescaped = String::new();
            let mut chars = escaped.chars();
            while let Some(c) = chars.next() {
                if c == '\\' {
                    match chars.next() {
                        Some('\\') => unescaped.push('\\'),
                        Some('n') => unescaped.push('\n'),
                        other => panic!("unknown escape \\{other:?} in {line:?}"),
                    }
                } else {
                    unescaped.push(c);
                }
            }
            assert_eq!(unescaped, help, "round trip for {name}");
        }
    }

    #[test]
    fn bucket_exemplars_export_and_validate() {
        let r = Registry::new();
        let h = r.histogram("stale_s", "Staleness", &[1.0, 10.0]);
        h.observe_with_exemplar(0.5, 41); // le="1" bucket
        h.observe_with_exemplar(50.0, 42); // +Inf bucket
        let snap = r.snapshot();
        let text = prometheus_text(&snap);
        assert!(
            text.contains("stale_s_bucket{le=\"1\"} 1 # {trace_id=\"41\"} 0.5"),
            "finite bucket carries its exemplar, got:\n{text}"
        );
        assert!(
            text.contains("stale_s_bucket{le=\"+Inf\"} 2 # {trace_id=\"42\"} 50"),
            "+Inf bucket carries the overflow exemplar, got:\n{text}"
        );
        validate_prometheus(&text).expect("exemplar suffixes validate");
        let json = metrics_json(&snap);
        balanced(&json);
        assert!(json.contains("\"stale_s_slowest_value\": 50.0000"));
        assert!(json.contains("\"stale_s_slowest_trace\": 42"));
    }

    #[test]
    fn validator_rejects_the_documented_violations() {
        // Sample before any HELP/TYPE.
        assert!(validate_prometheus("orphan 1\n").is_err());
        // HELP but no TYPE.
        assert!(validate_prometheus("# HELP a_total A\na_total 1\n").is_err());
        // Non-cumulative buckets.
        let shrinking = "# HELP h H\n# TYPE h histogram\n\
             h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\n\
             h_sum 9\nh_count 5\n";
        assert!(validate_prometheus(shrinking)
            .unwrap_err()
            .contains("not cumulative"));
        // Missing +Inf bucket.
        let no_inf = "# HELP h H\n# TYPE h histogram\n\
             h_bucket{le=\"1\"} 5\nh_sum 9\nh_count 5\n";
        assert!(validate_prometheus(no_inf).unwrap_err().contains("+Inf"));
        // +Inf disagreeing with _count.
        let mismatch = "# HELP h H\n# TYPE h histogram\n\
             h_bucket{le=\"+Inf\"} 4\nh_sum 9\nh_count 5\n";
        assert!(validate_prometheus(mismatch)
            .unwrap_err()
            .contains("_count"));
        // Missing _sum.
        let no_sum = "# HELP h H\n# TYPE h histogram\n\
             h_bucket{le=\"+Inf\"} 5\nh_count 5\n";
        assert!(validate_prometheus(no_sum).unwrap_err().contains("_sum"));
        // Unparseable value.
        assert!(
            validate_prometheus("# HELP g G\n# TYPE g gauge\ng one\n").is_err(),
            "words are not sample values"
        );
        // An unescaped multi-line help string leaks a bogus sample line.
        assert!(validate_prometheus("# HELP a_total first\nsecond line\n").is_err());
        // Exemplars are only legal on histogram bucket lines.
        assert!(
            validate_prometheus(
                "# HELP c_total C\n# TYPE c_total counter\nc_total 1 # {trace_id=\"9\"} 1\n"
            )
            .unwrap_err()
            .contains("non-bucket"),
            "counter exemplar rejected"
        );
        // A malformed exemplar (no label set) is rejected.
        let bad_ex = "# HELP h H\n# TYPE h histogram\n\
             h_bucket{le=\"+Inf\"} 1 # trace_id 0.5\nh_sum 0.5\nh_count 1\n";
        assert!(validate_prometheus(bad_ex)
            .unwrap_err()
            .contains("exemplar"));
        // A non-finite exemplar value is rejected.
        let inf_ex = "# HELP h H\n# TYPE h histogram\n\
             h_bucket{le=\"+Inf\"} 1 # {trace_id=\"9\"} inf\nh_sum 0.5\nh_count 1\n";
        assert!(validate_prometheus(inf_ex)
            .unwrap_err()
            .contains("non-finite exemplar"));
    }
}
