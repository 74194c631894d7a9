//! Exporters: Prometheus-style text exposition, Chrome trace-event JSON,
//! the human profile table, and a small strict JSON validator used by
//! tests and CI smoke checks.

use std::fmt::Write as _;

use crate::metrics::{MetricKey, Registry, Sample};
use crate::span::{phase_summaries, SpanRecord};

fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

fn fmt_labels(labels: &[(String, String)], extra: Option<(&str, String)>) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label(&v)));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Formats a float the way Prometheus expects: integral values without a
/// trailing `.0`, `+Inf` spelled out.
fn fmt_f64(v: f64) -> String {
    if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_owned()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Renders every metric in Prometheus text exposition format.
///
/// Metrics come out in stable (name, labels) order; one `# TYPE` line per
/// metric name; histogram buckets are cumulative with a final `+Inf`
/// bucket plus `_sum` and `_count` series.
#[must_use]
pub fn render_prometheus(registry: &Registry) -> String {
    render_prometheus_samples(&registry.samples())
}

/// [`render_prometheus`] over an explicit sample set — the exposition
/// path for merged shard registries
/// ([`merged_samples`](crate::merged_samples)). Samples must already be
/// in stable (name, labels) order, as both [`Registry::samples`] and the
/// merge guarantee.
#[must_use]
pub fn render_prometheus_samples(samples: &[(MetricKey, Sample)]) -> String {
    let mut out = String::new();
    let mut last_typed: Option<String> = None;
    for (key, sample) in samples.iter().cloned() {
        let type_name = match &sample {
            Sample::Counter(_) => "counter",
            Sample::Gauge(_) => "gauge",
            Sample::Histogram { .. } => "histogram",
        };
        if last_typed.as_deref() != Some(key.name()) {
            let _ = writeln!(out, "# TYPE {} {}", key.name(), type_name);
            last_typed = Some(key.name().to_owned());
        }
        match sample {
            Sample::Counter(v) => {
                let _ = writeln!(out, "{}{} {v}", key.name(), fmt_labels(key.labels(), None));
            }
            Sample::Gauge(v) => {
                let _ = writeln!(out, "{}{} {v}", key.name(), fmt_labels(key.labels(), None));
            }
            Sample::Histogram {
                bounds,
                buckets,
                sum,
                count,
            } => {
                let mut cumulative = 0u64;
                for (i, bucket) in buckets.iter().enumerate() {
                    cumulative += bucket;
                    let le = bounds
                        .get(i)
                        .map_or_else(|| "+Inf".to_owned(), |b| fmt_f64(*b));
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {cumulative}",
                        key.name(),
                        fmt_labels(key.labels(), Some(("le", le)))
                    );
                }
                let _ = writeln!(
                    out,
                    "{}_sum{} {}",
                    key.name(),
                    fmt_labels(key.labels(), None),
                    fmt_f64(sum)
                );
                let _ = writeln!(
                    out,
                    "{}_count{} {count}",
                    key.name(),
                    fmt_labels(key.labels(), None)
                );
            }
        }
    }
    out
}

/// Escapes `s` for use inside a JSON string literal: backslash, quote
/// and every control character (`\n`, `\r`, `\t` by name, the rest as
/// `\u00XX`). The one escaper behind every JSON document the workspace
/// renders.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            other => out.push(other),
        }
    }
    out
}

/// Renders the span log as a Chrome trace-event JSON document (the
/// `chrome://tracing` / Perfetto "JSON Array Format" with complete
/// events, `ph:"X"`, timestamps in microseconds).
#[must_use]
pub fn render_chrome_trace(registry: &Registry) -> String {
    render_chrome_trace_spans(&registry.spans())
}

/// [`render_chrome_trace`] over an explicit span log.
#[must_use]
pub fn render_chrome_trace_spans(spans: &[SpanRecord]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{}.{:03},\"dur\":{}.{:03}}}",
            json_escape(&span.name),
            span.tid,
            span.start_ns / 1_000,
            span.start_ns % 1_000,
            span.dur_ns / 1_000,
            span.dur_ns % 1_000,
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!(
            "{}.{:03}s",
            ns / 1_000_000_000,
            (ns % 1_000_000_000) / 1_000_000
        )
    } else if ns >= 1_000_000 {
        format!("{}.{:03}ms", ns / 1_000_000, (ns % 1_000_000) / 1_000)
    } else if ns >= 1_000 {
        format!("{}.{:03}us", ns / 1_000, ns % 1_000)
    } else {
        format!("{ns}ns")
    }
}

/// Renders the per-phase timing table printed by `--profile`.
///
/// Phases appear in first-seen order with call counts, total and mean
/// wall time, and percent of the summed total. Deterministic given a
/// deterministic clock.
#[must_use]
pub fn render_profile_table(registry: &Registry) -> String {
    let summaries = phase_summaries(&registry.spans());
    let grand_total: u64 = summaries.iter().map(|p| p.total_ns).sum();
    let name_width = summaries
        .iter()
        .map(|p| p.name.len())
        .chain(std::iter::once("phase".len()))
        .max()
        .unwrap_or(5);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<name_width$}  {:>6}  {:>12}  {:>12}  {:>6}",
        "phase", "calls", "total", "mean", "%"
    );
    let _ = writeln!(
        out,
        "{:-<name_width$}  {:->6}  {:->12}  {:->12}  {:->6}",
        "", "", "", "", ""
    );
    for p in &summaries {
        let mean = p.total_ns / p.calls.max(1);
        let pct = if grand_total == 0 {
            0.0
        } else {
            p.total_ns as f64 * 100.0 / grand_total as f64
        };
        let _ = writeln!(
            out,
            "{:<name_width$}  {:>6}  {:>12}  {:>12}  {:>5.1}%",
            p.name,
            p.calls,
            fmt_ns(p.total_ns),
            fmt_ns(mean),
            pct
        );
    }
    let _ = writeln!(
        out,
        "{:<name_width$}  {:>6}  {:>12}",
        "total",
        summaries.iter().map(|p| p.calls).sum::<u64>(),
        fmt_ns(grand_total)
    );
    out
}

/// Re-renders Prometheus text exposition as a minimal JSON document:
/// `{"metrics":[{"name":…,"labels":{…},"value":…},…]}`, one entry per
/// sample line in exposition order (`# TYPE`/comment lines are
/// dropped; histogram `_bucket`/`_sum`/`_count` series pass through as
/// ordinary samples). The output always round-trips through
/// [`validate_json`], which is also the machine-readable contract of
/// `pstrace metrics --json`.
///
/// # Errors
///
/// Returns a description of the first malformed exposition line.
pub fn prometheus_to_json(exposition: &str) -> Result<String, String> {
    let mut out = String::from("{\"metrics\":[");
    let mut first = true;
    for line in exposition.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("malformed sample line: `{line}`"))?;
        let (name, labels) = parse_series(series)?;
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{{\"name\":\"{}\",\"labels\":{{", json_escape(name));
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
        }
        out.push_str("},\"value\":");
        match value {
            "+Inf" => out.push_str("\"+Inf\""),
            "-Inf" => out.push_str("\"-Inf\""),
            "NaN" => out.push_str("\"NaN\""),
            v => {
                let n: f64 = v
                    .parse()
                    .map_err(|e| format!("bad value `{v}` in `{line}`: {e}"))?;
                let _ = write!(out, "{}", fmt_json_number(n));
            }
        }
        out.push('}');
    }
    out.push_str("]}");
    Ok(out)
}

fn fmt_json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Unescaped `(key, value)` label pairs of one exposition series.
type LabelPairs = Vec<(String, String)>;

/// Splits one exposition series (`name` or `name{k="v",…}`) into its
/// name and unescaped label pairs.
fn parse_series(series: &str) -> Result<(&str, LabelPairs), String> {
    let Some(brace) = series.find('{') else {
        return Ok((series, Vec::new()));
    };
    let name = &series[..brace];
    let body = series[brace + 1..]
        .strip_suffix('}')
        .ok_or_else(|| format!("unterminated label set in `{series}`"))?;
    let bytes = body.as_bytes();
    let mut labels = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        let eq = body[pos..]
            .find('=')
            .map(|i| pos + i)
            .ok_or_else(|| format!("missing `=` in label set of `{series}`"))?;
        let key = body[pos..eq].to_owned();
        if bytes.get(eq + 1) != Some(&b'"') {
            return Err(format!("unquoted label value in `{series}`"));
        }
        let mut value = String::new();
        let mut i = eq + 2;
        loop {
            match bytes.get(i) {
                Some(b'"') => break,
                Some(b'\\') => {
                    match bytes.get(i + 1) {
                        Some(b'\\') => value.push('\\'),
                        Some(b'"') => value.push('"'),
                        Some(b'n') => value.push('\n'),
                        _ => return Err(format!("bad escape in label value of `{series}`")),
                    }
                    i += 2;
                }
                Some(_) => {
                    let start = i;
                    while matches!(bytes.get(i), Some(c) if *c != b'"' && *c != b'\\') {
                        i += 1;
                    }
                    value.push_str(
                        std::str::from_utf8(&bytes[start..i]).map_err(|e| e.to_string())?,
                    );
                }
                None => return Err(format!("unterminated label value in `{series}`")),
            }
        }
        labels.push((key, value));
        i += 1; // closing quote
        match bytes.get(i) {
            Some(b',') => pos = i + 1,
            None => break,
            _ => return Err(format!("expected `,` after label in `{series}`")),
        }
    }
    Ok((name, labels))
}

/// A parsed JSON value — just enough structure for smoke tests to walk.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Number(f64),
    /// A string (escapes resolved).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up `key` when this is an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements when this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string when this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected byte `{}` at {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|e| e.to_string())?,
                    );
                }
                None => return Err("unterminated string".to_owned()),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-')
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|e| format!("bad number `{text}`: {e}"))
    }
}

/// Strictly parses `input` as a single JSON document.
///
/// Used by tests and the CI smoke step to check that
/// [`render_chrome_trace`] output is well-formed without pulling in a
/// JSON dependency.
///
/// # Errors
///
/// Returns a description of the first syntax error.
pub fn validate_json(input: &str) -> Result<JsonValue, String> {
    let mut parser = JsonParser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(format!("trailing data at byte {}", parser.pos));
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    #[test]
    fn prometheus_counter_and_gauge_lines() {
        let r = Registry::new();
        r.counter("pstrace_frames_total").add(3);
        r.gauge("pstrace_active_sessions").set(2);
        let text = render_prometheus(&r);
        assert_eq!(
            text,
            "# TYPE pstrace_active_sessions gauge\n\
             pstrace_active_sessions 2\n\
             # TYPE pstrace_frames_total counter\n\
             pstrace_frames_total 3\n"
        );
    }

    #[test]
    fn prometheus_escapes_label_values() {
        let r = Registry::new();
        r.counter_with("c", &[("path", "a\"b\\c\nd")]).inc();
        let text = render_prometheus(&r);
        assert!(text.contains("c{path=\"a\\\"b\\\\c\\nd\"} 1"), "{text}");
    }

    #[test]
    fn prometheus_histogram_is_cumulative() {
        let r = Registry::new();
        let h = r.histogram("lat", &[1.0, 10.0]);
        for v in [0.5, 0.9, 5.0, 100.0] {
            h.observe(v);
        }
        let text = render_prometheus(&r);
        assert_eq!(
            text,
            "# TYPE lat histogram\n\
             lat_bucket{le=\"1\"} 2\n\
             lat_bucket{le=\"10\"} 3\n\
             lat_bucket{le=\"+Inf\"} 4\n\
             lat_sum 106.4\n\
             lat_count 4\n"
        );
    }

    #[test]
    fn chrome_trace_validates_and_carries_names() {
        let r = Registry::with_clock(Box::new(ManualClock::with_tick(1_500)));
        r.time("rank", || ());
        r.time("pack", || ());
        let json = render_chrome_trace(&r);
        let doc = validate_json(&json).expect("trace must be valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0].get("name").and_then(JsonValue::as_str),
            Some("rank")
        );
        assert_eq!(events[0].get("dur"), Some(&JsonValue::Number(1.5)));
    }

    #[test]
    fn profile_table_is_deterministic_under_manual_clock() {
        let r = Registry::with_clock(Box::new(ManualClock::new()));
        r.time("enumerate", || ());
        r.time("rank", || ());
        r.time("rank", || ());
        let table = render_profile_table(&r);
        assert_eq!(
            table,
            "phase       calls         total          mean       %\n\
             ---------  ------  ------------  ------------  ------\n\
             enumerate       1       1.000ms       1.000ms   33.3%\n\
             rank            2       2.000ms       1.000ms   66.7%\n\
             total           3       3.000ms\n"
        );
    }

    #[test]
    fn prometheus_to_json_round_trips_samples_and_labels() {
        let r = Registry::new();
        r.counter_with(
            "pstrace_degradation_events_total",
            &[("path", "budget-close")],
        )
        .add(3);
        r.gauge("pstrace_active_sessions").set(2);
        let json = prometheus_to_json(&render_prometheus(&r)).expect("convert");
        let doc = validate_json(&json).expect("metrics JSON must validate");
        let metrics = doc.get("metrics").and_then(JsonValue::as_array).unwrap();
        assert_eq!(metrics.len(), 2);
        let degr = metrics
            .iter()
            .find(|m| {
                m.get("name").and_then(JsonValue::as_str)
                    == Some("pstrace_degradation_events_total")
            })
            .unwrap();
        assert_eq!(
            degr.get("labels")
                .and_then(|l| l.get("path"))
                .and_then(JsonValue::as_str),
            Some("budget-close")
        );
        assert_eq!(degr.get("value"), Some(&JsonValue::Number(3.0)));
    }

    #[test]
    fn prometheus_to_json_unescapes_hostile_label_values() {
        let r = Registry::new();
        let hostile = "a\"b\\c\nd with spaces";
        r.counter_with("c", &[("reason", hostile)]).inc();
        let json = prometheus_to_json(&render_prometheus(&r)).expect("convert");
        let doc = validate_json(&json).expect("hostile labels must stay valid JSON");
        let metrics = doc.get("metrics").and_then(JsonValue::as_array).unwrap();
        assert_eq!(
            metrics[0]
                .get("labels")
                .and_then(|l| l.get("reason"))
                .and_then(JsonValue::as_str),
            Some(hostile)
        );
    }

    #[test]
    fn prometheus_to_json_handles_histograms_and_infinities() {
        let r = Registry::new();
        let h = r.histogram("lat", &[1.0]);
        h.observe(0.5);
        h.observe(5.0);
        let json = prometheus_to_json(&render_prometheus(&r)).expect("convert");
        let doc = validate_json(&json).expect("histogram JSON must validate");
        let metrics = doc.get("metrics").and_then(JsonValue::as_array).unwrap();
        // lat_bucket{le="1"}, lat_bucket{le="+Inf"}, lat_sum, lat_count.
        assert_eq!(metrics.len(), 4);
        assert_eq!(
            metrics[1]
                .get("labels")
                .and_then(|l| l.get("le"))
                .and_then(JsonValue::as_str),
            Some("+Inf")
        );
        assert!(prometheus_to_json("lat_bucket{le=\"+Inf\"} +Inf").is_ok());
        assert!(prometheus_to_json("broken{").is_err());
        assert!(prometheus_to_json("noval").is_err());
    }

    #[test]
    fn json_validator_accepts_and_rejects() {
        assert!(validate_json("{\"a\":[1,2.5,null,true,\"x\\n\"]}").is_ok());
        assert!(validate_json("{\"a\":1,}").is_err());
        assert!(validate_json("[1 2]").is_err());
        assert!(validate_json("{} extra").is_err());
    }

    #[test]
    fn fmt_ns_picks_sensible_units() {
        assert_eq!(fmt_ns(12), "12ns");
        assert_eq!(fmt_ns(12_345), "12.345us");
        assert_eq!(fmt_ns(12_345_678), "12.345ms");
        assert_eq!(fmt_ns(2_012_345_678), "2.012s");
    }
}
