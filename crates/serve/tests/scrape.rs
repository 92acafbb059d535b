//! Scrape-endpoint acceptance (ISSUE 10): a live server with the listener
//! enabled must answer `/metrics` with *strictly* well-formed Prometheus
//! text exposition (validated by a full-format checker, not a substring
//! grep), `/healthz` with 200, and `/readyz` according to queue/SLO state —
//! including per-tenant series labeled with the metering fingerprints.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use granii_core::{Granii, GraniiOptions};
use granii_gnn::spec::ModelKind;
use granii_graph::datasets::{Dataset, Scale};
use granii_graph::Graph;
use granii_matrix::device::DeviceKind;
use granii_serve::{render_prometheus, ServeConfig, ServeRequest, Server};

fn granii() -> Arc<Granii> {
    static GRANII: OnceLock<Arc<Granii>> = OnceLock::new();
    GRANII
        .get_or_init(|| {
            Arc::new(
                Granii::train_for_device(DeviceKind::H100, GraniiOptions::fast())
                    .expect("fast offline training"),
            )
        })
        .clone()
}

fn graph() -> Arc<Graph> {
    static GRAPH: OnceLock<Arc<Graph>> = OnceLock::new();
    GRAPH
        .get_or_init(|| {
            Arc::new(
                Dataset::Mycielskian17
                    .load(Scale::Tiny)
                    .expect("tiny graph"),
            )
        })
        .clone()
}

fn get(addr: SocketAddr, path: &str) -> (u32, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to scrape listener");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
    let code: u32 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (code, body.to_owned())
}

// ---------------------------------------------------------------------------
// Strict text-exposition checker. Validates the whole document line by
// line: metric-name grammar, label syntax and escaping, float-parseable
// values, TYPE declarations preceding their samples, one TYPE per family,
// quantile labels in [0, 1], and counters named `_total` (or `_sum`/
// `_count` of a summary).
// ---------------------------------------------------------------------------

fn is_valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn is_valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Parses `{k="v",...}`; returns the labels and the byte length consumed
/// (including both braces). Panics with context on malformed syntax.
fn parse_labels(rest: &str, line: &str) -> (Vec<(String, String)>, usize) {
    assert!(
        rest.starts_with('{'),
        "label block must open with '{{': {line}"
    );
    let mut labels = Vec::new();
    let bytes = rest.as_bytes();
    let mut i = 1;
    loop {
        if bytes.get(i) == Some(&b'}') {
            return (labels, i + 1);
        }
        let name_start = i;
        while i < bytes.len() && bytes[i] != b'=' {
            i += 1;
        }
        let name = &rest[name_start..i];
        assert!(is_valid_label_name(name), "bad label name {name:?}: {line}");
        i += 1; // '='
        assert_eq!(
            bytes.get(i),
            Some(&b'"'),
            "label value must be quoted: {line}"
        );
        i += 1;
        let mut value = String::new();
        loop {
            match bytes.get(i) {
                Some(&b'\\') => {
                    let escaped = bytes.get(i + 1).expect("escape sequence complete");
                    assert!(
                        matches!(escaped, b'\\' | b'"' | b'n'),
                        "bad escape in label value: {line}"
                    );
                    value.push(*escaped as char);
                    i += 2;
                }
                Some(&b'"') => {
                    i += 1;
                    break;
                }
                Some(&c) => {
                    value.push(c as char);
                    i += 1;
                }
                None => panic!("unterminated label value: {line}"),
            }
        }
        labels.push((name.to_owned(), value));
        match bytes.get(i) {
            Some(&b',') => i += 1,
            Some(&b'}') => {}
            _ => panic!("expected ',' or '}}' after label: {line}"),
        }
    }
}

/// One parsed sample line.
struct Sample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

/// Validates the full document; returns the parsed samples and the
/// name → declared-type map.
fn check_exposition(body: &str) -> (Vec<Sample>, HashMap<String, String>) {
    let mut types: HashMap<String, String> = HashMap::new();
    let mut helped: HashMap<String, bool> = HashMap::new();
    let mut samples = Vec::new();
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest.split_once(' ').expect("HELP has name and text");
            assert!(is_valid_metric_name(name), "bad HELP name {name:?}");
            assert!(!help.is_empty(), "empty HELP text for {name}");
            helped.insert(name.to_owned(), true);
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE has name and kind");
            assert!(is_valid_metric_name(name), "bad TYPE name {name:?}");
            assert!(
                matches!(
                    kind,
                    "counter" | "gauge" | "summary" | "histogram" | "untyped"
                ),
                "unknown TYPE kind {kind:?} for {name}"
            );
            assert!(
                !types.contains_key(name),
                "family {name} declared TYPE twice"
            );
            types.insert(name.to_owned(), kind.to_owned());
            continue;
        }
        assert!(
            !line.starts_with('#'),
            "only HELP/TYPE comments allowed: {line}"
        );
        // Sample line: name[{labels}] value
        let name_end = line
            .find(['{', ' '])
            .unwrap_or_else(|| panic!("sample has no value: {line}"));
        let name = &line[..name_end];
        assert!(is_valid_metric_name(name), "bad metric name {name:?}");
        let rest = &line[name_end..];
        let (labels, consumed) = if rest.starts_with('{') {
            parse_labels(rest, line)
        } else {
            (Vec::new(), 0)
        };
        let value_text = rest[consumed..].trim();
        let value: f64 = value_text
            .parse()
            .unwrap_or_else(|_| panic!("unparseable value {value_text:?}: {line}"));
        // Every sample must belong to a declared family: exact name for
        // counters/gauges, or the base name for summary _sum/_count.
        let family = types.get(name).cloned().or_else(|| {
            name.strip_suffix("_sum")
                .or_else(|| name.strip_suffix("_count"))
                .and_then(|base| types.get(base).cloned())
                .filter(|kind| kind == "summary" || kind == "histogram")
        });
        let family = family.unwrap_or_else(|| panic!("sample before its TYPE: {line}"));
        if family == "counter" {
            assert!(
                name.ends_with("_total"),
                "counter {name} must end in _total"
            );
            assert!(value >= 0.0, "counter {name} must be nonnegative");
        }
        for (label, val) in &labels {
            if label == "quantile" {
                let q: f64 = val.parse().expect("quantile label parses");
                assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
                assert_eq!(family, "summary", "quantile label on non-summary {name}");
            }
        }
        samples.push(Sample {
            name: name.to_owned(),
            labels,
            value,
        });
    }
    for name in types.keys() {
        assert!(
            helped.contains_key(name),
            "family {name} has TYPE but no HELP"
        );
    }
    (samples, types)
}

#[test]
fn live_scrape_is_strictly_well_formed_with_tenant_series() {
    let tenant_a = 0x5ca1_ab1e_u64;
    let tenant_b = 0xf005_ba11_u64;
    let server = Server::start(
        granii(),
        ServeConfig {
            workers: 2,
            trace_sample_every: 0,
            scrape: Some("127.0.0.1:0".to_owned()),
            ..ServeConfig::default()
        },
    );
    let addr = server.scrape_addr().expect("scrape listener bound");

    // Health and readiness before any traffic: alive and ready.
    let (code, body) = get(addr, "/healthz");
    assert_eq!(code, 200, "{body}");
    let (code, body) = get(addr, "/readyz");
    assert_eq!(code, 200, "{body}");

    // Serve traffic from two tenants so the per-tenant series exist.
    for _ in 0..4 {
        server
            .process(ServeRequest::new(ModelKind::Gcn, graph(), 64, 128).with_signature(tenant_a))
            .expect("tenant A request");
    }
    server
        .process(ServeRequest::new(ModelKind::Gcn, graph(), 64, 128).with_signature(tenant_b))
        .expect("tenant B request");

    let (code, body) = get(addr, "/metrics");
    assert_eq!(code, 200);
    let (samples, types) = check_exposition(&body);
    assert_eq!(
        types.get("granii_serve_requests_total").map(String::as_str),
        Some("counter")
    );
    assert_eq!(
        types.get("granii_serve_latency_ms").map(String::as_str),
        Some("summary")
    );
    let completed = samples
        .iter()
        .find(|s| {
            s.name == "granii_serve_requests_total"
                && s.labels
                    .contains(&("state".to_owned(), "completed".to_owned()))
        })
        .expect("completed counter sample");
    assert_eq!(completed.value, 5.0);
    // Per-tenant series carry the hex fingerprints, and the heavier tenant
    // carries more requests.
    let tenant_requests = |fp: u64| {
        samples
            .iter()
            .find(|s| {
                s.name == "granii_serve_tenant_requests_total"
                    && s.labels
                        .contains(&("tenant".to_owned(), format!("{fp:016x}")))
            })
            .map(|s| s.value)
    };
    assert_eq!(tenant_requests(tenant_a), Some(4.0));
    assert_eq!(tenant_requests(tenant_b), Some(1.0));
    let charged: f64 = samples
        .iter()
        .filter(|s| s.name == "granii_serve_tenant_charged_ms_total")
        .map(|s| s.value)
        .sum();
    assert!(charged > 0.0, "tenants carry engine charges");

    // The pure renderer agrees with the live endpoint's family set.
    let rendered = render_prometheus(&server.status());
    let (_, rendered_types) = check_exposition(&rendered);
    assert_eq!(types.len(), rendered_types.len());

    let (code, _) = get(addr, "/nope");
    assert_eq!(code, 404);

    server.shutdown();
}
