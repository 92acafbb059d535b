//! Prometheus-compatible scrape surface: `/metrics`, `/healthz`, `/readyz`.
//!
//! The serving runtime's observability was snapshot-shaped — files written
//! on demand. A real deployment wants the inverse: an operator points a
//! scraper (Prometheus, a curl in a cron job, a load balancer's readiness
//! probe) at the process and the process answers. This module is that
//! answer with **zero new dependencies**: a `std::net::TcpListener` on its
//! own thread speaking just enough HTTP/1.1 for scrapers, rendering the
//! live [`ServerStatus`] in the Prometheus text exposition format
//! (version 0.0.4) as the families of the instrument catalog
//! (`crate::catalog`) — counters, gauges, latency/batch sketch quantiles as
//! summaries, and per-tenant series labeled `tenant="<fingerprint>"` from
//! the metering ledger.
//!
//! The listener polls a nonblocking accept loop so shutdown never blocks
//! on a connection that isn't coming; per-connection reads are bounded and
//! time-limited so a slow client cannot wedge the thread. One scrape costs
//! one status assembly — nothing here touches the request hot path.

use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::catalog::{Rows, CATALOG};
use crate::status::ServerStatus;

/// Owns the listener thread; reports the bound address and stops (joins)
/// on [`ScrapeHandle::stop`] or drop.
pub struct ScrapeHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ScrapeHandle {
    /// The actually-bound socket address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals the thread and joins it.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ScrapeHandle {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Starts the scrape listener. `metrics` renders the `/metrics` body on
/// each scrape; `ready` returns `Ok(())` when `/readyz` should say 200 and
/// `Err(reason)` for a 503 with the reason in the body.
///
/// # Errors
///
/// Propagates the bind error (address in use, permission).
pub fn start_scrape<M, R>(addr: &str, metrics: M, ready: R) -> std::io::Result<ScrapeHandle>
where
    M: Fn() -> String + Send + 'static,
    R: Fn() -> Result<(), String> + Send + 'static,
{
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name("granii-scrape".to_owned())
        .spawn(move || {
            while !flag.load(Ordering::Acquire) {
                match listener.accept() {
                    Ok((stream, _)) => serve_connection(stream, &metrics, &ready),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
        })?;
    Ok(ScrapeHandle {
        addr,
        stop,
        thread: Some(thread),
    })
}

/// Reads one request, routes it, writes one response, closes. Any I/O
/// error just drops the connection — the scraper retries.
fn serve_connection<M, R>(mut stream: TcpStream, metrics: &M, ready: &R)
where
    M: Fn() -> String,
    R: Fn() -> Result<(), String>,
{
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let mut buf = [0u8; 1024];
    let mut len = 0usize;
    // Read until the request line is complete (headers are irrelevant).
    while len < buf.len() {
        match stream.read(&mut buf[len..]) {
            Ok(0) => break,
            Ok(n) => {
                len += n;
                if buf[..len].windows(1).any(|w| w == b"\n") {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let request_line = match std::str::from_utf8(&buf[..len]) {
        Ok(text) => text.lines().next().unwrap_or(""),
        Err(_) => "",
    };
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let path = path.split('?').next().unwrap_or(path);

    let (status_line, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".to_owned(),
        )
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                // The Prometheus text exposition content type.
                "text/plain; version=0.0.4; charset=utf-8",
                metrics(),
            ),
            "/healthz" => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_owned()),
            "/readyz" => match ready() {
                Ok(()) => ("200 OK", "text/plain; charset=utf-8", "ready\n".to_owned()),
                Err(reason) => (
                    "503 Service Unavailable",
                    "text/plain; charset=utf-8",
                    format!("not ready: {reason}\n"),
                ),
            },
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "not found\n".to_owned(),
            ),
        }
    };
    let response = format!(
        "HTTP/1.1 {status_line}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

// ---------------------------------------------------------------------------
// Prometheus text-exposition rendering.
// ---------------------------------------------------------------------------

/// Renders a status snapshot in the Prometheus text exposition format: one
/// `# HELP` / `# TYPE` header per family of the instrument catalog, then
/// its samples (counters, gauges, summaries, per-tenant labeled series).
/// Pure function of the snapshot so tests can check the format strictly.
pub fn render_prometheus(status: &ServerStatus) -> String {
    let mut out = String::with_capacity(8 * 1024);
    for family in CATALOG.iter().filter(|f| !f.prometheus.is_empty()) {
        let name = family.prometheus;
        let _ = writeln!(out, "# HELP {name} {}", family.help);
        let _ = writeln!(out, "# TYPE {name} {}", family.kind.prometheus());
        match family.rows {
            Rows::Scalar(_, read) => sample(&mut out, name, &[], read(status)),
            Rows::Scalars(key, scalars) => {
                for &(_, value, read) in scalars {
                    sample(&mut out, name, &[(key, value)], read(status));
                }
            }
            Rows::Workers(_, read) => {
                for w in &status.workers {
                    sample(&mut out, name, &[("worker", &w.index.to_string())], read(w));
                }
            }
            Rows::Objectives(_, read) => {
                for row in &status.slo {
                    sample(&mut out, name, &[("outcome", &row.outcome)], read(row));
                }
            }
            Rows::Tenants(_, read) => {
                for t in &status.metering.tenants {
                    sample(&mut out, name, &[("tenant", &t.fingerprint)], read(t));
                }
            }
            Rows::Latency => {
                for row in &status.latency {
                    let quantiles = [
                        ("0.5", row.p50_ms),
                        ("0.95", row.p95_ms),
                        ("0.99", row.p99_ms),
                        ("0.999", row.p999_ms),
                    ];
                    let sum = row.mean_ms * row.count as f64;
                    let labels = [("outcome", row.outcome.as_str())];
                    summary(&mut out, name, &labels, &quantiles, sum, row.count);
                }
            }
            Rows::BatchSize => {
                let b = &status.batching;
                let quantiles = [("0.5", b.p50_size), ("0.95", b.p95_size)];
                summary(
                    &mut out,
                    name,
                    &[],
                    &quantiles,
                    b.mean_size * b.groups as f64,
                    b.groups,
                );
            }
        }
    }
    out
}

/// A summary's quantile-labeled samples, then its `_sum` and `_count`.
fn summary(
    out: &mut String,
    name: &str,
    labels: &[(&str, &str)],
    quantiles: &[(&str, f64)],
    sum: f64,
    count: u64,
) {
    for &(q, value) in quantiles {
        let mut with_q = labels.to_vec();
        with_q.push(("quantile", q));
        sample(out, name, &with_q, value);
    }
    sample(out, &format!("{name}_sum"), labels, sum);
    sample(out, &format!("{name}_count"), labels, count as f64);
}

/// One sample line, label values escaped. Scrapers reject NaN/inf samples
/// from buggy exporters, so a non-finite value is written as 0.
fn sample(out: &mut String, name: &str, labels: &[(&str, &str)], value: f64) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        for (i, (key, val)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{key}=\"");
            for c in val.chars() {
                match c {
                    '\\' => out.push_str("\\\\"),
                    '"' => out.push_str("\\\""),
                    '\n' => out.push_str("\\n"),
                    c => out.push(c),
                }
            }
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    if value.is_finite() {
        let _ = write!(out, "{value}");
    } else {
        out.push('0');
    }
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect to scrape listener");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        let (head, body) = response
            .split_once("\r\n\r\n")
            .expect("response has a header/body split");
        (head.to_owned(), body.to_owned())
    }

    #[test]
    fn listener_routes_metrics_health_and_readiness() {
        let ready = Arc::new(AtomicBool::new(false));
        let ready_view = Arc::clone(&ready);
        let handle = start_scrape(
            "127.0.0.1:0",
            || "# TYPE up gauge\nup 1\n".to_owned(),
            move || {
                if ready_view.load(Ordering::Relaxed) {
                    Ok(())
                } else {
                    Err("queue saturated".to_owned())
                }
            },
        )
        .expect("bind scrape listener");
        let addr = handle.addr();

        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "ok\n");

        let (head, body) = get(addr, "/readyz");
        assert!(head.starts_with("HTTP/1.1 503"), "{head}");
        assert!(body.contains("queue saturated"), "{body}");
        ready.store(true, Ordering::Relaxed);
        let (head, body) = get(addr, "/readyz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "ready\n");

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("text/plain; version=0.0.4"), "{head}");
        assert!(body.contains("up 1"));

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");

        handle.stop();
        assert!(
            TcpStream::connect(addr).is_err()
                || TcpStream::connect(addr)
                    .map(|mut s| {
                        let _ = write!(s, "GET /healthz HTTP/1.1\r\n\r\n");
                        let mut buf = String::new();
                        s.set_read_timeout(Some(Duration::from_millis(200)))
                            .unwrap();
                        s.read_to_string(&mut buf).unwrap_or(0) == 0
                    })
                    .unwrap_or(true),
            "stopped listener no longer serves"
        );
    }

    #[test]
    fn label_values_are_escaped() {
        let mut out = String::new();
        sample(&mut out, "m", &[("k", "a\"b\\c\nd")], 1.0);
        assert_eq!(out, "m{k=\"a\\\"b\\\\c\\nd\"} 1\n");
    }

    #[test]
    fn non_finite_values_render_as_zero() {
        let mut out = String::new();
        sample(&mut out, "m", &[], f64::NAN);
        assert_eq!(out, "m 0\n");
    }
}
