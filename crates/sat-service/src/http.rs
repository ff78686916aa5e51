//! Zero-dependency plain-HTTP telemetry listener.
//!
//! One `TcpListener` thread serves three read-only endpoints, one
//! short-lived connection per request (`Connection: close`):
//!
//! * `GET /metrics` — the exact bytes of
//!   [`Service::metrics_text`](crate::Service::metrics_text), as
//!   Prometheus text exposition (OpenMetrics exemplars included);
//! * `GET /healthz` — a small JSON document: overall status, the device
//!   circuit breaker's current state, submission-queue depth/capacity,
//!   whether a drain is in progress, and how many post-mortem bundles have
//!   been dumped;
//! * `GET /debug/flight` — the flight recorder's surviving recent events
//!   ([`obs::flight::events_json`]), oldest first, each with its kind's
//!   named fields under the bundle schema ([`obs::flight::SCHEMA`]);
//! * `GET /debug/conformance` — the model-conformance observatory's JSON
//!   report ([`obs::Conformance::report_json`]): the online (w, Λ) fit
//!   vs the configured machine, per-cell residual statistics, and any
//!   drift alerts.
//!
//! The implementation is deliberately minimal — enough HTTP/1.1 for
//! `curl`, Prometheus scrapes and the `svcprobe` gate: it reads headers up
//! to a small cap, answers the request line's path, and closes. Graceful
//! shutdown rides a flag plus a self-connection to wake the blocking
//! `accept`, so [`Telemetry::stop`] returns only after the thread exits.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::service::Shared;

/// Most bytes of request head (request line + headers) the listener will
/// buffer before answering 400 — nothing legitimate comes close.
const MAX_HEAD: usize = 8 * 1024;

/// A running telemetry listener; dropped into [`Telemetry::stop`] by the
/// service's shutdown path.
pub(crate) struct Telemetry {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Telemetry {
    /// Bind `listen` (e.g. `"127.0.0.1:0"`) and spawn the serving thread.
    pub(crate) fn start(shared: Arc<Shared>, listen: &str) -> std::io::Result<Telemetry> {
        let listener = TcpListener::bind(listen)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("sat-service-telemetry".to_string())
            .spawn(move || serve(&listener, &shared, &thread_stop))?;
        Ok(Telemetry {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves an ephemeral-port request).
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop serving: raise the flag, wake the blocking `accept` with a
    /// throwaway connection, and join the thread.
    pub(crate) fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn serve(listener: &TcpListener, shared: &Shared, stop: &AtomicBool) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            // Transient accept errors (connection reset mid-handshake)
            // should not kill the listener; check for shutdown and go on.
            Err(_) => {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
        };
        if stop.load(Ordering::Acquire) {
            return;
        }
        let _ = answer(stream, shared);
    }
}

/// Read one request head and write one response; any I/O error just drops
/// the connection.
fn answer(mut stream: TcpStream, shared: &Shared) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
        if head.len() > MAX_HEAD {
            return respond(&mut stream, 400, "text/plain", "request head too large\n");
        }
    }
    let line = match std::str::from_utf8(&head) {
        Ok(s) => s.lines().next().unwrap_or(""),
        Err(_) => return respond(&mut stream, 400, "text/plain", "bad request\n"),
    };
    let mut parts = line.split_whitespace();
    let (method, target) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method != "GET" {
        return respond(&mut stream, 405, "text/plain", "method not allowed\n");
    }
    let path = target.split('?').next().unwrap_or("");
    match path {
        "/metrics" => {
            let body = shared.metrics.expose_text();
            respond(
                &mut stream,
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            )
        }
        "/healthz" => {
            let body = health_json(shared);
            respond(&mut stream, 200, "application/json", &body)
        }
        "/debug/flight" => {
            let events = obs::flight::events_json(&shared.cfg.observer.flight_recent());
            let body = format!(
                "{{\"schema\":\"{}\",\"events\":{events}}}",
                obs::flight::SCHEMA
            );
            respond(&mut stream, 200, "application/json", &body)
        }
        "/debug/conformance" => {
            let body = shared.conformance.report_json();
            respond(&mut stream, 200, "application/json", &body)
        }
        _ => respond(&mut stream, 404, "text/plain", "not found\n"),
    }
}

/// The `/healthz` document. Every value is a bare keyword or number, so
/// no JSON escaping is needed.
fn health_json(shared: &Shared) -> String {
    let (depth, shutting_down) = {
        let st = shared.state.lock();
        (st.depth(), st.shutdown)
    };
    let breaker = shared.metrics.breaker_state();
    let status = if shutting_down {
        "shutting_down"
    } else if breaker != obs::BreakerState::Closed {
        "degraded"
    } else {
        "ok"
    };
    format!(
        "{{\"status\":\"{status}\",\"breaker\":\"{breaker}\",\"queue_depth\":{depth},\
         \"queue_capacity\":{cap},\"shutting_down\":{shutting_down},\
         \"postmortem_bundles\":{bundles}}}",
        breaker = breaker.name(),
        cap = shared.cfg.queue_capacity,
        bundles = shared.postmortems.load(Ordering::Relaxed),
    )
}

fn respond(
    stream: &mut TcpStream,
    code: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Internal Server Error",
    };
    let head = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}
