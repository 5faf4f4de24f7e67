//! The HTTP front end: a listener, a fixed handler pool, and the route
//! table mapping the service API onto the [`Registry`].
//!
//! | Route | Effect |
//! |---|---|
//! | `POST /jobs` | submit a [`JobSpec`] (JSON body) → `202 {"id": n}` |
//! | `GET /jobs` | list all jobs |
//! | `GET /jobs/:id` | status + incumbent + cache health |
//! | `GET /jobs/:id/events` | chunked JSONL stream of iteration records |
//! | `POST /jobs/:id/pause` | stop scheduling after the in-flight batch |
//! | `POST /jobs/:id/resume` | resume a paused job |
//! | `POST /jobs/:id/cancel` | cancel within one batch, snapshot if configured |
//! | `GET /metrics` | Prometheus exposition, all tenants merged |
//!
//! [`JobSpec`]: edse_core::JobSpec

use crate::http::{end_chunks, read_request, respond, respond_json, start_chunked, Request};
use crate::jobs::Registry;
use edse_core::JobSpec;
use edse_telemetry::json::Json;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A running server: the bound address plus the handles needed to stop
/// it cleanly (tests tear the whole thing down; a production run just
/// blocks forever).
pub struct Server {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    registry: Arc<Registry>,
    accept_handle: Option<JoinHandle<()>>,
    handler_handles: Vec<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port), spawns
    /// `http_threads` request handlers and leaves scheduler workers to
    /// the caller-provided registry (already spawned). Returns once the
    /// socket is listening.
    pub fn start(
        addr: &str,
        http_threads: usize,
        registry: Arc<Registry>,
        worker_handles: Vec<JoinHandle<()>>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let handler_handles = (0..http_threads.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let registry = Arc::clone(&registry);
                std::thread::Builder::new()
                    .name(format!("edse-serve-http-{i}"))
                    .spawn(move || loop {
                        let stream = {
                            let rx = rx.lock().expect("handler queue poisoned");
                            rx.recv()
                        };
                        match stream {
                            Ok(mut stream) => handle(&mut stream, &registry),
                            Err(_) => return,
                        }
                    })
                    .expect("spawn http handler")
            })
            .collect();
        let accept_stop = Arc::clone(&stop);
        let accept_handle = std::thread::Builder::new()
            .name("edse-serve-accept".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_stop.load(Ordering::SeqCst) {
                        break;
                    }
                    if let Ok(stream) = stream {
                        if tx.send(stream).is_err() {
                            break;
                        }
                    }
                }
            })
            .expect("spawn acceptor");
        Ok(Server {
            addr: local,
            stop,
            registry,
            accept_handle: Some(accept_handle),
            handler_handles,
            worker_handles,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The registry behind this server (tests submit/inspect directly).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Blocks until the accept loop exits (i.e. forever, in production).
    pub fn join(mut self) {
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
    }

    /// Stops accepting, drains the handler pool, and shuts the scheduler
    /// down. In-flight evaluation batches finish; queued jobs do not.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock `accept` with a throwaway connection to ourselves.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        // Dropping the acceptor dropped `tx`; handlers drain and exit.
        for handle in self.handler_handles.drain(..) {
            let _ = handle.join();
        }
        self.registry.shutdown();
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Parses `/jobs/<id>` or `/jobs/<id>/<action>` into `(id, action)`.
fn job_route(path: &str) -> Option<(u64, Option<&str>)> {
    let rest = path.strip_prefix("/jobs/")?;
    match rest.split_once('/') {
        Some((id, action)) if !action.is_empty() => Some((id.parse().ok()?, Some(action))),
        Some((id, _)) => Some((id.parse().ok()?, None)),
        None => Some((rest.parse().ok()?, None)),
    }
}

/// JSON error body.
fn error_body(message: &str) -> String {
    Json::obj(vec![("error", Json::Str(message.to_string()))]).to_line()
}

/// How long a handler waits for a client's next bytes while reading its
/// request, so a silent client cannot hold a handler.
const READ_TIMEOUT: Duration = Duration::from_secs(2);

/// How long a handler spends reading one whole request, so a client that
/// trickles bytes just inside [`READ_TIMEOUT`] cannot hold a handler
/// either. Past it the request is malformed.
const REQUEST_DEADLINE: Duration = Duration::from_secs(10);

/// Handles one connection: one request, one response, close.
fn handle(stream: &mut TcpStream, registry: &Registry) {
    let deadline = Instant::now() + REQUEST_DEADLINE;
    let Some(request) = read_request(stream, READ_TIMEOUT, deadline) else {
        respond_json(stream, 400, &error_body("malformed request"));
        return;
    };
    route(stream, &request, registry);
}

/// The route table.
fn route(stream: &mut TcpStream, request: &Request, registry: &Registry) {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/jobs") => {
            let body = String::from_utf8_lossy(&request.body);
            match JobSpec::from_json_str(&body).and_then(|spec| registry.submit(spec)) {
                Ok(id) => respond_json(
                    stream,
                    202,
                    &Json::obj(vec![("id", Json::Num(id as f64))]).to_line(),
                ),
                Err(e) => respond_json(stream, 400, &error_body(&e)),
            }
        }
        ("GET", "/jobs") => respond_json(stream, 200, &registry.list().to_line()),
        ("GET", "/metrics") => respond(
            stream,
            200,
            "text/plain; version=0.0.4",
            &registry.prometheus_text(),
        ),
        ("GET", "/healthz") => respond_json(stream, 200, "{\"ok\":true}"),
        (method, path) => {
            let Some((id, action)) = job_route(path) else {
                respond_json(stream, 404, &error_body("no such route"));
                return;
            };
            match (method, action) {
                ("GET", None) => match registry.status(id) {
                    Some(status) => respond_json(stream, 200, &status.to_line()),
                    None => respond_json(stream, 404, &error_body(&format!("no job {id}"))),
                },
                ("GET", Some("events")) => stream_events(stream, registry, id),
                ("POST", Some(action @ ("pause" | "resume" | "cancel"))) => {
                    let outcome = match action {
                        "pause" => registry.pause(id),
                        "resume" => registry.resume(id),
                        _ => registry.cancel(id),
                    };
                    match outcome {
                        Ok(state) => respond_json(
                            stream,
                            200,
                            &Json::obj(vec![
                                ("id", Json::Num(id as f64)),
                                ("state", Json::Str(state.label().to_string())),
                            ])
                            .to_line(),
                        ),
                        Err(e) => respond_json(stream, 409, &error_body(&e)),
                    }
                }
                ("GET" | "POST", _) => respond_json(stream, 404, &error_body("no such route")),
                _ => respond_json(stream, 405, &error_body("method not allowed")),
            }
        }
    }
}

/// Streams a job's iteration records as chunked JSONL, blocking on the
/// event buffer until the job reaches a terminal state or the client
/// hangs up. A write notices a hang-up; while the job writes nothing
/// (paused, or not yet scheduled), a peek after every timed-out wait does.
fn stream_events(stream: &mut TcpStream, registry: &Registry, id: u64) {
    let Some(events) = registry.events(id) else {
        respond_json(stream, 404, &error_body(&format!("no job {id}")));
        return;
    };
    if start_chunked(stream, "application/jsonl").is_err() {
        return;
    }
    let mut cursor = 0usize;
    loop {
        let (lines, over) = events.wait_from(cursor);
        if lines.is_empty() && !over && client_gone(stream) {
            return;
        }
        cursor += lines.len();
        for line in &lines {
            let mut chunk = line.clone();
            chunk.push('\n');
            if crate::http::write_chunk(stream, &chunk).is_err() {
                return;
            }
        }
        if over {
            break;
        }
    }
    let _ = end_chunks(stream);
}

/// Whether the client closed its end of the connection: a non-blocking
/// peek reads end of stream (or fails). A client that keeps the
/// connection open reads as present, so it still holds its handler.
fn client_gone(stream: &TcpStream) -> bool {
    let peeked = stream
        .set_nonblocking(true)
        .and_then(|()| stream.peek(&mut [0u8; 1]));
    let gone = match peeked {
        Ok(n) => n == 0,
        Err(e) => !matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::Interrupted
        ),
    };
    gone || stream.set_nonblocking(false).is_err()
}
