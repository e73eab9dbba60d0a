//! A minimal std-TCP HTTP/1.1 server for plaintext metric exposition,
//! plus the tiny scrape client tests and examples use against it.
//!
//! This is deliberately not a web server: it answers `GET` requests
//! with whatever the render callback produces for the path, one
//! connection at a time, with a short deadline per connection so a
//! stuck or trickling scraper cannot wedge the thread. That is all a
//! Prometheus-style scrape target needs.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the accept loop sleeps between polls while idle.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Deadline for one whole connection, from accept to the last byte
/// written: the acceptor serves connections one at a time, so a peer
/// that trickles its request is cut once this much time has passed,
/// however it paces its bytes.
const CONN_TIMEOUT: Duration = Duration::from_secs(2);

/// A background thread serving `GET <path>` over plain HTTP/1.1.
///
/// The render callback maps a request path to `Some(body)` (answered
/// `200 text/plain`) or `None` (`404`). Shared state lives inside the
/// callback's captures — typically an `Arc` of whatever registry the
/// caller renders.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for MetricsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl MetricsServer {
    /// Binds `bind` (e.g. `127.0.0.1:0`) and serves until dropped or
    /// [`MetricsServer::shutdown`].
    pub fn spawn<F>(bind: &str, render: F) -> io::Result<MetricsServer>
    where
        F: Fn(&str) -> Option<String> + Send + 'static,
    {
        let listener = TcpListener::bind(bind)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        #[expect(
            clippy::disallowed_methods,
            clippy::expect_used,
            reason = "long-lived: the metrics endpoint acceptor, one per server; invariant: spawn \
                      fails only on OS thread exhaustion, and the server is useless without its \
                      acceptor"
        )]
        let handle = std::thread::Builder::new()
            .name("obs-metrics-http".into())
            .spawn(move || accept_loop(listener, &stop_flag, &render))
            .expect("spawn metrics server thread");
        Ok(MetricsServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with a `:0` bind).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        // ordering: standalone stop flag — nothing is published under
        // it, and the join below synchronizes with thread exit; SeqCst
        // bought nothing here.
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop<F>(listener: TcpListener, stop: &AtomicBool, render: &F)
where
    F: Fn(&str) -> Option<String>,
{
    // ordering: the flag is the only shared state; the accept loop
    // re-polls within ACCEPT_POLL, so propagation delay is harmless.
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Answer inline: scrape requests are tiny and rare, and
                // the connection deadline bounds a stalled peer.
                let _ = serve_one(stream, render);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

fn serve_one<F>(mut stream: TcpStream, render: &F) -> io::Result<()>
where
    F: Fn(&str) -> Option<String>,
{
    let deadline = Instant::now() + CONN_TIMEOUT;
    stream.set_nonblocking(false)?;
    let request_line = read_request_line(&mut stream, deadline)?;
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or("/"));
    let response = if method != "GET" {
        http_response("405 Method Not Allowed", "only GET is served\n")
    } else {
        match render(path) {
            Some(body) => http_response("200 OK", &body),
            None => http_response("404 Not Found", "unknown path\n"),
        }
    };
    let mut unsent = response.as_bytes();
    while !unsent.is_empty() {
        // Each write waits only for the time left, so a peer that reads
        // a large page slowly is cut at the deadline too.
        stream.set_write_timeout(Some(time_left(deadline)?))?;
        match stream.write(unsent) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => unsent = &unsent[n..],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The time left before `deadline`, or a `TimedOut` error once none is.
fn time_left(deadline: Instant) -> io::Result<Duration> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "connection deadline passed",
        ));
    }
    Ok(left)
}

/// Reads the whole request header block (through the blank line) and
/// returns the request line. Draining the headers before responding
/// matters: closing with unread bytes pending resets the connection
/// and can discard the response on the peer's side. Each read waits
/// only for the time left before `deadline`.
fn read_request_line(stream: &mut TcpStream, deadline: Instant) -> io::Result<String> {
    let mut buf = Vec::with_capacity(256);
    let mut byte = [0u8; 1];
    while buf.len() < 8192 && !buf.ends_with(b"\r\n\r\n") {
        stream.set_read_timeout(Some(time_left(deadline)?))?;
        let n = stream.read(&mut byte)?;
        if n == 0 {
            break;
        }
        buf.push(byte[0]);
    }
    let first = buf.split(|&b| b == b'\n').next().unwrap_or(&[]);
    Ok(String::from_utf8_lossy(first).trim_end().to_string())
}

fn http_response(status: &str, body: &str) -> String {
    format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

/// A one-shot HTTP GET against `addr`, returning the response body.
///
/// The scrape client half of [`MetricsServer`]: connects, sends a
/// minimal request, and errors on anything but a `200`. Used by the
/// endpoint tests, CI scrape step, and `examples/cluster.rs`.
pub fn http_get(addr: SocketAddr, path: &str, timeout: Duration) -> io::Result<String> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no HTTP header terminator"))?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains("200") {
        return Err(io::Error::other(format!("non-200 response: {status}")));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_rendered_page_and_404s_unknown_paths() {
        let server = MetricsServer::spawn("127.0.0.1:0", |path| {
            (path == "/metrics").then(|| "tk_up 1\n".to_string())
        })
        .expect("bind");
        let addr = server.addr();
        let body = http_get(addr, "/metrics", Duration::from_secs(2)).expect("scrape");
        assert_eq!(body, "tk_up 1\n");
        let err = http_get(addr, "/nope", Duration::from_secs(2)).unwrap_err();
        assert!(err.to_string().contains("404"), "{err}");
        server.shutdown();
    }

    /// A client that sends one header byte at a time, each well inside
    /// the old per-read timeout, must not hold the one acceptor past the
    /// connection deadline: a concurrent scrape still answers within
    /// `CONN_TIMEOUT` plus a margin.
    #[test]
    fn a_trickling_client_does_not_block_other_scrapes() {
        let server = MetricsServer::spawn("127.0.0.1:0", |path| {
            (path == "/metrics").then(|| "tk_up 1\n".to_string())
        })
        .expect("bind");
        let addr = server.addr();
        let done = Arc::new(AtomicBool::new(false));
        let mut slow = TcpStream::connect(addr).expect("connect trickler");
        slow.write_all(b"G").expect("first byte");
        // Let the acceptor take the trickler first.
        std::thread::sleep(Duration::from_millis(100));
        let trickler = {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                // Far longer than the deadline, one byte every 200 ms;
                // stops once the server hangs up or the scrape is done.
                for _ in 0..40 {
                    // ordering: test stop flag; nothing is published under it.
                    if done.load(Ordering::Relaxed) || slow.write_all(b"E").is_err() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(200));
                }
            })
        };
        let margin = Duration::from_secs(1);
        let started = Instant::now();
        let body = http_get(addr, "/metrics", CONN_TIMEOUT + margin);
        let waited = started.elapsed();
        // ordering: test stop flag; nothing is published under it.
        done.store(true, Ordering::Relaxed);
        trickler.join().expect("trickler thread");
        assert_eq!(body.expect("scrape behind a trickling client"), "tk_up 1\n");
        assert!(waited < CONN_TIMEOUT + margin, "scrape took {waited:?}");
        server.shutdown();
    }

    /// A client that reads a large page a little at a time must not hold
    /// the one acceptor past the connection deadline either: a
    /// concurrent scrape still answers within `CONN_TIMEOUT` plus a
    /// margin.
    #[test]
    fn a_slowly_reading_client_does_not_block_other_scrapes() {
        let server = MetricsServer::spawn("127.0.0.1:0", |path| match path {
            "/metrics" => Some("tk_up 1\n".to_string()),
            // Far more than the socket buffers hold between the peers.
            "/big" => Some("x".repeat(16 << 20)),
            _ => None,
        })
        .expect("bind");
        let addr = server.addr();
        let done = Arc::new(AtomicBool::new(false));
        let mut slow = TcpStream::connect(addr).expect("connect slow reader");
        slow.write_all(b"GET /big HTTP/1.1\r\n\r\n")
            .expect("request");
        // Let the acceptor take the slow reader first.
        std::thread::sleep(Duration::from_millis(100));
        let reader = {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                // 64 KiB every 200 ms, a page of tens of seconds; stops
                // once the server hangs up or the scrape is done.
                let mut chunk = vec![0u8; 64 << 10];
                // ordering: test stop flag; nothing is published under it.
                while !done.load(Ordering::Relaxed) {
                    match slow.read(&mut chunk) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => std::thread::sleep(Duration::from_millis(200)),
                    }
                }
            })
        };
        let margin = Duration::from_secs(1);
        let started = Instant::now();
        let body = http_get(addr, "/metrics", CONN_TIMEOUT + margin);
        let waited = started.elapsed();
        // ordering: test stop flag; nothing is published under it.
        done.store(true, Ordering::Relaxed);
        reader.join().expect("reader thread");
        assert_eq!(body.expect("scrape behind a slow reader"), "tk_up 1\n");
        assert!(waited < CONN_TIMEOUT + margin, "scrape took {waited:?}");
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_cleanly_and_port_is_released_eventually() {
        let server = MetricsServer::spawn("127.0.0.1:0", |_| Some(String::new())).expect("bind");
        let addr = server.addr();
        server.shutdown();
        // After shutdown the acceptor is gone: a fresh connect must not
        // be answered with a valid HTTP response.
        let res = http_get(addr, "/metrics", Duration::from_millis(300));
        assert!(res.is_err());
    }
}
