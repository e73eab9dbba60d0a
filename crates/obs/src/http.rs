//! A minimal std-TCP HTTP/1.1 server for plaintext metric exposition,
//! plus the tiny scrape client tests and examples use against it.
//!
//! This is deliberately not a web server: it answers `GET` requests
//! with whatever the render callback produces for the path, one
//! connection at a time, with short socket timeouts so a stuck scraper
//! cannot wedge the thread. That is all a Prometheus-style scrape
//! target needs.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the accept loop sleeps between polls while idle.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Per-connection socket timeout: a scraper that stalls longer is cut.
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
                // the socket timeout bounds a stalled peer.
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
    stream.set_read_timeout(Some(CONN_TIMEOUT))?;
    stream.set_write_timeout(Some(CONN_TIMEOUT))?;
    stream.set_nonblocking(false)?;
    let request_line = read_request_line(&mut stream)?;
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
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Reads the whole request header block (through the blank line) and
/// returns the request line. Draining the headers before responding
/// matters: closing with unread bytes pending resets the connection
/// and can discard the response on the peer's side.
fn read_request_line(stream: &mut TcpStream) -> io::Result<String> {
    let mut buf = Vec::with_capacity(256);
    let mut byte = [0u8; 1];
    while buf.len() < 8192 && !buf.ends_with(b"\r\n\r\n") {
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
