//! The open-loop load generator: one thread sends every request at its
//! due time over at most two pipelined keep-alive connections, whatever
//! the server's progress; one reader thread per connection matches the
//! in-order responses back to their requests. The server serialises the
//! requests of one connection, so pipelining is what keeps the load open.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Due time, seconds after the phase start.
    pub due: f64,
    /// Connection index (0 or 1).
    pub conn: usize,
    /// JSON body.
    pub body: String,
}

/// What happened to one request.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// When it was written (None: never sent).
    pub sent: Option<Instant>,
    /// When its full answer arrived.
    pub done: Option<Instant>,
    /// HTTP status (0: no answer).
    pub status: u16,
    /// Answer body.
    pub body: String,
}

impl Outcome {
    /// 2xx answer received.
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status) && self.done.is_some()
    }
}

/// A finished phase.
pub struct Phase {
    /// The instant due offsets count from.
    pub start: Instant,
    /// Due offsets (s), per request.
    pub due: Vec<f64>,
    /// Outcome per request.
    pub outcomes: Vec<Outcome>,
    /// Most requests outstanding at any send.
    pub backlog_max: usize,
    /// Requests outstanding at the last send.
    pub backlog_end: usize,
}

impl Phase {
    fn due_instant(&self, i: usize) -> Instant {
        self.start + Duration::from_secs_f64(self.due[i])
    }

    /// Latency of request `i` from its due time, ms; infinite if it failed.
    pub fn latency_ms(&self, i: usize) -> f64 {
        let o = &self.outcomes[i];
        match o.done {
            Some(done) if o.ok() => {
                done.saturating_duration_since(self.due_instant(i))
                    .as_secs_f64()
                    * 1e3
            }
            _ => f64::INFINITY,
        }
    }

    /// How late the generator sent request `i`, ms (None: never sent).
    pub fn late_ms(&self, i: usize) -> Option<f64> {
        let sent = self.outcomes[i].sent?;
        Some(
            sent.saturating_duration_since(self.due_instant(i))
                .as_secs_f64()
                * 1e3,
        )
    }

    /// Requests that did not get a 2xx answer.
    pub fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.ok()).count()
    }
}

/// Reads one `Content-Length`-framed HTTP/1.1 response from `stream`,
/// keeping any bytes past it in `buf`.
fn read_response(stream: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<(u16, String)> {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = std::str::from_utf8(&buf[..head_end])
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 head"))?;
            let mut lines = head.split("\r\n");
            let status = lines
                .next()
                .and_then(|l| l.split(' ').nth(1))
                .and_then(|s| s.parse::<u16>().ok())
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
            let len = lines
                .filter_map(|l| l.split_once(':'))
                .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
                .and_then(|(_, v)| v.trim().parse::<usize>().ok())
                .unwrap_or(0);
            let total = head_end + 4 + len;
            if buf.len() >= total {
                let body = String::from_utf8_lossy(&buf[head_end + 4..total]).into_owned();
                buf.drain(..total);
                return Ok((status, body));
            }
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// One blocking request on a fresh connection (set-up and stats reads).
pub fn call(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(10)))?;
    s.write_all(frame(method, path, body).as_bytes())?;
    read_response(&mut s, &mut Vec::new())
}

fn frame(method: &str, path: &str, body: &str) -> String {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

type Answer = (usize, Instant, u16, String);

/// Runs one open-loop phase of `POST path` requests: every request is
/// sent at its due time, whatever the server's progress; the phase ends
/// when every answer is in, or `drain` after the last due time, whichever
/// comes first. Requests left without an answer then count as failed.
pub fn run(addr: SocketAddr, path: &str, reqs: &[Request], drain: Duration) -> io::Result<Phase> {
    let conns = reqs.iter().map(|r| r.conn + 1).max().unwrap_or(1);
    assert!(conns <= 2, "at most two connections");
    let done = Arc::new(AtomicUsize::new(0));

    let mut writers = Vec::new();
    let mut queues = Vec::new();
    let mut readers = Vec::new();
    for _ in 0..conns {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut rd = stream.try_clone()?;
        let (tx, rx) = mpsc::channel::<usize>();
        let done = Arc::clone(&done);
        readers.push(std::thread::spawn(move || -> Vec<Answer> {
            let mut buf = Vec::new();
            let mut answers = Vec::new();
            for idx in rx.iter() {
                let Ok((status, body)) = read_response(&mut rd, &mut buf) else {
                    break;
                };
                answers.push((idx, Instant::now(), status, body));
                done.fetch_add(1, Ordering::Release);
            }
            answers
        }));
        writers.push(Some(stream));
        queues.push(Some(tx));
    }

    let mut outcomes = vec![Outcome::default(); reqs.len()];
    let start = Instant::now() + Duration::from_millis(5);
    let last_due = reqs.iter().map(|r| r.due).fold(0.0, f64::max);
    let deadline = start + Duration::from_secs_f64(last_due) + drain;
    let (mut sent, mut backlog_max, mut backlog_end) = (0usize, 0usize, 0usize);
    for (i, r) in reqs.iter().enumerate() {
        let due = start + Duration::from_secs_f64(r.due);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let (Some(w), Some(q)) = (writers[r.conn].as_mut(), queues[r.conn].as_ref()) else {
            continue;
        };
        if q.send(i).is_err() {
            continue;
        }
        outcomes[i].sent = Some(Instant::now());
        if w.write_all(frame("POST", path, &r.body).as_bytes())
            .is_err()
        {
            // The reader still waits on this index: end the connection
            // so it stops, and fail everything later routed to it.
            let _ = w.shutdown(Shutdown::Both);
            writers[r.conn] = None;
            queues[r.conn] = None;
            continue;
        }
        sent += 1;
        let outstanding = sent - done.load(Ordering::Acquire).min(sent);
        backlog_max = backlog_max.max(outstanding);
        backlog_end = outstanding;
    }
    drop(queues);
    while done.load(Ordering::Acquire) < sent && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    for w in writers.iter().flatten() {
        let _ = w.shutdown(Shutdown::Both);
    }
    for r in readers {
        let answers = r.join().expect("reader thread panicked");
        for (idx, at, status, body) in answers {
            let o = &mut outcomes[idx];
            o.done = Some(at);
            o.status = status;
            o.body = body;
        }
    }
    Ok(Phase {
        start,
        due: reqs.iter().map(|r| r.due).collect(),
        outcomes,
        backlog_max,
        backlog_end,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pipelined_responses_in_order() {
        let wire =
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}HTTP/1.1 429 Too Many Requests\r\n\
content-length: 5\r\nRetry-After: 1\r\n\r\n[1,2]";
        let mut src = &wire[..];
        let mut buf = Vec::new();
        assert_eq!(
            read_response(&mut src, &mut buf).unwrap(),
            (200, "{}".into())
        );
        assert_eq!(
            read_response(&mut src, &mut buf).unwrap(),
            (429, "[1,2]".into())
        );
        assert!(read_response(&mut src, &mut buf).is_err());
    }
}
