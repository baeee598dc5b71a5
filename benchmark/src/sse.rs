//! A blocking SSE client that records the arrival instant of every
//! token. The repo's `client::generate` keeps only TTFT and E2E; the
//! inter-token and stall metrics need each gap.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use mant_gateway::Json;

/// How a generate call ended. Everything but `Done` is a failure of the
/// request: a refusal (429/503/4xx), a server-side terminal other than
/// `done`, or a connection that closed with no terminal event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum End {
    Done,
    Refused {
        status: u16,
    },
    /// `expired`, `cancelled` or `error`.
    Aborted {
        event: String,
    },
    Truncated,
}

#[derive(Clone, Debug)]
pub struct Stream {
    pub tokens: Vec<usize>,
    /// When each token's `data:` line was read, same length as `tokens`.
    pub arrivals: Vec<Instant>,
    pub end: End,
    /// When the terminal event (or the close) was read.
    pub ended: Instant,
}

/// POSTs `body` to `/v1/generate` and consumes the stream to its end.
pub fn generate(addr: SocketAddr, body: &str) -> io::Result<Stream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    write!(
        stream,
        "POST /v1/generate HTTP/1.1\r\nHost: gateway\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()?;
    read_response(BufReader::new(stream), Instant::now)
}

/// Parses one HTTP response carrying either an SSE stream or a plain
/// refusal. `now` is read once per token and once at the end, so tests
/// can feed canned bytes with a fake clock.
pub fn read_response(
    mut reader: impl BufRead,
    mut now: impl FnMut() -> Instant,
) -> io::Result<Stream> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad status line {line:?}"),
            )
        })?;
    let mut streaming = false;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 || line.trim_end().is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            streaming |= name.eq_ignore_ascii_case("content-type")
                && value.trim().starts_with("text/event-stream");
        }
    }
    let mut out = Stream {
        tokens: Vec::new(),
        arrivals: Vec::new(),
        end: End::Truncated,
        ended: now(),
    };
    if status != 200 || !streaming {
        // Drain the refusal body so the server's write completes.
        io::copy(&mut reader.by_ref().take(64 * 1024), &mut io::sink())?;
        out.end = End::Refused { status };
        out.ended = now();
        return Ok(out);
    }
    let mut pending_event: Option<String> = None;
    loop {
        line.clear();
        // A reset mid-stream is the same failure as a clean early close.
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let text = line.trim_end();
        if let Some(name) = text.strip_prefix("event: ") {
            pending_event = Some(name.to_owned());
        } else if let Some(data) = text.strip_prefix("data: ") {
            match pending_event.take() {
                None => {
                    if let Some(tok) = Json::parse(data)
                        .ok()
                        .and_then(|d| d.get("token")?.as_usize())
                    {
                        out.tokens.push(tok);
                        out.arrivals.push(now());
                    }
                }
                Some(event) if event == "done" => {
                    out.end = End::Done;
                    break;
                }
                Some(event) => {
                    out.end = End::Aborted { event };
                    break;
                }
            }
        }
    }
    out.ended = now();
    Ok(out)
}

/// GET round trip; returns the status code.
pub fn get_status(addr: SocketAddr, path: &str) -> io::Result<u16> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: gateway\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut text = String::new();
    BufReader::new(stream).read_to_string(&mut text)?;
    text.split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A clock that advances 1 ms per reading.
    fn fake_clock() -> impl FnMut() -> Instant {
        let t0 = Instant::now();
        let mut n = 0u32;
        move || {
            n += 1;
            t0 + Duration::from_millis(u64::from(n))
        }
    }

    const PREAMBLE: &str =
        "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nConnection: close\r\n\r\n";

    #[test]
    fn records_one_arrival_per_token_and_the_done_event() {
        let bytes = format!(
            "{PREAMBLE}data: {{\"token\":5}}\n\ndata: {{\"token\":9}}\n\n\
             event: done\ndata: {{\"id\":0,\"tokens\":2}}\n\n"
        );
        let s = read_response(bytes.as_bytes(), fake_clock()).unwrap();
        assert_eq!(s.tokens, vec![5, 9]);
        assert_eq!(s.end, End::Done);
        assert_eq!(s.arrivals.len(), 2);
        assert_eq!(s.arrivals[1] - s.arrivals[0], Duration::from_millis(1));
        assert!(s.ended > s.arrivals[1]);
    }

    #[test]
    fn refusals_are_failures_with_their_status() {
        for status in [429u16, 503, 400] {
            let bytes = format!(
                "HTTP/1.1 {status} Nope\r\nContent-Type: application/json\r\n\
                 Content-Length: 16\r\n\r\n{{\"error\":\"busy\"}}"
            );
            let s = read_response(bytes.as_bytes(), fake_clock()).unwrap();
            assert_eq!(s.end, End::Refused { status });
            assert!(s.tokens.is_empty());
        }
    }

    #[test]
    fn error_events_and_early_closes_are_failures() {
        let bytes =
            format!("{PREAMBLE}data: {{\"token\":1}}\n\nevent: error\ndata: {{\"id\":3}}\n\n");
        let s = read_response(bytes.as_bytes(), fake_clock()).unwrap();
        assert_eq!(
            s.end,
            End::Aborted {
                event: "error".to_owned()
            }
        );
        assert_eq!(s.tokens, vec![1]);

        let bytes = format!("{PREAMBLE}data: {{\"token\":1}}\n\ndata: {{\"tok");
        let s = read_response(bytes.as_bytes(), fake_clock()).unwrap();
        assert_eq!(s.end, End::Truncated);
        assert_eq!(s.tokens, vec![1]);
    }

    #[test]
    fn a_garbage_status_line_is_an_io_error() {
        assert!(read_response(&b"garbage\r\n\r\n"[..], fake_clock()).is_err());
    }
}
