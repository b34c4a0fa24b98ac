//! A protocol-v2 session driven from the calling thread alone.
//!
//! `indaas_service::Client` parks a reader thread on every session so
//! that requests can pipeline; a closed-loop load generator never has
//! two requests in flight, and a second thread per connection would put
//! a wake-up hand-off — and a third runnable thread on a two-core box —
//! inside every measured latency. This session does the same hello,
//! the same frames and the same envelopes with blocking reads, split
//! into encode / exchange / decode so the caller can put a span around
//! each.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use indaas_service::proto::{
    decode_line, encode_line, read_frame, Envelope, FrameRead, Request, Response, ResponseEnvelope,
    PROTOCOL_VERSION,
};

/// Largest response frame accepted (a 1,923-group report is ~180 KB).
const MAX_FRAME: u64 = 64 * 1024 * 1024;

/// No single answer takes anywhere near this long; a wedged daemon
/// fails the run instead of hanging it.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

pub struct Session {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
    frame: Vec<u8>,
}

impl Session {
    pub fn connect(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(READ_TIMEOUT)))
            .map_err(|e| format!("socket options: {e}"))?;
        let mut writer = stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?;
        let mut reader = BufReader::new(stream);

        let mut hello = encode_line(&Request::Hello {
            version: PROTOCOL_VERSION,
        });
        hello.push('\n');
        writer
            .write_all(hello.as_bytes())
            .map_err(|e| format!("send hello: {e}"))?;
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("read welcome: {e}"))?;
        match decode_line::<Response>(line.trim()) {
            Ok(Response::Welcome { version }) if version >= 2 => {}
            other => return Err(format!("hello answered with {other:?}")),
        }
        Ok(Session {
            writer,
            reader,
            next_id: 0,
            frame: Vec::new(),
        })
    }

    /// Encodes `body` as the next envelope: its id and its frame, length
    /// prefix included, ready for one `write`.
    pub fn encode(&mut self, body: Request, trace: Option<String>) -> (u64, Vec<u8>) {
        self.next_id += 1;
        let payload = encode_line(&Envelope {
            id: self.next_id,
            body,
            trace,
        });
        let mut frame = Vec::with_capacity(4 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        frame.extend_from_slice(payload.as_bytes());
        (self.next_id, frame)
    }

    pub fn send(&mut self, frame: &[u8]) -> Result<(), String> {
        self.writer
            .write_all(frame)
            .map_err(|e| format!("send frame: {e}"))
    }

    /// Blocks until the next frame has arrived; returns its payload.
    pub fn receive(&mut self) -> Result<&[u8], String> {
        match read_frame(&mut self.reader, &mut self.frame, MAX_FRAME) {
            Ok(FrameRead::Frame) => Ok(&self.frame),
            Ok(FrameRead::Eof) => Err("daemon closed the connection".into()),
            Ok(FrameRead::Oversized) => Err("oversized response frame".into()),
            Err(e) => Err(format!("read frame: {e}")),
        }
    }

    /// Whether a frame arrives within `wait` — used after a run to show
    /// that the daemon pushed nothing it did not owe.
    pub fn frame_pending(&mut self, wait: Duration) -> Result<bool, String> {
        let set = |s: &mut Self, t| {
            s.reader
                .get_ref()
                .set_read_timeout(Some(t))
                .map_err(|e| format!("socket options: {e}"))
        };
        set(self, wait)?;
        let pending = match self.reader.fill_buf() {
            Ok(buf) => !buf.is_empty(),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                false
            }
            Err(e) => return Err(format!("read: {e}")),
        };
        set(self, READ_TIMEOUT)?;
        Ok(pending)
    }

    /// One blocking round trip without spans: the answer to `body`.
    pub fn request(&mut self, body: Request, trace: Option<String>) -> Result<Response, String> {
        let (id, frame) = self.encode(body, trace);
        self.send(&frame)?;
        let envelope = decode(self.receive()?)?;
        if envelope.id != id {
            return Err(format!(
                "answer to envelope {} while waiting for {id}",
                envelope.id
            ));
        }
        Ok(envelope.body)
    }
}

pub fn decode(payload: &[u8]) -> Result<ResponseEnvelope, String> {
    let text = std::str::from_utf8(payload).map_err(|e| format!("response not UTF-8: {e}"))?;
    decode_line(text).map_err(|e| format!("undecodable response: {e}"))
}
