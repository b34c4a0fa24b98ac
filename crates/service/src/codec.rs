//! Incremental wire codecs for the readiness loop: buffer-backed
//! decoders that accept bytes in whatever fragments the kernel
//! delivers, and a per-connection write queue that resumes across
//! `WouldBlock`.
//!
//! The blocking codecs in [`proto`](crate::proto) pull whole frames out
//! of a stream and park the thread until they arrive — exactly what a
//! thread-per-connection server wants and exactly what a readiness loop
//! cannot afford. Here the loop owns the read: it appends whatever
//! `read(2)` returned to the connection's input buffer and asks
//! [`try_extract_frame`]/[`try_extract_line`] whether a complete
//! message has accumulated. Decoding is therefore a pure function of
//! the buffer — byte-at-a-time delivery and one giant `read` decode
//! identically (the property tests in `tests/properties.rs` hold the
//! incremental decoders to the blocking readers' output bit for bit).
//!
//! On the way out, [`WriteQueue`] holds fully-encoded messages and a
//! cursor into the front one; [`WriteQueue::write_to`] pushes bytes
//! until the socket blocks and picks up mid-frame on the next
//! `EPOLLOUT`. The same bounds the blocking codecs enforce apply
//! unchanged: an announced frame length or a terminator-less line past
//! the limit poisons the connection (the stream can no longer be
//! resynchronized), surfaced as [`DecodeError::Oversized`] before any
//! payload allocation.

use std::collections::VecDeque;
use std::io::{self, Read, Write};

/// Length of the binary-frame header: a `u32` big-endian payload length.
pub const FRAME_HEADER_BYTES: usize = 4;

/// Why an input buffer can no longer yield messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The peer announced a frame longer than the limit, or sent
    /// `limit` line bytes with no newline. Nothing was consumed; the
    /// connection must be dropped.
    Oversized {
        /// The announced frame length (or the accumulated line length).
        announced: u64,
        /// The limit it exceeded.
        limit: u64,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let DecodeError::Oversized { announced, limit } = self;
        write!(
            f,
            "message of {announced} bytes exceeds the {limit}-byte limit"
        )
    }
}

impl std::error::Error for DecodeError {}

/// Pops one complete length-prefixed binary frame off the front of
/// `inbuf`, or `None` when the buffer holds only a partial frame.
///
/// Mirrors [`proto::read_frame`](crate::proto::read_frame): the
/// announced length is checked against `limit` as soon as the 4-byte
/// header is visible, before any payload allocation, so a lying prefix
/// on a stalling peer can never balloon memory.
///
/// # Errors
///
/// [`DecodeError::Oversized`] when the announced length exceeds
/// `limit`; the buffer is left untouched and the caller must drop the
/// connection.
pub fn try_extract_frame(inbuf: &mut Vec<u8>, limit: u64) -> Result<Option<Vec<u8>>, DecodeError> {
    if inbuf.len() < FRAME_HEADER_BYTES {
        return Ok(None);
    }
    let announced = u64::from(u32::from_be_bytes(
        inbuf[..FRAME_HEADER_BYTES]
            .try_into()
            .expect("4-byte slice"), // lint:allow(panic_path) -- the slice is exactly FRAME_HEADER_BYTES long
    ));
    if announced > limit {
        return Err(DecodeError::Oversized { announced, limit });
    }
    let total = FRAME_HEADER_BYTES + announced as usize;
    if inbuf.len() < total {
        return Ok(None);
    }
    let payload = inbuf[FRAME_HEADER_BYTES..total].to_vec();
    inbuf.drain(..total);
    Ok(Some(payload))
}

/// Pops one `\n`-terminated line (terminator included, matching
/// [`proto::read_bounded_line`](crate::proto::read_bounded_line)) off
/// the front of `inbuf`, or `None` while no newline has arrived yet.
///
/// # Errors
///
/// [`DecodeError::Oversized`] once `limit` bytes sit in the buffer
/// with no newline among them — the line can never complete within
/// bounds. Invalid UTF-8 in a complete line surfaces as an
/// [`io::Error`] exactly as the blocking reader's `read_line` does.
pub fn try_extract_line(
    inbuf: &mut Vec<u8>,
    limit: u64,
) -> Result<Option<io::Result<String>>, DecodeError> {
    match inbuf.iter().position(|&b| b == b'\n') {
        Some(pos) if (pos as u64) < limit => {
            let raw: Vec<u8> = inbuf.drain(..=pos).collect();
            Ok(Some(match String::from_utf8(raw) {
                Ok(line) => Ok(line),
                Err(_) => Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "stream did not contain valid UTF-8",
                )),
            }))
        }
        Some(pos) => Err(DecodeError::Oversized {
            announced: pos as u64 + 1,
            limit,
        }),
        None if inbuf.len() as u64 >= limit => Err(DecodeError::Oversized {
            announced: inbuf.len() as u64,
            limit,
        }),
        None => Ok(None),
    }
}

/// What one non-blocking fill of the input buffer observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fill {
    /// This many fresh bytes were appended (> 0).
    Bytes(usize),
    /// The socket has no bytes ready; wait for the next `EPOLLIN`.
    WouldBlock,
    /// The peer closed its write side.
    Eof,
}

/// Appends whatever the non-blocking `reader` has ready to `inbuf`,
/// reading at most one chunk (the loop services other connections
/// between chunks; level-triggered epoll re-reports the rest).
///
/// # Errors
///
/// Transport errors other than `WouldBlock`/`Interrupted` propagate.
pub fn fill_buf(reader: &mut impl Read, inbuf: &mut Vec<u8>) -> io::Result<Fill> {
    const CHUNK: usize = 64 * 1024;
    let start = inbuf.len();
    inbuf.resize(start + CHUNK, 0);
    loop {
        // lint:allow(blocking_in_loop) -- the stream is registered nonblocking
        // with the poller; read returns WouldBlock instead of parking
        match reader.read(&mut inbuf[start..]) {
            Ok(0) => {
                inbuf.truncate(start);
                return Ok(Fill::Eof);
            }
            Ok(n) => {
                inbuf.truncate(start + n);
                return Ok(Fill::Bytes(n));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                inbuf.truncate(start);
                return Ok(Fill::WouldBlock);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                inbuf.truncate(start);
                return Err(e);
            }
        }
    }
}

/// Encodes one binary frame — the `u32` big-endian length prefix plus
/// the payload — as the byte string [`WriteQueue::push`] takes.
pub fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    frame_parts(&[payload])
}

/// [`frame_bytes`] of the concatenation of `parts`, each copied once
/// straight into the frame.
pub fn frame_parts(parts: &[&[u8]]) -> Vec<u8> {
    let payload_len: usize = parts.iter().map(|p| p.len()).sum();
    let len = u32::try_from(payload_len).expect("frame payload exceeds u32 length"); // lint:allow(panic_path) -- payloads are in-process responses far below the 4 GiB frame ceiling
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload_len);
    out.extend_from_slice(&len.to_be_bytes());
    for part in parts {
        out.extend_from_slice(part);
    }
    out
}

/// Encodes one v1 response line (newline appended).
pub fn line_bytes(line: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(line.len() + 1);
    out.extend_from_slice(line.as_bytes());
    out.push(b'\n');
    out
}

/// Outcome of one [`WriteQueue::write_to`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteProgress {
    /// Every queued byte reached the socket; EPOLLOUT can be dropped.
    Drained,
    /// The socket blocked mid-queue; resume on the next `EPOLLOUT`.
    Blocked,
}

/// A connection's pending output: fully-encoded messages plus a byte
/// cursor into the front one, so a write that lands mid-frame resumes
/// exactly where the kernel stopped taking bytes.
#[derive(Default)]
pub struct WriteQueue {
    messages: VecDeque<Vec<u8>>,
    /// How many bytes of `messages[0]` already reached the socket.
    head_sent: usize,
    queued_bytes: usize,
}

impl WriteQueue {
    /// An empty queue.
    pub fn new() -> Self {
        WriteQueue::default()
    }

    /// Queues one fully-encoded message (see [`frame_bytes`] /
    /// [`line_bytes`]).
    pub fn push(&mut self, message: Vec<u8>) {
        self.queued_bytes += message.len();
        self.messages.push_back(message);
    }

    /// True when no byte is pending.
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
    }

    /// Bytes not yet accepted by the socket.
    pub fn queued_bytes(&self) -> usize {
        self.queued_bytes
    }

    /// Queued messages not yet fully written.
    pub fn len(&self) -> usize {
        self.messages.len()
    }

    /// Writes queued bytes until the queue drains or the socket blocks.
    ///
    /// # Errors
    ///
    /// A zero-length accepted write is reported as
    /// [`io::ErrorKind::WriteZero`]; transport errors other than
    /// `WouldBlock`/`Interrupted` propagate. Either way the connection
    /// is dead.
    pub fn write_to(&mut self, writer: &mut impl Write) -> io::Result<WriteProgress> {
        while let Some(front) = self.messages.front() {
            // lint:allow(blocking_in_loop) -- the stream is registered nonblocking
            // with the poller; write returns WouldBlock instead of parking
            match writer.write(&front[self.head_sent..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes of a pending message",
                    ));
                }
                Ok(n) => {
                    self.head_sent += n;
                    self.queued_bytes -= n;
                    if self.head_sent == front.len() {
                        self.messages.pop_front();
                        self.head_sent = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return Ok(WriteProgress::Blocked);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(WriteProgress::Drained)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_extraction_is_incremental() {
        let encoded = frame_bytes(b"hello");
        let mut inbuf = Vec::new();
        for (i, &b) in encoded.iter().enumerate() {
            inbuf.push(b);
            let got = try_extract_frame(&mut inbuf, 1024).expect("within limit");
            if i + 1 < encoded.len() {
                assert!(got.is_none(), "no frame before byte {}", encoded.len());
            } else {
                assert_eq!(got.as_deref(), Some(&b"hello"[..]));
                assert!(inbuf.is_empty());
            }
        }
    }

    #[test]
    fn two_frames_in_one_burst_pop_in_order() {
        let mut inbuf = Vec::new();
        inbuf.extend_from_slice(&frame_bytes(b"a"));
        inbuf.extend_from_slice(&frame_bytes(b"bb"));
        assert_eq!(
            try_extract_frame(&mut inbuf, 1024).unwrap().as_deref(),
            Some(&b"a"[..])
        );
        assert_eq!(
            try_extract_frame(&mut inbuf, 1024).unwrap().as_deref(),
            Some(&b"bb"[..])
        );
        assert_eq!(try_extract_frame(&mut inbuf, 1024).unwrap(), None);
    }

    #[test]
    fn oversized_announcement_rejected_from_header_alone() {
        let mut inbuf = 100u32.to_be_bytes().to_vec();
        assert_eq!(
            try_extract_frame(&mut inbuf, 99),
            Err(DecodeError::Oversized {
                announced: 100,
                limit: 99
            })
        );
    }

    #[test]
    fn line_extraction_keeps_terminator_and_bounds_length() {
        let mut inbuf = b"\"Ping\"\ntrailing".to_vec();
        let line = try_extract_line(&mut inbuf, 64).unwrap().unwrap().unwrap();
        assert_eq!(line, "\"Ping\"\n");
        assert_eq!(inbuf, b"trailing");
        assert!(try_extract_line(&mut inbuf, 64).unwrap().is_none());

        let mut oversized = vec![b'x'; 64];
        assert!(try_extract_line(&mut oversized, 64).is_err());
    }

    /// A writer that accepts at most `cap` bytes per call, then blocks.
    struct Dribble {
        cap: usize,
        taken: Vec<u8>,
        calls_until_block: usize,
    }

    impl Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.calls_until_block == 0 {
                self.calls_until_block = 1;
                return Err(io::Error::from(io::ErrorKind::WouldBlock));
            }
            self.calls_until_block -= 1;
            let n = buf.len().min(self.cap);
            self.taken.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn partial_writes_resume_losslessly() {
        let mut wq = WriteQueue::new();
        wq.push(frame_bytes(b"first"));
        wq.push(frame_bytes(b"second message"));
        let mut expected = frame_bytes(b"first");
        expected.extend_from_slice(&frame_bytes(b"second message"));

        let mut sink = Dribble {
            cap: 3,
            taken: Vec::new(),
            calls_until_block: 2,
        };
        let mut passes = 0;
        loop {
            passes += 1;
            match wq.write_to(&mut sink).expect("no transport error") {
                WriteProgress::Drained => break,
                WriteProgress::Blocked => sink.calls_until_block = 2,
            }
        }
        assert!(passes > 1, "the dribbling sink must have blocked mid-queue");
        assert_eq!(sink.taken, expected);
        assert!(wq.is_empty());
        assert_eq!(wq.queued_bytes(), 0);
    }
}
