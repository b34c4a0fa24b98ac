//! Shared daemon-suite helpers. [`bind`] boots a daemon over an empty
//! store. [`LineSession`] is a raw protocol-v1 line session: one JSON
//! request per line out, one response line back, over a plain
//! `TcpStream`. Line mode exists to be driven by hand (`nc`, a few lines
//! of any language), so the suites drive it the same way instead of
//! through a client type — and a federation peer session opens from it
//! the same way, with one hello.

// Each suite compiles its own copy and uses a subset of it.
#![allow(dead_code)]

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::mpsc;

use indaas::deps::ShardedDepDb;
use indaas::obs::TraceContext;
use indaas::service::proto::{
    decode_line, encode_line, encode_traced_round_frame, read_frame, write_frame,
    FEDERATION_PROTOCOL_VERSION,
};
use indaas::service::{Request, Response, ServeConfig, Server};

/// Binds a daemon over a fresh, empty `config.shards`-shard store.
pub fn bind(config: ServeConfig) -> Server {
    let store = ShardedDepDb::new(config.shards);
    Server::bind(config, store).expect("bind daemon")
}

pub struct LineSession {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl LineSession {
    pub fn connect(addr: impl ToSocketAddrs) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        let writer = stream.try_clone().expect("clone socket");
        LineSession {
            writer,
            reader: BufReader::new(stream),
        }
    }

    /// Writes `line` and returns the answer line verbatim.
    pub fn raw(&mut self, line: &str) -> String {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("write request line");
        let mut answer = String::new();
        self.reader
            .read_line(&mut answer)
            .expect("read answer line");
        answer
    }

    /// Sends one request and decodes its one response.
    pub fn request(&mut self, request: &Request) -> Response {
        let answer = self.raw(&encode_line(request));
        decode_line(answer.trim()).expect("decode response line")
    }

    /// Plays a ring predecessor: opens this connection as a federation
    /// peer session announcing `node` (hello → welcome), then writes one
    /// raw round frame.
    pub fn send_round_frame(
        &mut self,
        node: &str,
        session: u64,
        round: u32,
        from: u32,
        payload: &[u8],
    ) {
        match self.request(&Request::FederateHello {
            version: FEDERATION_PROTOCOL_VERSION,
            node: node.to_string(),
        }) {
            Response::FederateWelcome { .. } => {}
            other => panic!("expected a welcome, got {other:?}"),
        }
        let frame = encode_traced_round_frame(session, round, from, payload, &TraceContext::root());
        write_frame(&mut self.writer, &frame).expect("write round frame");
    }
}

/// Plays a ring successor that never answers: accepts one daemon's dial,
/// welcomes it as `node`, and hands the connection back once the
/// daemon's round-0 frame has arrived — from then on the daemon's party
/// waits for a frame nobody sends.
pub fn silent_successor(node: &str) -> (String, mpsc::Receiver<TcpStream>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind successor");
    let addr = listener
        .local_addr()
        .expect("successor address")
        .to_string();
    let welcome = encode_line(&Response::FederateWelcome {
        version: FEDERATION_PROTOCOL_VERSION,
        node: node.to_string(),
    });
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("the daemon dials its successor");
        let mut reader = BufReader::new(stream.try_clone().expect("clone socket"));
        let mut hello = String::new();
        reader.read_line(&mut hello).expect("hello line");
        assert!(hello.contains("FederateHello"), "got: {hello}");
        stream
            .write_all(format!("{welcome}\n").as_bytes())
            .expect("write welcome");
        let mut frame = Vec::new();
        read_frame(&mut reader, &mut frame, 1 << 24).expect("the daemon's round-0 frame");
        let _ = tx.send(stream);
    });
    (addr, rx)
}
