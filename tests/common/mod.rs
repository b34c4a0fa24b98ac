//! Shared daemon-suite helpers. [`bind`] boots a daemon over an empty
//! store, [`bind_daemon`] one over a [`PROVIDER_RECORDS`] entry, and
//! [`boot`] runs it on a thread of its own until [`shutdown`].
//! [`LineSession`] is a raw protocol-v1 line session: one JSON
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
use std::thread::JoinHandle;

use indaas::deps::{parse_records, ShardedDepDb};
use indaas::obs::TraceContext;
use indaas::service::proto::{
    decode_line, encode_line, encode_traced_round_frame, read_frame, write_frame,
    FEDERATION_PROTOCOL_VERSION,
};
use indaas::service::{Client, Request, Response, ServeConfig, Server};

/// Table-1 record sets for three providers with a shared core (libc6,
/// openssl, ToR-shared) and distinct tails.
pub const PROVIDER_RECORDS: [&str; 3] = [
    r#"
        <src="A1" dst="Internet" route="ToR-shared,CoreA"/>
        <hw="A1" type="CPU" dep="xeon-a"/>
        <pgm="Riak" hw="A1" dep="libc6,openssl,erlang"/>
    "#,
    r#"
        <src="B1" dst="Internet" route="ToR-shared,CoreB"/>
        <hw="B1" type="CPU" dep="xeon-b"/>
        <pgm="Mongo" hw="B1" dep="libc6,openssl,boost"/>
    "#,
    r#"
        <src="C1" dst="Internet" route="ToR-C,CoreC"/>
        <hw="C1" type="CPU" dep="xeon-c"/>
        <pgm="Redis" hw="C1" dep="libc6,jemalloc"/>
    "#,
];

/// Shards of every store these helpers open (the CLI's default).
pub const SHARDS: usize = 8;

/// A daemon serving on its own thread.
pub struct TestDaemon {
    pub addr: String,
    pub handle: JoinHandle<std::io::Result<()>>,
}

/// Binds a daemon over a fresh, empty [`SHARDS`]-shard store.
pub fn bind(config: ServeConfig) -> Server {
    let store = ShardedDepDb::new(SHARDS);
    Server::bind(config, store).expect("bind daemon")
}

/// Binds a provider daemon at `addr` ("127.0.0.1:0" = ephemeral) with
/// `records` pre-loaded (`allow` = peer allow-list, empty = open; the node
/// name is the bound address).
pub fn bind_daemon_at(addr: &str, records: &str, allow: &[String]) -> Server {
    let config = ServeConfig {
        addr: addr.into(),
        workers: 2,
        peers: allow.to_vec(),
        node: None,
        ..ServeConfig::default()
    };
    let store = ShardedDepDb::new(SHARDS);
    store.ingest(parse_records(records).expect("test records parse"));
    Server::bind(config, store).expect("bind daemon")
}

/// [`bind_daemon_at`] on an ephemeral port.
pub fn bind_daemon(records: &str, allow: &[String]) -> Server {
    bind_daemon_at("127.0.0.1:0", records, allow)
}

/// Runs `server` on a thread of its own.
pub fn boot(server: Server) -> TestDaemon {
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    TestDaemon { addr, handle }
}

/// [`bind_daemon`], booted.
pub fn boot_daemon(records: &str, allow: &[String]) -> TestDaemon {
    boot(bind_daemon(records, allow))
}

/// Shuts each daemon down over the wire and joins its thread.
pub fn shutdown(daemons: Vec<TestDaemon>) {
    for d in daemons {
        let mut c = Client::connect(&d.addr).expect("connect for shutdown");
        c.shutdown().expect("shutdown ack");
        d.handle.join().expect("server thread").expect("serve ok");
    }
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
