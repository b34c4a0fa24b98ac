//! A raw protocol-v1 line session: one JSON request per line out, one
//! response line back, over a plain `TcpStream`. Line mode exists to be
//! driven by hand (`nc`, a few lines of any language), so the suites
//! drive it the same way instead of through a client type.

// Each suite compiles its own copy and uses a subset of it.
#![allow(dead_code)]

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use indaas::service::proto::{decode_line, encode_line};
use indaas::service::{Request, Response};

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
}
