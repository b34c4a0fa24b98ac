//! A minimal readiness-polling shim over Linux `epoll`, in the spirit
//! of the repo's other zero-dependency vendored crates: no `libc`
//! crate, no `mio` — just thin `extern "C"` declarations against the
//! symbols the C runtime already links (`epoll_create1`, `epoll_ctl`,
//! `epoll_wait`, `eventfd`, `close`, `read`, `write`).
//!
//! The daemon's readiness loop drives every client connection through
//! one [`Poller`]; worker threads that finish an audit wake the loop
//! through a [`Waker`] (an `eventfd` registered like any other fd), and
//! deadlines and backoffs come due through the [`TimerWheel`] whose
//! next deadline bounds the `epoll_wait` timeout.
//!
//! Level-triggered only. The loop re-reads until `WouldBlock`, so
//! level semantics cost a spurious wakeup at worst, never a lost event.
//!
//! Outbound sockets start with [`connect_nonblocking`]: the loop
//! registers the connecting socket for writability and reads the
//! handshake's outcome back with [`TcpStream::take_error`] — a dial never
//! parks the loop thread.

#![cfg(target_os = "linux")]

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::{FromRawFd, RawFd};
use std::time::Duration;

mod timer;
pub use timer::{TimerId, TimerWheel};

#[allow(non_camel_case_types)]
type c_int = i32;

// The C runtime is already linked by std on Linux; these are the only
// symbols the shim borrows from it.
extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: u32, flags: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
    fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
    fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    // Bound under another name so a call site reads as what it is here:
    // a connect on a `SOCK_NONBLOCK` socket, which returns at once.
    #[link_name = "connect"]
    fn connect_raw(fd: c_int, addr: *const u8, len: u32) -> c_int;
}

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

const AF_INET: u16 = 2;
const AF_INET6: u16 = 10;
const SOCK_STREAM: c_int = 1;
const SOCK_NONBLOCK: c_int = 0o4000;
const SOCK_CLOEXEC: c_int = 0o2000000;
const EINPROGRESS: i32 = 115;

/// The kernel ABI struct. x86 packs it so the 64-bit data field sits
/// directly after the 32-bit mask; other architectures keep natural
/// alignment — mirroring glibc's declaration exactly.
#[repr(C)]
#[cfg_attr(any(target_arch = "x86_64", target_arch = "x86"), repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// What a registration wants to be woken for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the fd accepts more bytes.
    pub writable: bool,
}

impl Interest {
    /// Readable only — the steady state of an idle connection.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Writable only (read side paused for backpressure).
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Both directions — a connection with queued output.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };

    fn mask(self) -> u32 {
        let mut m = EPOLLRDHUP;
        if self.readable {
            m |= EPOLLIN;
        }
        if self.writable {
            m |= EPOLLOUT;
        }
        m
    }
}

/// One readiness notification: the registered token plus what changed.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// Bytes (or a hangup) are waiting to be read.
    pub readable: bool,
    /// The socket accepts more bytes.
    pub writable: bool,
    /// Error or hangup: the connection should be torn down after a
    /// final read drains whatever the peer managed to send.
    pub closed: bool,
}

/// An epoll instance. All registration and waiting happens on the loop
/// thread; other threads interact only through a [`Waker`].
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// A fresh epoll instance (close-on-exec).
    ///
    /// # Errors
    ///
    /// Propagates `epoll_create1` failure.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: plain syscall wrapper, no pointers involved.
        let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest.mask(),
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) })?;
        Ok(())
    }

    /// Registers `fd` under `token`.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failure (e.g. an already-registered fd).
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Re-arms an existing registration with a new interest set.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failure.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Removes a registration. Safe to call for fds about to close.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failure (other than for unknown fds,
    /// which callers treat as already-deregistered).
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        let mut ev = EpollEvent { events: 0, data: 0 };
        // Pre-2.6.9 kernels demanded a non-null event even for DEL;
        // passing one costs nothing and never hurts.
        cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) })?;
        Ok(())
    }

    /// Blocks until at least one registered fd is ready or `timeout`
    /// elapses (`None` waits forever), filling `events`. Returns the
    /// number of events delivered; 0 means the timeout fired.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_wait` failure. `EINTR` is retried internally —
    /// a signal never surfaces as a spurious error.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        events.clear();
        const CAP: usize = 256;
        let mut raw = [EpollEvent { events: 0, data: 0 }; CAP];
        let timeout_ms: c_int = match timeout {
            None => -1,
            // Round up so a 100µs deadline does not spin at timeout 0.
            Some(d) => {
                let ms = d
                    .as_millis()
                    .saturating_add(u128::from(d.subsec_nanos() % 1_000_000 != 0));
                c_int::try_from(ms).unwrap_or(c_int::MAX)
            }
        };
        let n = loop {
            // SAFETY: `raw` is a valid buffer of CAP events for the call.
            let ret = unsafe { epoll_wait(self.epfd, raw.as_mut_ptr(), CAP as c_int, timeout_ms) };
            if ret >= 0 {
                break ret as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        for e in &raw[..n] {
            let mask = e.events;
            events.push(Event {
                token: e.data,
                readable: mask & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                writable: mask & EPOLLOUT != 0,
                closed: mask & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
            });
        }
        Ok(n)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: the fd is owned by this struct and closed exactly once.
        unsafe { close(self.epfd) };
    }
}

/// Wakes a [`Poller`] from any thread: an `eventfd` registered under a
/// caller-chosen token. Cheap (one 8-byte write), coalescing (N wakes
/// before the loop drains count as one), and safe to call after the
/// loop exited (the write fails silently into a closed pipe at worst).
pub struct Waker {
    fd: RawFd,
}

impl Waker {
    /// Creates the eventfd and registers it with `poller` under `token`
    /// (readable interest; the loop calls [`Waker::drain`] when the
    /// token fires).
    ///
    /// # Errors
    ///
    /// Propagates `eventfd`/`epoll_ctl` failure.
    pub fn new(poller: &Poller, token: u64) -> io::Result<Waker> {
        // SAFETY: plain syscall wrapper.
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        if let Err(e) = poller.add(fd, token, Interest::READABLE) {
            // SAFETY: fd was just created and is not shared.
            unsafe { close(fd) };
            return Err(e);
        }
        Ok(Waker { fd })
    }

    /// Wakes the poller. Never blocks: at worst the counter saturates,
    /// which still leaves the fd readable.
    pub fn wake(&self) {
        let one: u64 = 1;
        // SAFETY: writes 8 bytes from a live stack value.
        unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
    }

    /// Consumes pending wakeups so the (level-triggered) fd goes quiet
    /// until the next [`Waker::wake`].
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        // SAFETY: reads at most 8 bytes into a live stack buffer. An
        // eventfd read resets the counter, so one read suffices.
        unsafe { read(self.fd, buf.as_mut_ptr(), 8) };
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        // SAFETY: the fd is owned by this struct and closed exactly once.
        unsafe { close(self.fd) };
    }
}

// SAFETY: the wrapped fd is just an integer; eventfd writes are
// thread-safe by contract.
unsafe impl Send for Waker {}
unsafe impl Sync for Waker {}

/// Starts a TCP connect to `addr` without blocking: a fresh
/// `SOCK_NONBLOCK` socket whose `connect(2)` answers `EINPROGRESS`.
/// Register it for writability; once it fires, [`TcpStream::take_error`]
/// says whether the handshake succeeded.
///
/// # Errors
///
/// `socket(2)` failure, or a `connect(2)` refused outright.
pub fn connect_nonblocking(addr: &SocketAddr) -> io::Result<TcpStream> {
    // `struct sockaddr_in` / `sockaddr_in6`: family in host order, port
    // and flow info in network order, scope id in host order.
    let (family, tail) = match addr {
        SocketAddr::V4(a) => (AF_INET, [&a.ip().octets()[..], &[0; 8]].concat()),
        SocketAddr::V6(a) => (
            AF_INET6,
            [
                &a.flowinfo().to_be_bytes()[..],
                &a.ip().octets(),
                &a.scope_id().to_ne_bytes(),
            ]
            .concat(),
        ),
    };
    let raw = [&family.to_ne_bytes()[..], &addr.port().to_be_bytes(), &tail].concat();
    let ty = SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC;
    // SAFETY: plain syscall wrapper.
    let fd = cvt(unsafe { socket(c_int::from(family), ty, 0) })?;
    // SAFETY: `fd` is a fresh socket owned by nothing else; the stream
    // closes it on drop.
    let stream = unsafe { TcpStream::from_raw_fd(fd) };
    // SAFETY: `raw` is a complete sockaddr of `raw.len()` bytes that
    // outlives the call; the kernel copies it.
    if unsafe { connect_raw(fd, raw.as_ptr(), raw.len() as u32) } < 0 {
        let err = io::Error::last_os_error();
        if err.raw_os_error() != Some(EINPROGRESS) {
            return Err(err);
        }
    }
    Ok(stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn waker_wakes_an_idle_poll() {
        let poller = Poller::new().unwrap();
        let waker = Arc::new(Waker::new(&poller, 7).unwrap());
        let w = Arc::clone(&waker);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            w.wake();
        });
        let mut events = Vec::new();
        let started = Instant::now();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        assert!(started.elapsed() < Duration::from_secs(5));
        waker.drain();
        // Drained: a short wait now times out quietly.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert_eq!(n, 0);
        t.join().unwrap();
    }

    #[test]
    fn socket_readability_and_writability() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller
            .add(server.as_raw_fd(), 42, Interest::READABLE)
            .unwrap();
        let mut events = Vec::new();
        // Nothing sent yet: timeout.
        assert_eq!(
            poller
                .wait(&mut events, Some(Duration::from_millis(20)))
                .unwrap(),
            0
        );
        client.write_all(b"ping").unwrap();
        assert_eq!(poller.wait(&mut events, None).unwrap(), 1);
        assert_eq!(events[0].token, 42);
        assert!(events[0].readable && !events[0].closed);

        // Re-arm for writes too: a fresh socket is instantly writable.
        poller
            .modify(server.as_raw_fd(), 42, Interest::BOTH)
            .unwrap();
        assert!(poller.wait(&mut events, None).unwrap() >= 1);
        assert!(events.iter().any(|e| e.writable));

        // Peer hangup surfaces as closed+readable.
        drop(client);
        poller
            .modify(server.as_raw_fd(), 42, Interest::READABLE)
            .unwrap();
        poller.wait(&mut events, None).unwrap();
        assert!(events.iter().any(|e| e.closed));
        let mut sink = [0u8; 16];
        let mut s = &server;
        assert_eq!(s.read(&mut sink).unwrap(), 4);

        poller.delete(server.as_raw_fd()).unwrap();
    }

    #[test]
    fn nonblocking_connect_settles_through_the_poller() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let poller = Poller::new().unwrap();
        let mut events = Vec::new();
        let stream = connect_nonblocking(&listener.local_addr().unwrap()).unwrap();
        poller
            .add(stream.as_raw_fd(), 3, Interest::WRITABLE)
            .unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 3 && e.writable));
        assert!(stream.take_error().unwrap().is_none(), "connected");
        let (mut server, _) = listener.accept().unwrap();
        (&stream).write_all(b"hi").unwrap();
        let mut got = [0u8; 2];
        server.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"hi");
        poller.delete(stream.as_raw_fd()).unwrap();

        // A port nobody listens on: refused, immediately or via take_error.
        let closed = listener.local_addr().unwrap();
        drop((listener, server));
        if let Ok(stream) = connect_nonblocking(&closed) {
            poller
                .add(stream.as_raw_fd(), 4, Interest::WRITABLE)
                .unwrap();
            poller
                .wait(&mut events, Some(Duration::from_secs(10)))
                .unwrap();
            assert!(events.iter().any(|e| e.token == 4));
            assert!(stream.take_error().unwrap().is_some(), "refused");
        }
    }

    #[test]
    fn deleted_fd_stops_reporting() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        let poller = Poller::new().unwrap();
        poller
            .add(server.as_raw_fd(), 1, Interest::READABLE)
            .unwrap();
        poller.delete(server.as_raw_fd()).unwrap();
        client.write_all(b"x").unwrap();
        let mut events = Vec::new();
        assert_eq!(
            poller
                .wait(&mut events, Some(Duration::from_millis(30)))
                .unwrap(),
            0
        );
    }
}
