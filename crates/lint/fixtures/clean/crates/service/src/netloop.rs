//! The annotated equivalent of the seeded blocking_in_loop violations:
//! same code, each site carrying a reasoned allow.

use std::net::ToSocketAddrs;

pub struct Loop {
    queue: std::sync::Mutex<Vec<u32>>,
}

impl Loop {
    pub fn run_loop(&self) {
        loop {
            self.drain_once();
        }
    }

    fn drain_once(&self) {
        // lint:allow(blocking_in_loop) -- fixture: the pause is deliberate and bounded
        std::thread::sleep(std::time::Duration::from_millis(5));
        // lint:allow(blocking_in_loop) -- fixture: short critical section, never held across IO
        if let Ok(mut q) = self.queue.lock() {
            q.clear();
        }
        self.admit_peer("peer.example:4914");
    }

    fn admit_peer(&self, node: &str) -> bool {
        // lint:allow(blocking_in_loop) -- fixture: a literal address, parsed without the resolver
        node.to_socket_addrs().is_ok()
    }
}
