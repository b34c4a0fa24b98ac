//! Seeded blocking_in_loop violations: a sleep, a denied-class lock
//! acquisition and a resolver lookup, all reachable from a readiness-loop
//! root fn.

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
        std::thread::sleep(std::time::Duration::from_millis(5));
        if let Ok(mut q) = self.queue.lock() {
            q.clear();
        }
        self.admit_peer("peer.example:4914");
    }

    fn admit_peer(&self, node: &str) -> bool {
        node.to_socket_addrs().is_ok()
    }
}
