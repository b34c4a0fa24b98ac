//! The clean tree's caller: every `pub` item the service fixtures
//! declare is driven from here, so none of them is test-only.

use service::locks::Store;
use service::netloop::Loop;
use service::panics::explode;
use service::server::fire;

fn drive(event_loop: &Loop, store: &Store) -> u32 {
    fire();
    store.double_acquire(vec![1, 0]);
    store.alpha_then_beta();
    store.also_alpha_then_beta();
    event_loop.run_loop();
    explode(&[7], "3")
}

fn main() {
    let _ = drive;
}
