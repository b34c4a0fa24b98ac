pub mod blocking;
pub mod lockorder;
pub mod panicpath;
pub mod registry;
pub mod testonly;
