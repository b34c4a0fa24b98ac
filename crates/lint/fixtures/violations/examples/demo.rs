//! An example is a real caller.

fn main() {
    println!("{}", pia::oracle::driven_by_example());
}
