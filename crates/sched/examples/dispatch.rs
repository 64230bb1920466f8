//! Round-trip cost of an empty pool phase, warm and parked.
//!
//! ```text
//! cargo run --release -p grazelle-sched --example dispatch -- [threads]
//! ```
//!
//! *Warm*: back-to-back phases, as the dense supersteps issue them (the
//! benchmark's `sched.dispatch_us` times the same round trip). *Parked*:
//! each phase follows 5 ms of idleness, so the helpers have gone to sleep
//! on the job condvar — the state the driver's sparse supersteps leave the
//! pool in. These are the per-phase costs the inline cutoffs of
//! `grazelle_core::spmv::spa` and `engine::vertex` are derived from.

use grazelle_sched::ThreadPool;
use std::time::{Duration, Instant};

fn quartiles(mut us: Vec<f64>) -> [f64; 3] {
    us.sort_by(f64::total_cmp);
    [0.25, 0.5, 0.75].map(|q| us[((us.len() - 1) as f64 * q) as usize])
}

fn main() {
    let threads = std::env::args()
        .nth(1)
        .map_or(2, |s| s.parse().expect("threads must be a number"));
    let pool = ThreadPool::single_group(threads);
    let round_trip = || {
        let t = Instant::now();
        std::hint::black_box(pool.run_tasks(vec![(); threads], |_, ()| ()));
        t.elapsed().as_secs_f64() * 1e6
    };
    for _ in 0..200 {
        round_trip();
    }
    let warm = (0..2000).map(|_| round_trip()).collect();
    let parked = (0..300)
        .map(|_| {
            std::thread::sleep(Duration::from_millis(5));
            round_trip()
        })
        .collect();
    for (state, us) in [("warm", warm), ("parked", parked)] {
        let [q1, med, q3] = quartiles(us);
        println!("{threads} threads, {state:6}: median {med:.1} us (quartiles {q1:.1}-{q3:.1})");
    }
}
