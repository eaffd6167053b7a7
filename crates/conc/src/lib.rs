//! `conc` — the workspace's sync abstraction layer, in the CDSChecker/loom
//! lineage of *stateless model checking*.
//!
//! Every concurrent component in this workspace (the
//! [`SamplerService`](../unigen/service/index.html) worker pool above all)
//! builds on the primitives in this crate instead of `std::sync` /
//! `std::thread` — a rule the repo lint (`cargo run -p xtask -- lint`)
//! enforces. The types mirror the `std` API exactly, and come with two
//! backends:
//!
//! * **Passthrough** (default): `#[inline]` newtypes over the `std`
//!   primitives. Zero cost — production builds compile to exactly the code
//!   they compiled to before the abstraction existed.
//! * **Model checking** (`feature = "model"`): every operation first asks a
//!   thread-local *execution context* whether the current thread is running
//!   under the controlled scheduler. If it is, the operation becomes a
//!   *schedule point*: the thread parks, and a deterministic controller
//!   decides which thread runs next. `model::check` then explores the
//!   tree of such decisions — depth-first, with seeded alternative
//!   ordering, a sleep-set (DPOR-style) reduction, and a bounded number of
//!   preemptions — and reports the first schedule that panics, deadlocks,
//!   loses a wakeup, reverses a lock order, or races on a
//!   `cell::CheckedCell`.
//!
//! Because the dispatch is per-thread and at runtime, model-checked tests
//! and ordinary tests coexist in one binary: a test calls
//! `model::check` with a closure, and only the threads spawned inside
//! that closure are controlled. Everything outside runs on the passthrough
//! path even when the feature is compiled in.
//!
//! # What the checker models (and what it does not)
//!
//! Schedule points are mutex lock/unlock, condvar wait/notify, spawn/join,
//! [`thread::yield_now`], and `cell::CheckedCell` accesses. Atomics are
//! tracked for happens-before (conservatively, as if every access were
//! acquire+release) but are **not** scheduling points by default — the
//! workspace only uses them for monotone counters that no control flow
//! branches on; set `model::Config::atomics_are_steps` to explore them
//! too. Weak memory is not modelled at all (every execution is sequentially
//! consistent), there are no scoped threads (every thread goes through
//! [`thread::spawn`]), and condvar waits never wake spuriously (waiters are
//! woken FIFO). These are the standard loom-lite trade-offs: the checker
//! proves *protocol* properties — slot accounting, wakeup chains, teardown
//! — not memory-ordering ones; the optional ThreadSanitizer CI lane covers
//! the latter.
//!
//! # Writing a model-checked test
//!
//! ```
//! # #[cfg(feature = "model")] {
//! use conc::sync::{Mutex, Condvar};
//! use std::sync::Arc;
//!
//! let report = conc::model::check(conc::model::Config::default(), || {
//!     let pair = Arc::new((Mutex::new(0u32), Condvar::new()));
//!     let p2 = Arc::clone(&pair);
//!     let t = conc::thread::spawn(move || {
//!         let (m, cv) = &*p2;
//!         *m.lock().unwrap() += 1;
//!         cv.notify_one();
//!     });
//!     let (m, cv) = &*pair;
//!     let mut g = m.lock().unwrap();
//!     while *g == 0 {
//!         g = cv.wait(g).unwrap();
//!     }
//!     drop(g);
//!     t.join().unwrap();
//! });
//! assert!(report.failure.is_none(), "{report}");
//! # }
//! ```
//!
//! The closure runs once per explored schedule, so everything it owns must
//! be (re)created inside it; sharing state across schedules through
//! captured `Arc`s defeats the exploration. `CONC_SCHEDULES`,
//! `CONC_PREEMPTIONS` and `CONC_SEED` tune `model::Config::from_env`.
//!
//! # Teardown discipline
//!
//! A `Drop` impl that joins threads must swallow join errors when
//! `std::thread::panicking()` — the same rule that avoids double-panic
//! aborts under plain `std` — because the checker tears failed executions
//! down by unwinding every controlled thread.

#![forbid(unsafe_code)]

pub mod atomic;
pub mod sync;
pub mod thread;

#[cfg(feature = "model")]
pub mod cell;
#[cfg(feature = "model")]
pub mod model;

#[cfg(feature = "model")]
pub(crate) mod rt;
