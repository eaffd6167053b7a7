//! `unigen-net` — dependency-free network serving for the UniGen
//! sampler service (DAC 2014 reproduction).
//!
//! The crate turns the in-process [`unigen::SamplerService`] into a
//! daemon on blocking std sockets: one accept thread per TCP or
//! unix-domain listener, one reader thread per connection and one thread
//! per request, all sampling on one shared work-stealing pool and
//! speaking a versioned length-prefixed binary protocol ([`wire`]).
//! Per-connection state (the write lock every frame goes out under,
//! cancellation flags, the dispatch protocol) lives in [`conn`] and is
//! built exclusively on `conc` primitives, so the same code paths are
//! model-checked in `tests/model_conn.rs` under the `conc` controlled
//! scheduler.
//!
//! Entry points: [`server::serve`] / [`server::ServeConfig`] for
//! embedding the daemon, [`client::Client`] for talking to one, and the
//! `unigen_cli` binary (`serve` / `client` subcommands) for the shell.
//!
//! Determinism contract (verified end to end in
//! `tests/serve_end_to_end.rs` and the CI serve-smoke step): for a
//! fixed `(formula, spec, count, master_seed)`, the witness sequence a
//! client receives over the wire is bit-identical to
//! `WitnessSampler::sample_batch` run in-process — per request, at any
//! concurrency. Inter-client frame ordering is explicitly *not*
//! deterministic; see the [`wire`] module docs.

#![forbid(unsafe_code)]

pub mod client;
pub mod conn;
pub mod fuzz;
pub mod server;
pub mod wire;

pub use client::{Client, ClientError, ClientRequest, WireBatch, WireOutcome};
pub use server::{serve, NetError, ServeConfig, ServerHandle};
pub use wire::{Decoder, ErrorCode, Frame, FrameError, PROTOCOL_VERSION};
