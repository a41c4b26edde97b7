//! # chull-net
//!
//! The std-only networking substrate for the hull server's event-loop
//! front end: readiness polling, non-blocking byte queues, incremental
//! framing and a slab keyed by poller tokens. No external crates — the
//! epoll/eventfd/poll bindings are declared by hand in [`sys`], the
//! same way the repo hand-rolled its RNG, task pool and hasher.
//!
//! Layers (each usable alone):
//!
//! * [`poller`](mod@poller) — [`Poller`] trait over level-triggered
//!   epoll (Linux) with a portable `poll(2)` fallback, plus an
//!   eventfd [`Waker`] for cross-thread wakeups;
//! * [`buf`] — [`ByteBuf`], the per-connection FIFO with
//!   amortized-O(1) consume and burst-allocation release;
//! * [`frame`] — [`FrameDecoder`], incremental
//!   length-prefixed frame reassembly (the wire format of
//!   `chull-service`), tracking partial frames for deadline reaping;
//! * [`slab`] — [`Slab`], stable keys for connection state.
//!
//! The reactor built on these lives in `chull-service::event_server`;
//! [`raise_nofile_limit`] lets `hull serve` hold tens of thousands of
//! client connections (the workspace's `tests/fanin.rs` opens 10 000).

#![warn(missing_docs)]
#![cfg(unix)]

pub mod buf;
pub mod frame;
pub mod poller;
pub mod slab;
pub mod sys;

pub use buf::ByteBuf;
pub use frame::{encode_frame_into, FrameDecoder, FrameError};
pub use poller::{poller, Event, Interest, Poller, Token};
#[cfg(target_os = "linux")]
pub use poller::{Epoll, Waker};
pub use slab::Slab;
pub use sys::raise_nofile_limit;
