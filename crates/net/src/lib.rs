//! Real TCP serving tier for the webmm native harness.
//!
//! The in-process harness (`webmm-server`) measures the paper's
//! allocator families with generators calling straight into the ingress
//! queue. This crate puts an actual network between load and service —
//! the deployment shape the paper studies (web/PHP front-ends feeding
//! multicore servers) — without changing what is measured behind the
//! queue:
//!
//! * [`frame`] — a compact length-prefixed binary wire protocol:
//!   submit requests carrying a transaction's ops, ping/goodbye, typed
//!   status responses mapping the queue's
//!   [`Admission`](webmm_server::Admission) outcomes (the 429-equivalent
//!   back-pressure signal), and an incremental decoder that treats every
//!   malformed input as a typed error, never a panic.
//! * [`listener`] ([`NetServer`]) — acceptor + fixed handler pool with
//!   keep-alive, idle timeouts, per-connection buffer reuse, and a
//!   graceful drain that preserves `submitted == completed + shed`
//!   end-to-end ([`NetReport::reconciles`]).
//! * [`client`] ([`run_client`]) — a load generator speaking the same
//!   protocol: N persistent connections shipping the transactions of one
//!   [`TxFactory`](webmm_server::TxFactory), closed- and open-loop
//!   schedules, request timeouts, bounded-backoff reconnect, and
//!   client-side log2 latency histograms.
//!
//! Everything is `std`-only blocking I/O: under the `Block` admission
//! policy, queue back-pressure propagates to clients through TCP flow
//! control itself; under `Reject`/`ShedOldest` it travels back as an
//! explicit [`Status`] response.
//!
//! # Quick start
//!
//! ```
//! use webmm_net::{run_client, NetClientConfig, NetServer, NetServerConfig};
//! use webmm_server::{Server, ServerConfig, TxFactory};
//! use webmm_workload::phpbb;
//!
//! let server = Server::start(ServerConfig {
//!     workers: 2,
//!     static_bytes: 1 << 16,
//!     ..ServerConfig::default()
//! });
//! let net = NetServer::bind(server, "127.0.0.1:0", NetServerConfig::default())?;
//! let report = run_client(
//!     net.local_addr(),
//!     TxFactory::new(phpbb(), 1024, 42),
//!     &NetClientConfig {
//!         connections: 2,
//!         requests: 50,
//!         ..NetClientConfig::default()
//!     },
//! );
//! assert_eq!(report.accepted, 50);
//! let tier = net.finish();
//! assert!(tier.reconciles());
//! assert_eq!(tier.server.completed, report.accepted);
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(clippy::pedantic)]
#![allow(
    clippy::module_name_repetitions,
    clippy::cast_possible_truncation,
    // Rates and latency summaries: u64 counters into f64 is intended.
    clippy::cast_precision_loss
)]

pub mod client;
mod conn;
pub mod frame;
pub mod listener;

pub use client::{backoff_delay, run_client, ClientReport, LoadMode, NetClientConfig};
pub use frame::{encode, Decoder, Frame, FrameError, Status, TxBody};
pub use listener::{NetReport, NetServer, NetServerConfig};
