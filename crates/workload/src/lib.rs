//! # webmm-workload: transaction-scoped allocation workloads
//!
//! Synthetic but statistically faithful reproductions of the workloads in
//! *"A Study of Memory Management for Web-based Applications on Multicore
//! Processors"* (PLDI 2009): the six PHP applications of Table 2 (MediaWiki
//! in two scenarios, SugarCRM, eZ Publish, phpBB, CakePHP, plus
//! SPECweb2005) and the Ruby on Rails application of §4.4.
//!
//! Each workload is parameterized directly from the paper's Table 3 —
//! malloc/free/realloc calls per transaction and mean allocation size —
//! plus a lifetime model in which most objects die young (per-object free,
//! LIFO-biased) and the rest live until the transaction-end `freeAll`.
//! A [`TxStream`] turns a [`WorkloadSpec`] into a deterministic, endless
//! sequence of [`WorkOp`]s that the runtime replays against any allocator.
//!
//! ## Example
//!
//! ```
//! use webmm_workload::{phpbb, TxStream, WorkOp};
//!
//! let mut stream = TxStream::new(phpbb(), 32, 1);
//! let mut mallocs = 0;
//! loop {
//!     match stream.next_op() {
//!         WorkOp::Malloc { .. } => mallocs += 1,
//!         WorkOp::EndTx => break,
//!         _ => {}
//!     }
//! }
//! assert_eq!(mallocs as u64, stream.tx_ticks());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod objtable;
mod sizes;
mod spec;
mod stream;

pub use objtable::ObjectTable;
pub use sizes::SizeSampler;
pub use spec::{
    by_name, cakephp, ez_publish, mediawiki_read, mediawiki_rw, php_workloads, phpbb, rails,
    specweb, sugarcrm, WorkloadSpec,
};
pub use stream::{StreamStats, TxStream, WorkOp};
