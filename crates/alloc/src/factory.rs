//! Allocator registry: build any of the paper's allocators by name.

use crate::api::{AllocError, AllocTraits, Allocator, Footprint, OpStats};
use crate::ddmalloc::{DdConfig, DdMalloc};
use crate::dl::{DlAlloc, DlConfig};
use crate::hoard::{HoardAlloc, HoardConfig};
use crate::obstack::{ObstackAlloc, ObstackConfig};
use crate::php_default::{PhpConfig, PhpDefaultAlloc};
use crate::reaps::{ReapAlloc, ReapConfig};
use crate::region::{RegionAlloc, RegionConfig};
use crate::tcmalloc::{TcAlloc, TcConfig};
use webmm_obs::{HeapSnapshot, HeapTelemetry};
use webmm_sim::{Addr, CodeSpec, MemoryPort};

/// Every allocator studied in the paper, as a buildable enum.
///
/// # One heap, one thread
///
/// The paper's serving model is *process-per-worker*: each PHP/Ruby worker
/// owns a private heap and never shares allocator state (§2.1). The
/// allocators here mirror that — none of them is internally synchronized,
/// so a built allocator must only ever be driven from one thread at a
/// time. Handing a whole heap *to* a thread is fine and is the intended
/// pattern for native execution: `AllocatorKind` is `Copy + Send`, and the
/// [`Heap`] that [`AllocatorKind::build`] returns is `Send` by
/// construction, because no allocator in this crate keeps
/// `Rc`/`RefCell`/raw-pointer state. What is *not* supported is two
/// threads calling into the same allocator concurrently; nothing hands
/// out `Sync` access, so the compiler rejects that too.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, serde::Serialize)]
pub enum AllocatorKind {
    /// The paper's contribution: the defrag-dodging DDmalloc (§3).
    DdMalloc,
    /// 256 MB-chunk bump allocator without per-object free (§4.1).
    Region,
    /// GNU-obstack-style chunked region allocator (§4.1).
    Obstack,
    /// The default (Zend-style) allocator of the PHP runtime (§2.2).
    PhpDefault,
    /// Doug-Lea-style glibc malloc (§4.4).
    Dl,
    /// Hoard 3.7-style superblock allocator (§4.4).
    Hoard,
    /// TCmalloc-style thread-caching allocator (§4.4).
    TcMalloc,
    /// Reaps-style region-with-malloc/free allocator (§6 related work).
    Reaps,
}

impl AllocatorKind {
    /// The three allocators of the main PHP study (Figures 1 and 5-9,
    /// Tables 3-4), in the paper's presentation order.
    pub const PHP_STUDY: [AllocatorKind; 3] = [
        AllocatorKind::PhpDefault,
        AllocatorKind::Region,
        AllocatorKind::DdMalloc,
    ];

    /// The four allocators of the Ruby on Rails study (Figures 10-12).
    pub const RUBY_STUDY: [AllocatorKind; 4] = [
        AllocatorKind::Dl,
        AllocatorKind::Hoard,
        AllocatorKind::TcMalloc,
        AllocatorKind::DdMalloc,
    ];

    /// All allocators in this crate.
    pub const ALL: [AllocatorKind; 8] = [
        AllocatorKind::PhpDefault,
        AllocatorKind::Region,
        AllocatorKind::Obstack,
        AllocatorKind::DdMalloc,
        AllocatorKind::Dl,
        AllocatorKind::Hoard,
        AllocatorKind::TcMalloc,
        AllocatorKind::Reaps,
    ];

    /// Builds the allocator with default configuration, tagged with the
    /// simulated process id `pid` (used by DDmalloc's metadata-placement
    /// optimization; ignored by the others).
    pub fn build(self, pid: u32) -> Heap {
        match self {
            AllocatorKind::DdMalloc => Heap::DdMalloc(DdMalloc::new(DdConfig {
                pid,
                ..DdConfig::default()
            })),
            AllocatorKind::Region => Heap::Region(RegionAlloc::new(RegionConfig::default())),
            AllocatorKind::Obstack => Heap::Obstack(ObstackAlloc::new(ObstackConfig::default())),
            AllocatorKind::PhpDefault => {
                Heap::PhpDefault(PhpDefaultAlloc::new(PhpConfig::default()))
            }
            AllocatorKind::Dl => Heap::Dl(DlAlloc::new(DlConfig::default())),
            AllocatorKind::Hoard => Heap::Hoard(Box::new(HoardAlloc::new(HoardConfig::default()))),
            AllocatorKind::TcMalloc => Heap::TcMalloc(Box::new(TcAlloc::new(TcConfig::default()))),
            AllocatorKind::Reaps => Heap::Reaps(ReapAlloc::new(ReapConfig::default())),
        }
    }

    /// Builds a DDmalloc with an explicit configuration (ablation studies).
    pub fn build_dd(config: DdConfig) -> Heap {
        Heap::DdMalloc(DdMalloc::new(config))
    }

    /// Short stable identifier (for CLI arguments and JSON output).
    pub fn id(self) -> &'static str {
        match self {
            AllocatorKind::DdMalloc => "ddmalloc",
            AllocatorKind::Region => "region",
            AllocatorKind::Obstack => "obstack",
            AllocatorKind::PhpDefault => "php-default",
            AllocatorKind::Dl => "glibc",
            AllocatorKind::Hoard => "hoard",
            AllocatorKind::TcMalloc => "tcmalloc",
            AllocatorKind::Reaps => "reaps",
        }
    }

    /// Parses an id produced by [`AllocatorKind::id`].
    pub fn from_id(id: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.id() == id)
    }
}

impl std::fmt::Display for AllocatorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

/// One built allocator of any kind: what [`AllocatorKind::build`] returns.
///
/// A closed enum rather than a `Box<dyn Allocator>`: every [`Allocator`]
/// method is generic over its [`MemoryPort`], so a call through `Heap` is
/// one `match` followed by a direct, inlinable call into the concrete
/// allocator monomorphized for the caller's port. The native executor
/// (`PlainPort`) and the simulator (`ContextPort`) each get their own
/// copy of every fast path, with no virtual call per metadata access.
#[derive(Debug)]
pub enum Heap {
    /// [`AllocatorKind::DdMalloc`].
    DdMalloc(DdMalloc),
    /// [`AllocatorKind::Region`].
    Region(RegionAlloc),
    /// [`AllocatorKind::Obstack`].
    Obstack(ObstackAlloc),
    /// [`AllocatorKind::PhpDefault`].
    PhpDefault(PhpDefaultAlloc),
    /// [`AllocatorKind::Dl`].
    Dl(DlAlloc),
    /// [`AllocatorKind::Hoard`], boxed like `TcMalloc`.
    Hoard(Box<HoardAlloc>),
    /// [`AllocatorKind::TcMalloc`], boxed: the Ruby-study baselines carry
    /// inline per-class tables that would otherwise set every heap's size.
    TcMalloc(Box<TcAlloc>),
    /// [`AllocatorKind::Reaps`].
    Reaps(ReapAlloc),
}

/// Runs `$body` with `$a` bound to the concrete allocator inside `$heap`.
macro_rules! dispatch {
    ($heap:expr, $a:ident => $body:expr) => {
        match $heap {
            Heap::DdMalloc($a) => $body,
            Heap::Region($a) => $body,
            Heap::Obstack($a) => $body,
            Heap::PhpDefault($a) => $body,
            Heap::Dl($a) => $body,
            Heap::Hoard($a) => $body,
            Heap::TcMalloc($a) => $body,
            Heap::Reaps($a) => $body,
        }
    };
}

impl HeapTelemetry for Heap {
    fn heap_snapshot(&self) -> HeapSnapshot {
        dispatch!(self, a => a.heap_snapshot())
    }
}

impl Allocator for Heap {
    fn name(&self) -> &'static str {
        dispatch!(self, a => a.name())
    }

    fn alloc_traits(&self) -> AllocTraits {
        dispatch!(self, a => a.alloc_traits())
    }

    fn code_spec(&self) -> CodeSpec {
        dispatch!(self, a => a.code_spec())
    }

    fn malloc<P: MemoryPort + ?Sized>(
        &mut self,
        port: &mut P,
        size: u64,
    ) -> Result<Addr, AllocError> {
        dispatch!(self, a => a.malloc(port, size))
    }

    fn free<P: MemoryPort + ?Sized>(&mut self, port: &mut P, addr: Addr) {
        dispatch!(self, a => a.free(port, addr))
    }

    fn realloc<P: MemoryPort + ?Sized>(
        &mut self,
        port: &mut P,
        addr: Addr,
        old_size: u64,
        new_size: u64,
    ) -> Result<Addr, AllocError> {
        dispatch!(self, a => a.realloc(port, addr, old_size, new_size))
    }

    fn free_all<P: MemoryPort + ?Sized>(&mut self, port: &mut P) {
        dispatch!(self, a => a.free_all(port))
    }

    fn footprint(&self) -> Footprint {
        dispatch!(self, a => a.footprint())
    }

    fn stats(&self) -> OpStats {
        dispatch!(self, a => a.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webmm_sim::PlainPort;

    #[test]
    fn every_kind_builds_and_allocates() {
        for kind in AllocatorKind::ALL {
            let mut a = kind.build(3);
            let mut port = PlainPort::new();
            let x = a
                .malloc(&mut port, 100)
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert!(!x.is_null());
            if a.alloc_traits().per_object_free {
                a.free(&mut port, x);
            }
            if a.alloc_traits().bulk_free {
                a.free_all(&mut port);
            }
            assert_eq!(a.stats().mallocs, 1);
        }
    }

    #[test]
    fn id_roundtrip() {
        for kind in AllocatorKind::ALL {
            assert_eq!(AllocatorKind::from_id(kind.id()), Some(kind));
        }
        assert_eq!(AllocatorKind::from_id("nonsense"), None);
    }

    #[test]
    fn study_sets_match_paper() {
        assert_eq!(AllocatorKind::PHP_STUDY.len(), 3);
        assert_eq!(AllocatorKind::RUBY_STUDY.len(), 4);
        // Every PHP-study allocator supports bulk free; the Ruby-study
        // baselines (all but DDmalloc) do not.
        for k in AllocatorKind::PHP_STUDY {
            assert!(k.build(0).alloc_traits().bulk_free, "{k}");
        }
        for k in AllocatorKind::RUBY_STUDY {
            if k != AllocatorKind::DdMalloc {
                assert!(!k.build(0).alloc_traits().bulk_free, "{k}");
            }
        }
    }

    #[test]
    fn names_match_paper_figures() {
        assert_eq!(AllocatorKind::DdMalloc.build(0).name(), "our DDmalloc");
        assert_eq!(
            AllocatorKind::Region.build(0).name(),
            "region-based allocator"
        );
        assert_eq!(
            AllocatorKind::PhpDefault.build(0).name(),
            "default allocator of the PHP runtime"
        );
        assert_eq!(AllocatorKind::Dl.build(0).name(), "glibc");
    }
}
