//! The one op interpreter. As the paper's runtime drives one stream into
//! every allocator (§3–4), the simulated [`Process`](crate::Process) (op by
//! op on a `ContextPort`) and `webmm-server`'s native worker (whole
//! transactions on a `PlainPort`) run [`WorkOp`]s through this one loop,
//! monomorphized per port and per [`AppCode`], each with its own [`EndTx`]
//! policy.

use webmm_alloc::{AllocError, Allocator, Heap};
use webmm_sim::{Addr, Category, CodeRegionId, MemoryPort};
use webmm_workload::{ObjectTable, WorkOp};

/// What the end of a transaction does with the objects still live. Each
/// caller picks one when it builds the interpreter; it is not a setting.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum EndTx {
    /// A simulated runtime process: `freeAll` if the runtime calls it and
    /// the heap has bulk free; otherwise survivors stay live.
    KeepSurvivors {
        /// Whether the runtime calls `freeAll` (§4.4's Ruby does not).
        free_all: bool,
    },
    /// A native worker: `freeAll` where the heap has it, otherwise each
    /// survivor is freed, because the next transaction may run on another
    /// worker. Later ops naming a swept object are orphans.
    EmptyHeap,
}

/// The application's code as a port sees it: a [`CodeRegionId`] where the
/// port models instruction fetch, `()` where it does not, so that the
/// native loop pays nothing for the switch.
pub trait AppCode: Copy {
    /// Switches `port` to the application's category and code region
    /// (allocators restore the category on exit, not the region).
    fn enter<P: MemoryPort>(self, port: &mut P);
}

impl AppCode for CodeRegionId {
    #[inline]
    fn enter<P: MemoryPort>(self, port: &mut P) {
        port.set_category(Category::Application);
        port.set_code_region(self);
    }
}

impl AppCode for () {
    #[inline]
    fn enter<P: MemoryPort>(self, _: &mut P) {}
}

/// One heap serving [`WorkOp`]s, with a dense table of its live objects
/// (workload id → address and current size).
#[derive(Debug)]
pub struct OpInterpreter<C: AppCode = ()> {
    heap: Heap,
    objects: ObjectTable<(Addr, u64)>,
    static_base: Addr,
    app_code: C,
    end_tx: EndTx,
    /// Payload bytes touched: objects, realloc growth and static data.
    pub bytes_touched: u64,
    /// Skipped ops naming an object not held here (or swept at a tx end).
    pub orphan_ops: u64,
}

impl<C: AppCode> OpInterpreter<C> {
    /// An interpreter over `heap`, with static data at `static_base`.
    pub fn new(heap: Heap, static_base: Addr, app_code: C, end_tx: EndTx) -> Self {
        OpInterpreter {
            heap,
            objects: ObjectTable::with_capacity(1024),
            static_base,
            app_code,
            end_tx,
            bytes_touched: 0,
            orphan_ops: 0,
        }
    }

    /// The heap (for its stats, footprint and snapshot).
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// The end-of-transaction policy this interpreter was built with.
    pub fn end_tx_policy(&self) -> EndTx {
        self.end_tx
    }

    /// Objects live right now.
    pub fn live_objects(&self) -> usize {
        self.objects.len()
    }

    /// Executes one op on `port`. Returns the address and size of the
    /// object a `Malloc` placed, `None` for any other op.
    ///
    /// # Panics
    ///
    /// Panics if the heap runs out of memory (a configuration error).
    #[inline]
    pub fn step<P: MemoryPort>(&mut self, port: &mut P, op: WorkOp) -> Option<(Addr, u64)> {
        match op {
            WorkOp::Malloc { id, size } => {
                let addr = self.heap.malloc(port, size).unwrap_or_else(oom);
                self.objects.insert(id, (addr, size));
                return Some((addr, size));
            }
            WorkOp::Free { id } => match self.objects.remove(id) {
                // Without per-object free (region/obstack) the call is
                // elided, per the paper's porting recipe.
                Some((addr, _)) if self.heap.alloc_traits().per_object_free => {
                    self.heap.free(port, addr);
                }
                Some(_) => {}
                None => self.orphan_ops += 1,
            },
            WorkOp::Realloc { id, new_size } => match self.objects.get(id) {
                Some((addr, old)) => {
                    let new_addr = self.heap.realloc(port, addr, old, new_size);
                    let new_addr = new_addr.unwrap_or_else(oom);
                    self.objects.insert(id, (new_addr, new_size));
                    self.bytes_touched += new_size.saturating_sub(old);
                }
                None => self.orphan_ops += 1,
            },
            WorkOp::Touch { id, write } => match self.objects.get(id) {
                Some((addr, size)) => {
                    self.app_code.enter(port);
                    port.touch(addr, size, write);
                    self.bytes_touched += size;
                }
                None => self.orphan_ops += 1,
            },
            WorkOp::Compute { instr } => {
                self.app_code.enter(port);
                port.exec(instr);
            }
            WorkOp::StaticTouch { offset, len } => {
                self.app_code.enter(port);
                port.touch(self.static_base + offset, len, false);
                self.bytes_touched += len;
            }
            WorkOp::EndTx => self.end_tx(port),
        }
        None
    }

    /// Ends the transaction under this interpreter's [`EndTx`] policy:
    /// `freeAll` empties the table by a generation bump, the survivor
    /// sweep by one walk of it.
    pub fn end_tx<P: MemoryPort>(&mut self, port: &mut P) {
        let traits = self.heap.alloc_traits();
        let free_all = self.end_tx != EndTx::KeepSurvivors { free_all: false };
        if free_all && traits.bulk_free {
            self.heap.free_all(port);
            self.objects.clear();
        } else if self.end_tx == EndTx::EmptyHeap {
            let heap = &mut self.heap;
            self.objects.drain(|_, (addr, _)| {
                if traits.per_object_free {
                    heap.free(port, addr);
                }
            });
        }
    }
}

/// The one place a heap's failure ends the run: heaps are sized so that
/// it means a configuration error, and degrading silently would skew the
/// measurements.
#[cold]
fn oom<T>(e: AllocError) -> T {
    panic!("{e}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use webmm_alloc::AllocatorKind;
    use webmm_sim::{PageSize, PlainPort};

    fn interp(kind: AllocatorKind, end_tx: EndTx) -> (OpInterpreter, PlainPort) {
        let mut port = PlainPort::new();
        let static_base = port.os_alloc(4096, 4096, PageSize::Base);
        (
            OpInterpreter::new(kind.build(0), static_base, (), end_tx),
            port,
        )
    }

    fn run(i: &mut OpInterpreter, port: &mut PlainPort, ops: &[WorkOp]) {
        for &op in ops {
            i.step(port, op);
        }
    }

    #[test]
    fn survivors_stay_live_unless_the_runtime_calls_free_all() {
        let ops = [WorkOp::Malloc { id: 1, size: 64 }, WorkOp::EndTx];
        let later = [WorkOp::Free { id: 1 }, WorkOp::EndTx];
        // No freeAll call (Ruby), or a heap without bulk free: the object
        // outlives its transaction and its later free finds it.
        for (kind, free_all) in [(AllocatorKind::DdMalloc, false), (AllocatorKind::Dl, true)] {
            let (mut i, mut port) = interp(kind, EndTx::KeepSurvivors { free_all });
            run(&mut i, &mut port, &ops);
            assert_eq!(i.live_objects(), 1, "{kind}");
            run(&mut i, &mut port, &later);
            assert_eq!((i.live_objects(), i.orphan_ops), (0, 0), "{kind}");
            assert_eq!(i.heap().stats().frees, 1, "{kind}");
        }
        // freeAll on a heap that has it: the object is gone, its later
        // free is an orphan.
        let (mut i, mut port) = interp(
            AllocatorKind::DdMalloc,
            EndTx::KeepSurvivors { free_all: true },
        );
        run(&mut i, &mut port, &ops);
        assert_eq!(i.live_objects(), 0);
        run(&mut i, &mut port, &later);
        assert_eq!(i.orphan_ops, 1);
    }

    #[test]
    fn unknown_ids_are_counted_not_served() {
        let (mut i, mut port) = interp(
            AllocatorKind::PhpDefault,
            EndTx::KeepSurvivors { free_all: true },
        );
        run(
            &mut i,
            &mut port,
            &[
                WorkOp::Free { id: 9 },
                WorkOp::Realloc {
                    id: 9,
                    new_size: 32,
                },
                WorkOp::Touch { id: 9, write: true },
            ],
        );
        assert_eq!(i.orphan_ops, 3);
        assert_eq!(i.bytes_touched, 0);
        assert_eq!(i.heap().stats().reallocs, 0);
    }
}
