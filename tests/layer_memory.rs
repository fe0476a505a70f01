//! What a decoded boomerang layer holds on the heap, counted by a
//! counting global allocator. A layer is held the way the ISA encodes
//! it — 16-bit permutation codes, bit-plane fold constants, and only
//! the slots that write back — so a 2048-wide layer of OpenPiton8
//! costs about what its 7 KiB on the wire do, not the 23.5 KiB a
//! `PermSource` per row bit, a `bool` per constant and an
//! `Option<u16>` per slot cost.
//!
//! This binary holds one test, and the count is per thread, so nothing
//! else the harness runs can move it.

use gem_core::{compile, CompileOptions};
use gem_designs::openpiton_like;
use gem_isa::{disassemble_core, DecodedCore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread has allocated and not freed.
    static HELD: Cell<isize> = const { Cell::new(0) };
}

/// The system allocator, counting what each thread holds.
struct Counting;

fn count(bytes: isize) {
    // A const-initialized `Cell` has no destructor: the slot is usable
    // for the whole life of the thread, so this never fails.
    let _ = HELD.try_with(|held| held.set(held.get() + bytes));
}

// SAFETY: both methods forward their arguments unchanged to `System`,
// which implements the `GlobalAlloc` contract; the count they keep is a
// thread-local integer that allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        // SAFETY: the caller's guarantees about `layout` are the ones
        // `System.alloc` needs.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        // SAFETY: `ptr` was allocated by `System` (through `alloc`) with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn held() -> isize {
    HELD.with(Cell::get)
}

/// OpenPiton8 at the benchmark ladder's mapping options (2048-bit
/// cores): every core is decoded, its read and write tables dropped,
/// and what its layers still hold — the layer vector and everything
/// each layer owns — must average at most 8 KiB a layer, design-wide
/// and in every core.
#[test]
fn a_decoded_2048_wide_layer_holds_at_most_8_kib() {
    let opts = CompileOptions {
        target_parts: 16,
        stages: 2,
        core_width: 2048,
        ..Default::default()
    };
    let compiled = compile(&openpiton_like(8).module, &opts).expect("OpenPiton8 compiles");
    let (mut layers, mut bytes) = (0, 0);
    for (core, program) in compiled.bitstream.stages.iter().flatten().enumerate() {
        let before = held();
        let DecodedCore {
            layers: decoded,
            reads,
            writes,
            ..
        } = disassemble_core(program).expect("own bitstream decodes");
        drop((reads, writes));
        let core_bytes = held() - before;
        let n = decoded.len() as isize;
        assert!(
            core_bytes <= 8192 * n,
            "core {core}: {core_bytes} B for {n} layers, {} B a layer",
            core_bytes / n.max(1)
        );
        layers += n;
        bytes += core_bytes;
    }
    assert!(layers > 100, "{layers} layers");
    let per_layer = bytes / layers;
    assert!(
        per_layer <= 8192,
        "{per_layer} B a layer over {layers} layers"
    );
    println!("{layers} layers, {per_layer} B a layer");
}
