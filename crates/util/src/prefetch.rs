//! A software prefetch hint: asks the CPU to start pulling a cache line
//! in while the caller goes on with other work.
//!
//! The hint cannot change a result. It reads nothing the program sees,
//! never faults, and compiles to nothing on targets other than x86-64.
//! Its only effect is on timing: a later load of the same line finds it
//! in cache instead of waiting for memory. Its users:
//! * the rewiring engine overlaps the cold reads of the picks it has
//!   drawn ahead (`sgr_dk::rewire`);
//! * the stub matcher, those of the pool slots, list headers and append
//!   slots of the edges it has drawn ahead (`sgr_dk::construct`);
//! * the triangle pass, those of the oriented pairs it reaches next
//!   (`sgr_props::triangles`);
//! * Brandes betweenness, those of the nodes its BFS queue and its
//!   reverse sweep reach next (`sgr_props::betweenness`).

/// Hints that the cache line holding `*r` will be read soon. A no-op off
/// x86-64.
#[inline(always)]
pub fn prefetch_read<T>(r: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` (SSE, part of the x86-64 baseline) is a pure
    // hint — it never faults, even on an invalid address — and `r` is a
    // live reference, so the pointer is valid in any case.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>((r as *const T).cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = r;
}
