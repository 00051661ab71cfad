//! Instruction-set instances of the tensor hot loops.
//!
//! The crate is compiled for the x86-64 baseline (SSE2), which every
//! x86-64 CPU runs. The loops that dominate training — the GEMM tile
//! loops, the conv weight-gradient tiles, lowering and col2im, batch-norm,
//! max-pool, the optimizer updates and the ReLU/residual passes — are each
//! written once inside [`multiversion!`], which compiles that one body
//! twice: a baseline instance and an instance with AVX2 enabled. A small
//! dispatcher picks the AVX2 instance when `is_x86_feature_detected!`
//! reports AVX2 (std caches the answer per process). Other targets build
//! the baseline alone.
//!
//! **Identical bits.** The AVX2 instance only widens the vectors the
//! compiler already uses for loops whose elements are independent. FMA is
//! not enabled, and Rust never fuses `a * b + c` on its own, so every lane
//! performs the same rounded multiply and then the same rounded add as
//! the baseline, and no reduction is reassociated. Both instances give the
//! same bits, so [`crate::KERNEL_NUMERICS_VERSION`] does not depend on the
//! CPU.
//!
//! **Where the feature applies.** A function compiled for AVX2 passes the
//! feature on to the closures written in its body and to the
//! `#[inline(always)]` helpers inlined into it, but not to a closure
//! written inside a helper: that closure is its own baseline function.
//! So the macro pastes the whole body into each instance, and the hot
//! loops keep their closures in that body.
//!
//! This module owns the detection, the macro and every `unsafe` call it
//! emits; nothing outside `automc-tensor` knows about instruction sets.

#![allow(unsafe_code)]

use std::cell::Cell;

thread_local! {
    /// Set by [`with_baseline`]: run the baseline instances on this thread.
    static PINNED: Cell<bool> = const { Cell::new(false) };
}

/// Whether this CPU runs the AVX2 instances (std caches the probe).
#[inline]
fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the calling thread runs the AVX2 instances.
#[inline]
pub(crate) fn use_avx2() -> bool {
    avx2_available() && !PINNED.with(Cell::get)
}

/// Name of the instances the calling thread runs: `"avx2"` or
/// `"baseline"` (outside [`with_baseline`], `"avx2"` exactly when the CPU
/// has AVX2).
pub fn active() -> &'static str {
    if use_avx2() {
        "avx2"
    } else {
        "baseline"
    }
}

/// Run `f` with the baseline instances pinned on this thread, so tests can
/// compare both instances in one process. Work that `f` hands to pool
/// workers still runs their instance: pin one thread with
/// [`crate::par::with_threads`] as well.
#[doc(hidden)]
pub fn with_baseline<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            PINNED.with(|c| c.set(self.0));
        }
    }
    let prev = PINNED.with(|c| c.replace(true));
    let _restore = Restore(prev);
    f()
}

/// Define functions compiled as a baseline and an AVX2 instance from one
/// body, plus a dispatcher of the given name that runs the AVX2 instance
/// when [`use_avx2`] allows. Arguments must be plain identifiers (rebind
/// with `let mut` inside the body); generic parameters, if any, must be
/// `const` ones. The instances are nested functions named `avx2` and
/// `baseline`, so a profile shows them as `<function>::avx2` and
/// `<function>::baseline`.
macro_rules! multiversion {
    ($(
        $(#[$attr:meta])*
        $vis:vis fn $name:ident $(<$(const $cg:ident: $cty:ty),+>)?
            ($($arg:ident: $argty:ty),* $(,)?) $(-> $ret:ty)?
        $body:block
    )+) => {$(
        $(#[$attr])*
        #[allow(unsafe_code, clippy::too_many_arguments)]
        $vis fn $name $(<$(const $cg: $cty),+>)? ($($arg: $argty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            #[allow(clippy::too_many_arguments)]
            fn avx2 $(<$(const $cg: $cty),+>)? ($($arg: $argty),*) $(-> $ret)? $body

            #[inline(never)]
            #[allow(clippy::too_many_arguments)]
            fn baseline $(<$(const $cg: $cty),+>)? ($($arg: $argty),*) $(-> $ret)? $body

            #[cfg(target_arch = "x86_64")]
            if $crate::isa::use_avx2() {
                // SAFETY: `use_avx2` is true only when the running CPU
                // reports AVX2, the one feature `avx2` is compiled for.
                return unsafe { avx2 $(::<$($cg),+>)? ($($arg),*) };
            }
            baseline $(::<$($cg),+>)? ($($arg),*)
        }
    )+};
}

pub(crate) use multiversion;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_is_scoped_and_nests() {
        let outer = active();
        assert_eq!(outer, if avx2_available() { "avx2" } else { "baseline" });
        with_baseline(|| {
            assert_eq!(active(), "baseline");
            with_baseline(|| assert_eq!(active(), "baseline"));
            assert_eq!(active(), "baseline");
        });
        assert_eq!(active(), outer);
        // The pin is per thread.
        with_baseline(|| std::thread::spawn(move || assert_eq!(active(), outer)).join().unwrap());
    }
}
