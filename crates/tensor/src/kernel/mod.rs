//! Explicit fixed-width SIMD kernels for the workspace's hot loops.
//!
//! Every compute-bound inner loop in the reproduction funnels through one
//! of four kernel families, laid out one-file-per-family (the UniZK
//! `src/kernel/` shape):
//!
//! * [`gemm`] — the register-block strips `ops::gemm_blocked`
//!   accumulates through,
//! * [`pack`] — transpose/gather packing that feeds the GEMM's `[plen, n]`
//!   panels,
//! * [`sign`] — the fused random-projection + sign-quantization kernel
//!   behind batched RPQ signature generation,
//! * [`scan`] — the vectorized tag compare over MCACHE's
//!   structure-of-arrays tag words.
//!
//! Each kernel ships a scalar reference and, on `x86_64`, an AVX2 path
//! selected by **runtime feature detection** (`std::arch` intrinsics — the
//! portable `std::simd` API is still nightly-only at this workspace's MSRV,
//! so the feature-gated lane types it would provide are not used). The
//! AVX2 paths keep the workspace's **bit-identical contract**: per output
//! element they perform exactly the scalar reference's operation sequence —
//! same multiplies, same adds, same ascending accumulation order, two
//! roundings per multiply-add (no FMA contraction) — so vectorizing across
//! independent elements changes nothing observable. Per-kernel unit tests
//! pin every SIMD path bit-identical to its scalar reference.

pub mod gemm;
pub mod pack;
pub mod scan;
pub mod sign;

/// Whether the AVX2 kernel paths can run on this host. Detection is cached
/// by the standard library, so hot loops may call this per block without
/// re-probing CPUID.
#[cfg(target_arch = "x86_64")]
pub fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// Whether the AVX2 kernel paths can run on this host (never, off
/// `x86_64` — every kernel then uses its scalar reference).
#[cfg(not(target_arch = "x86_64"))]
pub fn avx2_available() -> bool {
    false
}
