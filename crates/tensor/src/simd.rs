//! SIMD-accelerated fiber intersection — the workspace's one audited
//! `unsafe` island.
//!
//! Every other crate (and every other module of this crate) keeps the
//! workspace-wide no-`unsafe` stance. Here the crate root relaxes
//! `#![forbid(unsafe_code)]` to `#![deny(unsafe_code)]` so that this
//! module — and only this module — can carry scoped
//! `#[allow(unsafe_code)]` attributes on the two functions that need
//! them. The deal in exchange:
//!
//! * every `unsafe` block is minimal and carries a `// SAFETY:` comment
//!   stating the invariant that discharges it;
//! * `unsafe_op_in_unsafe_fn` is denied crate-wide, so even inside a
//!   `#[target_feature]` function each unsafe operation sits in its own
//!   audited block;
//! * the kernels are pure match-*counting* functions over immutable
//!   `&[u32]` slices — no pointers escape, nothing is written through,
//!   and the worst a bug could produce is a wrong count, which the
//!   parity property tests (SIMD vs scalar vs two-finger, both operand
//!   orders) would catch.
//!
//! # Dispatch table
//!
//! [`Fiber::intersect_counted_blocked`](crate::fiber::Fiber::intersect_counted_blocked)
//! consults [`active_level`] once per process and then dispatches:
//!
//! | `TAILORS_SIMD` | CPU features          | kernel                          |
//! |----------------|-----------------------|---------------------------------|
//! | `off`/`0`/`no` | (ignored)             | scalar superblock walk          |
//! | unset / `auto` | `avx2`                | `matches_avx2` (rotation merge) |
//! | unset / `auto` | none / non-x86_64     | scalar superblock walk          |
//!
//! The `#[target_feature]` kernel is only ever *called* behind an
//! `is_x86_feature_detected!` check, which is exactly the invariant its
//! `// SAFETY:` comments cite; a CPU without AVX2 gets the scalar walk,
//! never a crash.
//!
//! Dispatch is bit-invisible: the kernel returns the exact match count,
//! and the caller reconstructs `scanned` through the same
//! `merge_endpoints` rank query the scalar paths use, so
//! `(matches, scanned)` never depends on which kernel ran.
//!
//! # Kernel shape
//!
//! **AVX2 rotation-compare merge** ([`matches_avx2`]): load 8
//! coordinates from each stream; compare the `a` vector against all 8
//! lane-rotations of the `b` vector (`vpermd` by 8 precomputed,
//! mutually independent index vectors — not a chained rotate, which
//! would serialize on the permute latency); OR the 8 compare masks and
//! subtract from a per-lane accumulator (`0 - (-1) = +1` per hit).
//! Because fiber coordinates are strictly increasing, all 8 lanes of a
//! window are distinct, so each (a-lane, b-lane) pair can match under at
//! most one rotation and the OR never collapses two hits into one.
//! Window advance follows the classic block-merge rule: advance
//! whichever side's max is smaller, both on a tie — re-counting is
//! impossible because after a counted window the advanced side's next
//! window is strictly past every coordinate the other window holds.
//!
//! The kernel finishes with a scalar tail (< 8 leftovers per side) via
//! `partition_point` — small enough that it never dominates.

use std::sync::OnceLock;

/// Which intersect kernel the process dispatches to (resolved once from
/// `TAILORS_SIMD` + CPU feature detection; see [`active_level`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable scalar superblock walk (the PR 3/5 path) — also the
    /// forced fallback under `TAILORS_SIMD=off` or on non-x86_64.
    Scalar,
    /// 8-lane AVX2 rotation-compare merge.
    Avx2,
}

impl core::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
        })
    }
}

/// What the `TAILORS_SIMD` environment variable asked for, before CPU
/// capability is consulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdMode {
    /// Force the scalar walk regardless of CPU features.
    Off,
    /// The AVX2 kernel when the CPU has it, else scalar (the unset
    /// default).
    Auto,
}

/// The grammar behind the `TAILORS_SIMD` knob, split out so the accepted
/// spellings are testable without mutating the process environment
/// (matching `parse_auto_plan` in `tailors_sim::exec`). `None` means
/// unparseable.
pub fn parse_simd_mode(s: &str) -> Option<SimdMode> {
    match s.trim().to_ascii_lowercase().as_str() {
        "off" | "0" | "false" | "no" => Some(SimdMode::Off),
        "" | "on" | "1" | "true" | "yes" | "auto" => Some(SimdMode::Auto),
        _ => None,
    }
}

/// The requested mode from `TAILORS_SIMD` (`run_all --no-simd` and
/// `serve --no-simd` forward `off` to every child binary), or
/// [`SimdMode::Auto`] when unset.
///
/// # Panics
///
/// Panics if `TAILORS_SIMD` is set to anything outside the grammar of
/// [`parse_simd_mode`].
pub fn simd_mode_from_env() -> SimdMode {
    match std::env::var("TAILORS_SIMD") {
        Err(_) => SimdMode::Auto,
        Ok(s) => parse_simd_mode(&s)
            .unwrap_or_else(|| panic!("TAILORS_SIMD must be off/auto (or a boolean), got {s:?}")),
    }
}

/// The kernel level this process dispatches to, resolved once (env knob
/// + `is_x86_feature_detected!`) and cached for the process lifetime.
pub fn active_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| resolve_level(simd_mode_from_env()))
}

/// Maps a requested mode onto what this CPU can actually run.
fn resolve_level(mode: SimdMode) -> SimdLevel {
    match mode {
        SimdMode::Auto if have_avx2() => SimdLevel::Avx2,
        _ => SimdLevel::Scalar,
    }
}

#[cfg(target_arch = "x86_64")]
fn have_avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

#[cfg(not(target_arch = "x86_64"))]
fn have_avx2() -> bool {
    false
}

/// Counts coordinates common to `a` and `b` (both strictly increasing)
/// with the process-wide active kernel. Returns `None` when the active
/// level is [`SimdLevel::Scalar`] — the caller then runs its portable
/// superblock walk, keeping this module free of any duplicate scalar
/// logic.
pub fn intersect_matches(a: &[u32], b: &[u32]) -> Option<usize> {
    intersect_matches_at(active_level(), a, b)
}

/// [`intersect_matches`] at an explicit level, ignoring the env knob
/// (parity tests and benches use this to pin each kernel). Returns
/// `None` when `level` is scalar **or** the CPU lacks the features —
/// the `#[target_feature]` kernels are never called undetected.
pub fn intersect_matches_at(level: SimdLevel, a: &[u32], b: &[u32]) -> Option<usize> {
    match level {
        SimdLevel::Scalar => None,
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 if have_avx2() => {
            // SAFETY: `matches_avx2` requires AVX2, checked on the line
            // above via `is_x86_feature_detected!`.
            #[allow(unsafe_code)]
            Some(unsafe { x86::matches_avx2(a, b) })
        }
        _ => None,
    }
}

/// Scalar remainder of the kernel: the main loop exits once *either*
/// stream has fewer than one SIMD window left, so the shorter
/// remainder (at most 7 coordinates) probes the longer one by
/// `partition_point` — never hot.
fn tail_matches(a: &[u32], b: &[u32]) -> usize {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut matches = 0usize;
    let mut pos = 0usize;
    for &c in short {
        if pos >= long.len() {
            break;
        }
        pos += long[pos..].partition_point(|&x| x < c);
        if long.get(pos) == Some(&c) {
            matches += 1;
            pos += 1;
        }
    }
    matches
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The `#[target_feature]` kernel. All `unsafe` in the crate lives
    //! in this submodule (plus the detected call site in the parent);
    //! every block carries its discharging `// SAFETY:`.

    use super::tail_matches;
    use core::arch::x86_64::*;

    /// Match count of two strictly increasing `u32` streams, 8 lanes at
    /// a time (see the module docs for the rotation-compare shape).
    ///
    /// # Safety
    ///
    /// The caller must ensure the CPU supports AVX2
    /// (`is_x86_feature_detected!("avx2")`).
    #[allow(unsafe_code)]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn matches_avx2(a: &[u32], b: &[u32]) -> usize {
        // The 8 lane-rotation index vectors for vpermd. Independent
        // constants (rotation r maps lane l to source lane (l + r) & 7)
        // so the 8 permutes have no chain dependency. Over r = 0..8
        // every (a-lane, b-lane) pair is compared exactly once.
        // (Register-only intrinsics are safe inside a `#[target_feature]`
        // body; only the raw-pointer loads/stores below need `unsafe`.)
        let rot: [__m256i; 7] = [
            _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0),
            _mm256_setr_epi32(2, 3, 4, 5, 6, 7, 0, 1),
            _mm256_setr_epi32(3, 4, 5, 6, 7, 0, 1, 2),
            _mm256_setr_epi32(4, 5, 6, 7, 0, 1, 2, 3),
            _mm256_setr_epi32(5, 6, 7, 0, 1, 2, 3, 4),
            _mm256_setr_epi32(6, 7, 0, 1, 2, 3, 4, 5),
            _mm256_setr_epi32(7, 0, 1, 2, 3, 4, 5, 6),
        ];
        let mut acc = _mm256_setzero_si256();
        let (mut i, mut j) = (0usize, 0usize);
        while i + 8 <= a.len() && j + 8 <= b.len() {
            // Window maxima for the advance rule. In-bounds: the loop
            // condition guarantees i+7 < a.len() and j+7 < b.len().
            let a_hi = a[i + 7];
            let b_hi = b[j + 7];
            // SAFETY: unaligned 32-byte load of a[i..i+8]; i+8 <= a.len()
            // by the loop condition, and `u32` slices are valid for
            // byte-wise reads of their full length.
            let va = unsafe { _mm256_loadu_si256(a.as_ptr().add(i).cast()) };
            // SAFETY: unaligned 32-byte load of b[j..j+8]; j+8 <= b.len()
            // by the loop condition.
            let vb = unsafe { _mm256_loadu_si256(b.as_ptr().add(j).cast()) };
            let e0 = _mm256_cmpeq_epi32(va, vb);
            let e1 = _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rot[0]));
            let e2 = _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rot[1]));
            let e3 = _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rot[2]));
            let e4 = _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rot[3]));
            let e5 = _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rot[4]));
            let e6 = _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rot[5]));
            let e7 = _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, rot[6]));
            // Tree-OR: distinct coordinates within each window mean
            // each a-lane hits under at most one rotation, so OR-ing
            // masks loses nothing; a hit lane is all-ones (-1) and
            // subtracting adds +1 to that lane's running count.
            let hit = _mm256_or_si256(
                _mm256_or_si256(_mm256_or_si256(e0, e1), _mm256_or_si256(e2, e3)),
                _mm256_or_si256(_mm256_or_si256(e4, e5), _mm256_or_si256(e6, e7)),
            );
            acc = _mm256_sub_epi32(acc, hit);
            // Advance whichever window's max is smaller; both on a tie.
            // No match is dropped (the kept window still covers every
            // not-yet-passed coordinate) and none is double counted
            // (the advanced side moves strictly past the kept window's
            // compared range). Branchless on purpose: which side
            // advances is data-dependent and would mispredict roughly
            // every other window.
            i += 8 * usize::from(a_hi <= b_hi);
            j += 8 * usize::from(b_hi <= a_hi);
        }
        // Per-lane hit counts can't overflow u32: each loop iteration
        // adds at most 1 per lane and fiber length is bounded by the
        // u32 coordinate space.
        let mut lanes = [0u32; 8];
        // SAFETY: storing 32 bytes into a [u32; 8], which is exactly 32
        // bytes and validly writable.
        unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc) };
        let vector: usize = lanes.iter().map(|&x| x as usize).sum();
        vector + tail_matches(&a[i..], &b[j..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_matches(a: &[u32], b: &[u32]) -> usize {
        let (mut i, mut j, mut m) = (0usize, 0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                core::cmp::Ordering::Equal => {
                    m += 1;
                    i += 1;
                    j += 1;
                }
                core::cmp::Ordering::Less => i += 1,
                core::cmp::Ordering::Greater => j += 1,
            }
        }
        m
    }

    fn check_avx2(a: &[u32], b: &[u32]) {
        let want = linear_matches(a, b);
        if let Some(got) = intersect_matches_at(SimdLevel::Avx2, a, b) {
            assert_eq!(got, want, "a={a:?} b={b:?}");
        }
        if let Some(got) = intersect_matches_at(SimdLevel::Avx2, b, a) {
            assert_eq!(got, want, "swapped a={a:?} b={b:?}");
        }
    }

    #[test]
    fn env_grammar() {
        for off in ["off", "0", "false", " NO "] {
            assert_eq!(parse_simd_mode(off), Some(SimdMode::Off), "{off:?}");
        }
        for auto in ["", "on", "1", "auto", "TRUE", "yes"] {
            assert_eq!(parse_simd_mode(auto), Some(SimdMode::Auto), "{auto:?}");
        }
        for gone in ["scalar", "avx2", "avx512", "mmx"] {
            assert_eq!(parse_simd_mode(gone), None, "{gone:?}");
        }
        assert_eq!(parse_simd_mode("2"), None);
    }

    #[test]
    fn off_mode_always_resolves_scalar() {
        assert_eq!(resolve_level(SimdMode::Off), SimdLevel::Scalar);
        assert_eq!(intersect_matches_at(SimdLevel::Scalar, &[1, 2], &[2]), None);
    }

    #[test]
    fn kernel_corner_cases() {
        let cases: Vec<(Vec<u32>, Vec<u32>)> = vec![
            (vec![], vec![]),
            (vec![], (0..40).collect()),
            (vec![7], (0..40).collect()),
            // Sub-width operands: everything lands in the scalar tail.
            ((0..7).collect(), (3..10).collect()),
            ((0..3).collect(), (0..3).collect()),
            // Exactly one window each, identical.
            ((0..8).collect(), (0..8).collect()),
            // One window vs shifted window (partial overlap).
            ((0..8).collect(), (4..12).collect()),
            // Tie on window maxima (both advance).
            ((0..8).collect(), vec![0, 1, 2, 3, 4, 5, 6, 7]),
            // Disjoint-window fast paths in both directions.
            ((0..16).collect(), (100..116).collect()),
            ((100..116).collect(), (0..16).collect()),
            // Fully dense long runs (every lane matches, every window).
            ((0..256).collect(), (0..256).collect()),
            // Dense vs strided.
            ((0..256).collect(), (0..128).map(|i| i * 2).collect()),
            // Ragged tails below one SIMD width after whole windows.
            ((0..19).collect(), (5..21).collect()),
            ((0..8).collect(), (0..9).collect()),
            // Wide coordinate range incl. the top of u32 space.
            (
                vec![0, 255, 256, 1 << 20, u32::MAX - 1, u32::MAX],
                vec![255, 1 << 20, u32::MAX],
            ),
            // Repeated near-misses (off-by-one everywhere).
            (
                (0..32).map(|i| i * 2).collect(),
                (0..32).map(|i| i * 2 + 1).collect(),
            ),
        ];
        for (a, b) in &cases {
            check_avx2(a, b);
        }
    }

    #[test]
    fn active_level_is_consistent_with_dispatch() {
        let a: Vec<u32> = (0..64).collect();
        let b: Vec<u32> = (0..64).map(|i| i * 3).collect();
        match active_level() {
            SimdLevel::Scalar => assert_eq!(intersect_matches(&a, &b), None),
            level => assert_eq!(
                intersect_matches(&a, &b),
                intersect_matches_at(level, &a, &b)
            ),
        }
    }
}
