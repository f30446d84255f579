//! Whole-tile traversal replay: the Fig. 3 comparison machinery.
//!
//! Sparse tensor dataflows scan a tile repeatedly (once per matching tile of
//! the other operand). This module drives a real [`Buffet`] or [`Tailor`]
//! through `passes` sequential traversals of a tile and counts how many
//! elements had to be (re)fetched from the parent level:
//!
//! * A **buffet** holding a tile larger than its capacity retains *nothing*
//!   across traversals — its sliding window can only move forward, so every
//!   pass refetches the whole tile (Fig. 3, buffets row).
//! * A **Tailor** keeps its resident region hot and only restreams the
//!   bumped remainder: `len + (passes-1) × (len - resident)` fetches
//!   (Fig. 3, Tailors row).
//!
//! The per-tile accounting here is exactly what the analytical model and
//! the functional engine in `tailors-sim` charge in closed form; that
//! engine's oracle (`reference_run`) drives its buffers through these
//! replays, and integration tests cross-check the two.

use crate::{Buffet, EddoError, Tailor, TailorConfig};

/// Outcome of replaying sequential traversals of one tile through a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraversalReport {
    /// Number of full traversals performed.
    pub passes: u64,
    /// Total elements requested by the child (`passes × tile_len`).
    pub reads: u64,
    /// Elements delivered by the parent (fills + overwriting fills).
    pub parent_fetches: u64,
}

impl TraversalReport {
    /// Fraction of reads served from data already in the buffer — the
    /// paper's "data reused" metric (Fig. 9b). 1.0 means every read after
    /// the compulsory first fetch hit; 0.0 means every read required a
    /// fresh fetch.
    pub fn reuse_fraction(&self) -> f64 {
        if self.reads == 0 {
            return 0.0;
        }
        1.0 - (self.parent_fetches as f64 / self.reads as f64).min(1.0)
    }
}

/// Replays `passes` sequential traversals of `tile` through a [`Tailor`]
/// with the given configuration, returning the traffic report.
///
/// Every element read is checked against the tile, so this doubles as a
/// correctness test of the Tailor's index translation.
///
/// # Errors
///
/// Propagates any unexpected buffer protocol error (none occur for a
/// well-formed tile; bumped data is restreamed transparently).
///
/// # Panics
///
/// Panics if the Tailor returns wrong data for an index.
pub fn replay_tailor<T: Clone + PartialEq + core::fmt::Debug>(
    tile: &[T],
    config: TailorConfig,
    passes: u64,
) -> Result<TraversalReport, EddoError> {
    let mut t: Tailor<T> = Tailor::new(config);
    t.set_tile_len(tile.len());
    let mut fetches = 0u64;
    for _ in 0..passes {
        for (i, expect) in tile.iter().enumerate() {
            // Ensure index i is present, streaming if necessary.
            loop {
                match t.read(i) {
                    Ok(v) => {
                        assert_eq!(&v, expect, "tailor returned wrong data at {i}");
                        break;
                    }
                    Err(EddoError::NotYetFilled { .. }) => {
                        // Conventional fill path (buffer not yet full).
                        match t.fill(tile[t.occupancy()].clone()) {
                            Ok(()) => fetches += 1,
                            Err(EddoError::Full) => {
                                // Transition to streaming.
                                let idx = t.next_stream_index().unwrap_or(t.occupancy());
                                t.ow_fill(tile[idx].clone())?;
                                fetches += 1;
                            }
                            Err(e) => return Err(e),
                        }
                    }
                    Err(EddoError::Bumped { .. }) => {
                        let idx = t.next_stream_index().expect("overbooked");
                        t.ow_fill(tile[idx].clone())?;
                        fetches += 1;
                    }
                    Err(e) => return Err(e),
                }
            }
        }
    }
    Ok(TraversalReport {
        passes,
        reads: passes * tile.len() as u64,
        parent_fetches: fetches,
    })
}

/// Replays `passes` sequential traversals of `tile` through a [`Buffet`]
/// of `capacity`, managed as a forward-only sliding window (its only legal
/// management), returning the traffic report.
///
/// When the tile does not fit, each traversal is forced to drop everything
/// and refill — the Fig. 3a behaviour.
///
/// # Errors
///
/// Propagates any unexpected buffer protocol error.
///
/// # Panics
///
/// Panics if the buffet returns wrong data for an index.
pub fn replay_buffet<T: Clone + PartialEq + core::fmt::Debug>(
    tile: &[T],
    capacity: usize,
    passes: u64,
) -> Result<TraversalReport, EddoError> {
    let mut b: Buffet<T> = Buffet::new(capacity);
    let mut window_start = 0usize; // tile index of the buffet head
    let mut window_end = 0usize; // one past the newest filled tile index
    let mut fetches = 0u64;
    for _ in 0..passes {
        for (i, expect) in tile.iter().enumerate() {
            if i < window_start {
                // The sliding window cannot move backward: drop everything
                // and refill from here.
                let occ = b.occupancy();
                b.shrink(occ)?;
                window_start = i;
                window_end = i;
            }
            while i >= window_end {
                if b.is_full() {
                    b.shrink(1)?;
                    window_start += 1;
                }
                b.fill(tile[window_end].clone())?;
                window_end += 1;
                fetches += 1;
            }
            let v = b.read(i - window_start)?;
            assert_eq!(&v, expect, "buffet returned wrong data at {i}");
        }
    }
    Ok(TraversalReport {
        passes,
        reads: passes * tile.len() as u64,
        parent_fetches: fetches,
    })
}

/// Closed-form parent-fetch count for a Tailor traversal, matching
/// [`replay_tailor`]: the first pass fetches the whole tile; each further
/// pass refetches only the bumped portion `len - resident` (zero when the
/// tile fits).
pub fn tailor_fetch_model(tile_len: u64, config: TailorConfig, passes: u64) -> u64 {
    if passes == 0 {
        return 0;
    }
    if tile_len <= config.capacity() as u64 {
        return tile_len;
    }
    let bumped = tile_len - config.resident_region() as u64;
    tile_len + (passes - 1) * bumped
}

/// Closed-form parent-fetch count for a buffet traversal, matching
/// [`replay_buffet`]: free after the first pass when the tile fits,
/// otherwise a full refetch per pass.
pub fn buffet_fetch_model(tile_len: u64, capacity: u64, passes: u64) -> u64 {
    if passes == 0 {
        return 0;
    }
    if tile_len <= capacity {
        tile_len
    } else {
        passes * tile_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile(n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }

    /// Fig. 3: an overbooked tile through a buffet loses all reuse; through
    /// a Tailor the resident portion keeps its reuse.
    #[test]
    fn fig3_tailor_beats_buffet_on_overbooked_tile() {
        let t = tile(8);
        let cap = 6;
        let passes = 4;
        let buffet = replay_buffet(&t, cap, passes).unwrap();
        let tailor = replay_tailor(&t, TailorConfig::new(cap, 2).unwrap(), passes).unwrap();
        assert_eq!(buffet.parent_fetches, 8 * 4);
        // 8 + 3 passes × bumped (8 - 4 resident) = 8 + 12 = 20.
        assert_eq!(tailor.parent_fetches, 20);
        assert!(tailor.reuse_fraction() > buffet.reuse_fraction());
    }

    /// Fig. 3 fitting case: both idioms fetch the tile exactly once.
    #[test]
    fn fig3_fitting_tile_is_free_for_both() {
        let t = tile(5);
        let buffet = replay_buffet(&t, 8, 3).unwrap();
        let tailor = replay_tailor(&t, TailorConfig::new(8, 2).unwrap(), 3).unwrap();
        assert_eq!(buffet.parent_fetches, 5);
        assert_eq!(tailor.parent_fetches, 5);
        assert!((buffet.reuse_fraction() - (1.0 - 5.0 / 15.0)).abs() < 1e-12);
    }

    #[test]
    fn replay_matches_closed_form_models() {
        for (len, cap, fifo, passes) in [
            (10usize, 4usize, 1usize, 3u64),
            (10, 4, 2, 1),
            (10, 4, 3, 5),
            (16, 8, 4, 2),
            (4, 8, 2, 4),
            (9, 8, 7, 3),
        ] {
            let t = tile(len);
            let config = TailorConfig::new(cap, fifo).unwrap();
            let tailor = replay_tailor(&t, config, passes).unwrap();
            assert_eq!(
                tailor.parent_fetches,
                tailor_fetch_model(len as u64, config, passes),
                "tailor mismatch for len={len} cap={cap} fifo={fifo} passes={passes}"
            );
            let buffet = replay_buffet(&t, cap, passes).unwrap();
            assert_eq!(
                buffet.parent_fetches,
                buffet_fetch_model(len as u64, cap as u64, passes),
                "buffet mismatch for len={len} cap={cap} fifo={fifo} passes={passes}"
            );
        }
    }

    #[test]
    fn zero_passes_fetch_nothing() {
        let t = tile(6);
        let r = replay_tailor(&t, TailorConfig::new(4, 2).unwrap(), 0).unwrap();
        assert_eq!(r.parent_fetches, 0);
        assert_eq!(r.reuse_fraction(), 0.0);
        assert_eq!(
            tailor_fetch_model(6, TailorConfig::new(4, 2).unwrap(), 0),
            0
        );
        assert_eq!(buffet_fetch_model(6, 4, 0), 0);
    }

    #[test]
    fn reuse_fraction_bounds() {
        let t = tile(12);
        let r = replay_tailor(&t, TailorConfig::new(6, 5).unwrap(), 10).unwrap();
        assert!(r.reuse_fraction() >= 0.0 && r.reuse_fraction() <= 1.0);
        // With a tiny resident region, reuse tends toward resident/len.
        let expected = 1.0 - r.parent_fetches as f64 / r.reads as f64;
        assert!((r.reuse_fraction() - expected).abs() < 1e-12);
    }

    /// More bumped data -> less reuse, monotonically (the Fig. 9b trend).
    #[test]
    fn reuse_decreases_with_bumped_fraction() {
        let passes = 8;
        let mut last = f64::INFINITY;
        for len in [8usize, 12, 16, 24, 40] {
            let t = tile(len);
            let r = replay_tailor(&t, TailorConfig::new(8, 2).unwrap(), passes).unwrap();
            assert!(
                r.reuse_fraction() <= last + 1e-12,
                "reuse should not increase as tiles grow"
            );
            last = r.reuse_fraction();
        }
    }
}
