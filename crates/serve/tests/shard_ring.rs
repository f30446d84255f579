//! Consistent-hash ring properties, on arbitrary `MatrixId` sets:
//! assignment is deterministic and stable (two independently-built rings
//! agree on every key, and a rebuilt ring agrees with itself), and
//! excluding one of N shards remaps only that shard's keys — bounded
//! churn is the property the whole sharding design leans on, so it gets
//! pinned here rather than assumed.

use proptest::prelude::*;
use tailors_serve::{HashRing, MatrixId};

/// An arbitrary identity from drawn raw parts. The ring must behave for
/// *any* identity, not just ones the suite workloads produce.
fn id_of(parts: (u64, usize, usize, usize)) -> MatrixId {
    MatrixId {
        hash: parts.0,
        nrows: parts.1,
        ncols: parts.2,
        nnz: parts.3,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn assignment_is_deterministic_and_stable(
        shards in 1usize..9,
        vnodes in 1usize..100,
        keys in proptest::collection::vec(
            (0u64..u64::MAX, 1usize..1_000_000, 1usize..1_000_000, 0usize..10_000_000),
            1..200,
        ),
    ) {
        let a = HashRing::new(shards, vnodes);
        let b = HashRing::new(shards, vnodes);
        for parts in keys {
            let id = id_of(parts);
            let s = a.assign(&id);
            prop_assert!(s < shards);
            // Stable: an independently built ring with the same
            // parameters places every key identically (routers on
            // different hosts agree), and re-asking is idempotent.
            prop_assert_eq!(s, b.assign(&id));
            prop_assert_eq!(s, a.assign(&id));
            // The failover order starts at the primary and enumerates
            // every shard exactly once.
            let order: Vec<usize> = a.candidates(&id).collect();
            prop_assert_eq!(order[0], s);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (0..shards).collect::<Vec<_>>());
        }
    }

    #[test]
    fn removing_one_shard_remaps_only_its_keys(
        shards in 2usize..9,
        vnodes in 1usize..100,
        removed_sel in 0u64..u64::MAX,
        keys in proptest::collection::vec(
            (0u64..u64::MAX, 1usize..1_000_000, 1usize..1_000_000, 0usize..10_000_000),
            1..200,
        ),
    ) {
        let ring = HashRing::new(shards, vnodes);
        let removed = (removed_sel % shards as u64) as usize;
        let mut down = vec![false; shards];
        down[removed] = true;
        for parts in keys {
            let id = id_of(parts);
            let primary = ring.assign(&id);
            let reassigned = ring.assign_excluding(&id, &down).unwrap();
            prop_assert!(!down[reassigned]);
            if primary != removed {
                // Bounded churn: a key whose shard survived must not
                // move — only the removed shard's ~K/N keys re-home.
                prop_assert_eq!(reassigned, primary);
            }
        }
    }

    #[test]
    fn exclusion_composes_with_the_failover_order(
        shards in 2usize..7,
        vnodes in 1usize..64,
        down_mask in proptest::collection::vec(proptest::bool::ANY, 2..7),
        key in (0u64..u64::MAX, 1usize..1_000_000, 1usize..1_000_000, 0usize..10_000_000),
    ) {
        let ring = HashRing::new(shards, vnodes);
        let mut down = vec![false; shards];
        for (i, &d) in down_mask.iter().take(shards).enumerate() {
            down[i] = d;
        }
        let id = id_of(key);
        // assign_excluding is exactly "first live candidate": the single
        // definition both the router's failover walk and the tests use.
        let walked = ring.candidates(&id).find(|&s| !down[s]);
        prop_assert_eq!(ring.assign_excluding(&id, &down), walked);
        if down.iter().all(|&d| d) {
            prop_assert_eq!(walked, None);
        }
    }
}
