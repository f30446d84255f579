//! Memoized workload generation.
//!
//! Two in-process caches, keyed by the scaled workload's full identity —
//! name, seed, and concrete dimensions/nnz target (which encode the scale)
//! — so distinct scales never collide:
//!
//! * [`profile_cached`]: a strong map of occupancy *profiles*, taken from
//!   the generator's pattern stream ([`Workload::pattern`]) without
//!   building a tensor. Profiles are all the figures read, and they are
//!   small next to the tensors they summarize.
//! * [`generate_cached`]: a map of `Weak` tensor handles, so live tensors
//!   are shared and dropped ones are never pinned. Only the functional
//!   engine needs a built tensor.
//!
//! The serving layer's analytical path comes to neither: it reads each
//! workload's profile and pattern identity from [`Workload::pattern`] and
//! keys its own bounded tiers by that identity.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, Weak};

use tailors_tensor::{CsrMatrix, MatrixProfile};

use crate::Workload;

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct GenKey {
    name: String,
    seed: u64,
    nrows: usize,
    ncols: usize,
    target_nnz: usize,
}

impl GenKey {
    fn of(wl: &Workload) -> GenKey {
        GenKey {
            name: wl.name.to_string(),
            seed: wl.seed,
            nrows: wl.nrows,
            ncols: wl.ncols,
            target_nnz: wl.target_nnz,
        }
    }
}

/// In-process tensor cache. Entries are `Weak`: the map never extends a
/// tensor's lifetime, so a caller that needs a tensor only transiently
/// frees it on drop — peak memory stays at max(live tensors), not
/// sum(all generated). Callers that want in-memory reuse across calls
/// simply keep their `Arc` alive; everyone else regenerates.
fn memory_cache() -> &'static Mutex<HashMap<GenKey, Weak<CsrMatrix>>> {
    static CACHE: OnceLock<Mutex<HashMap<GenKey, Weak<CsrMatrix>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// In-process profile cache. Profiles are what the analytical suite
/// actually reuses, and they are small (three count vectors) next to the
/// tensors they summarize, so these stay strongly cached.
fn profile_cache() -> &'static Mutex<HashMap<GenKey, Arc<MatrixProfile>>> {
    static CACHE: OnceLock<Mutex<HashMap<GenKey, Arc<MatrixProfile>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Generates `wl`'s tensor, or returns the live one an earlier call built.
///
/// The returned tensor is shared: callers across one process that ask for
/// the same `(name, seed, scale)` get the same allocation.
pub fn generate_cached(wl: &Workload) -> Arc<CsrMatrix> {
    let key = GenKey::of(wl);
    if let Some(hit) = memory_cache()
        .lock()
        .expect("gen cache lock")
        .get(&key)
        .and_then(Weak::upgrade)
    {
        return hit;
    }
    let tensor = Arc::new(wl.generate());
    memory_cache()
        .lock()
        .expect("gen cache lock")
        .insert(key, Arc::downgrade(&tensor));
    tensor
}

/// The occupancy profile of `wl`'s tensor, memoized strongly in-process
/// (profiles are small and are the analytical model's working set). A miss
/// streams the generator's pattern ([`Workload::pattern`]) and builds no
/// tensor.
pub fn profile_cached(wl: &Workload) -> Arc<MatrixProfile> {
    let key = GenKey::of(wl);
    if let Some(hit) = profile_cache()
        .lock()
        .expect("profile cache lock")
        .get(&key)
    {
        return Arc::clone(hit);
    }
    let profile = Arc::new(wl.pattern().0);
    profile_cache()
        .lock()
        .expect("profile cache lock")
        .insert(key, Arc::clone(&profile));
    profile
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_cache_shares_but_never_pins() {
        let wl = crate::by_name("email-Enron").unwrap().scaled(1.0 / 512.0);
        let a = generate_cached(&wl);
        let b = generate_cached(&wl);
        assert!(Arc::ptr_eq(&a, &b), "second call must hit the cache");
        assert_eq!(*a, wl.generate(), "cached tensor equals a fresh one");
        // A different scale is a different key.
        let c = generate_cached(&wl.scaled(0.5));
        assert!(!Arc::ptr_eq(&a, &c));
        // Weak entries: once every caller drops its Arc, the tensor is
        // freed and the next request regenerates instead of upgrading.
        let weak = Arc::downgrade(&a);
        drop((a, b));
        assert!(weak.upgrade().is_none(), "cache must not pin tensors");
        assert_eq!(*generate_cached(&wl), wl.generate());
    }

    #[test]
    fn profile_cache_is_strong_and_shared() {
        let wl = crate::by_name("cant").unwrap().scaled(1.0 / 512.0);
        let p1 = profile_cached(&wl);
        let p2 = profile_cached(&wl);
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!(*p1, wl.generate().profile());
    }
}
