//! Per-thread stripes: state that concurrent readers write, split so
//! that each thread writes only cache lines it owns.
//!
//! A thread takes a stripe index on its first read and gives it back
//! when it exits. It takes the lowest free index below 8; once every
//! index is held, further threads share the least-shared one. Reuse
//! matters: a program that starts fresh reader threads for every batch
//! of work keeps landing on the same few stripes instead of spreading
//! over all of them. A thread gives its index back as its thread-locals
//! are torn down, which a join waits for but the end of a
//! `std::thread::scope` does not: join scoped readers before starting
//! the next batch of them.
//!
//! [`Striped`] keeps one slot per stripe, each padded to a cache line.
//! The snapshot slot's pins, the semantic cache's entry tables and the
//! server's in-flight counts are all `Striped`.
//!
//! The thread-local holds only the index: no heap data and no pin lives
//! in it, so nothing a thread touched stays alive through it. The
//! registry of held indices is one mutex, taken once when a thread
//! first asks and once when it exits. It is a leaf: nothing else is
//! locked while it is held.

use std::sync::Mutex;

/// Stripes per [`Striped`]: threads beyond this many share a stripe.
pub(crate) const STRIPES: usize = 8;

/// Threads holding each stripe index.
static HOLDERS: Mutex<[usize; STRIPES]> = Mutex::new([0; STRIPES]);

/// The stripe a new thread takes given the current `holders`: the
/// lowest free index, else the least-shared one, lowest first.
fn pick(holders: &[usize; STRIPES]) -> usize {
    holders
        .iter()
        .enumerate()
        .min_by_key(|&(i, &n)| (n, i))
        .map_or(0, |(i, _)| i)
}

/// A thread's hold on its stripe index, returned when the thread exits.
struct Claim(usize);

impl Claim {
    fn take() -> Claim {
        let mut holders = HOLDERS.lock().unwrap_or_else(|e| e.into_inner());
        let i = pick(&holders);
        if let Some(n) = holders.get_mut(i) {
            *n += 1;
        }
        Claim(i)
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        let mut holders = HOLDERS.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(n) = holders.get_mut(self.0) {
            *n = n.saturating_sub(1);
        }
    }
}

thread_local! {
    static CLAIM: Claim = Claim::take();
}

/// The calling thread's stripe index, below [`STRIPES`]. Taken on the
/// thread's first call and fixed for its life; a thread already tearing
/// down its thread-locals gets stripe 0.
pub(crate) fn index() -> usize {
    CLAIM.try_with(|c| c.0).unwrap_or(0)
}

/// A value padded and aligned to its own 64-byte cache line, so writes
/// to it never invalidate a neighbour's line.
#[repr(align(64))]
#[derive(Debug, Default)]
pub(crate) struct Padded<T>(pub(crate) T);

/// One `T` per stripe, each on its own 64-byte cache line: a thread
/// works on [`Striped::mine`], and a reader of the whole sums or sweeps
/// [`Striped::iter`].
#[derive(Debug)]
pub struct Striped<T> {
    slots: [Padded<T>; STRIPES],
}

impl<T> Striped<T> {
    /// Every slot holds a fresh `init()`.
    pub fn new(mut init: impl FnMut() -> T) -> Self {
        Striped {
            slots: std::array::from_fn(|_| Padded(init())),
        }
    }

    /// The calling thread's slot.
    pub fn mine(&self) -> &T {
        self.slot(index())
    }

    /// The slot of stripe `i`, an [`index`] (reduced modulo [`STRIPES`]).
    #[expect(
        clippy::indexing_slicing,
        reason = "the index is reduced modulo STRIPES, the length of slots"
    )]
    pub(crate) fn slot(&self, i: usize) -> &T {
        &self.slots[i % STRIPES].0
    }

    /// Every slot, with its stripe index, in stripe order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        self.slots.iter().map(|s| &s.0).enumerate()
    }
}

impl<T: Default> Default for Striped<T> {
    fn default() -> Self {
        Striped::new(T::default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_new_thread_takes_the_lowest_free_stripe_else_the_least_shared() {
        assert_eq!(pick(&[0; STRIPES]), 0);
        assert_eq!(pick(&[1, 1, 0, 1, 0, 1, 1, 1]), 2);
        assert_eq!(pick(&[1; STRIPES]), 0);
        assert_eq!(pick(&[2, 2, 1, 2, 2, 2, 1, 2]), 2);
    }

    #[test]
    fn a_thread_keeps_its_stripe_and_every_stripe_is_in_range() {
        let mine = index();
        assert!(mine < STRIPES);
        assert_eq!(index(), mine);
        let other = std::thread::spawn(index).join().unwrap();
        assert!(other < STRIPES);
    }

    #[test]
    fn slots_are_cache_line_apart() {
        let s: Striped<u8> = Striped::default();
        let addrs: Vec<usize> = s.iter().map(|(_, v)| v as *const u8 as usize).collect();
        assert!(addrs.windows(2).all(|w| w[1] - w[0] == 64));
        assert!(std::ptr::eq(s.mine(), s.slot(index())));
    }
}
