//! A fixed-depth ring of in-flight table probes — the probe wavefront.
//!
//! [`FnTable::probe_start`](crate::FnTable::probe_start) /
//! [`probe_finish`](crate::FnTable::probe_finish) split a membership test
//! into an issue half (hash + a software prefetch of the home slot,
//! [`revsynth_mmap::prefetch_read`]) and a resolve half (read the slot,
//! walk the probe sequence). A [`ProbeRing`] generalizes the
//! two-stage pipeline to a W-deep wavefront: pushing a new probe evicts
//! and returns the **oldest** in-flight probe once the ring is full, so a
//! caller that pushes one probe per candidate keeps `W − 1` memory
//! accesses in flight behind the computation of subsequent candidates —
//! converting a chain of dependent cache misses into memory-level
//! parallelism, which is a *serial* win (no threads involved).
//!
//! Eviction and [`pop`](ProbeRing::pop) are strictly FIFO, so probes
//! resolve in push order: a scan that stops at the first successful
//! resolve observes the same hit for every ring depth.

use crate::table::Probe;

/// A FIFO ring of up to `depth` in-flight probes, each carrying a caller
/// tag (e.g. which candidate the probe belongs to).
#[derive(Debug)]
pub struct ProbeRing<T> {
    buf: Vec<Option<(Probe, T)>>,
    head: usize,
    len: usize,
}

impl<T> ProbeRing<T> {
    /// Creates a ring holding at most `depth` probes (`depth` is clamped
    /// to at least 1; a depth-1 ring degenerates to the unpipelined
    /// start-then-finish pattern).
    #[must_use]
    pub fn new(depth: usize) -> Self {
        let depth = depth.max(1);
        ProbeRing {
            buf: std::iter::repeat_with(|| None).take(depth).collect(),
            head: 0,
            len: 0,
        }
    }

    /// The maximum number of in-flight probes.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.buf.len()
    }

    /// Number of probes currently in flight.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no probes are in flight.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Adds a probe to the wavefront. If the ring is already full, the
    /// **oldest** probe is evicted and returned — resolve it now (its
    /// home-slot prefetch has had the longest time to complete).
    #[inline]
    pub fn push(&mut self, probe: Probe, tag: T) -> Option<(Probe, T)> {
        let evicted = if self.len == self.buf.len() {
            self.pop()
        } else {
            None
        };
        let slot = (self.head + self.len) % self.buf.len();
        self.buf[slot] = Some((probe, tag));
        self.len += 1;
        evicted
    }

    /// Removes and returns the oldest in-flight probe, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<(Probe, T)> {
        if self.len == 0 {
            return None;
        }
        let entry = self.buf[self.head].take();
        self.head = (self.head + 1) % self.buf.len();
        self.len -= 1;
        entry
    }

    /// Discards all in-flight probes (e.g. after the scan already found
    /// an earlier hit and later candidates no longer matter).
    pub fn clear(&mut self) {
        for slot in &mut self.buf {
            *slot = None;
        }
        self.head = 0;
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnTable;
    use revsynth_perm::Perm;

    fn perm_of(i: u64) -> Perm {
        let mut vals: Vec<u8> = (0..16).collect();
        let mut x = i.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
        for j in (1..16).rev() {
            vals.swap(j, (x % (j as u64 + 1)) as usize);
            x = x.rotate_left(17).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        }
        Perm::from_values(&vals).unwrap()
    }

    #[test]
    fn fifo_eviction_order() {
        let table = FnTable::default();
        let mut ring: ProbeRing<u64> = ProbeRing::new(3);
        assert_eq!(ring.depth(), 3);
        for i in 0..3 {
            assert!(ring.push(table.probe_start(perm_of(i)), i).is_none());
        }
        assert_eq!(ring.len(), 3);
        // Pushing a fourth evicts tag 0, a fifth evicts tag 1, ...
        for i in 3..8 {
            let (_, tag) = ring.push(table.probe_start(perm_of(i)), i).unwrap();
            assert_eq!(tag, i - 3);
        }
        // Draining returns the rest in order.
        let rest: Vec<u64> = std::iter::from_fn(|| ring.pop().map(|(_, t)| t)).collect();
        assert_eq!(rest, vec![5, 6, 7]);
        assert!(ring.is_empty());
    }

    #[test]
    fn depth_is_clamped_to_one() {
        let table = FnTable::default();
        let mut ring: ProbeRing<u32> = ProbeRing::new(0);
        assert_eq!(ring.depth(), 1);
        assert!(ring.push(table.probe_start(Perm::identity()), 1).is_none());
        let (_, tag) = ring.push(table.probe_start(Perm::identity()), 2).unwrap();
        assert_eq!(tag, 1);
    }

    #[test]
    fn wavefront_agrees_with_contains_for_every_depth() {
        let mut table = FnTable::with_capacity_bits(8);
        for i in 0..150 {
            table.insert(perm_of(i), 0);
        }
        let keys: Vec<Perm> = (0..300).map(perm_of).collect();
        let expected: Vec<bool> = keys.iter().map(|&k| table.contains(k)).collect();
        for depth in [1usize, 2, 5, 8, 16] {
            let mut ring: ProbeRing<usize> = ProbeRing::new(depth);
            let mut resolved = vec![false; keys.len()];
            for (i, &k) in keys.iter().enumerate() {
                if let Some((probe, tag)) = ring.push(table.probe_start(k), i) {
                    resolved[tag] = table.probe_finish(probe);
                }
            }
            while let Some((probe, tag)) = ring.pop() {
                resolved[tag] = table.probe_finish(probe);
            }
            assert_eq!(resolved, expected, "depth {depth}");
        }
    }

    #[test]
    fn clear_discards_in_flight_probes() {
        let table = FnTable::default();
        let mut ring: ProbeRing<u8> = ProbeRing::new(4);
        for i in 0..3 {
            ring.push(table.probe_start(perm_of(i.into())), i);
        }
        ring.clear();
        assert!(ring.is_empty());
        assert!(ring.pop().is_none());
        // Reusable after clearing.
        assert!(ring.push(table.probe_start(Perm::identity()), 9).is_none());
        assert_eq!(ring.pop().unwrap().1, 9);
    }
}
