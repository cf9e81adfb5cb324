//! Dense slot numbers for `u32` keys: the array grain of the keyed
//! accumulators.
//!
//! A key (an ASN, a packed [`ServiceKey`](crate::ports::ServiceKey)) is
//! numbered when first seen, and its owner keeps its counters at that slot
//! of a `Vec`, so a flow pays one multiply and a probe or two, then
//! indexes. Slots belong to the accumulator that numbered them: consumers
//! are built without a `Context`, and flows from a collector or an archive
//! carry keys no registry lists, so there is no global numbering to take
//! them from.

use lockdown_base::hash::mul_index;

/// `u32` keys numbered `0, 1, 2, …` in first-seen order.
#[derive(Debug, Clone, Default)]
pub(crate) struct Slots {
    /// Open addressing with linear probing over `(key, slot + 1)`, `0` a
    /// free entry; `2^bits` entries, at most a quarter of them used.
    table: Vec<(u32, u32)>,
    bits: u32,
    /// Key of each slot.
    keys: Vec<u32>,
    /// `key << 32 | slot` of every key, ascending: key order kept as keys
    /// arrive, so an encoding walks it without sorting.
    order: Vec<u64>,
}

impl Slots {
    /// The key's slot, numbering it `len()` if it is new.
    #[inline]
    pub(crate) fn slot(&mut self, key: u32) -> usize {
        match self.get(key) {
            Some(slot) => slot,
            None => self.insert(key),
        }
    }

    /// Number the new `key`.
    #[cold]
    fn insert(&mut self, key: u32) -> usize {
        if 4 * (self.keys.len() + 1) > self.table.len() {
            self.grow();
        }
        let slot = self.keys.len();
        self.keys.push(key);
        self.place(key, slot);
        let packed = u64::from(key) << 32 | slot as u64;
        let at = self.order.partition_point(|&o| o < packed);
        self.order.insert(at, packed);
        slot
    }

    /// Enter `key` at the first free entry of its probe sequence.
    fn place(&mut self, key: u32, slot: usize) {
        let mask = self.table.len() - 1;
        let mut i = mul_index(u64::from(key), self.bits);
        while self.table[i].1 != 0 {
            i = (i + 1) & mask;
        }
        self.table[i] = (key, slot as u32 + 1);
    }

    /// The key's slot, if the key was seen.
    #[inline]
    pub(crate) fn get(&self, key: u32) -> Option<usize> {
        if self.table.is_empty() {
            return None;
        }
        let mask = self.table.len() - 1;
        let mut i = mul_index(u64::from(key), self.bits);
        loop {
            match self.table[i] {
                (_, 0) => return None,
                (k, slot) if k == key => return Some(slot as usize - 1),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Double the table (16 entries at first) and re-enter every key.
    fn grow(&mut self) {
        self.bits = (self.bits + 1).max(4);
        self.table = vec![(0, 0); 1 << self.bits];
        for slot in 0..self.keys.len() {
            self.place(self.keys[slot], slot);
        }
    }

    /// The key of every slot, in slot order.
    pub(crate) fn keys(&self) -> &[u32] {
        &self.keys
    }

    /// Every `(key, slot)`, in key order: the order encodings write.
    pub(crate) fn sorted(&self) -> impl Iterator<Item = (u32, usize)> + '_ {
        (self.order.iter()).map(|&o| ((o >> 32) as u32, o as u32 as usize))
    }

    /// Number of keys seen.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockdown_base::hash::SplitMix;

    #[test]
    fn slots_number_keys_in_first_seen_order() {
        let mut s = Slots::default();
        assert_eq!(s.get(0), None);
        let slots: Vec<usize> = [65_536, 0, 65_536, u32::MAX]
            .into_iter()
            .map(|key| s.slot(key))
            .collect();
        assert_eq!(slots, [0, 1, 0, 2]);
        assert_eq!(s.keys(), [65_536, 0, u32::MAX]);
        let sorted: Vec<(u32, usize)> = s.sorted().collect();
        assert_eq!(sorted, [(0, 1), (65_536, 0), (u32::MAX, 2)]);
        assert_eq!((s.get(0), s.get(7), s.len()), (Some(1), None, 3));
    }

    #[test]
    fn slots_survive_growth_and_colliding_keys() {
        let mut rng = SplitMix::new(35);
        let mut s = Slots::default();
        // Random keys, and keys 2^20 apart that share their low bits.
        let keys: Vec<u32> = (0..3_000u32)
            .map(|i| match i % 3 {
                0 => rng.next_u64() as u32,
                1 => i << 20,
                _ => i,
            })
            .collect();
        let mut first = std::collections::HashMap::new();
        for &key in &keys {
            let next = first.len();
            let want = *first.entry(key).or_insert(next);
            assert_eq!(s.slot(key), want, "key {key}");
        }
        for (&key, &slot) in &first {
            assert_eq!(s.get(key), Some(slot));
        }
        assert_eq!(s.len(), first.len());
        assert!(s.table.len() >= 4 * s.len());
        let mut want: Vec<(u32, usize)> = first.into_iter().collect();
        want.sort_unstable();
        assert!(s.sorted().eq(want));
    }
}
