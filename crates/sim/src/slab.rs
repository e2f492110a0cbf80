//! A recycling slot arena: the event pool of every PDES shard queue.
//!
//! Occupied slots hold payloads, freed slots chain onto an intrusive free
//! list and are reused, so capacity climbs to a high-water mark and stays
//! there. Heaps then order small `Copy` index records instead of sifting
//! fat payloads.

pub(crate) const NIL: u32 = u32::MAX;

enum Slot<T> {
    Vacant { next_free: u32 },
    Occupied(T),
}

/// Recycling arena of `T` slots addressed by dense `u32` indices.
pub(crate) struct Slab<T> {
    slots: Vec<Slot<T>>,
    free_head: u32,
}

impl<T> Slab<T> {
    pub(crate) fn with_capacity(n: usize) -> Self {
        Slab {
            slots: Vec::with_capacity(n),
            free_head: NIL,
        }
    }

    /// Store `value`, preferring a recycled slot over fresh growth.
    pub(crate) fn insert(&mut self, value: T) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            match std::mem::replace(&mut self.slots[idx as usize], Slot::Occupied(value)) {
                Slot::Vacant { next_free } => self.free_head = next_free,
                Slot::Occupied(_) => unreachable!("free list pointed at an occupied slot"),
            }
            idx
        } else {
            assert!(self.slots.len() < NIL as usize, "event slab exhausted");
            self.slots.push(Slot::Occupied(value));
            (self.slots.len() - 1) as u32
        }
    }

    /// Remove and return the payload at `idx`, returning the slot to the
    /// free list.
    pub(crate) fn take(&mut self, idx: u32) -> T {
        let vacant = Slot::Vacant {
            next_free: self.free_head,
        };
        match std::mem::replace(&mut self.slots[idx as usize], vacant) {
            Slot::Occupied(v) => {
                self.free_head = idx;
                v
            }
            Slot::Vacant { .. } => unreachable!("heap entry pointed at a vacant slot"),
        }
    }

    /// High-water mark: how many slots have ever been live at once.
    pub(crate) fn high_water(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_recycle() {
        let mut s: Slab<u64> = Slab::with_capacity(2);
        let a = s.insert(1);
        let b = s.insert(2);
        assert_eq!(s.take(a), 1);
        let c = s.insert(3);
        assert_eq!(c, a, "freed slot must be reused");
        assert_eq!(s.take(b), 2);
        assert_eq!(s.take(c), 3);
        assert_eq!(s.high_water(), 2);
    }
}
