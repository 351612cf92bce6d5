//! Lock-free bounded MPMC event ring (Vyukov queue) — the library's only
//! `unsafe`, allowed for this module alone in `obs/mod.rs`.

use super::Event;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Slot {
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<Event>>,
}

/// Bounded lock-free MPMC ring. Producers (workers / submit threads)
/// `push` without ever blocking — a full ring returns `false` and the
/// caller counts the drop. The aggregator (and concurrent snapshot
/// takers) `pop`. Sequence-stamped slots à la Vyukov: each slot carries
/// the ticket of the operation allowed to touch it next.
pub(super) struct EventRing {
    mask: usize,
    slots: Box<[Slot]>,
    head: AtomicUsize,
    tail: AtomicUsize,
}

// SAFETY: sending an EventRing to another thread moves the whole slot
// allocation with it; no slot holds thread-affine state (raw Events are
// plain data), so ownership transfer is sound.
unsafe impl Send for EventRing {}
// SAFETY: shared `&EventRing` access is mediated by the per-slot `seq`
// acquire/release protocol below: a slot's value is only written by the
// producer that won the head CAS and only read by the consumer that won
// the tail CAS, and the winner's exclusive window is published by the
// slot's seq Release store and observed by the other side's Acquire
// load — every UnsafeCell access has a happens-before edge.
unsafe impl Sync for EventRing {}

impl EventRing {
    pub(super) fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(8).next_power_of_two();
        let slots = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            mask: cap - 1,
            slots,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
        }
    }

    // ams-lint: begin(no-panic) event ring hot path — push runs on every
    // worker iteration, pop on every aggregator drain

    /// Non-blocking enqueue. `false` means the ring was full — the event
    /// is lost and the caller must count it.
    pub(super) fn push(&self, ev: Event) -> bool {
        // Relaxed: this load only seeds the CAS; slot ownership (the
        // part that needs ordering) travels through `seq`, not `head`.
        let mut pos = self.head.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask]; // ams-lint: allow(no-panic) pos & mask < slots.len(), len is a power of two
                                                     // Acquire: pairs with the consumer's seq Release store in
                                                     // pop — seeing seq == pos proves the previous occupant was
                                                     // fully read out before we overwrite the slot.
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq as isize - pos as isize;
            if dif == 0 {
                // Relaxed on success and failure: the CAS only
                // arbitrates which producer owns the slot; payload
                // publication happens via the seq Release store below,
                // so head itself carries no data.
                match self.head.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: winning the CAS grants exclusive write
                        // access to this slot until the seq store below.
                        unsafe { (*slot.value.get()).write(ev) };
                        // Release: publishes the value write above to
                        // the consumer whose Acquire load sees pos + 1.
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                        return true;
                    }
                    Err(actual) => pos = actual,
                }
            } else if dif < 0 {
                return false; // full
            } else {
                // Relaxed: a stale head only costs another loop pass;
                // ordering is re-established by the seq Acquire above.
                pos = self.head.load(Ordering::Relaxed);
            }
        }
    }

    /// Non-blocking dequeue (aggregator side; safe under concurrent
    /// snapshot-taking consumers).
    pub(super) fn pop(&self) -> Option<Event> {
        // Relaxed: seeds the CAS; see push — ordering rides on `seq`.
        let mut pos = self.tail.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask]; // ams-lint: allow(no-panic) pos & mask < slots.len(), len is a power of two
                                                     // Acquire: pairs with the producer's seq Release store in
                                                     // push — seeing seq == pos + 1 proves the value write is
                                                     // visible before assume_init reads it.
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq as isize - pos.wrapping_add(1) as isize;
            if dif == 0 {
                // Relaxed on success and failure: the CAS only
                // arbitrates which consumer drains the slot; visibility
                // of the payload was already secured by the seq Acquire
                // load above.
                match self.tail.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: winning the CAS grants exclusive read
                        // access; the producer's Release store made the
                        // value visible.
                        let ev = unsafe { (*slot.value.get()).assume_init() };
                        // Release: hands the emptied slot back to the
                        // producer generation `pos + cap`; pairs with
                        // push's seq Acquire load.
                        slot.seq
                            .store(pos.wrapping_add(self.mask + 1), Ordering::Release);
                        return Some(ev);
                    }
                    Err(actual) => pos = actual,
                }
            } else if dif < 0 {
                return None; // empty
            } else {
                // Relaxed: a stale tail only costs another loop pass;
                // ordering is re-established by the seq Acquire above.
                pos = self.tail.load(Ordering::Relaxed);
            }
        }
    }

    // ams-lint: end(no-panic)
}
