//! Property tests for the touched-page invariant of `Memory`.
//!
//! `Memory` records which pages a store has touched and relies on one
//! invariant: every nonzero byte lies in a dirty page. `zero()` clears
//! only the dirty pages and `==` compares only the pages dirty in
//! either operand, so a store that forgot to mark its page would make
//! both silently wrong. Each check here runs random `write_word` /
//! `write_parcel` sequences against a shadow byte array:
//!
//! 1. `==` agrees with a full byte compare of the shadows, and every
//!    memory reads back exactly as its shadow;
//! 2. `zero()` leaves every byte zero;
//! 3. `Machine::reset_from` after random writes equals a fresh
//!    `Machine::load` of the new image.
//!
//! Sizes cover the default 256 KiB and a non-power-of-two memory above
//! it, and the write mix aims at the first page, the last page and the
//! out-of-bounds edge as well as the whole array.

use crisp::asm::Image;
use crisp::sim::{Machine, Memory};
use proptest::prelude::*;

/// The memory size `Machine::load` gives a small image: 256 KiB, 64
/// pages of 4 KiB.
const DEFAULT_BYTES: u32 = 0x0004_0000;

/// A non-power-of-two size above the default: 64 pages of 8 KiB, the
/// last one partial.
const ODD_BYTES: u32 = 0x0004_A010;

/// One store: word or parcel, an address region, an offset into it
/// and the value (often zero, which still marks its page).
#[derive(Debug, Clone, Copy)]
struct Store {
    word: bool,
    region: u8,
    offset: u32,
    value: i32,
}

impl Store {
    /// The byte address this store targets in a memory of `size` bytes.
    fn addr(self, size: u32) -> u32 {
        match self.region {
            // First page.
            0 => self.offset % 4096,
            // Last page, running up to the end of memory.
            1 => size - 1 - self.offset % 4096,
            // Straddling the end: some stores are out of bounds.
            2 => size - 8 + self.offset % 16,
            // Anywhere.
            _ => self.offset % size,
        }
    }

    /// Apply the store to `mem` and mirror it into `shadow`; a store
    /// past the end must fail and change nothing.
    fn apply(self, mem: &mut Memory, shadow: &mut [u8]) {
        let addr = self.addr(mem.size());
        let (a, len, r) = if self.word {
            ((addr & !3) as usize, 4, mem.write_word(addr, self.value))
        } else {
            (
                (addr & !1) as usize,
                2,
                mem.write_parcel(addr, self.value as u16),
            )
        };
        if a + len <= shadow.len() {
            assert!(r.is_ok(), "in-bounds store at {addr:#x} failed");
            // Little-endian: a parcel store writes the value's low half.
            shadow[a..a + len].copy_from_slice(&self.value.to_le_bytes()[..len]);
        } else {
            assert!(r.is_err(), "out-of-bounds store at {addr:#x} succeeded");
        }
    }
}

fn arb_store() -> impl Strategy<Value = Store> {
    (
        any::<bool>(),
        0u8..5,
        any::<u32>(),
        prop_oneof![Just(0i32), any::<i32>()],
    )
        .prop_map(|(word, region, offset, value)| Store {
            word,
            region,
            offset,
            value,
        })
}

fn arb_size() -> impl Strategy<Value = u32> {
    prop::sample::select(vec![DEFAULT_BYTES, ODD_BYTES])
}

/// Every byte of `mem`, read back through the public parcel port.
fn contents(mem: &Memory) -> Vec<u8> {
    (0..mem.size() / 2)
        .flat_map(|i| mem.read_parcel(i * 2).unwrap().to_le_bytes())
        .collect()
}

/// A small image: random code parcels at 0, a data block at a random
/// word address, and either the default stack or one that pushes the
/// loaded memory to `ODD_BYTES`.
fn arb_image() -> impl Strategy<Value = Image> {
    (
        prop::collection::vec(any::<u16>(), 1..64),
        0x1_0000u32..0x2_0000,
        prop::collection::vec(prop_oneof![Just(0i32), any::<i32>()], 0..32),
        any::<bool>(),
    )
        .prop_map(|(parcels, data_at, words, odd)| {
            let mut img = Image::new(0);
            img.parcels = parcels;
            img.data.push((data_at & !3, words));
            img.stack_top = odd.then_some(ODD_BYTES - 4);
            img
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Claim 1: `==` on two memories written differently agrees with
    /// a full compare of their shadows, and both read back as their
    /// shadows.
    #[test]
    fn eq_agrees_with_a_full_byte_compare(
        size in arb_size(),
        common in prop::collection::vec(arb_store(), 0..48),
        only_a in prop::collection::vec(arb_store(), 0..3),
        only_b in prop::collection::vec(arb_store(), 0..3),
    ) {
        let (mut a, mut b) = (Memory::new(size), Memory::new(size));
        let mut sa = vec![0u8; size as usize];
        let mut sb = sa.clone();
        for &s in &common {
            s.apply(&mut a, &mut sa);
            s.apply(&mut b, &mut sb);
        }
        for &s in &only_a {
            s.apply(&mut a, &mut sa);
        }
        for &s in &only_b {
            s.apply(&mut b, &mut sb);
        }
        prop_assert!(contents(&a) == sa, "memory a differs from its shadow");
        prop_assert!(contents(&b) == sb, "memory b differs from its shadow");
        prop_assert_eq!(a == b, sa == sb);
        prop_assert_eq!(b == a, sa == sb);
    }

    /// Claim 2: `zero()` clears every byte any store wrote.
    #[test]
    fn zero_clears_every_written_byte(
        size in arb_size(),
        stores in prop::collection::vec(arb_store(), 1..48),
    ) {
        let mut m = Memory::new(size);
        let mut shadow = vec![0u8; size as usize];
        for &s in &stores {
            s.apply(&mut m, &mut shadow);
        }
        m.zero();
        prop_assert!(contents(&m).iter().all(|&b| b == 0), "zero() left a nonzero byte");
        prop_assert!(m == Memory::new(size), "a zeroed memory equals a fresh one");
    }

    /// Claim 3: resetting a machine that ran random stores yields the
    /// same state as a fresh load of the new image.
    #[test]
    fn reset_from_after_writes_equals_a_fresh_load(
        first in arb_image(),
        second in arb_image(),
        size in arb_size(),
        stores in prop::collection::vec(arb_store(), 0..48),
    ) {
        let size = size.max(first.min_memory_bytes());
        let mut m = Machine::with_memory(&first, size).unwrap();
        let mut shadow = contents(&m.mem);
        for &s in &stores {
            s.apply(&mut m.mem, &mut shadow);
        }
        m.reset_from(&second).unwrap();
        let fresh = Machine::load(&second).unwrap();
        prop_assert!(m == fresh, "reset_from differs from a fresh load");
        prop_assert!(contents(&m.mem) == contents(&fresh.mem), "memory bytes differ");
    }
}
