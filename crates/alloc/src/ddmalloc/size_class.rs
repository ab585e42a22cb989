//! DDmalloc size-class mapping.
//!
//! The paper (§3.2): "Our current implementation 1) rounds up the requested
//! size to a multiple of 8 bytes if the size is smaller than 128 bytes,
//! 2) rounds up to a multiple of 32 bytes if the size is smaller than 512
//! bytes, and 3) rounds up to the nearest power of two for larger sizes",
//! and calls objects *large* when they exceed half a segment. The mapping
//! is "an important tunable parameter", so alternative mappings are
//! provided for the ablation study.

use serde::Serialize;

/// Alternative size-class mapping policies (ablation study).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub enum ClassMapping {
    /// The paper's mapping: ×8 below 128 B, ×32 below 512 B, powers of two
    /// above.
    #[default]
    Paper,
    /// Pure powers of two from 8 B up — fewer classes, more internal waste.
    PowersOfTwo,
    /// Multiples of 8 throughout — many classes, minimal waste, more
    /// segments in play.
    Fine8,
}

/// Granularity of the small-size lookup table. Every class size in every
/// mapping is a multiple of 8, so `class_of` is constant on each
/// `(8k, 8(k+1)]` interval and one table entry per granule suffices.
const LUT_GRANULE: u64 = 8;

/// Largest request size covered by the lookup table. 2 KB spans the
/// entire fine-grained region of every mapping (Paper's ×8/×32 rules end
/// at 512 B, Fine8's ×8 rule at 1 KB), so everything above it follows a
/// closed-form progression handled by [`Tail`].
const LUT_MAX: u64 = 2048;

/// How to map request sizes above [`LUT_MAX`] without searching.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Tail {
    /// The table ends at or below [`LUT_MAX`]: every small size is in the
    /// LUT.
    None,
    /// Classes double: `class = first_class + (ceil_log2(size) - first_log2)`
    /// (Paper and PowersOfTwo above the LUT).
    Pow2 { first_class: u32, first_log2: u32 },
    /// Classes step arithmetically from `prev_size` (the largest class
    /// size the LUT still covers):
    /// `class = first_class + (size - prev_size - 1) / step`
    /// (Fine8's ×64 region above the LUT).
    Step {
        first_class: u32,
        prev_size: u64,
        step: u64,
    },
    /// No recognized progression: fall back to binary search. Unused by
    /// the built-in mappings, kept so new mappings stay correct by
    /// default.
    Search,
}

/// The resolved size-class table for a given segment size.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SizeClasses {
    sizes: Vec<u64>,
    mapping: ClassMapping,
    /// Requests above this are "large" (whole segments).
    large_threshold: u64,
    /// `lut[ceil(size / 8)]` is the class of `size`, for
    /// `size <= lut_max`. Entry 0 is unused (zero-sized requests are
    /// rejected upstream).
    lut: Vec<u16>,
    /// Largest size the LUT covers: `min(LUT_MAX, large_threshold)`.
    lut_max: u64,
    /// Closed-form mapping for `lut_max < size <= large_threshold`.
    tail: Tail,
}

impl SizeClasses {
    /// Builds the class table for `segment_bytes` under `mapping`.
    ///
    /// # Panics
    ///
    /// Panics if `segment_bytes` is not a power of two or is below 1 KB.
    pub fn new(segment_bytes: u64, mapping: ClassMapping) -> Self {
        assert!(
            segment_bytes.is_power_of_two(),
            "segment size must be a power of two"
        );
        assert!(segment_bytes >= 1024, "segments below 1 KB are not useful");
        let large_threshold = segment_bytes / 2;
        let mut sizes = Vec::new();
        match mapping {
            ClassMapping::Paper => {
                let mut s = 8;
                while s <= 128.min(large_threshold) {
                    sizes.push(s);
                    s += 8;
                }
                let mut s = 160;
                while s <= 512.min(large_threshold) {
                    sizes.push(s);
                    s += 32;
                }
                let mut s: u64 = 1024;
                while s <= large_threshold {
                    sizes.push(s);
                    s *= 2;
                }
            }
            ClassMapping::PowersOfTwo => {
                let mut s: u64 = 8;
                while s <= large_threshold {
                    sizes.push(s);
                    s *= 2;
                }
            }
            ClassMapping::Fine8 => {
                let mut s: u64 = 8;
                while s <= large_threshold {
                    sizes.push(s);
                    // Multiples of 8 up to 1 KB, then ×64 steps to keep the
                    // table bounded.
                    s += if s < 1024 { 8 } else { 64 };
                }
            }
        }
        debug_assert!(
            sizes.iter().all(|s| s % LUT_GRANULE == 0),
            "class sizes must be multiples of {LUT_GRANULE} for the LUT"
        );
        let lut_max = LUT_MAX.min(large_threshold);
        let mut lut = vec![0u16; (lut_max / LUT_GRANULE) as usize + 1];
        for (idx, slot) in lut.iter_mut().enumerate().skip(1) {
            // The largest size in the granule; every size in it shares
            // the class because class boundaries sit on multiples of 8.
            let size = idx as u64 * LUT_GRANULE;
            let class = match sizes.binary_search(&size) {
                Ok(i) | Err(i) => i,
            };
            *slot = u16::try_from(class).expect("LUT region has < 2^16 classes");
        }
        let tail = Self::derive_tail(&sizes, lut_max, large_threshold);
        SizeClasses {
            sizes,
            mapping,
            large_threshold,
            lut,
            lut_max,
            tail,
        }
    }

    /// Recognizes the progression the class table follows above
    /// `lut_max`, so `class_of` never searches on the hot path.
    fn derive_tail(sizes: &[u64], lut_max: u64, large_threshold: u64) -> Tail {
        if lut_max >= large_threshold {
            return Tail::None;
        }
        let first_class = sizes.partition_point(|&s| s <= lut_max);
        let tail_sizes = &sizes[first_class..];
        let Some(&first) = tail_sizes.first() else {
            // Sizes in (lut_max, large_threshold] exist but have no
            // class — the constructor never builds such a table, but
            // searching keeps even that case correct.
            return Tail::Search;
        };
        let doubling = first.is_power_of_two()
            && lut_max >= first / 2
            && tail_sizes.windows(2).all(|w| w[1] == w[0] * 2);
        if doubling {
            return Tail::Pow2 {
                first_class: first_class as u32,
                first_log2: first.trailing_zeros(),
            };
        }
        let step = match tail_sizes {
            [a, b, ..] => b - a,
            _ => first - lut_max,
        };
        let arithmetic = step > 0
            && first - step <= lut_max
            && tail_sizes.windows(2).all(|w| w[1] == w[0] + step);
        if arithmetic {
            return Tail::Step {
                first_class: first_class as u32,
                prev_size: first - step,
                step,
            };
        }
        Tail::Search
    }

    /// The mapping policy this table was built with.
    pub fn mapping(&self) -> ClassMapping {
        self.mapping
    }

    /// Number of size classes.
    pub fn count(&self) -> usize {
        self.sizes.len()
    }

    /// Requests above this many bytes are served as large objects.
    pub fn large_threshold(&self) -> u64 {
        self.large_threshold
    }

    /// Maps a request to its size class, or `None` for large requests.
    ///
    /// This is the allocator's hottest lookup: small sizes are one
    /// branch-free table load, larger ones a closed-form shift or divide
    /// (`Tail`). Must agree with [`SizeClasses::class_of_reference`]
    /// for every size — the test suite checks this exhaustively.
    ///
    /// # Panics
    ///
    /// Panics in debug builds for zero-sized requests (the allocator
    /// rejects those before mapping).
    #[inline]
    pub fn class_of(&self, size: u64) -> Option<usize> {
        debug_assert!(size > 0, "zero-sized request reached the class mapper");
        if size <= self.lut_max {
            let idx = (size.div_ceil(LUT_GRANULE)) as usize;
            return Some(self.lut[idx] as usize);
        }
        if size > self.large_threshold {
            return None;
        }
        match self.tail {
            Tail::Pow2 {
                first_class,
                first_log2,
            } => {
                // ceil(log2(size)) for size >= 2; size > lut_max >= 8 here.
                let log2 = u64::BITS - (size - 1).leading_zeros();
                Some(first_class as usize + (log2 - first_log2) as usize)
            }
            Tail::Step {
                first_class,
                prev_size,
                step,
            } => Some(first_class as usize + ((size - prev_size - 1) / step) as usize),
            // `None` is unreachable (lut_max == large_threshold there);
            // searching is harmlessly correct for it too.
            Tail::None | Tail::Search => self.class_of_reference(size),
        }
    }

    /// Reference mapping: binary search over the sorted class table.
    ///
    /// Kept public so tests can check [`SizeClasses::class_of`] against
    /// it; not used on the allocation path.
    pub fn class_of_reference(&self, size: u64) -> Option<usize> {
        debug_assert!(size > 0, "zero-sized request reached the class mapper");
        if size > self.large_threshold {
            return None;
        }
        match self.sizes.binary_search(&size) {
            Ok(i) => Some(i),
            Err(i) => Some(i), // first class >= size
        }
    }

    /// The object size of class `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn size_of(&self, class: usize) -> u64 {
        self.sizes[class]
    }

    /// Objects of class `class` fitting in one segment.
    pub fn objects_per_segment(&self, class: usize, segment_bytes: u64) -> u64 {
        segment_bytes / self.sizes[class]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper() -> SizeClasses {
        SizeClasses::new(32 * 1024, ClassMapping::Paper)
    }

    #[test]
    fn paper_mapping_matches_section_3_2() {
        let sc = paper();
        // Rule 1: multiples of 8 below 128.
        assert_eq!(sc.size_of(sc.class_of(1).unwrap()), 8);
        assert_eq!(sc.size_of(sc.class_of(8).unwrap()), 8);
        assert_eq!(sc.size_of(sc.class_of(9).unwrap()), 16);
        assert_eq!(sc.size_of(sc.class_of(62).unwrap()), 64);
        assert_eq!(sc.size_of(sc.class_of(121).unwrap()), 128);
        // Rule 2: multiples of 32 below 512.
        assert_eq!(sc.size_of(sc.class_of(129).unwrap()), 160);
        assert_eq!(sc.size_of(sc.class_of(200).unwrap()), 224);
        assert_eq!(sc.size_of(sc.class_of(481).unwrap()), 512);
        // Rule 3: powers of two above.
        assert_eq!(sc.size_of(sc.class_of(513).unwrap()), 1024);
        assert_eq!(sc.size_of(sc.class_of(3000).unwrap()), 4096);
        assert_eq!(sc.size_of(sc.class_of(16 * 1024).unwrap()), 16 * 1024);
    }

    #[test]
    fn large_threshold_is_half_segment() {
        let sc = paper();
        assert_eq!(sc.large_threshold(), 16 * 1024);
        assert_eq!(sc.class_of(16 * 1024 + 1), None);
        assert!(sc.class_of(16 * 1024).is_some());
    }

    #[test]
    fn classes_are_sorted_and_unique() {
        for mapping in [
            ClassMapping::Paper,
            ClassMapping::PowersOfTwo,
            ClassMapping::Fine8,
        ] {
            let sc = SizeClasses::new(32 * 1024, mapping);
            for w in sc.sizes.windows(2) {
                assert!(w[0] < w[1], "{mapping:?} table must be strictly increasing");
            }
            assert!(sc.count() > 0);
        }
    }

    #[test]
    fn every_small_size_maps_to_a_class_at_least_as_big() {
        for mapping in [
            ClassMapping::Paper,
            ClassMapping::PowersOfTwo,
            ClassMapping::Fine8,
        ] {
            let sc = SizeClasses::new(32 * 1024, mapping);
            for size in 1..=sc.large_threshold() {
                let class = sc
                    .class_of(size)
                    .unwrap_or_else(|| panic!("{size} unmapped"));
                assert!(sc.size_of(class) >= size, "class too small for {size}");
                // And the class below (if any) would not fit.
                if class > 0 {
                    assert!(sc.size_of(class - 1) < size, "class not minimal for {size}");
                }
            }
        }
    }

    #[test]
    fn objects_per_segment() {
        let sc = paper();
        let c64 = sc.class_of(64).unwrap();
        assert_eq!(sc.objects_per_segment(c64, 32 * 1024), 512);
        let c16k = sc.class_of(16 * 1024).unwrap();
        assert_eq!(sc.objects_per_segment(c16k, 32 * 1024), 2);
    }

    #[test]
    fn smaller_segments_shrink_the_table() {
        let small = SizeClasses::new(8 * 1024, ClassMapping::Paper);
        assert_eq!(small.large_threshold(), 4 * 1024);
        assert!(small.count() < paper().count());
    }

    #[test]
    fn pow2_wastes_more_than_paper() {
        let p = paper();
        let p2 = SizeClasses::new(32 * 1024, ClassMapping::PowersOfTwo);
        // A 96-byte request: paper serves exactly, pow2 rounds to 128.
        assert_eq!(p.size_of(p.class_of(96).unwrap()), 96);
        assert_eq!(p2.size_of(p2.class_of(96).unwrap()), 128);
    }
}
