//! A three-tier inline/sparse/dense bitset over `u32` keys.
//!
//! Points-to sets are tiny for most pointers (the paper's Figure 1: almost
//! all clusters are small) but a few are large, so the set has three
//! representations: a fixed inline array for the overwhelmingly common
//! tiny sets (no heap allocation at all), a sorted heap vector once the
//! inline capacity overflows, and a dense bitmap past a promotion
//! threshold. All analyses in this workspace use [`VarSet`] for points-to
//! sets and cluster membership.

const PROMOTE_AT: usize = 96;

/// Inline capacity of [`VarSet::Small`]. Chosen so the enum is no larger
/// than the `Dense` variant (Vec + cached len): `6 * 4 + 1` bytes of
/// payload fits alongside the discriminant in 32 bytes.
const INLINE_CAP: usize = 6;

/// A set of `u32` keys (variable or class indices).
///
/// Equality is by *contents*, not representation: a `Small` and a `Sparse`
/// set holding the same keys compare equal.
///
/// # Examples
///
/// ```
/// use bootstrap_analyses::bitset::VarSet;
///
/// let mut s = VarSet::new();
/// assert!(s.insert(7));
/// assert!(!s.insert(7));
/// assert!(s.contains(7));
/// assert_eq!(s.len(), 1);
/// ```
#[derive(Clone, Debug)]
pub enum VarSet {
    /// Sorted inline array of keys (tiny sets — the common case; no heap).
    Small {
        /// The keys, sorted, in `elems[..len]`; unused slots are zero.
        elems: [u32; INLINE_CAP],
        /// Number of live keys.
        len: u8,
    },
    /// Sorted vector of keys (small-but-spilled sets).
    Sparse(Vec<u32>),
    /// Dense bitmap plus cached cardinality (large sets).
    Dense {
        /// 64-bit words of the bitmap.
        words: Vec<u64>,
        /// Number of set bits.
        len: usize,
    },
}

impl Default for VarSet {
    fn default() -> Self {
        VarSet::Small {
            elems: [0; INLINE_CAP],
            len: 0,
        }
    }
}

impl PartialEq for VarSet {
    fn eq(&self, other: &Self) -> bool {
        if self.len() != other.len() {
            return false;
        }
        match (self.sorted_slice(), other.sorted_slice()) {
            (Some(a), Some(b)) => a == b,
            _ => self.iter().zip(other.iter()).all(|(x, y)| x == y),
        }
    }
}

impl Eq for VarSet {}

impl VarSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a `Small` set from a sorted deduplicated slice that fits.
    fn small_from_slice(s: &[u32]) -> Self {
        debug_assert!(s.len() <= INLINE_CAP);
        let mut elems = [0u32; INLINE_CAP];
        elems[..s.len()].copy_from_slice(s);
        VarSet::Small {
            elems,
            len: s.len() as u8,
        }
    }

    /// The sorted-key view shared by the two array-backed representations
    /// (`None` for dense sets).
    fn sorted_slice(&self) -> Option<&[u32]> {
        match self {
            VarSet::Small { elems, len } => Some(&elems[..*len as usize]),
            VarSet::Sparse(v) => Some(v),
            VarSet::Dense { .. } => None,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            VarSet::Small { len, .. } => *len as usize,
            VarSet::Sparse(v) => v.len(),
            VarSet::Dense { len, .. } => *len,
        }
    }

    /// Returns `true` if the set has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test.
    pub fn contains(&self, key: u32) -> bool {
        match self {
            VarSet::Dense { words, .. } => {
                let w = (key / 64) as usize;
                w < words.len() && words[w] & (1u64 << (key % 64)) != 0
            }
            _ => self
                .sorted_slice()
                .is_some_and(|s| s.binary_search(&key).is_ok()),
        }
    }

    /// Inserts `key`; returns `true` if it was not already present.
    pub fn insert(&mut self, key: u32) -> bool {
        match self {
            VarSet::Small { elems, len } => {
                let l = *len as usize;
                match elems[..l].binary_search(&key) {
                    Ok(_) => false,
                    Err(pos) if l < INLINE_CAP => {
                        elems.copy_within(pos..l, pos + 1);
                        elems[pos] = key;
                        *len += 1;
                        true
                    }
                    Err(pos) => {
                        // Inline capacity overflow: spill to a heap vector.
                        let old = *elems;
                        let mut v = Vec::with_capacity(2 * INLINE_CAP);
                        v.extend_from_slice(&old[..pos]);
                        v.push(key);
                        v.extend_from_slice(&old[pos..l]);
                        *self = VarSet::Sparse(v);
                        true
                    }
                }
            }
            VarSet::Sparse(v) => match v.binary_search(&key) {
                Ok(_) => false,
                Err(pos) => {
                    v.insert(pos, key);
                    if v.len() > PROMOTE_AT {
                        self.promote();
                    }
                    true
                }
            },
            VarSet::Dense { words, len } => {
                let w = (key / 64) as usize;
                if w >= words.len() {
                    words.resize(w + 1, 0);
                }
                let mask = 1u64 << (key % 64);
                if words[w] & mask == 0 {
                    words[w] |= mask;
                    *len += 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Removes `key`; returns `true` if it was present.
    pub fn remove(&mut self, key: u32) -> bool {
        match self {
            VarSet::Small { elems, len } => {
                let l = *len as usize;
                match elems[..l].binary_search(&key) {
                    Ok(pos) => {
                        elems.copy_within(pos + 1..l, pos);
                        elems[l - 1] = 0;
                        *len -= 1;
                        true
                    }
                    Err(_) => false,
                }
            }
            VarSet::Sparse(v) => match v.binary_search(&key) {
                Ok(pos) => {
                    v.remove(pos);
                    true
                }
                Err(_) => false,
            },
            VarSet::Dense { words, len } => {
                let w = (key / 64) as usize;
                if w >= words.len() {
                    return false;
                }
                let mask = 1u64 << (key % 64);
                if words[w] & mask != 0 {
                    words[w] &= !mask;
                    *len -= 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    fn promote(&mut self) {
        let Some(v) = self.sorted_slice() else { return };
        let max = v.last().copied().unwrap_or(0);
        let mut words = vec![0u64; (max / 64 + 1) as usize];
        for &k in v {
            words[(k / 64) as usize] |= 1u64 << (k % 64);
        }
        let len = v.len();
        *self = VarSet::Dense { words, len };
    }

    /// Unions `other` into `self`; returns `true` if `self` changed.
    pub fn union_with(&mut self, other: &VarSet) -> bool {
        if other.is_empty() {
            return false;
        }
        // First flow into an empty destination — the most common union in
        // one-pass constraint graphs — is a straight clone (a plain memcpy
        // when `other` is inline).
        if self.is_empty() {
            *self = other.clone();
            return true;
        }
        // Fast dense/dense path.
        if let (VarSet::Dense { words, len }, VarSet::Dense { words: ow, .. }) = (&mut *self, other)
        {
            if ow.len() > words.len() {
                words.resize(ow.len(), 0);
            }
            let mut changed = false;
            let mut count = 0usize;
            for (w, o) in words.iter_mut().zip(ow.iter()) {
                let new = *w | *o;
                if new != *w {
                    changed = true;
                    *w = new;
                }
            }
            if changed {
                for w in words.iter() {
                    count += w.count_ones() as usize;
                }
                *len = count;
            }
            return changed;
        }
        // Array-backed pairs: one linear merge instead of per-element
        // binary-search inserts (which are O(n·m) in vector shifts). Tiny
        // merges stay on the stack and produce an inline result.
        if let (Some(a), Some(b)) = (self.sorted_slice(), other.sorted_slice()) {
            if sorted_is_subset(b, a) {
                return false;
            }
            let merged = merge_sorted_set(a, b);
            *self = merged;
            return true;
        }
        let mut changed = false;
        for k in other.iter() {
            changed |= self.insert(k);
        }
        changed
    }

    /// Unions `other` into `self`, inserting every *newly added* key into
    /// `delta` as well; returns `true` if `self` changed.
    ///
    /// This is the difference-propagation primitive: the solver needs "what
    /// did this union actually add" without materializing an intermediate
    /// difference set. The dense/dense path works a word at a time
    /// (`added = other & !self`), so no per-element scan or allocation
    /// happens for large sets; array-backed pairs small enough to merge on
    /// the stack allocate nothing at all.
    pub fn union_into_delta(&mut self, other: &VarSet, delta: &mut VarSet) -> bool {
        if other.is_empty() {
            return false;
        }
        // Empty destination: everything in `other` is new.
        if self.is_empty() {
            *self = other.clone();
            if delta.is_empty() {
                *delta = other.clone();
            } else {
                for k in other.iter() {
                    delta.insert(k);
                }
            }
            return true;
        }
        if let (VarSet::Dense { words, len }, VarSet::Dense { words: ow, .. }) = (&mut *self, other)
        {
            if ow.len() > words.len() {
                words.resize(ow.len(), 0);
            }
            let mut changed = false;
            for (i, (w, o)) in words.iter_mut().zip(ow.iter()).enumerate() {
                let added = *o & !*w;
                if added != 0 {
                    changed = true;
                    *w |= added;
                    *len += added.count_ones() as usize;
                    delta.insert_word(i, added);
                }
            }
            return changed;
        }
        // Array-backed pairs: one linear merge producing the union, with
        // newly added keys fed into `delta` on the fly.
        if let (Some(a), Some(b)) = (self.sorted_slice(), other.sorted_slice()) {
            if sorted_is_subset(b, a) {
                return false;
            }
            if a.len() + b.len() <= 2 * INLINE_CAP {
                // Stack-only merge for tiny sets: no heap traffic on the
                // solver's hottest call.
                let mut buf = [0u32; 2 * INLINE_CAP];
                let mut n = 0usize;
                let (mut i, mut j) = (0, 0);
                while i < a.len() && j < b.len() {
                    match a[i].cmp(&b[j]) {
                        std::cmp::Ordering::Less => {
                            buf[n] = a[i];
                            i += 1;
                        }
                        std::cmp::Ordering::Greater => {
                            buf[n] = b[j];
                            delta.insert(b[j]);
                            j += 1;
                        }
                        std::cmp::Ordering::Equal => {
                            buf[n] = a[i];
                            i += 1;
                            j += 1;
                        }
                    }
                    n += 1;
                }
                while i < a.len() {
                    buf[n] = a[i];
                    i += 1;
                    n += 1;
                }
                while j < b.len() {
                    buf[n] = b[j];
                    delta.insert(b[j]);
                    j += 1;
                    n += 1;
                }
                *self = if n <= INLINE_CAP {
                    VarSet::small_from_slice(&buf[..n])
                } else {
                    VarSet::Sparse(buf[..n].to_vec())
                };
                return true;
            }
            let mut added: Vec<u32> = Vec::new();
            let mut merged: Vec<u32> = Vec::with_capacity(a.len() + b.len());
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                match a[i].cmp(&b[j]) {
                    std::cmp::Ordering::Less => {
                        merged.push(a[i]);
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        merged.push(b[j]);
                        added.push(b[j]);
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        merged.push(a[i]);
                        i += 1;
                        j += 1;
                    }
                }
            }
            merged.extend_from_slice(&a[i..]);
            merged.extend_from_slice(&b[j..]);
            added.extend_from_slice(&b[j..]);
            let mut new_self = VarSet::Sparse(merged);
            if new_self.len() > PROMOTE_AT {
                new_self.promote();
            }
            *self = new_self;
            if delta.is_empty() && added.len() > INLINE_CAP {
                let mut d = VarSet::Sparse(added);
                if d.len() > PROMOTE_AT {
                    d.promote();
                }
                *delta = d;
            } else {
                for k in added {
                    delta.insert(k);
                }
            }
            return true;
        }
        let mut changed = false;
        for k in other.iter() {
            if self.insert(k) {
                delta.insert(k);
                changed = true;
            }
        }
        changed
    }

    /// Inserts every set bit of `bits` interpreted at word index
    /// `word_idx` (i.e. keys `word_idx * 64 + bit`).
    fn insert_word(&mut self, word_idx: usize, bits: u64) {
        if let VarSet::Dense { words, len } = self {
            if word_idx >= words.len() {
                words.resize(word_idx + 1, 0);
            }
            let added = bits & !words[word_idx];
            words[word_idx] |= added;
            *len += added.count_ones() as usize;
            return;
        }
        let base = word_idx as u32 * 64;
        let mut b = bits;
        while b != 0 {
            let bit = b.trailing_zeros();
            b &= b - 1;
            self.insert(base + bit);
        }
    }

    /// The dense bitmap words, when this set is in dense representation
    /// (`None` for inline and sparse sets). Word `i` holds keys
    /// `i*64 .. i*64+63`; hot loops use this for chunked word-at-a-time
    /// iteration instead of per-element decoding.
    pub fn words(&self) -> Option<&[u64]> {
        match self {
            VarSet::Dense { words, .. } => Some(words),
            _ => None,
        }
    }

    /// Unions every set in `sources` into `self`; returns `true` if `self`
    /// changed. When `self` and all sources are dense this is a single
    /// word-at-a-time pass (one OR-fold per word across all sources, one
    /// popcount pass at the end) instead of `sources.len()` separate
    /// unions each rescanning `self`.
    pub fn union_from_many(&mut self, sources: &[&VarSet]) -> bool {
        let live: Vec<&VarSet> = sources.iter().copied().filter(|s| !s.is_empty()).collect();
        if live.is_empty() {
            return false;
        }
        // Promote once up front if the combined cardinality will cross the
        // threshold anyway; guarantees the word-level path below.
        let incoming: usize = live.iter().map(|s| s.len()).sum();
        if !matches!(self, VarSet::Dense { .. }) && self.len() + incoming > PROMOTE_AT {
            self.promote();
        }
        if let VarSet::Dense { words, len } = self {
            if live.iter().all(|s| matches!(s, VarSet::Dense { .. })) {
                let max_words = live
                    .iter()
                    .filter_map(|s| s.words().map(<[u64]>::len))
                    .max()
                    .unwrap_or(0);
                if max_words > words.len() {
                    words.resize(max_words, 0);
                }
                let mut changed = false;
                for (i, w) in words.iter_mut().enumerate() {
                    let mut incoming = 0u64;
                    for s in &live {
                        if let Some(sw) = s.words() {
                            incoming |= sw.get(i).copied().unwrap_or(0);
                        }
                    }
                    let added = incoming & !*w;
                    if added != 0 {
                        changed = true;
                        *w |= added;
                    }
                }
                if changed {
                    *len = words.iter().map(|w| w.count_ones() as usize).sum();
                }
                return changed;
            }
        }
        let mut changed = false;
        for s in live {
            changed |= self.union_with(s);
        }
        changed
    }

    /// The elements of `self` not in `other` (set difference). Dense/dense
    /// runs word-at-a-time (`self & !other`); other representation pairs
    /// fall back to per-element filtering.
    pub fn difference(&self, other: &VarSet) -> VarSet {
        if other.is_empty() {
            return self.clone();
        }
        if let (VarSet::Dense { words, .. }, VarSet::Dense { words: ow, .. }) = (self, other) {
            let mut out = Vec::with_capacity(words.len());
            let mut len = 0usize;
            for (i, w) in words.iter().enumerate() {
                let kept = *w & !ow.get(i).copied().unwrap_or(0);
                len += kept.count_ones() as usize;
                out.push(kept);
            }
            return VarSet::Dense { words: out, len };
        }
        self.iter().filter(|&k| !other.contains(k)).collect()
    }

    /// Returns `true` if the sets share at least one element.
    pub fn intersects(&self, other: &VarSet) -> bool {
        if self.len() > other.len() {
            return other.intersects(self);
        }
        self.iter().any(|k| other.contains(k))
    }

    /// Iterates over the keys in ascending order.
    pub fn iter(&self) -> VarSetIter<'_> {
        match self {
            VarSet::Dense { words, .. } => VarSetIter::Dense {
                words,
                word_idx: 0,
                current: words.first().copied().unwrap_or(0),
            },
            _ => VarSetIter::Sparse(self.sorted_slice().unwrap_or(&[]).iter()),
        }
    }
}

/// Is sorted slice `b` a subset of sorted slice `a`? Linear scan.
fn sorted_is_subset(b: &[u32], a: &[u32]) -> bool {
    if b.len() > a.len() {
        return false;
    }
    let mut i = 0;
    for &k in b {
        while i < a.len() && a[i] < k {
            i += 1;
        }
        if i >= a.len() || a[i] != k {
            return false;
        }
        i += 1;
    }
    true
}

/// Merges two sorted deduplicated slices into one sorted deduplicated vec.
fn sorted_merge(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut merged = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                merged.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                merged.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                merged.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    merged.extend_from_slice(&a[i..]);
    merged.extend_from_slice(&b[j..]);
    merged
}

/// Merges two sorted deduplicated slices into a canonically-represented
/// [`VarSet`]: inline when the union fits (merged entirely on the stack),
/// sparse otherwise, dense past the promotion threshold.
fn merge_sorted_set(a: &[u32], b: &[u32]) -> VarSet {
    if a.len() + b.len() <= INLINE_CAP {
        let mut elems = [0u32; INLINE_CAP];
        let mut n = 0usize;
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    elems[n] = a[i];
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    elems[n] = b[j];
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    elems[n] = a[i];
                    i += 1;
                    j += 1;
                }
            }
            n += 1;
        }
        for &k in &a[i..] {
            elems[n] = k;
            n += 1;
        }
        for &k in &b[j..] {
            elems[n] = k;
            n += 1;
        }
        return VarSet::Small {
            elems,
            len: n as u8,
        };
    }
    let merged = sorted_merge(a, b);
    if merged.len() <= INLINE_CAP {
        return VarSet::small_from_slice(&merged);
    }
    let mut s = VarSet::Sparse(merged);
    if s.len() > PROMOTE_AT {
        s.promote();
    }
    s
}

impl FromIterator<u32> for VarSet {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut s = Self::new();
        for k in iter {
            s.insert(k);
        }
        s
    }
}

impl<'a> IntoIterator for &'a VarSet {
    type Item = u32;
    type IntoIter = VarSetIter<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over a [`VarSet`], returned by [`VarSet::iter`].
#[derive(Debug)]
pub enum VarSetIter<'a> {
    /// Iterating an array-backed (inline or sparse) set.
    Sparse(std::slice::Iter<'a, u32>),
    /// Iterating a dense set.
    Dense {
        /// The bitmap words.
        words: &'a [u64],
        /// Current word index.
        word_idx: usize,
        /// Remaining bits of the current word.
        current: u64,
    },
}

impl Iterator for VarSetIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match self {
            VarSetIter::Sparse(it) => it.next().copied(),
            VarSetIter::Dense {
                words,
                word_idx,
                current,
            } => loop {
                if *current != 0 {
                    let bit = current.trailing_zeros();
                    *current &= *current - 1;
                    return Some(*word_idx as u32 * 64 + bit);
                }
                *word_idx += 1;
                if *word_idx >= words.len() {
                    return None;
                }
                *current = words[*word_idx];
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_insert_and_iterate_sorted() {
        let mut s = VarSet::new();
        for k in [5u32, 1, 9, 3] {
            assert!(s.insert(k));
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 3, 5, 9]);
        assert!(s.contains(9));
        assert!(!s.contains(2));
    }

    #[test]
    fn tiny_sets_stay_inline_and_spill_at_capacity() {
        let mut s = VarSet::new();
        for k in 0..INLINE_CAP as u32 {
            assert!(s.insert(k * 2));
        }
        assert!(matches!(s, VarSet::Small { .. }));
        // One more key overflows the inline array into a heap vector.
        assert!(s.insert(1));
        assert!(matches!(s, VarSet::Sparse(_)));
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![0, 1, 2, 4, 6, 8, 10],
            "spill preserves sorted order"
        );
    }

    #[test]
    fn equality_is_by_contents_not_representation() {
        let small = VarSet::from_iter([1, 2, 3]);
        assert!(matches!(small, VarSet::Small { .. }));
        let spilled = {
            // Build past the inline capacity, then remove back down so the
            // set stays heap-backed with the same contents.
            let mut s: VarSet = (0..10u32).collect();
            for k in [0u32, 4, 5, 6, 7, 8, 9] {
                s.remove(k);
            }
            s
        };
        assert!(matches!(spilled, VarSet::Sparse(_)));
        assert_eq!(small, spilled);
        assert_ne!(small, VarSet::from_iter([1, 2]));
        let dense: VarSet = (0..200u32).collect();
        let dense2: VarSet = (0..200u32).collect();
        assert_eq!(dense, dense2);
        assert_ne!(dense, small);
    }

    #[test]
    fn union_of_tiny_sets_allocates_inline_result() {
        let mut a = VarSet::from_iter([1, 5]);
        let b = VarSet::from_iter([2, 5, 9]);
        assert!(a.union_with(&b));
        assert!(matches!(a, VarSet::Small { .. }));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 2, 5, 9]);
        // A union that no longer fits inline spills.
        let c = VarSet::from_iter([10, 11, 12]);
        assert!(a.union_with(&c));
        assert!(matches!(a, VarSet::Sparse(_)));
        assert_eq!(a.len(), 7);
    }

    #[test]
    fn promotes_to_dense_and_stays_correct() {
        let mut s = VarSet::new();
        for k in 0..200u32 {
            s.insert(k * 3);
        }
        assert!(matches!(s, VarSet::Dense { .. }));
        assert_eq!(s.len(), 200);
        assert!(s.contains(3 * 199));
        assert!(!s.contains(1));
        assert_eq!(s.iter().count(), 200);
        assert_eq!(s.iter().max(), Some(597));
    }

    #[test]
    fn union_sparse_into_sparse() {
        let mut a = VarSet::from_iter([1, 2, 3]);
        let b = VarSet::from_iter([3, 4]);
        assert!(a.union_with(&b));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        assert!(!a.union_with(&b), "second union is a no-op");
    }

    #[test]
    fn union_dense_into_dense() {
        let mut a: VarSet = (0..150).collect();
        let b: VarSet = (100..300).collect();
        assert!(a.union_with(&b));
        assert_eq!(a.len(), 300);
        assert!(!a.union_with(&b));
    }

    #[test]
    fn union_mixed_representations() {
        let mut a = VarSet::from_iter([1000, 2000]);
        let b: VarSet = (0..200).collect();
        assert!(a.union_with(&b));
        assert_eq!(a.len(), 202);
        let mut c: VarSet = (0..200).collect();
        let d = VarSet::from_iter([5000]);
        assert!(c.union_with(&d));
        assert!(c.contains(5000));
    }

    #[test]
    fn remove_from_all_representations() {
        let mut s = VarSet::from_iter([1, 2, 3]);
        assert!(s.remove(2));
        assert!(!s.remove(2));
        assert_eq!(s.len(), 2);
        let mut sp: VarSet = (0..20u32).collect();
        assert!(sp.remove(10));
        assert!(!sp.contains(10));
        assert_eq!(sp.len(), 19);
        let mut d: VarSet = (0..200).collect();
        assert!(d.remove(100));
        assert!(!d.contains(100));
        assert_eq!(d.len(), 199);
    }

    #[test]
    fn intersects() {
        let a = VarSet::from_iter([1, 5, 9]);
        let b = VarSet::from_iter([2, 5]);
        let c = VarSet::from_iter([4, 6]);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        let big: VarSet = (0..500).collect();
        assert!(big.intersects(&a));
        assert!(a.intersects(&big));
    }

    #[test]
    fn union_into_delta_reports_only_new_keys() {
        // tiny/tiny (stack-merged)
        let mut a = VarSet::from_iter([1, 2, 3]);
        let b = VarSet::from_iter([3, 4, 5]);
        let mut delta = VarSet::new();
        assert!(a.union_into_delta(&b, &mut delta));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 2, 3, 4, 5]);
        assert_eq!(delta.iter().collect::<Vec<_>>(), vec![4, 5]);
        // second union adds nothing
        let mut delta2 = VarSet::new();
        assert!(!a.union_into_delta(&b, &mut delta2));
        assert!(delta2.is_empty());
        // heap-backed sparse pair (past the stack-merge threshold)
        let mut big: VarSet = (0u32..40).collect();
        let other: VarSet = (30u32..60).collect();
        let mut d3 = VarSet::new();
        assert!(big.union_into_delta(&other, &mut d3));
        assert_eq!(big.len(), 60);
        assert_eq!(
            d3.iter().collect::<Vec<_>>(),
            (40u32..60).collect::<Vec<_>>()
        );
    }

    #[test]
    fn union_into_delta_dense_paths() {
        // dense/dense word-level path
        let mut a: VarSet = (0..150).collect();
        let b: VarSet = (100..300).collect();
        let mut delta = VarSet::new();
        assert!(a.union_into_delta(&b, &mut delta));
        assert_eq!(a.len(), 300);
        assert_eq!(
            delta.iter().collect::<Vec<_>>(),
            (150..300).collect::<Vec<_>>()
        );
        // delta accumulates across calls (pre-seeded delta keeps old keys)
        let c: VarSet = (295..310).collect();
        assert!(a.union_into_delta(&c, &mut delta));
        assert_eq!(a.len(), 310);
        assert!(delta.contains(150) && delta.contains(309));
        assert_eq!(delta.len(), 160);
        // mixed sparse-self/dense-other
        let mut s = VarSet::from_iter([5000]);
        let mut d3 = VarSet::new();
        assert!(s.union_into_delta(&b, &mut d3));
        assert_eq!(d3.len(), 200);
        assert_eq!(s.len(), 201);
    }

    #[test]
    fn union_into_delta_agrees_with_union_with() {
        for (av, bv) in [
            (
                (0u32..40).collect::<Vec<_>>(),
                (20u32..200).collect::<Vec<_>>(),
            ),
            (
                (0u32..200).step_by(3).collect(),
                (0u32..200).step_by(5).collect(),
            ),
            (vec![], (0u32..10).collect()),
            ((0u32..10).collect(), vec![]),
            (vec![1, 2], vec![2, 3, 4]),
        ] {
            let mut via_union: VarSet = av.iter().copied().collect();
            let b: VarSet = bv.iter().copied().collect();
            let mut via_delta: VarSet = av.iter().copied().collect();
            let mut delta = VarSet::new();
            let c1 = via_union.union_with(&b);
            let c2 = via_delta.union_into_delta(&b, &mut delta);
            assert_eq!(c1, c2);
            assert_eq!(
                via_union.iter().collect::<Vec<_>>(),
                via_delta.iter().collect::<Vec<_>>()
            );
            // delta is exactly union minus the original a
            let want: Vec<u32> = via_union.iter().filter(|k| !av.contains(k)).collect();
            assert_eq!(delta.iter().collect::<Vec<_>>(), want);
        }
    }

    #[test]
    fn empty_set_behaviour() {
        let s = VarSet::new();
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        let mut t = VarSet::from_iter([1]);
        assert!(!t.union_with(&s));
    }

    #[test]
    fn words_accessor_matches_representation() {
        let sparse = VarSet::from_iter([1, 2, 3]);
        assert!(sparse.words().is_none());
        let dense: VarSet = (0..200).collect();
        let words = dense.words().expect("dense set exposes words");
        assert_eq!(words[0], u64::MAX);
        assert_eq!(
            words.iter().map(|w| w.count_ones() as usize).sum::<usize>(),
            200
        );
    }

    #[test]
    fn union_from_many_agrees_with_sequential_unions() {
        let cases: Vec<(Vec<u32>, Vec<Vec<u32>>)> = vec![
            // tiny self, tiny sources
            (vec![1, 2], vec![vec![2, 3], vec![9], vec![]]),
            // dense self, dense sources (word-level path)
            (
                (0u32..150).collect(),
                vec![(100u32..300).collect(), (500u32..700).step_by(2).collect()],
            ),
            // small self promoted by combined cardinality
            (vec![7], vec![(0u32..90).collect(), (90u32..180).collect()]),
            // mixed representations
            ((0u32..150).collect(), vec![vec![5000, 6000], vec![1]]),
            // no-op: everything already present
            ((0u32..200).collect(), vec![(0u32..50).collect(), vec![199]]),
        ];
        for (base, srcs) in cases {
            let sets: Vec<VarSet> = srcs.iter().map(|v| v.iter().copied().collect()).collect();
            let refs: Vec<&VarSet> = sets.iter().collect();
            let mut many: VarSet = base.iter().copied().collect();
            let mut seq: VarSet = base.iter().copied().collect();
            let c1 = many.union_from_many(&refs);
            let mut c2 = false;
            for s in &sets {
                c2 |= seq.union_with(s);
            }
            assert_eq!(c1, c2);
            assert_eq!(many.len(), seq.len());
            assert_eq!(
                many.iter().collect::<Vec<_>>(),
                seq.iter().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn difference_across_representations() {
        let cases: Vec<(Vec<u32>, Vec<u32>)> = vec![
            (vec![1, 2, 3], vec![2]),
            ((0u32..200).collect(), (100u32..300).collect()),
            ((0u32..200).collect(), vec![5]),
            (vec![1, 500], (0u32..200).collect()),
            (vec![1, 2], vec![]),
            (vec![], vec![1]),
        ];
        for (av, bv) in cases {
            let a: VarSet = av.iter().copied().collect();
            let b: VarSet = bv.iter().copied().collect();
            let diff = a.difference(&b);
            let want: Vec<u32> = av.iter().copied().filter(|k| !bv.contains(k)).collect();
            assert_eq!(diff.len(), want.len());
            assert_eq!(diff.iter().collect::<Vec<_>>(), want);
        }
    }
}
