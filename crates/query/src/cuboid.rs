use std::fmt;

/// Identifies a **cuboid**: a group-by on a subset of the cube's
/// dimensions (§9). Encoded as a bitmask, so cubes of up to 64 dimensions
/// are supported (the paper notes real cubes have 5–10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CuboidId(u64);

impl CuboidId {
    /// The empty cuboid (every dimension `all`) — the grand total.
    pub fn empty() -> Self {
        CuboidId(0)
    }

    /// The cuboid containing every one of `d` dimensions — the cube itself.
    /// A `d` above 64 saturates to all 64 representable dimensions.
    pub fn full(d: usize) -> Self {
        if d >= 64 {
            CuboidId(u64::MAX)
        } else {
            CuboidId((1u64 << d) - 1)
        }
    }

    /// Builds from an explicit dimension list.
    pub fn from_dims(dims: &[usize]) -> Self {
        let mut id = CuboidId::empty();
        for &d in dims {
            id = id.with_dim(d);
        }
        id
    }

    /// Builds from a raw bitmask.
    pub fn from_mask(mask: u64) -> Self {
        CuboidId(mask)
    }

    /// The raw bitmask.
    pub fn mask(&self) -> u64 {
        self.0
    }

    /// Adds a dimension. A `dim` of 64 or more is not representable and
    /// leaves the cuboid unchanged, matching [`CuboidId::contains_dim`].
    pub fn with_dim(self, dim: usize) -> Self {
        CuboidId(self.0 | bit(dim))
    }

    /// Removes a dimension (a `dim` of 64 or more is never contained).
    pub fn without_dim(self, dim: usize) -> Self {
        CuboidId(self.0 & !bit(dim))
    }

    /// Whether the cuboid contains a dimension.
    pub fn contains_dim(&self, dim: usize) -> bool {
        dim < 64 && (self.0 >> dim) & 1 == 1
    }

    /// Number of dimensions in the cuboid.
    pub fn ndim(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// The contained dimensions in ascending order.
    pub fn dims(&self) -> Vec<usize> {
        (0..64).filter(|&d| self.contains_dim(d)).collect()
    }

    /// Whether `self` is a **descendant** of `other` (its dimensions are a
    /// subset of `other`'s). §9: "if one cuboid has a subset of the
    /// dimensions of another cuboid, we call the former a descendant of the
    /// latter". A cuboid is its own descendant and ancestor.
    pub fn is_descendant_of(&self, other: &CuboidId) -> bool {
        self.0 & other.0 == self.0
    }

    /// Whether `self` is an **ancestor** of `other` (superset of dims).
    pub fn is_ancestor_of(&self, other: &CuboidId) -> bool {
        other.is_descendant_of(self)
    }

    /// Whether the cuboids differ (strict subset check helper).
    pub fn is_proper_descendant_of(&self, other: &CuboidId) -> bool {
        self != other && self.is_descendant_of(other)
    }

    /// All cuboids over `d` dimensions (the full lattice, `2^d` entries
    /// including the empty cuboid).
    pub fn lattice(d: usize) -> impl Iterator<Item = CuboidId> {
        (0..=CuboidId::full(d).0).map(CuboidId)
    }
}

/// The mask bit of dimension `dim`, or no bit when `dim ≥ 64`.
fn bit(dim: usize) -> u64 {
    u32::try_from(dim)
        .ok()
        .and_then(|d| 1u64.checked_shl(d))
        .unwrap_or(0)
}

impl fmt::Display for CuboidId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, d) in self.dims().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "d{}", d + 1)?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let c = CuboidId::from_dims(&[0, 2]);
        assert!(c.contains_dim(0));
        assert!(!c.contains_dim(1));
        assert!(c.contains_dim(2));
        assert_eq!(c.ndim(), 2);
        assert_eq!(c.dims(), vec![0, 2]);
    }

    #[test]
    fn ancestor_descendant_matches_paper() {
        // "⟨d1, d3⟩ is a descendant of ⟨d1, d2, d3⟩ and an ancestor of ⟨d3⟩."
        let d1d3 = CuboidId::from_dims(&[0, 2]);
        let full = CuboidId::from_dims(&[0, 1, 2]);
        let d3 = CuboidId::from_dims(&[2]);
        assert!(d1d3.is_descendant_of(&full));
        assert!(d1d3.is_ancestor_of(&d3));
        assert!(!d3.is_ancestor_of(&d1d3));
        assert!(d1d3.is_proper_descendant_of(&full));
        assert!(!full.is_proper_descendant_of(&full));
    }

    #[test]
    fn lattice_size() {
        // "There are seven possible cuboids (including the cube itself)"
        // for d = 3, plus the empty cuboid we also enumerate.
        let all: Vec<_> = CuboidId::lattice(3).collect();
        assert_eq!(all.len(), 8);
        assert_eq!(all.iter().filter(|c| c.ndim() > 0).count(), 7);
    }

    #[test]
    fn full_and_empty() {
        assert_eq!(CuboidId::full(3).dims(), vec![0, 1, 2]);
        assert_eq!(CuboidId::empty().ndim(), 0);
        assert_eq!(CuboidId::full(64).ndim(), 64);
    }

    #[test]
    fn with_without_roundtrip() {
        let c = CuboidId::empty().with_dim(5).with_dim(9);
        assert_eq!(c.without_dim(5), CuboidId::from_dims(&[9]));
    }

    #[test]
    fn display_uses_one_based_names() {
        assert_eq!(CuboidId::from_dims(&[0, 1]).to_string(), "⟨d1, d2⟩");
    }
}
