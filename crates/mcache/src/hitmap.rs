use std::fmt;

/// Outcome of an MCACHE probe for one input vector (paper Figure 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitKind {
    /// The signature was already cached: the PE set skips its dot products
    /// and reuses the stored results.
    Hit,
    /// Miss-And-Update: the signature was inserted; this vector's PE set
    /// computes the dot products and writes them into the cache.
    Mau,
    /// Miss-No-Update: the set was full, nothing was inserted; the PE set
    /// computes the dot products but discards them for reuse purposes.
    Mnu,
}

impl fmt::Display for HitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HitKind::Hit => write!(f, "HIT"),
            HitKind::Mau => write!(f, "MAU"),
            HitKind::Mnu => write!(f, "MNU"),
        }
    }
}

/// HIT/MAU/MNU counts of one reuse scope — the mix plotted in Figure 15a,
/// and all the cycle model needs: a HIT costs a cached read and an MAU or
/// MNU a dot product wherever it falls in the stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeMix {
    /// HIT count.
    pub hits: usize,
    /// MAU count.
    pub maus: usize,
    /// MNU count.
    pub mnus: usize,
}

impl OutcomeMix {
    /// Counts one more outcome.
    pub fn record(&mut self, kind: HitKind) {
        match kind {
            HitKind::Hit => self.hits += 1,
            HitKind::Mau => self.maus += 1,
            HitKind::Mnu => self.mnus += 1,
        }
    }

    /// Number of probed vectors.
    pub fn total(&self) -> usize {
        self.hits + self.maus + self.mnus
    }

    /// Vectors that compute their dot products (MAU + MNU).
    pub fn computed(&self) -> usize {
        self.maus + self.mnus
    }

    /// This mix with `n` of its HITs charged as MAUs: a HIT whose
    /// producer value is not resident (a tag persisting from an earlier
    /// pass) computes and writes like an MAU.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the HIT count.
    pub fn promote_hits(self, n: usize) -> Self {
        OutcomeMix {
            hits: self.hits - n,
            maus: self.maus + n,
            mnus: self.mnus,
        }
    }

    /// Fraction of probes that hit.
    pub fn hit_rate(&self) -> f64 {
        let n = self.total();
        if n == 0 {
            return 0.0;
        }
        self.hits as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_of_kinds() {
        assert_eq!(HitKind::Hit.to_string(), "HIT");
        assert_eq!(HitKind::Mau.to_string(), "MAU");
        assert_eq!(HitKind::Mnu.to_string(), "MNU");
    }

    #[test]
    fn promoted_hits_move_to_maus() {
        let mix = OutcomeMix {
            hits: 5,
            maus: 2,
            mnus: 1,
        };
        let promoted = mix.promote_hits(3);
        assert_eq!((promoted.hits, promoted.maus, promoted.mnus), (2, 5, 1));
        assert_eq!(promoted.total(), mix.total());
        assert_eq!(promoted.computed(), mix.computed() + 3);
    }
}
