//! Cell technology (SLC/MLC/TLC) and data-pattern modelling.

use std::fmt;

/// How many bits each flash cell stores.
///
/// Multi-level-cell (MLC) technology packs more threshold-voltage states into
/// the same voltage window, which raises storage density but also the raw
/// bit-error rate (§2.2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellTechnology {
    /// Single-level cell: 1 bit per cell, 2 threshold-voltage states.
    Slc,
    /// Multi-level cell: 2 bits per cell, 4 states.
    Mlc,
    /// Triple-level cell: 3 bits per cell, 8 states.
    Tlc,
}

impl CellTechnology {
    /// Number of bits stored per cell.
    pub const fn bits_per_cell(self) -> u32 {
        match self {
            CellTechnology::Slc => 1,
            CellTechnology::Mlc => 2,
            CellTechnology::Tlc => 3,
        }
    }

    /// Number of threshold-voltage states (`2^bits`).
    pub const fn vth_states(self) -> u32 {
        1 << self.bits_per_cell()
    }

    /// Fraction of cells that a uniformly random (randomized) data pattern
    /// programs to a state *above* the erased state.
    ///
    /// For TLC this is 7/8 = 87.5 %, the figure the paper uses when arguing
    /// that most insufficiently-erased cells are harmless because they will be
    /// re-programmed to higher states anyway (§4, "Leveraging ECC-Capability
    /// Margin").
    pub fn programmed_state_fraction(self) -> f64 {
        let states = self.vth_states() as f64;
        (states - 1.0) / states
    }
}

impl fmt::Display for CellTechnology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CellTechnology::Slc => "SLC",
            CellTechnology::Mlc => "MLC",
            CellTechnology::Tlc => "TLC",
        };
        f.write_str(s)
    }
}

/// The data pattern written by a program operation.
///
/// The pattern matters for reliability modelling: modern SSDs scramble
/// (randomize) user data before programming, which spreads cells evenly over
/// all threshold-voltage states and is the assumption behind the paper's
/// ECC-margin argument. Deliberately adversarial patterns (all cells kept in
/// the erased state) maximize the exposure of insufficient erasure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DataPattern {
    /// Scrambled/randomized data, the normal operating mode.
    #[default]
    Randomized,
    /// All cells left in the lowest (erased) state — worst case for
    /// insufficient-erasure errors.
    AllErasedState,
    /// All cells programmed to the highest state — best case for
    /// insufficient-erasure errors.
    AllProgrammedState,
}

impl DataPattern {
    /// Fraction of cells that end up in a *programmed* (non-erased) state when
    /// a page is written with this pattern on the given cell technology.
    ///
    /// Insufficiently-erased cells only threaten data integrity when the new
    /// data wants them in the erased state, so this fraction scales the error
    /// contribution of incomplete erasure.
    pub fn programmed_fraction(self, tech: CellTechnology) -> f64 {
        match self {
            DataPattern::Randomized => tech.programmed_state_fraction(),
            DataPattern::AllErasedState => 0.0,
            DataPattern::AllProgrammedState => 1.0,
        }
    }

    /// Fraction of cells the pattern leaves in the erased state.
    pub fn erased_fraction(self, tech: CellTechnology) -> f64 {
        1.0 - self.programmed_fraction(tech)
    }
}

impl fmt::Display for DataPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataPattern::Randomized => "randomized",
            DataPattern::AllErasedState => "all-erased-state",
            DataPattern::AllProgrammedState => "all-programmed-state",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_and_states() {
        assert_eq!(CellTechnology::Slc.bits_per_cell(), 1);
        assert_eq!(CellTechnology::Mlc.bits_per_cell(), 2);
        assert_eq!(CellTechnology::Tlc.bits_per_cell(), 3);
        assert_eq!(CellTechnology::Slc.vth_states(), 2);
        assert_eq!(CellTechnology::Mlc.vth_states(), 4);
        assert_eq!(CellTechnology::Tlc.vth_states(), 8);
    }

    #[test]
    fn tlc_randomized_fraction_matches_paper() {
        // 87.5% of cells are programmed to a higher-than-erased state under
        // data randomization in TLC (paper §4).
        let f = DataPattern::Randomized.programmed_fraction(CellTechnology::Tlc);
        assert!((f - 0.875).abs() < 1e-12);
        assert!(
            (DataPattern::Randomized.erased_fraction(CellTechnology::Tlc) - 0.125).abs() < 1e-12
        );
    }

    #[test]
    fn extreme_patterns() {
        assert_eq!(
            DataPattern::AllErasedState.programmed_fraction(CellTechnology::Tlc),
            0.0
        );
        assert_eq!(
            DataPattern::AllProgrammedState.programmed_fraction(CellTechnology::Mlc),
            1.0
        );
    }

    #[test]
    fn display_strings() {
        assert_eq!(CellTechnology::Tlc.to_string(), "TLC");
        assert_eq!(DataPattern::Randomized.to_string(), "randomized");
    }
}
