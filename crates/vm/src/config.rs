//! Machine configuration.

/// Maximum call depth before the machine reports a crash, guarding
/// against runaway recursion.
pub(crate) const MAX_CALL_DEPTH: usize = 128;

/// Configuration switches for a [`crate::Machine`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmConfig {
    /// When `true`, signed overflow in `Add`/`Sub`/`Mul` crashes the
    /// program (the KLEE-style overflow detector shown in paper Fig. 2).
    /// When `false`, arithmetic wraps.
    pub detect_overflow: bool,
}

impl VmConfig {
    /// The default configuration with overflow detection enabled.
    pub fn with_overflow_detection() -> Self {
        VmConfig {
            detect_overflow: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = VmConfig::default();
        assert!(!c.detect_overflow);
        assert!(VmConfig::with_overflow_detection().detect_overflow);
    }
}
