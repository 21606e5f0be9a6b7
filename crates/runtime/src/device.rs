//! A simple device latency model: MACs → wall-clock time.

/// Throughput model of a compute device.
///
/// The paper cites AlexNet at 26 ms on a GTX 1070 Ti; this model lets the
/// benchmark harness translate subnet MAC counts into comparable latency
/// figures without real hardware.
///
/// # Example
///
/// ```
/// use stepping_runtime::DeviceModel;
///
/// let dev = DeviceModel::new(1000.0); // 1000 MACs per µs
/// assert_eq!(dev.latency_us(5000), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceModel {
    macs_per_us: f64,
}

impl DeviceModel {
    /// A device executing `macs_per_us` MAC operations per microsecond.
    ///
    /// # Panics
    ///
    /// Panics unless `macs_per_us` is positive finite.
    pub fn new(macs_per_us: f64) -> Self {
        assert!(
            macs_per_us.is_finite() && macs_per_us > 0.0,
            "throughput must be positive finite"
        );
        DeviceModel { macs_per_us }
    }

    /// An embedded-class device (≈1 GMAC/s).
    pub fn embedded() -> Self {
        DeviceModel::new(1_000.0)
    }

    /// A mobile-SoC-class device (≈20 GMAC/s).
    pub fn mobile() -> Self {
        DeviceModel::new(20_000.0)
    }

    /// Throughput in MACs per microsecond.
    pub fn macs_per_us(&self) -> f64 {
        self.macs_per_us
    }

    /// Latency in microseconds of executing `macs` MAC operations.
    pub fn latency_us(&self, macs: u64) -> f64 {
        macs as f64 / self.macs_per_us
    }

    /// MACs executable within `us` microseconds.
    pub fn budget_for_us(&self, us: f64) -> u64 {
        (self.macs_per_us * us).floor() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_scales_linearly() {
        let d = DeviceModel::new(100.0);
        assert_eq!(d.latency_us(100), 1.0);
        assert_eq!(d.latency_us(1000), 10.0);
        assert_eq!(d.budget_for_us(2.5), 250);
    }

    #[test]
    fn presets_are_ordered() {
        assert!(DeviceModel::mobile().macs_per_us() > DeviceModel::embedded().macs_per_us());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_throughput_panics() {
        let _ = DeviceModel::new(0.0);
    }
}
