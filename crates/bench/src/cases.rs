//! The paper's three test cases, sized for the available hardware.
//!
//! Paper parameters (§IV): networks LeNet-3C1L / LeNet-5 / VGG-16 on
//! CIFAR-10 / CIFAR-10 / CIFAR-100; expansion ratios 1.8 / 2.0 / 1.8; MAC
//! budgets 10/30/50/85 %, 15/30/60/85 %, 20/40/50/70 %; `N_t = 300`
//! iterations with `m` = 250/250/100 batches; β = 0.9, γ = 0.4, prune
//! threshold 1e-5, α growth 1.5.
//!
//! On a CPU-only reproduction the absolute widths and sample counts are
//! scaled down ([`ExperimentScale`]); every algorithmic parameter keeps the
//! paper's value or scales proportionally.

use stepping_core::{construct::ConstructionOptions, distill::DistillOptions, train::TrainOptions};
use stepping_data::{DataError, SyntheticImages, SyntheticImagesConfig};
use stepping_models::Architecture;
use stepping_nn::schedule::LrSchedule;
use stepping_tensor::Shape;

/// How big the experiment runs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// Minutes on a laptop CPU; shapes of all trends preserved.
    Quick,
    /// Tens of minutes; wider networks and more data.
    Standard,
    /// Hours; closest to the paper's configuration.
    Full,
}

impl ExperimentScale {
    /// Reads `STEPPING_SCALE` (`quick`/`standard`/`full`; default quick).
    pub fn from_env() -> Self {
        match std::env::var("STEPPING_SCALE")
            .unwrap_or_default()
            .to_lowercase()
            .as_str()
        {
            "full" => ExperimentScale::Full,
            "standard" => ExperimentScale::Standard,
            _ => ExperimentScale::Quick,
        }
    }

    fn width_scale(&self) -> f64 {
        match self {
            ExperimentScale::Quick => 0.25,
            ExperimentScale::Standard => 0.5,
            ExperimentScale::Full => 1.0,
        }
    }

    fn vgg_width_scale(&self) -> f64 {
        match self {
            ExperimentScale::Quick => 0.0625,
            ExperimentScale::Standard => 0.125,
            ExperimentScale::Full => 1.0,
        }
    }

    fn train_per_class(&self, classes: usize) -> usize {
        // many-class suites (the CIFAR-100 stand-in) use fewer samples per
        // class so total dataset size stays comparable
        let base = match self {
            ExperimentScale::Quick => 40,
            ExperimentScale::Standard => 150,
            ExperimentScale::Full => 500,
        };
        if classes > 50 {
            (base / 2).max(8)
        } else {
            base
        }
    }

    fn test_per_class(&self, classes: usize) -> usize {
        let base = match self {
            ExperimentScale::Quick => 10,
            ExperimentScale::Standard => 40,
            ExperimentScale::Full => 100,
        };
        if classes > 50 {
            (base / 2).max(4)
        } else {
            base
        }
    }

    fn image_extent(&self) -> usize {
        match self {
            ExperimentScale::Quick => 16,
            _ => 32,
        }
    }

    /// Construction iterations (`N_t`, paper 300).
    pub fn iterations(&self) -> usize {
        match self {
            ExperimentScale::Quick => 8,
            ExperimentScale::Standard => 40,
            ExperimentScale::Full => 300,
        }
    }

    /// Batches per subnet per iteration (`m`, paper 250/100).
    pub fn batches_per_iter(&self) -> usize {
        match self {
            ExperimentScale::Quick => 4,
            ExperimentScale::Standard => 20,
            ExperimentScale::Full => 250,
        }
    }

    /// Pretraining epochs.
    pub fn epochs(&self) -> usize {
        match self {
            ExperimentScale::Quick => 6,
            ExperimentScale::Standard => 15,
            ExperimentScale::Full => 60,
        }
    }

    /// Knowledge-distillation retraining epochs.
    pub fn distill_epochs(&self) -> usize {
        match self {
            ExperimentScale::Quick => 8,
            ExperimentScale::Standard => 24,
            ExperimentScale::Full => 60,
        }
    }
}

/// One Table-I row: an architecture, its dataset, and the paper's
/// hyper-parameters at the selected scale.
#[derive(Debug, Clone)]
pub struct TestCase {
    /// Case name as printed in the paper ("LeNet-3C1L" …).
    pub name: &'static str,
    /// Dataset name as printed in the paper.
    pub dataset_name: &'static str,
    /// Scaled architecture spec.
    pub arch: Architecture,
    /// Width-expansion ratio (1.8 / 2.0 / 1.8).
    pub expansion: f64,
    /// Subnet MAC budgets as fractions of the unexpanded reference.
    pub budgets: Vec<f64>,
    /// Experiment scale used.
    pub scale: ExperimentScale,
    /// Dataset seed.
    pub data_seed: u64,
    /// Model seed.
    pub model_seed: u64,
}

impl TestCase {
    /// LeNet-3C1L on the CIFAR-10 stand-in (Table I row 1).
    pub fn lenet_3c1l(scale: ExperimentScale) -> Self {
        let ext = scale.image_extent();
        TestCase {
            name: "LeNet-3C1L",
            dataset_name: "Cifar10",
            arch: Architecture::lenet_3c1l(10)
                .with_input(Shape::of(&[3, ext, ext]))
                .scaled(scale.width_scale()),
            expansion: 1.8,
            budgets: vec![0.10, 0.30, 0.50, 0.85],
            scale,
            data_seed: 1001,
            model_seed: 11,
        }
    }

    /// LeNet-5 on the CIFAR-10 stand-in (Table I row 2).
    pub fn lenet5(scale: ExperimentScale) -> Self {
        let ext = scale.image_extent();
        // LeNet-5 keeps its full widths at every scale: the network is small
        // (<1M MACs), and narrowing it below ~6 filters per conv destroys the
        // per-neuron granularity the paper's MAC budgets rely on.
        TestCase {
            name: "LeNet-5",
            dataset_name: "Cifar10",
            arch: Architecture::lenet5(10).with_input(Shape::of(&[3, ext, ext])),
            expansion: 2.0,
            budgets: vec![0.15, 0.30, 0.60, 0.85],
            scale,
            data_seed: 1002,
            model_seed: 22,
        }
    }

    /// VGG-16 on the CIFAR-100 stand-in (Table I row 3). VGG's five pooling
    /// stages require the full 32×32 input at every scale.
    pub fn vgg16(scale: ExperimentScale) -> Self {
        TestCase {
            name: "VGG-16",
            dataset_name: "Cifar100",
            arch: Architecture::vgg16(100).scaled(scale.vgg_width_scale()),
            expansion: 1.8,
            budgets: vec![0.20, 0.40, 0.50, 0.70],
            scale,
            data_seed: 1003,
            model_seed: 33,
        }
    }

    /// All three Table-I rows.
    pub fn all(scale: ExperimentScale) -> Vec<TestCase> {
        vec![
            Self::lenet_3c1l(scale),
            Self::lenet5(scale),
            Self::vgg16(scale),
        ]
    }

    /// Builds the case's dataset (synthetic CIFAR stand-in at the case's
    /// image geometry).
    ///
    /// # Errors
    ///
    /// Propagates dataset configuration errors.
    pub fn dataset(&self) -> Result<SyntheticImages, DataError> {
        let dims = self.arch.input.dims();
        let classes = self.arch.classes;
        SyntheticImages::new(
            SyntheticImagesConfig {
                classes,
                channels: dims[0],
                height: dims[1],
                width: dims[2],
                train_per_class: self.scale.train_per_class(classes),
                test_per_class: self.scale.test_per_class(classes),
                prototype_components: if classes > 50 { 6 } else { 4 },
                ..Default::default()
            },
            self.data_seed,
        )
    }

    /// Pretraining options for the original networks.
    pub fn pretrain_options(&self) -> TrainOptions {
        TrainOptions {
            epochs: self.scale.epochs(),
            batch_size: 32,
            lr: 0.05,
            schedule: LrSchedule::Constant,
            seed: self.model_seed ^ 0xAAAA,
        }
    }

    /// Construction options with the paper's hyper-parameters at this scale.
    ///
    /// # Panics
    ///
    /// Panics if the case's architecture geometry is inconsistent — the
    /// built-in cases are known-good.
    pub fn construction_options(&self) -> ConstructionOptions {
        ConstructionOptions {
            mac_targets: self
                .arch
                .mac_targets(&self.budgets)
                .expect("case geometry is valid"),
            iterations: self.scale.iterations(),
            batches_per_iter: self.scale.batches_per_iter(),
            batch_size: 32,
            lr: 0.02,
            beta: 0.9,
            alpha_growth: 1.5,
            prune_threshold: 1e-5,
            suppress_updates: true,
            min_neurons_per_stage: 1,
            warm_start_heads: true,
            criterion: Default::default(),
            seed: self.model_seed ^ 0xBBBB,
        }
    }

    /// Distillation options (γ = 0.4, β = 0.9 as in the paper).
    pub fn distill_options(&self) -> DistillOptions {
        DistillOptions {
            epochs: self.scale.distill_epochs(),
            batch_size: 32,
            lr: 0.03,
            gamma: 0.4,
            beta: 0.9,
            suppress_updates: true,
            use_distillation: true,
            // decay toward fine-tuning so late epochs stabilise the subnets
            schedule: LrSchedule::Exponential { factor: 0.92 },
            seed: self.model_seed ^ 0xCCCC,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_from_env_defaults_to_quick() {
        // (test processes don't set STEPPING_SCALE)
        assert_eq!(ExperimentScale::from_env(), ExperimentScale::Quick);
    }

    #[test]
    fn all_three_cases_have_paper_parameters() {
        let cases = TestCase::all(ExperimentScale::Quick);
        assert_eq!(cases.len(), 3);
        assert_eq!(cases[0].budgets, vec![0.10, 0.30, 0.50, 0.85]);
        assert_eq!(cases[1].expansion, 2.0);
        assert_eq!(cases[2].dataset_name, "Cifar100");
        assert_eq!(cases[2].arch.classes, 100);
    }

    #[test]
    fn datasets_match_architectures() {
        for case in TestCase::all(ExperimentScale::Quick) {
            let d = case.dataset().unwrap();
            use stepping_data::Dataset as _;
            assert_eq!(d.sample_shape(), case.arch.input);
            assert_eq!(d.classes(), case.arch.classes);
        }
    }

    #[test]
    fn cases_build_working_networks() {
        let case = TestCase::lenet_3c1l(ExperimentScale::Quick);
        let net = case.arch.build(4, case.model_seed, case.expansion).unwrap();
        assert_eq!(net.subnet_count(), 4);
        // budgets must be reachable: expanded capacity above the largest target
        let targets = case.arch.mac_targets(&case.budgets).unwrap();
        assert!(net.full_macs() > targets[3]);
    }

    #[test]
    fn construction_options_embed_paper_constants() {
        let case = TestCase::lenet5(ExperimentScale::Quick);
        let o = case.construction_options();
        assert_eq!(o.beta, 0.9);
        assert_eq!(o.alpha_growth, 1.5);
        assert_eq!(o.prune_threshold, 1e-5);
        assert_eq!(case.distill_options().gamma, 0.4);
    }
}
