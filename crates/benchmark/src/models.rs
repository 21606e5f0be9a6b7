//! The two fixed models every workload and probe runs on — the nets of
//! `bench --bin plans`, untrained, four subnets, regular assignment.

use stepping_baselines::regular_assign;
use stepping_core::{SteppingNet, SteppingNetBuilder};
use stepping_tensor::{init, Shape, Tensor};

/// Subnets in both models.
pub const SUBNETS: usize = 4;
/// Inputs generated per run; every request draws one of them.
pub const INPUT_POOL: usize = 512;

/// Which of the two models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// 256-512-512-256-10 MLP, 526 848 MACs.
    Mlp,
    /// 3×16×16 LeNet-3C1L-style conv net, 904 128 MACs.
    Conv,
}

impl Model {
    /// Short name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Model::Mlp => "mlp",
            Model::Conv => "conv",
        }
    }

    /// Shape of one request row, batch dimension first.
    pub fn row_shape(self) -> Shape {
        match self {
            Model::Mlp => Shape::of(&[1, 256]),
            Model::Conv => Shape::of(&[1, 3, 16, 16]),
        }
    }

    /// Builds the model and assigns its neurons to the four subnets.
    pub fn build(self) -> SteppingNet {
        let builder = match self {
            Model::Mlp => SteppingNetBuilder::new(Shape::of(&[256]), SUBNETS, 7)
                .linear(512)
                .relu()
                .linear(512)
                .relu()
                .linear(256)
                .relu(),
            Model::Conv => SteppingNetBuilder::new(Shape::of(&[3, 16, 16]), SUBNETS, 9)
                .conv(24, 3, 1, 1)
                .relu()
                .max_pool(2, 2)
                .conv(48, 3, 1, 1)
                .relu()
                .max_pool(2, 2)
                .flatten()
                .linear(96)
                .relu(),
        };
        let mut net = builder.build(10).expect("fixed architecture builds");
        regular_assign(&mut net, &[0.25, 0.5, 0.75, 1.0]).expect("fixed assignment applies");
        net
    }

    /// `INPUT_POOL` single-row inputs drawn from `seed`.
    pub fn inputs(self, seed: u64) -> Vec<Tensor> {
        let mut rng = init::rng(seed);
        (0..INPUT_POOL)
            .map(|_| init::uniform(self.row_shape(), -1.0, 1.0, &mut rng))
            .collect()
    }
}

/// A net with one hidden neuron: a round trip through a server over it
/// costs lanes, doorbell, ticket and session insert, and no arithmetic.
pub fn null_net() -> SteppingNet {
    SteppingNetBuilder::new(Shape::of(&[1]), 1, 0)
        .linear(1)
        .relu()
        .build(1)
        .expect("one-neuron net builds")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn models_have_the_documented_mac_counts() {
        assert_eq!(Model::Mlp.build().full_macs(), 526_848);
        assert_eq!(Model::Conv.build().full_macs(), 904_128);
        assert_eq!(Model::Mlp.build().subnet_count(), SUBNETS);
    }

    #[test]
    fn inputs_follow_the_seed() {
        let a = Model::Mlp.inputs(5);
        assert_eq!(a.len(), INPUT_POOL);
        assert_eq!(a[0].shape(), &Model::Mlp.row_shape());
        assert_eq!(a[3], Model::Mlp.inputs(5)[3]);
        assert_ne!(a[3], Model::Mlp.inputs(6)[3]);
    }
}
