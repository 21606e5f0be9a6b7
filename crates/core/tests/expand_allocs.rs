//! Allocation guard for the batched expand path.
//!
//! A warmed `BatchExecutor::expand` gathers from, and scatters into, the
//! requests' cached activations in place: the only heap traffic left is the
//! logits handed back per request plus a few bookkeeping vectors. Stacking
//! the cached levels of the batch into one tensor per level and splitting
//! them back (what the path did before) costs one allocation per level and
//! request and as many bytes as the caches hold — these tests fail long
//! before that. So does a fixed stage that replaces its cached level with
//! a fresh tensor in place of overwriting it (what pools and flatten did
//! before `FixedStage::infer_into`).
//!
//! A warmed convolution — begin or expand — allocates nothing either: its
//! kernel packs into the executor's scratch, which only grows, and every
//! fixed stage writes into a level shaped for it before it runs. Those
//! counts are exact, so one allocation per conv call fails them.
//!
//! The counting allocator is process-wide, but the count is kept per
//! thread, so the harness and the other tests cannot disturb it.

#![allow(
    unsafe_code,
    reason = "a `#[global_allocator]` must implement the unsafe `GlobalAlloc` trait"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use stepping_core::{ActivationCache, BatchExecutor, SteppingNet, SteppingNetBuilder};
use stepping_tensor::{init, Shape, Tensor};

thread_local! {
    /// `(allocations, bytes)` made by this thread while `COUNTING` is set.
    static COUNT: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain thread-local `Cell`s with
// constant initialisers (no lazy allocation, no destructor), so touching
// them cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            COUNT.with(|c| {
                let (n, bytes) = c.get();
                c.set((n + 1, bytes + layout.size()));
            });
        }
        // SAFETY: same layout, forwarded to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `(allocations, bytes)` this thread makes while running `f`.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, usize, usize) {
    COUNT.with(|c| c.set((0, 0)));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    let (n, bytes) = COUNT.with(Cell::get);
    (out, n, bytes)
}

const SUBNETS: usize = 4;
const CLASSES: usize = 10;

/// The serving benchmark's MLP (256-512-512-256-10), a quarter of every
/// layer's neurons per subnet.
fn mlp() -> SteppingNet {
    let mut net = SteppingNetBuilder::new(Shape::of(&[256]), SUBNETS, 7)
        .linear(512)
        .relu()
        .linear(512)
        .relu()
        .linear(256)
        .relu()
        .build(CLASSES)
        .unwrap();
    let mut moves = Vec::new();
    for (stage, width) in [(0, 512), (2, 512), (4, 256)] {
        for o in 0..width {
            moves.push((stage, o, o * SUBNETS / width));
        }
    }
    net.move_neurons(&moves).unwrap();
    net
}

/// Conv → relu → max-pool → flatten → linear: every kind of fixed stage
/// that changes the cached level's shape, between two masked stages.
fn conv_net() -> SteppingNet {
    let mut net = SteppingNetBuilder::new(Shape::of(&[3, 16, 16]), SUBNETS, 9)
        .conv(24, 3, 1, 1)
        .relu()
        .max_pool(2, 2)
        .flatten()
        .linear(96)
        .relu()
        .build(CLASSES)
        .unwrap();
    let mut moves = Vec::new();
    for (stage, width) in [(0, 24), (4, 96)] {
        for o in 0..width {
            moves.push((stage, o, o * SUBNETS / width));
        }
    }
    net.move_neurons(&moves).unwrap();
    net
}

/// The serving benchmark's conv net (3×16×16 → conv 24 → relu → max-pool →
/// conv 48 → relu → max-pool → flatten → linear 96 → relu), a quarter of
/// every layer's neurons per subnet: two convs whose scratch sizes
/// alternate through one executor.
fn serving_conv_net() -> SteppingNet {
    let mut net = SteppingNetBuilder::new(Shape::of(&[3, 16, 16]), SUBNETS, 9)
        .conv(24, 3, 1, 1)
        .relu()
        .max_pool(2, 2)
        .conv(48, 3, 1, 1)
        .relu()
        .max_pool(2, 2)
        .flatten()
        .linear(96)
        .relu()
        .build(CLASSES)
        .unwrap();
    let mut moves = Vec::new();
    for (stage, width) in [(0, 24), (3, 48), (7, 96)] {
        for o in 0..width {
            moves.push((stage, o, o * SUBNETS / width));
        }
    }
    net.move_neurons(&moves).unwrap();
    net
}

/// `requests` single-row inputs for `exec`'s model.
fn inputs(exec: &BatchExecutor, requests: usize) -> Vec<Tensor> {
    let mut dims = vec![1];
    dims.extend_from_slice(exec.model().input_shape().dims());
    (0..requests)
        .map(|i| init::uniform(Shape::of(&dims), -1.0, 1.0, &mut init::rng(i as u64)))
        .collect()
}

fn begin(exec: &mut BatchExecutor, requests: usize) -> Vec<ActivationCache> {
    let inputs = inputs(exec, requests);
    exec.begin(&inputs, 0)
        .unwrap()
        .into_iter()
        .map(|(cache, _)| cache)
        .collect()
}

/// Warms an executor over `net`, then requires of every expand of a fresh
/// batch no more allocations than the logits handed back plus bookkeeping
/// that does not grow with the cached levels, and far fewer bytes than one
/// cached level of the batch (`level_floats` values per request) holds.
fn assert_warmed_expand_allocates_only_the_logits(net: &SteppingNet, level_floats: usize) {
    const REQUESTS: usize = 8;
    let mut exec = BatchExecutor::new(net, 0.0);
    // warm-up: grow the scratch panels
    let mut warm = begin(&mut exec, REQUESTS);
    for _ in 1..SUBNETS {
        exec.expand(&mut warm).unwrap();
    }

    // what handing one request its logits costs
    let (_, logits_allocs, logits_bytes) =
        count_allocs(|| Tensor::from_vec(Shape::of(&[1, CLASSES]), vec![0.0; CLASSES]).unwrap());
    // bookkeeping that does not grow with the cached levels: the stack and
    // result vectors, the batch's stacked logits
    const CONSTANT_ALLOCS: usize = 12;
    let cache_level_bytes = REQUESTS * level_floats * std::mem::size_of::<f32>();

    let mut caches = begin(&mut exec, REQUESTS);
    for k in 1..SUBNETS {
        let (steps, allocs, bytes) = count_allocs(|| exec.expand(&mut caches).unwrap());
        assert_eq!(steps.len(), REQUESTS);
        assert!(
            allocs <= REQUESTS * logits_allocs + CONSTANT_ALLOCS,
            "expand to subnet {k} made {allocs} allocations for {REQUESTS} requests \
             ({logits_allocs} per logits tensor)"
        );
        assert!(
            bytes <= 4 * REQUESTS * logits_bytes + 1024 && bytes < cache_level_bytes / 4,
            "expand to subnet {k} allocated {bytes} bytes; one cached level of the batch \
             holds {cache_level_bytes}"
        );
    }
}

#[test]
fn warmed_batched_expand_allocates_only_the_logits() {
    assert_warmed_expand_allocates_only_the_logits(&mlp(), 512);
}

/// The fixed stages between the conv and the linear layer — relu, max-pool,
/// flatten — overwrite the next cached level in place: no tensor is
/// allocated for them (the smallest cached level they write, the pooled
/// one, holds 24 × 8 × 8 values per request).
#[test]
fn warmed_conv_expand_allocates_no_tensor_in_its_fixed_stages() {
    assert_warmed_expand_allocates_only_the_logits(&conv_net(), 24 * 8 * 8);
}

/// A warmed conv begin at every subnet, and every warmed expand after one,
/// allocates exactly what it hands back and the lists that carry it —
/// nothing inside the conv kernel (padded planes and position groups live
/// in the executor's scratch, grown and never shrunk while conv1's and
/// conv2's sizes alternate) or a fixed stage (each writes into a level
/// already shaped for it).
#[test]
fn warmed_conv_begin_and_expand_allocate_nothing_in_a_kernel_or_a_fixed_stage() {
    const REQUESTS: usize = 8;
    let net = serving_conv_net();
    let mut exec = BatchExecutor::new(&net, 0.0);
    // the compiled stages' levels: each relu is folded into its conv or
    // linear, so the net's 9 stages compile to 6, whose inputs and the
    // features make 7 levels
    let levels = exec.model().cache_levels();
    assert_eq!(levels, 7);
    let inputs = inputs(&exec, REQUESTS);
    // warm-up: every full and step panel through the one scratch
    for subnet in 0..SUBNETS {
        exec.begin(&inputs, subnet).unwrap();
    }
    let mut warm = begin(&mut exec, REQUESTS);
    for _ in 1..SUBNETS {
        exec.expand(&mut warm).unwrap();
    }

    // one tensor: its shape and its data
    let (_, tensor, _) = count_allocs(|| Tensor::zeros(Shape::of(&[REQUESTS, CLASSES])));
    for subnet in 0..SUBNETS {
        let (_, allocs, _) = count_allocs(|| exec.begin(&inputs, subnet).unwrap());
        // the stacked input, one level per compiled stage and the stacked
        // logits, each also split into one tensor per request; a list per
        // split level and per request; the row counts, the level stack, the
        // request list and the result
        let tensors = (levels + 1) * (REQUESTS + 1);
        let lists = (levels + 1) + REQUESTS + 4;
        assert!(
            allocs <= tensors * tensor + lists,
            "a warmed begin at subnet {subnet} made {allocs} allocations; its {tensors} \
             tensors and {lists} lists make {}",
            tensors * tensor + lists
        );
    }
    let mut caches = begin(&mut exec, REQUESTS);
    for k in 1..SUBNETS {
        let (_, allocs, _) = count_allocs(|| exec.expand(&mut caches).unwrap());
        // the stacked logits and each request's share; the stack list, the
        // row counts, the split list and the result
        let expected = (REQUESTS + 1) * tensor + 4;
        assert!(
            allocs <= expected,
            "a warmed expand to subnet {k} made {allocs} allocations, its logits and \
             bookkeeping {expected}"
        );
    }
}

/// A warmed pass that keeps no level — `BatchExecutor::forward`, at every
/// subnet of the MLP and the serving conv net — allocates its logits and
/// nothing that grows with the net: the stacked logits and each request's
/// share, the row counts, the split list and the result. Its stages run
/// through two scratch levels the executor keeps, each reshaped in place.
#[test]
fn warmed_forward_allocates_only_the_logits() {
    const REQUESTS: usize = 8;
    for net in [mlp(), serving_conv_net()] {
        let mut exec = BatchExecutor::new(&net, 0.0);
        let inputs = inputs(&exec, REQUESTS);
        // warm-up: every full panel and both scratch levels at every size
        for subnet in 0..SUBNETS {
            exec.forward(&inputs, subnet).unwrap();
        }
        let (_, tensor, _) = count_allocs(|| Tensor::zeros(Shape::of(&[REQUESTS, CLASSES])));
        // one request's logits
        let (_, _, logits_bytes) = count_allocs(|| Tensor::zeros(Shape::of(&[1, CLASSES])));
        for subnet in 0..SUBNETS {
            let (steps, allocs, bytes) = count_allocs(|| exec.forward(&inputs, subnet).unwrap());
            assert_eq!(steps.len(), REQUESTS);
            let expected = (REQUESTS + 1) * tensor + 3;
            assert!(
                allocs <= expected,
                "a warmed forward at subnet {subnet} made {allocs} allocations, its logits \
                 and lists {expected}"
            );
            assert!(
                bytes <= 4 * REQUESTS * logits_bytes + 1024,
                "a warmed forward at subnet {subnet} allocated {bytes} bytes; one request's \
                 logits take {logits_bytes}"
            );
        }
    }
}
