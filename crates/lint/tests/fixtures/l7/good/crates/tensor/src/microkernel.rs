//! L7 fixture (negative): justified `unsafe` in the kernel file. The word
//! `unsafe` in comments and strings is not a use.

pub fn widest() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

#[target_feature(enable = "avx2")]
fn tile(a: &[f32; 8]) -> f32 {
    // SAFETY: avx2 is enabled on this function; the load reads the eight
    // floats of `a`.
    unsafe { *a.as_ptr().add(7) }
}

pub fn run(a: &[f32; 8]) -> f32 {
    if !widest() {
        return a[7];
    }
    // SAFETY: `widest` saw avx2 on this CPU.
    unsafe { tile(a) }
}

pub fn describe() -> &'static str {
    "the only unsafe code of the workspace"
}
