//! L7 fixture (positive): the kernel file may use `unsafe`, but every use
//! must be justified, and the justification must name the detected feature.

pub fn widest() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

pub fn no_comment(a: &[f32; 8]) -> f32 {
    unsafe { *a.as_ptr() }
}

pub fn comment_not_adjacent(a: &[f32; 8]) -> f32 {
    // SAFETY: avx2 was detected; the array has eight elements.

    unsafe { *a.as_ptr().add(7) }
}

pub fn comment_names_no_feature(a: &[f32; 8]) -> f32 {
    // SAFETY: the array has eight elements.
    unsafe { *a.as_ptr().add(3) }
}
