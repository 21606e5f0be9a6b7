//! L7 fixture (positive): `unsafe` in a library file outside the zone, with
//! or without a justification.

pub fn first(xs: &[f32]) -> f32 {
    // SAFETY: callers never pass an empty slice.
    unsafe { *xs.get_unchecked(0) }
}

pub unsafe fn second(xs: &[f32]) -> f32 {
    *xs.as_ptr().add(1)
}
