//! A software prefetch hint for host-memory-bound loops.
//!
//! The functional warm-up walks multi-megabyte tag arrays at addresses
//! its op stream already knows a few ops ahead. [`prefetch_read`] asks
//! the host CPU to start loading such a line early. It is a pure hint:
//! it reads nothing, writes nothing and cannot fault, so calling it can
//! never change a simulated result, only host time.

/// Hint that `data[index]` will be read soon, so its host cache line
/// should start loading now.
///
/// An out-of-range `index` is ignored. On targets other than x86_64 this
/// compiles to nothing.
#[inline(always)]
pub fn prefetch_read<T>(data: &[T], index: usize) {
    #[cfg(target_arch = "x86_64")]
    if let Some(item) = data.get(index) {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: `_mm_prefetch` is unsafe only because it takes a raw
        // pointer. A prefetch never dereferences its operand in the
        // program's sense (it cannot fault, read into a register or
        // write), and the pointer comes from a live reference anyway.
        // SSE, which provides the instruction, is part of the x86_64
        // baseline.
        unsafe { _mm_prefetch::<_MM_HINT_T0>((item as *const T).cast::<i8>()) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (data, index);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_index_is_harmless() {
        let v = vec![1u64, 2, 3];
        for i in [0, 2, 3, usize::MAX] {
            prefetch_read(&v, i);
        }
        prefetch_read::<u8>(&[], 0);
        assert_eq!(v, [1, 2, 3]);
    }
}
