use std::marker::PhantomData;

/// A shared view of a mutable slice that allows scattered writes from many
/// virtual threads at once.
///
/// GPU kernels routinely have each thread write to a distinct, runtime-
/// computed offset of a shared output array (e.g. the paper's
/// `OUTPUTNEWCLIQUES` kernel writes each new sublist at an offset produced by
/// a prefix scan). Rust's aliasing rules cannot express "disjoint at runtime"
/// directly, so this wrapper provides unchecked writes with the safety
/// contract pushed to the kernel author — exactly the contract CUDA gives.
///
/// # Safety contract
///
/// Callers of [`SharedSlice::write`] must guarantee that no two virtual
/// threads write the same index during one launch, and that no *other*
/// thread reads an index while it may be written (the owning thread may
/// freely read-modify-write its own indices, as CUDA threads do). All
/// launches are bulk-synchronous, so writes from one launch are visible to
/// subsequent launches.
pub struct SharedSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: the wrapper only permits access through `unsafe` methods whose
// contract requires disjoint writes; with that contract upheld, sharing the
// raw pointer across threads is sound for `T: Send`.
unsafe impl<T: Send> Sync for SharedSlice<'_, T> {}
unsafe impl<T: Send> Send for SharedSlice<'_, T> {}

impl<'a, T> SharedSlice<'a, T> {
    /// Wraps a mutable slice for scattered parallel writes.
    pub fn new(slice: &'a mut [T]) -> Self {
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
        }
    }

    /// Number of elements in the underlying slice.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the underlying slice is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Writes `value` at `index`.
    ///
    /// # Safety
    /// `index < len()`, and no *other* virtual thread writes or reads
    /// `index` during this launch.
    #[inline]
    pub unsafe fn write(&self, index: usize, value: T) {
        debug_assert!(index < self.len);
        unsafe { self.ptr.add(index).write(value) };
    }

    /// Reads the element at `index`.
    ///
    /// # Safety
    /// `index < len()`, and no *other* virtual thread writes `index` during
    /// this launch (reading back this thread's own writes is fine).
    #[inline]
    pub unsafe fn read(&self, index: usize) -> T
    where
        T: Copy,
    {
        debug_assert!(index < self.len);
        unsafe { self.ptr.add(index).read() }
    }

    /// The elements in `range` as one mutable slice — a virtual thread's
    /// own span of the array.
    ///
    /// # Safety
    /// `range` lies within `0..len()`, and no *other* virtual thread reads
    /// or writes any index in it while the returned slice is alive.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn span(&self, range: std::ops::Range<usize>) -> &mut [T] {
        debug_assert!(range.start <= range.end && range.end <= self.len);
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(range.start), range.len()) }
    }
}

/// A shared view of the *spare capacity* of a `Vec`, for primitives that
/// write every output element exactly once and therefore never need the
/// buffer pre-initialised (the `_into` scan/select variants).
///
/// # Safety contract
///
/// The wrapped region is uninitialised memory. During one launch every index
/// in `0..len` must be written exactly once before it is read, no two virtual
/// threads may touch the same index, and the caller must `set_len(len)` on
/// the vector only after the launch completes. The `Vec` must not be touched
/// (moved, grown, dropped) while the wrapper is alive.
pub struct UninitSlice<T> {
    ptr: *mut T,
    len: usize,
}

// SAFETY: access only through `unsafe` methods whose contract requires
// disjoint exactly-once writes; with that upheld, sharing the raw pointer
// across threads is sound for `T: Send`.
unsafe impl<T: Send> Sync for UninitSlice<T> {}
unsafe impl<T: Send> Send for UninitSlice<T> {}

impl<T> UninitSlice<T> {
    /// Clears `vec`, reserves room for `len` elements and wraps the spare
    /// capacity. The caller must `set_len(len)` after every index has been
    /// written.
    pub fn for_vec(vec: &mut Vec<T>, len: usize) -> Self {
        vec.clear();
        vec.reserve(len);
        Self {
            ptr: vec.as_mut_ptr(),
            len,
        }
    }

    /// Writes `value` at `index`.
    ///
    /// # Safety
    /// `index < len`, written exactly once per launch, and no other virtual
    /// thread touches `index` during this launch.
    #[inline]
    pub unsafe fn write(&self, index: usize, value: T) {
        debug_assert!(index < self.len);
        unsafe { self.ptr.add(index).write(value) };
    }

    /// Reads the element at `index`, which must already have been written
    /// by the *same* virtual thread during this launch.
    ///
    /// # Safety
    /// `index < len` and the slot was previously initialised by this thread.
    #[inline]
    pub unsafe fn read(&self, index: usize) -> T
    where
        T: Copy,
    {
        debug_assert!(index < self.len);
        unsafe { self.ptr.add(index).read() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scattered_writes_land() {
        let mut data = vec![0u32; 8];
        {
            let shared = SharedSlice::new(&mut data);
            // Disjoint indices, "parallel" in spirit.
            for i in 0..8 {
                unsafe { shared.write(7 - i, i as u32) };
            }
        }
        assert_eq!(data, vec![7, 6, 5, 4, 3, 2, 1, 0]);
    }

    #[test]
    fn read_back_is_consistent() {
        let mut data = vec![41u64, 42, 43];
        let shared = SharedSlice::new(&mut data);
        assert_eq!(unsafe { shared.read(1) }, 42);
        assert_eq!(shared.len(), 3);
        assert!(!shared.is_empty());
    }

    #[test]
    fn uninit_slice_fills_spare_capacity() {
        let mut v: Vec<u32> = vec![99; 3];
        {
            let u = UninitSlice::for_vec(&mut v, 5);
            for i in 0..5 {
                unsafe { u.write(i, i as u32 * 10) };
            }
            assert_eq!(unsafe { u.read(3) }, 30);
        }
        // SAFETY: all 5 indices written above.
        unsafe { v.set_len(5) };
        assert_eq!(v, vec![0, 10, 20, 30, 40]);
    }
}
