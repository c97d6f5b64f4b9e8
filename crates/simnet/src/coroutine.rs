//! Stackful coroutines: the machine-level half of simulated processes.
//!
//! Each process runs on a [`Stack`] of its own, on the thread that called
//! `Sim::run*`. Passing the turn from one stack to another is [`switch`]:
//! it saves the callee-saved registers, MXCSR and the x87 control word on
//! the running stack, records that stack's pointer in its [`Context`], and
//! loads the other's — a few dozen instructions, no system call. Everything
//! above this module (who runs next, what message it finds) lives in
//! [`crate::process`] and [`crate::engine`].

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!("simnet's process coroutines are written for x86_64 Linux only");

use std::cell::Cell;
use std::ffi::c_void;
use std::sync::atomic::{AtomicPtr, Ordering};

/// Usable stack per process: std's default thread stack size. Pages are
/// committed only as the process touches them.
const STACK_SIZE: usize = 2 << 20;
/// An inaccessible page below each stack, so that an overflow faults
/// instead of running into the neighbouring mapping.
const GUARD_SIZE: usize = 4096;

/// MXCSR and x87 control word a new stack starts with: every exception
/// masked, round to nearest (the values a program starts with).
const MXCSR_DEFAULT: usize = 0x1F80;
const FPUCW_DEFAULT: usize = 0x037F;

const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
/// Reserve no swap for the pages a process never touches.
const MAP_NORESERVE: i32 = 0x4000;
/// A stack, as glibc maps thread stacks: Linux 6.7 and later back it with
/// no transparent huge page, which would commit 2 MiB at the first touch.
const MAP_STACK: i32 = 0x2_0000;

extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
}

/// An `mmap`'d process stack with a `PROT_NONE` guard page at its low end.
pub(crate) struct Stack {
    base: *mut u8,
}

// SAFETY: `base` is the start of a private anonymous mapping that this
// value alone owns and unmaps; the memory has no affinity to a thread.
unsafe impl Send for Stack {}

impl Stack {
    pub(crate) fn new() -> Stack {
        let len = GUARD_SIZE + STACK_SIZE;
        // SAFETY: a fresh anonymous mapping at an address of the kernel's
        // choosing touches no existing memory; the result is checked.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            )
        };
        assert!(
            base as isize != -1,
            "mmap of a process stack failed: {}",
            std::io::Error::last_os_error()
        );
        // SAFETY: the guard page is the first page of the mapping just made.
        let guarded = unsafe { mprotect(base, GUARD_SIZE, PROT_NONE) };
        assert_eq!(
            guarded,
            0,
            "mprotect of a stack guard page failed: {}",
            std::io::Error::last_os_error()
        );
        Stack { base: base.cast() }
    }

    /// One past the highest usable byte (16-byte aligned).
    fn top(&self) -> *mut u8 {
        self.base.wrapping_add(GUARD_SIZE + STACK_SIZE)
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: `base` and the length are those of the mapping `new`
        // made, and no context runs on it any more (its owner guarantees
        // the coroutine finished or never will be resumed).
        unsafe { munmap(self.base.cast(), GUARD_SIZE + STACK_SIZE) };
    }
}

/// Where a suspended stack resumes: the stack pointer it saved when it
/// switched away (or the frame [`Context::start_on`] laid out).
pub(crate) struct Context {
    sp: AtomicPtr<u8>,
}

impl Context {
    /// A context with nothing saved yet: the running stack's, filled in the
    /// first time it switches away, until [`Context::start_on`] prepares it.
    pub(crate) fn new() -> Context {
        Context {
            sp: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    /// Lay out on `stack` the frame that, when this context is switched
    /// to, calls `entry(arg)` there. `entry` must never return: it ends by
    /// switching away for good.
    pub(crate) fn start_on(&self, stack: &Stack, entry: extern "C" fn(*mut u8) -> !, arg: *mut u8) {
        // The frame `switch_stack` pops, from the lowest address: MXCSR and
        // the x87 control word, r15, r14, r13, r12, rbx, rbp, return address.
        let frame: [usize; 8] = [
            FPUCW_DEFAULT << 32 | MXCSR_DEFAULT,
            0,
            0,
            entry as usize,
            arg as usize,
            0,
            0,
            start_trampoline as *const () as usize,
        ];
        let sp = stack.top().wrapping_sub(std::mem::size_of_val(&frame));
        // SAFETY: the frame fits in the top 64 bytes of the stack's
        // writable mapping, and `top` is page-aligned.
        unsafe { sp.cast::<[usize; 8]>().write(frame) };
        self.sp.store(sp, Ordering::Relaxed);
    }
}

thread_local! {
    /// The running stack's task slot ([`crate::process::with_task_slot`]).
    /// [`switch`] keeps each stack's value across its suspensions; a new
    /// process stack clears it before it runs anything.
    pub(crate) static TASK_SLOT: Cell<*const ()> = const { Cell::new(std::ptr::null()) };
}

/// Suspend the running stack, saving it into `from`, and resume `to`.
/// Returns when another stack switches back to `from`.
///
/// # Safety
///
/// `from` must be the context of the running stack, and `to` that of a
/// suspended stack that is still mapped, suspended in `switch` or never
/// started (from [`Context::start_on`]); neither stack may be resumed on
/// another thread.
pub(crate) unsafe fn switch(from: &Context, to: &Context) {
    let slot = TASK_SLOT.get();
    // SAFETY: the caller's guarantees are `switch_stack`'s.
    unsafe { switch_stack(from.sp.as_ptr(), to.sp.load(Ordering::Relaxed)) };
    TASK_SLOT.set(slot);
}

/// Push the callee-saved state, store the stack pointer at `*save`, load
/// `to`, pop the state saved there and return into that stack.
///
/// # Safety
///
/// As [`switch`]: `to` holds a frame pushed by this function or laid out
/// by [`Context::start_on`].
#[unsafe(naked)]
unsafe extern "C" fn switch_stack(save: *mut *mut u8, to: *mut u8) {
    std::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// Where a new stack's first switch returns to: calls the entry function
/// (r13) with its argument (r12). The stack pointer is 16-byte aligned
/// here, as the call needs; the entry never returns.
#[unsafe(naked)]
unsafe extern "C" fn start_trampoline() {
    std::arch::naked_asm!("mov rdi, r12", "call r13", "ud2")
}
