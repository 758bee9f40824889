//! Fibers: the stacks simulated processes run on, and the one context
//! switch between them — the only `unsafe` code in the crate.
//!
//! A [`Fiber`] is a body with a stack of its own, run on the thread that
//! resumes it. [`Fiber::resume`] hands it an input and switches to its
//! stack; the body runs until it calls [`Suspender::suspend`] with an
//! output, or returns, and the resumer's `resume` returns that. Nothing
//! here is preemptive and nothing crosses a thread: a `Fiber` is neither
//! `Send` nor `Sync`, so it is only ever resumed on the thread that made
//! it, and its stack comes from that thread's pool.
//!
//! **The switch** (`switch`) is one naked function: it pushes the
//! callee-saved registers of the x86-64 System V ABI (`rbx`, `rbp`,
//! `r12`–`r15`) and the control state a Rust function may rely on (MXCSR
//! and the x87 control word), stores the stack pointer, loads the other
//! side's, and pops the same. Every other register is caller-saved, so the
//! call of `switch` itself tells the compiler they are clobbered. A fresh
//! stack is laid out so that the first switch to it "returns" into
//! `entry` with a null return address above: the unwinder's walk and a
//! frame-pointer walk both end at the fiber's root frame.
//!
//! **Stacks** are 2 MiB, std's default for a thread, mapped with a
//! `PROT_NONE` guard page below them; an overflow faults on the guard
//! instead of writing into a neighbour. A stack goes back to its thread's
//! pool when its body has returned, and the next fiber of the same name
//! takes it (else the one idle longest), so the pages a role dirtied stay
//! with that role. A fiber dropped while suspended mid-body (a kernel
//! dropped while its thread unwinds a panic) leaks its stack: the frames
//! on it still own what they hold, and running them is not safe there.
//!
//! A body's panic does not cross the switch: `entry` catches it and
//! `resume` re-raises it on the resumer.
//!
//! **Inlining.** Right after a switch the CPU's return-address predictor
//! still holds the other stack's frames, so each return the new side makes
//! before it calls deeper again is mispredicted. `resume` and `suspend` are
//! therefore `#[inline(always)]`, as are their callers in the kernel
//! (`resume_fiber`, `Ctx::call`): on `rpc_small` that took `cpu_s` from
//! ≈ 0.10 to ≈ 0.08 s.

#![expect(
    unsafe_code,
    reason = "a stackful context switch has no safe expression: the switch, the stack mapping and the fibers' transfer cells live in this one module, behind the safe Fiber/Suspender API, which checks what they rely on; audited 2026-10, expiry 2027-06"
)]

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!(
    "simnet runs simulated processes as fibers with an x86-64 System V context switch on \
     mmap'd stacks: it builds for x86-64 Linux only"
);

use std::any::Any;
use std::cell::{Cell, RefCell, UnsafeCell};
use std::ffi::{c_int, c_long, c_void};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::ptr::NonNull;
use std::rc::Rc;

/// Usable bytes of a fiber stack: std's default for a spawned thread.
const STACK_BYTES: usize = 2 << 20;
/// The guard page below each stack.
const GUARD_BYTES: usize = 4096;
/// MXCSR with every exception masked and round-to-nearest, and the x87
/// control word likewise: the values a fresh thread starts with.
const MXCSR_DEFAULT: u64 = 0x1F80;
const X87_CW_DEFAULT: u64 = 0x037F;

/// What a fiber hands its resumer.
pub(crate) enum Step<O> {
    /// The body called [`Suspender::suspend`]; resume it for more.
    Yielded(O),
    /// The body returned; the fiber is done and its stack is back in the
    /// pool.
    Returned(O),
}

/// A fiber's `Link`, shared by the fiber and its suspender so that it
/// outlives both: a suspender that escapes its body never meets its
/// link's address reused by another fiber.
type LinkRc<I, O> = Rc<UnsafeCell<Link<I, O>>>;

/// The state both sides of a fiber reach through one pointer: the saved
/// stack pointers and the transfer slots. Only the side that is running
/// touches it, so no reference to it is ever held across a switch.
struct Link<I, O> {
    /// The fiber's stack pointer while it is suspended.
    fiber_sp: usize,
    /// The resumer's stack pointer while the fiber runs.
    caller_sp: usize,
    /// The body, with its suspender, until the first resume moves it onto
    /// the fiber's stack.
    body: Option<Box<dyn FnOnce(I) -> O>>,
    input: Option<I>,
    output: Option<Result<Step<O>, Box<dyn Any + Send>>>,
}

thread_local! {
    /// The `Link` of the fiber running on this thread; null on the
    /// thread's own stack.
    static CURRENT: Cell<*const ()> = const { Cell::new(std::ptr::null()) };
    /// Idle stacks, each with the name of the fiber that ran on it last,
    /// longest idle first.
    static POOL: RefCell<Vec<(String, Stack)>> = const { RefCell::new(Vec::new()) };
}

/// A body on a stack of its own. See the module docs.
pub(crate) struct Fiber<I, O> {
    link: LinkRc<I, O>,
    /// `None` once the body has returned and the stack is back in the pool.
    stack: Option<(String, Stack)>,
    started: bool,
}

/// The body's handle for [`Suspender::suspend`]. It works only while its
/// own fiber runs, on that fiber's stack.
pub(crate) struct Suspender<I, O> {
    link: LinkRc<I, O>,
}

impl<I: 'static, O: 'static> Fiber<I, O> {
    /// A fiber that runs `body` at its first [`Fiber::resume`], on the
    /// idle stack `name` ran on last, else the one idle longest, else a
    /// newly mapped one. Returns the fiber and whether a stack was mapped.
    pub(crate) fn new(
        name: &str,
        body: impl FnOnce(I, Suspender<I, O>) -> O + 'static,
    ) -> std::io::Result<(Self, bool)> {
        let idle = POOL.with(|pool| {
            let mut pool = pool.borrow_mut();
            let at = pool.iter().position(|(n, _)| n == name).unwrap_or(0);
            (at < pool.len()).then(|| pool.remove(at).1)
        });
        let (stack, mapped) = match idle {
            Some(stack) => (stack, false),
            None => (Stack::map()?, true),
        };
        let link = Rc::new(UnsafeCell::new(Link {
            fiber_sp: stack.initial_sp(entry::<I, O>),
            caller_sp: 0,
            body: None,
            input: None,
            output: None,
        }));
        let suspender = Suspender {
            link: Rc::clone(&link),
        };
        let body: Box<dyn FnOnce(I) -> O> = Box::new(move |input| body(input, suspender));
        // SAFETY: nothing runs on the fiber yet; this is the only access.
        unsafe { (*link.get()).body = Some(body) };
        let fiber = Fiber {
            link,
            stack: Some((name.to_string(), stack)),
            started: false,
        };
        Ok((fiber, mapped))
    }

    /// Run the body with `input` until it suspends or returns; `None` if
    /// it had already returned. A panic that escapes the body is re-raised
    /// here.
    #[inline(always)]
    pub(crate) fn resume(&mut self, input: I) -> Option<Step<O>> {
        self.stack.as_ref()?;
        let link = self.link.get();
        // SAFETY: `self` holds the link, so it is valid. The body is not
        // running: while it runs, the resumer's `&mut self` borrow is live,
        // so no second resume and no drop can reach this fiber. Nothing
        // else accesses the link.
        unsafe { (*link).input = Some(input) };
        self.started = true;
        let outer = CURRENT.replace(link.cast_const().cast());
        // SAFETY: `fiber_sp` is the stack pointer the fiber saved when it
        // last suspended, or the initial frame `new` laid out, on a stack
        // this fiber owns and has not given back (`self.stack` is `Some`).
        // `caller_sp` is where the fiber finds its way back here. The
        // fiber never touches `self` (only the link), and it switches back
        // only by `Suspender::suspend` or at the end of `entry`, both of
        // which leave this frame exactly as `switch` found it.
        unsafe { switch(link as usize, (*link).fiber_sp, &raw mut (*link).caller_sp) };
        CURRENT.set(outer);
        // SAFETY: as above; the fiber is suspended or done again.
        let output = unsafe { (*link).output.take() };
        match output {
            Some(Ok(Step::Yielded(o))) => Some(Step::Yielded(o)),
            Some(Ok(Step::Returned(o))) => {
                self.give_back();
                Some(Step::Returned(o))
            }
            Some(Err(payload)) => {
                self.give_back();
                resume_unwind(payload)
            }
            // The fiber always leaves an output before it switches back.
            None => std::process::abort(),
        }
    }

    /// The body has returned: its stack goes back to the pool.
    fn give_back(&mut self) {
        if let Some(idle) = self.stack.take() {
            release(idle);
        }
    }
}

impl<I, O> Drop for Fiber<I, O> {
    fn drop(&mut self) {
        if let Some(idle) = self.stack.take() {
            if self.started {
                // Suspended mid-body: its frames still own what they hold
                // and may be referred to; never run, unmap or reuse them.
                std::mem::forget(idle);
            } else {
                release(idle);
            }
        }
        // SAFETY: the body is not running (`drop` has `&mut self`) and never
        // will again. Dropping an unstarted body drops its suspender, which
        // would otherwise keep the link alive from inside it.
        let body = unsafe { (*self.link.get()).body.take() };
        drop(body);
    }
}

/// Put an idle stack back in this thread's pool; a thread tearing down its
/// locals unmaps it instead.
fn release(idle: (String, Stack)) {
    let mut idle = Some(idle);
    let pooled = POOL.try_with(|pool| pool.borrow_mut().extend(idle.take()));
    drop((pooled, idle));
}

impl<I, O> Suspender<I, O> {
    /// Hand `output` to the resumer and wait for the next input. `None`
    /// when called anywhere but on this suspender's own running fiber.
    #[inline(always)]
    pub(crate) fn suspend(&self, output: O) -> Option<I> {
        let link = self.link.get();
        if CURRENT.get() != link.cast_const().cast() {
            return None;
        }
        // SAFETY: `CURRENT` is this link (alive: `self` holds it), so this
        // code runs on its fiber, which `Fiber::resume` is resuming; the
        // resumer waits inside `switch`, so nothing else accesses the
        // link. `caller_sp` is the resumer's saved stack pointer; it
        // returns from its `switch` and reads `output`.
        unsafe {
            (*link).output = Some(Ok(Step::Yielded(output)));
            switch(0, (*link).caller_sp, &raw mut (*link).fiber_sp);
            (*link).input.take()
        }
    }
}

/// A fiber's first frame: run the body, leave its result in the link and
/// switch back for good.
///
/// # Safety
///
/// Only `switch` calls this, on a stack laid out by `Stack::initial_sp`,
/// with `link` the fiber's live `Link<I, O>` whose resumer waits in
/// `switch`.
unsafe extern "sysv64" fn entry<I, O>(link: usize, _: usize, _: usize) -> ! {
    let link = link as *mut Link<I, O>;
    // SAFETY: per this function's contract, the resumer waits and the
    // link is valid; this first resume has just stored the input.
    let (body, input) = unsafe { ((*link).body.take(), (*link).input.take()) };
    let result = catch_unwind(AssertUnwindSafe(move || match (body, input) {
        (Some(body), Some(input)) => body(input),
        // `new` stores the body and `resume` the input.
        _ => std::process::abort(),
    }));
    let output = match result {
        Ok(o) => Ok(Step::Returned(o)),
        Err(payload) => Err(payload),
    };
    let mut gone = 0usize;
    // SAFETY: the link is valid (contract), and every value this frame
    // owned has been moved into it: nothing on this stack is left to drop,
    // and the resumer never switches here again.
    unsafe {
        (*link).output = Some(output);
        switch(0, (*link).caller_sp, &raw mut gone);
    }
    std::process::abort()
}

/// Save this side's callee-saved state on its stack, store its stack
/// pointer at `save`, load `to` and restore the other side's; return `arg`
/// there (to a fresh fiber, `entry` receives it as its first argument).
///
/// # Safety
///
/// `to` must be a stack pointer saved by `switch` on a stack that is still
/// mapped and whose frames are live, or `Stack::initial_sp`'s fresh frame;
/// `save` must be writable.
#[unsafe(naked)]
unsafe extern "sysv64" fn switch(arg: usize, to: usize, save: *mut usize) -> usize {
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
        "mov [rdx], rsp",
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
        "mov rax, rdi",
        "ret",
    )
}

/// One mapped fiber stack: `[base, base + GUARD_BYTES)` is the guard page,
/// the rest is the stack, which grows down from `base + len`.
struct Stack {
    base: NonNull<c_void>,
    len: usize,
}

const PROT_NONE: c_int = 0;
const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
const MAP_NORESERVE: c_int = 0x4000;
const MAP_STACK: c_int = 0x2_0000;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        off: c_long,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

impl Stack {
    fn map() -> std::io::Result<Stack> {
        let len = GUARD_BYTES + STACK_BYTES;
        let flags = MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK;
        // SAFETY: an anonymous private mapping at an address of the
        // kernel's choosing aliases nothing.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                flags,
                -1,
                0,
            )
        };
        if base as usize == usize::MAX {
            return Err(std::io::Error::last_os_error());
        }
        let Some(base) = NonNull::new(base) else {
            return Err(std::io::Error::other("mmap returned null"));
        };
        let stack = Stack { base, len };
        // SAFETY: the first page of the mapping just made.
        if unsafe { mprotect(base.as_ptr(), GUARD_BYTES, PROT_NONE) } != 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(stack)
    }

    /// Lay out the frame the first `switch` to this stack pops: the saved
    /// MXCSR and x87 control word, six zeroed callee-saved registers, the
    /// address of `entry`, and a null return address for `entry`'s frame.
    /// Returns the stack pointer to switch to.
    fn initial_sp(&self, entry: unsafe extern "sysv64" fn(usize, usize, usize) -> !) -> usize {
        let top = self.base.as_ptr() as usize + self.len;
        let frame: [u64; 9] = [
            MXCSR_DEFAULT | (X87_CW_DEFAULT << 32),
            0, // r15
            0, // r14
            0, // r13
            0, // r12
            0, // rbx
            0, // rbp
            entry as usize as u64,
            0, // entry's return address: the end of every stack walk
        ];
        let sp = top - std::mem::size_of_val(&frame);
        // SAFETY: `[sp, top)` is the top of this stack's writable part,
        // which no frame uses yet. `top` is page-aligned, so `sp` is
        // 8-aligned and `entry` starts with the stack 16-byte aligned less
        // one return address, as on any call.
        unsafe { std::ptr::write(sp as *mut [u64; 9], frame) };
        sp
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: the whole mapping `map` made; no fiber runs on it (a
        // suspended fiber's stack is forgotten, never dropped).
        // A failure leaves the pages mapped: a leak, not a fault.
        unsafe { munmap(self.base.as_ptr(), self.len) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_and_outputs_alternate_until_the_body_returns() {
        let (mut fiber, _) = Fiber::new("echo", |first: u32, s: Suspender<u32, u32>| {
            let mut sum = first;
            while let Some(next) = s.suspend(sum) {
                if next == 0 {
                    break;
                }
                sum += next;
            }
            sum * 10
        })
        .expect("map a stack");
        let mut seen = Vec::new();
        for input in [1, 2, 3, 0] {
            match fiber.resume(input) {
                Some(Step::Yielded(o)) => seen.push(o),
                Some(Step::Returned(o)) => seen.push(o + 1000),
                None => seen.push(u32::MAX),
            }
        }
        assert!(fiber.resume(5).is_none(), "a returned fiber runs no more");
        assert_eq!(seen, [1, 3, 6, 1060]);
    }

    #[test]
    fn a_body_panic_is_raised_by_resume_and_the_stack_is_reused() {
        let (mut fiber, _) = Fiber::new("boom", |_: (), _: Suspender<(), ()>| {
            std::panic::panic_any(7u8)
        })
        .expect("map a stack");
        let payload = catch_unwind(AssertUnwindSafe(|| fiber.resume(())))
            .err()
            .and_then(|p| p.downcast::<u8>().ok());
        assert_eq!(payload.as_deref(), Some(&7));
        drop(fiber);
        let (mut again, mapped) =
            Fiber::new("boom", |(), _: Suspender<(), ()>| {}).expect("a pooled stack");
        assert!(!mapped, "the returned stack is taken again");
        assert!(matches!(again.resume(()), Some(Step::Returned(()))));
    }

    #[test]
    fn a_suspender_works_only_on_its_own_running_fiber() {
        let kept = Rc::new(RefCell::new(None));
        let k = Rc::clone(&kept);
        let (mut fiber, _) = Fiber::new("keep", move |(), s: Suspender<(), ()>| {
            *k.borrow_mut() = Some(s);
        })
        .expect("map a stack");
        assert!(matches!(fiber.resume(()), Some(Step::Returned(()))));
        drop(fiber);
        let escaped = kept
            .borrow_mut()
            .take()
            .expect("the body kept its suspender");
        assert!(escaped.suspend(()).is_none(), "on no fiber");
        let (mut other, _) = Fiber::new("keep", move |(), _: Suspender<(), bool>| {
            escaped.suspend(()).is_none()
        })
        .expect("a pooled stack");
        assert!(
            matches!(other.resume(()), Some(Step::Returned(true))),
            "on another fiber"
        );
    }

    #[test]
    fn float_control_state_is_per_fiber() {
        // Round toward zero on this side; the fiber starts with the default
        // (round to nearest) and keeps it across switches.
        fn mxcsr() -> u32 {
            let mut v = 0u32;
            // SAFETY: stores MXCSR into a local.
            unsafe { std::arch::asm!("stmxcsr [{}]", in(reg) &raw mut v) };
            v
        }
        fn set_mxcsr(v: u32) {
            // SAFETY: loads a valid MXCSR value (all exceptions masked).
            unsafe { std::arch::asm!("ldmxcsr [{}]", in(reg) &raw const v) };
        }
        let before = mxcsr();
        set_mxcsr(before | 0x6000);
        let (mut fiber, _) = Fiber::new("fp", |(), s: Suspender<(), u32>| {
            let first = mxcsr();
            s.suspend(first);
            mxcsr()
        })
        .expect("map a stack");
        let inside = fiber.resume(());
        let here = mxcsr();
        let again = fiber.resume(());
        set_mxcsr(before);
        assert!(matches!(inside, Some(Step::Yielded(0x1F80))));
        assert_eq!(here & 0x6000, 0x6000);
        assert!(matches!(again, Some(Step::Returned(0x1F80))));
    }
}
