//! Thread spawning and joining, mirroring `std::thread`.
//!
//! [`spawn`] returns a [`JoinHandle`] with the `std` semantics: `join`
//! propagates the child's panic payload as `Err`. Under the model backend
//! a spawn and a join are each one schedule point, and a child that was
//! unwound by execution teardown makes `join` participate in the teardown
//! instead of returning a result.
//!
//! There is deliberately no `scope`: scoped borrows tie thread lifetimes to
//! a stack frame the controlled scheduler cannot park safely, so every
//! thread in the workspace goes through the model-checkable [`spawn`] (the
//! repo lint rejects `std::thread::scope` outside this crate).

pub use std::thread::Result;

#[cfg(feature = "model")]
use crate::rt;

/// An owned permission to join on a thread, mirroring
/// `std::thread::JoinHandle`.
pub struct JoinHandle<T> {
    imp: Imp<T>,
}

enum Imp<T> {
    Real(std::thread::JoinHandle<T>),
    #[cfg(feature = "model")]
    Model {
        tid: usize,
        real: std::thread::JoinHandle<Option<T>>,
    },
}

impl<T> JoinHandle<T> {
    /// Waits for the thread to finish, returning `Err` with the panic
    /// payload if it panicked.
    pub fn join(self) -> Result<T> {
        match self.imp {
            Imp::Real(h) => h.join(),
            #[cfg(feature = "model")]
            Imp::Model { tid, real } => {
                rt::op_join(tid);
                match real.join() {
                    Ok(Some(v)) => Ok(v),
                    Ok(None) => {
                        // The child was unwound by execution teardown; its
                        // failure (if it was the origin) is already
                        // recorded, so this thread just joins the teardown.
                        if std::thread::panicking() {
                            Err(Box::new("conc model execution aborted"))
                        } else {
                            rt::abort_unwind();
                            unreachable!("abort_unwind returns only while panicking")
                        }
                    }
                    Err(payload) => Err(payload),
                }
            }
        }
    }

    /// Whether the thread has finished running (never a schedule point).
    pub fn is_finished(&self) -> bool {
        match &self.imp {
            Imp::Real(h) => h.is_finished(),
            #[cfg(feature = "model")]
            Imp::Model { real, .. } => real.is_finished(),
        }
    }
}

impl<T> std::fmt::Debug for JoinHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinHandle").finish_non_exhaustive()
    }
}

/// Spawns a new thread, mirroring `std::thread::spawn`. One schedule point
/// under the model backend; the child's first instruction is its own
/// schedule point, so the explorer can run parent and child in either
/// order from the start.
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    #[cfg(feature = "model")]
    let f = match rt::op_spawn(f) {
        Ok((tid, real)) => {
            return JoinHandle {
                imp: Imp::Model { tid, real },
            };
        }
        Err(f) => f,
    };
    JoinHandle {
        imp: Imp::Real(std::thread::spawn(f)),
    }
}

/// Cooperatively yields. A pure schedule point under the model backend (it
/// has no semantic effect, but gives the explorer a place to preempt).
pub fn yield_now() {
    #[cfg(feature = "model")]
    rt::op_yield();
    std::thread::yield_now();
}

/// The number of hardware threads, mirroring
/// `std::thread::available_parallelism`.
pub fn available_parallelism() -> std::io::Result<std::num::NonZeroUsize> {
    std::thread::available_parallelism()
}
