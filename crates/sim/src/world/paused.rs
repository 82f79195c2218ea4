//! A run paused at the `k`-th execution of one `External` site.
//!
//! Under one seed, a run armed with `exact(site, k, exc)` is the fault-free
//! run until `Fir::trace_site` of the site's `k`-th execution: an armed
//! site that does not match costs what an unarmed one does (DESIGN.md
//! §13). It diverges only at the decision that follows. A [`PausedRun`] is
//! that run stopped in between, and runs that share the prefix branch off
//! copies of it instead of simulating it again:
//!
//! - [`PausedRun::inject`] throws there and runs on to a horizon or to the
//!   end: the fresh `exact(site, k, exc)` run, cut at that horizon;
//! - [`PausedRun::pass_to`] lets the execution proceed and stops again at a
//!   later occurrence, or runs the fault-free run to its end.
//!
//! The run is armed at the site, so the step leaves the slice loop as
//! `Cold::Armed`, where the pause is checked; the pause then leaves the
//! slice, the lone-runner chain and the event loop the way an error does,
//! through the `?` each of them already has, so none of them checks
//! anything more. Going on is what the run would
//! have done had it not stopped: the decision, the rest of the interrupted
//! slice with its `left` and `elapsed`, the lone-runner chain, the event
//! loop. Copies are made where they are consumed; nothing here keeps or
//! indexes one.

use super::*;
use anduril_ir::{ExceptionType, SiteKind};

/// A run stopped between `traceSite` and the decision of the `k`-th
/// execution of an `External` site (see the module docs). Clone it to
/// branch: each copy goes on on its own.
#[derive(Clone)]
pub struct PausedRun<'p> {
    world: Box<World<'p>>,
    /// The occurrence the run stands at.
    occurrence: u32,
}

/// Where a run that was to pause at an occurrence got to.
pub enum Reached<'p> {
    /// It stands at that occurrence.
    Paused(PausedRun<'p>),
    /// The site executed fewer times than that: the run went on to its end
    /// and injected nothing. It is the fault-free run, and its
    /// `site_occurrences` say how many executions there were.
    Ended(Box<RunResult>),
}

impl<'p> PausedRun<'p> {
    /// Runs the scenario under `cfg` up to the `occurrence`-th execution of
    /// `site` and stops there, before deciding it; `exc` is what
    /// [`PausedRun::inject`] throws. Only the register VM pauses, and only
    /// at an `External` site: anything else is [`SimError::Internal`].
    pub fn start(
        program: &'p Program,
        compiled: &'p CompiledProgram,
        topo: &Topology,
        cfg: &SimConfig,
        site: SiteId,
        occurrence: u32,
        exc: ExceptionType,
    ) -> Result<Reached<'p>, SimError> {
        if cfg.engine != Engine::Vm {
            return Err(SimError::Internal(
                "only the register VM pauses a run".into(),
            ));
        }
        if program.sites.get(site.index()).map(|s| s.kind) != Some(SiteKind::External) {
            return Err(SimError::Internal(format!(
                "a run pauses at an external call, and site {} is none",
                site.index()
            )));
        }
        let plan = InjectionPlan::exact(site, occurrence, exc);
        let mut world = Box::new(World::new(program, compiled, topo, cfg, plan)?);
        world.pause_at = Some(occurrence);
        let driven = world.drive_events();
        Self::reached(world, occurrence, driven)
    }

    /// Where a run driven towards `occurrence` got to, `driven` being how
    /// the driving ended.
    fn reached(
        world: Box<World<'p>>,
        occurrence: u32,
        driven: Sim<()>,
    ) -> Result<Reached<'p>, SimError> {
        match driven {
            Ok(()) => Ok(Reached::Ended(Box::new(world.finish()))),
            Err(_) if world.paused.is_some() => {
                Ok(Reached::Paused(PausedRun { world, occurrence }))
            }
            Err(e) => Err(*e),
        }
    }

    /// The occurrence the run stands at.
    pub fn occurrence(&self) -> u32 {
        self.occurrence
    }

    /// The steps the run took to get here.
    pub fn steps(&self) -> u64 {
        self.world.steps
    }

    /// Throws at this occurrence and runs on until quiescence, the step
    /// limit or `horizon` (`SimConfig::max_time`; the configuration's own
    /// if that is sooner). The result is the fresh `exact(site, k, exc)`
    /// run under that horizon. A horizon before the interrupted slice
    /// began is one that run would never have got here under:
    /// [`SimError::Internal`].
    pub fn inject(mut self, horizon: u64) -> Result<RunResult, SimError> {
        let world = &mut self.world;
        if horizon < world.clock {
            return Err(SimError::Internal(format!(
                "horizon {horizon} is before the paused slice, at {}",
                world.clock
            )));
        }
        world.cfg.max_time = world.cfg.max_time.min(horizon);
        // Nothing is armed to pause at: every error is the run's own.
        world.pause_at = None;
        world.resume().map_err(|e| *e)?;
        Ok(self.world.finish())
    }

    /// Lets this execution and every one before `occurrence` proceed, and
    /// stops again at that one; an occurrence past the site's last runs the
    /// fault-free run to its end. `occurrence` must lie ahead.
    pub fn pass_to(mut self, occurrence: u32) -> Result<Reached<'p>, SimError> {
        if occurrence <= self.occurrence {
            return Err(SimError::Internal(format!(
                "a run paused at occurrence {} cannot pass to {occurrence}",
                self.occurrence
            )));
        }
        self.world.fir.retarget(occurrence);
        self.world.pause_at = Some(occurrence);
        let driven = self.world.resume();
        Self::reached(self.world, occurrence, driven)
    }
}

impl World<'_> {
    /// Stops the run at `at`: the slice loop returns what this hands back
    /// as its error, and `paused` tells it from a real one.
    #[cold]
    pub(super) fn pause(&mut self, at: Interrupted) -> Box<SimError> {
        self.paused = Some(at);
        internal("paused")
    }

    /// Goes on from the step the run paused in, as the run would have had
    /// it not stopped: the decision, the rest of the slice, the thread's
    /// lone-runner chain, the event loop.
    fn resume(&mut self) -> Sim<()> {
        let Some(Interrupted {
            tid,
            site,
            left,
            elapsed,
        }) = self.paused.take()
        else {
            return Err(internal("resuming a run that did not pause"));
        };
        self.throw_if_enabled(tid, site, elapsed)?;
        self.count_step()?;
        if let ThreadStatus::Runnable = self.threads[tid].status {
            if let Some(delay) = self.slice_vm(tid, left, elapsed)? {
                if self.run_again(tid, delay) {
                    self.run_thread(tid)?;
                }
            }
        }
        self.drive_events()
    }
}
