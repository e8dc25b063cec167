"""HiGHS's thread scheduler, global to a process, and its resets.

A run on another thread count than the running scheduler's fails ("Not
Set"). A forked child inherits the scheduler without its worker threads,
where even the same count may wait forever, and cannot reset it once it
has started a thread ("Invalid argument"). So ``highs_cli`` resets it
before each run, and the hook registered here resets it in every forked
child, before any thread starts there, if scipy's binding is loaded, by
whichever module. ``external`` imports this module, which loads neither
numpy nor the binding, so every process that forks solver hosts has the hook.
"""

import os
import sys

BINDING = "scipy.optimize._highspy._core"


def reset(core) -> None:
    """Reset the scheduler of the binding ``core``: the next run starts its own."""
    core._Highs.resetGlobalScheduler(True)


def _reset_inherited() -> None:
    """In a forked child, reset the loaded binding's scheduler, silently (a
    child may share its parent's stderr): the next run's reports a failure."""
    try:
        reset(sys.modules[BINDING])
    except Exception:
        pass


os.register_at_fork(after_in_child=_reset_inherited)
