"""Local-search schedule improvement.

A post-processing pass applicable to any fixed-power schedule: try to
*empty the smallest color class* by reassigning each of its members
into some other class that still satisfies every SINR constraint; on
success the color disappears.  Repeats until a fixed point.

The pass never increases the number of colors and never breaks
feasibility, so it composes with every scheduler in this package
(first-fit, peeling, LP pipeline, distributed protocol output).

Move checks run as :class:`repro.core.kernels.ScheduleKernel` delta
checks: the kernel keeps every class's interference state dense, so
testing a move costs one vectorized pass (candidate margin against each
class plus every member's margin with the candidate's gain column
added), and a failed dissolution rolls back via the kernel's exact
(bitwise) copy-on-write snapshot, which copies only the class rows the
attempt touched.  Delta checks maintain sums incrementally, so they
agree with a fresh subset check only up to floating-point accumulation
order (~1e-16 relative, far inside the 1e-9 feasibility tolerance).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.context import get_context
from repro.core.instance import Instance
from repro.core.kernels import ScheduleKernel
from repro.core.schedule import Schedule, build_schedule


def _dissolve(kernel: ScheduleKernel, victim: int) -> bool:
    """Dissolve class *victim* with vectorized delta checks.

    One :meth:`ScheduleKernel.admissible_targets` pass per member
    scores every potential target class at once, and the member moves
    to the first admissible one in color order; failed attempts
    restore the pre-attempt state bitwise from a snapshot.
    """
    members = np.flatnonzero(kernel.colors == victim)
    snapshot = kernel.snapshot()
    # Every class is non-empty (the colors are compacted), so the
    # targets are all classes but the victim.
    targets = np.delete(np.arange(kernel.num_classes), victim)
    for request in members:
        hits = np.flatnonzero(kernel.admissible_targets(int(request))[targets])
        if hits.size == 0:
            kernel.restore(snapshot)
            return False
        kernel.move(int(request), int(targets[hits[0]]))
    return True


def improve_schedule(
    instance: Instance,
    schedule: Schedule,
    beta: Optional[float] = None,
    max_rounds: Optional[int] = None,
) -> Schedule:
    """Reduce *schedule*'s colors by dissolving small classes.

    Parameters
    ----------
    schedule:
        A feasible fixed-power schedule (validated before and after).
    max_rounds:
        Cap on dissolution attempts (defaults to the color count).

    Returns
    -------
    Schedule
        A feasible schedule with at most as many colors; powers are
        unchanged.
    """
    schedule.validate(instance, beta=beta)
    colors = schedule.compacted().colors
    powers = schedule.powers
    kernel = ScheduleKernel.from_colors(
        get_context(instance, powers), colors, beta=beta
    )
    if max_rounds is None:
        max_rounds = kernel.num_classes

    for _ in range(max_rounds):
        sizes = kernel.class_sizes
        if sizes.size <= 1:
            break
        # Try victims from the smallest class upward (color id breaks
        # ties); stop the round at the first success (classes change)
        # or give up entirely.
        dissolved = False
        for victim in np.argsort(sizes, kind="stable"):
            dissolved = _dissolve(kernel, int(victim))
            if dissolved:
                break
        if not dissolved:
            break
        # Re-compact so color ids stay dense.
        kernel.drop_empty_class(int(victim))

    improved = build_schedule(kernel.colors, powers)
    improved.validate(instance, beta=beta)
    return improved
