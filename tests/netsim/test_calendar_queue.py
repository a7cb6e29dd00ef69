"""Ordering cases first written for the calendar-queue scheduler.

The kernel now has one scheduler, a binary heap, so these cases run
against it directly.  They pin the two promises the calendar queue had
to keep and the heap must still keep: five-way same-time ties dispatch
in schedule order, and a cancelled event never fires while its
neighbours do.
"""

from repro.netsim import EventKernel
from repro.obs import MetricsRegistry


def make():
    return EventKernel(metrics=MetricsRegistry())


def test_same_time_ties_dispatch_in_schedule_order():
    kernel = make()
    order = []
    for tag in "abcde":
        kernel.schedule(5.0, lambda tag=tag: order.append(tag))
    kernel.run()
    assert order == list("abcde")


def test_cancel_works_on_calendar_scheduler():
    kernel = make()
    fired = []
    keep = kernel.schedule(1.0, lambda: fired.append("keep"))
    drop = kernel.schedule(2.0, lambda: fired.append("drop"))
    kernel.cancel(drop)
    kernel.run()
    assert fired == ["keep"]
    assert keep != drop
