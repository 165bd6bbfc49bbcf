"""Reducing many states a run at a time, so they are never all held."""

from __future__ import annotations


def reduce_in_runs(form, energies, dim, reduce, block):
    """Concatenated reduce(energies[run], states) over consecutive runs of
    the columns of `energies`.

    form(run) builds the run's states as C-contiguous rows of `dim`
    entries; reduce gets them one column per state and returns one value
    per state.  A run holds at most block // dim states (one at least), or
    every state when block is None.
    """
    count = len(energies)
    step = max(1, count if block is None else block // dim)
    out = []
    for lo in range(0, count, step):
        run = slice(lo, lo + step)
        out.extend(reduce(energies[run], form(run).T))
    return out
